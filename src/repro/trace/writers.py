"""Trace writers: internal CSV, MSRC CSV, and a blktrace-like text dump.

The internal CSV format round-trips every column a
:class:`~repro.trace.trace.BlockTrace` can carry and is the format the
reconstruction pipeline uses to persist remastered traces, mirroring the
paper's published download bundle.
"""

from __future__ import annotations

from collections.abc import Iterator
from pathlib import Path
from typing import TextIO

import numpy as np

from .record import SECTOR_BYTES, OpType
from .trace import BlockTrace

__all__ = [
    "iter_csv_chunks",
    "iter_csv_rows",
    "write_csv",
    "write_msrc",
    "write_blktrace_text",
    "dump_trace",
]


#: Rows rendered per ``%``-format call.  One call boxes about six
#: Python objects per row, so a 4096-row chunk keeps the transient
#: memory near 1 MB while still amortising the call overhead.
CSV_CHUNK_ROWS = 4096

#: ``%c`` code points of the op column: ``ord("R") + op * (ord("W") - ord("R"))``.
_OP_R = ord("R")
_OP_STEP = ord("W") - ord("R")


def iter_csv_chunks(trace: BlockTrace, header: bool = True) -> Iterator[str]:
    """Yield the internal CSV format as text blocks.

    The header line comes first when ``header`` is true.  Each data
    block renders up to :data:`CSV_CHUNK_ROWS` rows, every row ending in
    ``"\\n"``, with one ``%``-format of a repeated row template over the
    chunk's columns (each taken to a list once with ``tolist()``).
    ``%.3f`` and ``format(x, ".3f")`` share CPython's double-to-text
    conversion, and ``%d`` of an int or bool equals ``str(int(x))``, so
    the text is byte-identical to formatting row by row.
    """
    if header:
        columns = ["timestamp_us", "lba", "size_sectors", "op"]
        if trace.has_device_times:
            columns += ["issue_us", "complete_us"]
        if trace.has_sync_flags:
            columns.append("sync")
        yield ",".join(columns) + "\n"
    n = len(trace)
    if n == 0:
        return
    ops = trace.ops
    bad = (ops != 0) & (ops != 1)
    if bad.any():
        raise ValueError(f"{int(ops[np.argmax(bad)])} is not a valid OpType")
    columns = [trace.timestamps, trace.lbas, trace.sizes, ops * _OP_STEP + _OP_R]
    row = "%.3f,%d,%d,%c"
    if trace.has_device_times:
        assert trace.issues is not None and trace.completes is not None
        columns += [trace.issues, trace.completes]
        row += ",%.3f,%.3f"
    if trace.has_sync_flags:
        assert trace.syncs is not None
        columns.append(trace.syncs)
        row += ",%d"
    row += "\n"
    width = len(columns)
    for lo in range(0, n, CSV_CHUNK_ROWS):
        hi = min(n, lo + CSV_CHUNK_ROWS)
        flat: list = [None] * ((hi - lo) * width)
        for j, column in enumerate(columns):
            flat[j::width] = column[lo:hi].tolist()
        yield (row * (hi - lo)) % tuple(flat)


def iter_csv_rows(trace: BlockTrace) -> Iterator[str]:
    """Yield header + data rows of the internal CSV format.

    The lines of :func:`iter_csv_chunks` without their line ends, so
    joining them with ``"\\n"`` (plus a final one) gives
    :func:`write_csv`'s bytes.
    """
    for block in iter_csv_chunks(trace):
        yield from block[:-1].split("\n")


def write_csv(trace: BlockTrace, target: TextIO) -> None:
    """Write ``trace`` in the internal CSV format to an open text file."""
    for block in iter_csv_chunks(trace):
        target.write(block)


def write_msrc(trace: BlockTrace, target: TextIO) -> None:
    """Write ``trace`` as MSR Cambridge CSV rows.

    Requires device stamps (MSRC traces always have a response time).
    Timestamps are emitted as Windows filetime ticks (100 ns).
    """
    if not trace.has_device_times:
        raise ValueError("MSRC format requires issue/completion stamps")
    assert trace.issues is not None and trace.completes is not None
    host = trace.name or "host"
    for i in range(len(trace)):
        ticks = int(round(trace.timestamps[i] * 10.0))
        response_ticks = int(round((trace.completes[i] - trace.issues[i]) * 10.0))
        op = "Read" if int(trace.ops[i]) == int(OpType.READ) else "Write"
        offset = int(trace.lbas[i]) * SECTOR_BYTES
        size = int(trace.sizes[i]) * SECTOR_BYTES
        target.write(f"{ticks},{host},0,{op},{offset},{size},{response_ticks}\n")


def write_blktrace_text(trace: BlockTrace, target: TextIO, device: str = "259,0") -> None:
    """Write a simplified ``blkparse``-style text dump.

    One ``D`` (dispatch) line per request, plus a ``C`` (complete) line
    when completion stamps are known — the two events the paper's
    collection step records.  Format per line::

        <device> <cpu> <seq> <time_s> <pid> <action> <rwbs> <lba> + <size>

    This is a presentation format only; it is not parsed back.
    """
    seq = 0
    events: list[tuple[float, str]] = []
    for i in range(len(trace)):
        rwbs = "R" if int(trace.ops[i]) == int(OpType.READ) else "W"
        lba = int(trace.lbas[i])
        size = int(trace.sizes[i])
        events.append(
            (float(trace.timestamps[i]), f"D {rwbs} {lba} + {size}"),
        )
        if trace.has_device_times:
            assert trace.completes is not None
            events.append((float(trace.completes[i]), f"C {rwbs} {lba} + {size}"))
    events.sort(key=lambda pair: pair[0])
    for time_us, suffix in events:
        seq += 1
        target.write(f"{device} 0 {seq} {time_us / 1e6:.9f} 0 {suffix}\n")


def dump_trace(trace: BlockTrace, path: str | Path, fmt: str = "internal") -> Path:
    """Persist ``trace`` to ``path`` in the chosen format.

    Returns the path written.  ``fmt`` is one of ``"internal"``,
    ``"msrc"``, ``"blktrace"`` (text), or ``"npz"`` — the versioned
    binary store format (see :mod:`repro.trace.io.store`), which
    round-trips every column bit-exactly and loads without parsing.
    """
    if fmt == "npz":
        from .io.store import save_trace_npz

        return save_trace_npz(trace, path)
    writers = {
        "internal": write_csv,
        "msrc": write_msrc,
        "blktrace": write_blktrace_text,
    }
    if fmt not in writers:
        raise ValueError(
            f"unknown trace format {fmt!r}; choose from {sorted(writers) + ['npz']}"
        )
    p = Path(path)
    with p.open("w", encoding="utf-8") as handle:
        writers[fmt](trace, handle)
    return p
