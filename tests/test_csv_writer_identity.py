"""Byte identity of the chunked internal-CSV writer.

:func:`repro.trace.writers.write_csv` renders whole chunks of rows with
one ``%``-format each.  The reference below is the per-row formatter it
replaced (``f"{x:.3f}"`` on NumPy scalars, ``str(int(...))``,
``OpType(...).to_char()``), kept here as the oracle: every layout,
every chunk-boundary length and the float edge cases must produce the
same bytes.  The streaming sink's one-block appends are pinned the
same way, including its truncate-on-failure rollback.
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.service.daemon import _CsvSink
from repro.trace import BlockTrace, OpType
from repro.trace.writers import CSV_CHUNK_ROWS, iter_csv_chunks, iter_csv_rows, write_csv


def reference_csv(trace: BlockTrace) -> str:
    """Per-row internal-CSV formatter (the oracle)."""
    columns = ["timestamp_us", "lba", "size_sectors", "op"]
    if trace.has_device_times:
        columns += ["issue_us", "complete_us"]
    if trace.has_sync_flags:
        columns.append("sync")
    lines = [",".join(columns)]
    for i in range(len(trace)):
        fields = [
            f"{trace.timestamps[i]:.3f}",
            str(int(trace.lbas[i])),
            str(int(trace.sizes[i])),
            OpType(int(trace.ops[i])).to_char(),
        ]
        if trace.has_device_times:
            fields += [f"{trace.issues[i]:.3f}", f"{trace.completes[i]:.3f}"]
        if trace.has_sync_flags:
            fields.append("1" if trace.syncs[i] else "0")
        lines.append(",".join(fields))
    return "".join(line + "\n" for line in lines)


def make_trace(
    n: int, device_times: bool, syncs: bool, seed: int = 3, base: float = 0.0
) -> BlockTrace:
    """Random trace whose stamps mix exact k/16 µs ties with arbitrary doubles."""
    rng = np.random.default_rng(seed)
    ties = rng.integers(0, 1 << 20, n) / 16.0  # k/16 µs: exact binary ties at .xxx5
    free = rng.uniform(0.0, 1e7, n)
    stamps = np.sort(base + np.where(rng.random(n) < 0.5, ties, free))
    issues = completes = None
    if device_times:
        issues = stamps + rng.integers(0, 64, n) / 16.0
        completes = issues + rng.uniform(0.0, 5e3, n)
    return BlockTrace(
        timestamps=stamps,
        lbas=rng.integers(0, 1 << 40, n),
        sizes=rng.integers(1, 4096, n),
        ops=rng.integers(0, 2, n).astype(np.int8),
        issues=issues,
        completes=completes,
        syncs=rng.integers(0, 2, n).astype(bool) if syncs else None,
        name="csv",
    )


def written(trace: BlockTrace) -> str:
    buffer = io.StringIO()
    write_csv(trace, buffer)
    return buffer.getvalue()


LAYOUTS = [(False, False), (True, False), (False, True), (True, True)]
LENGTHS = [1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1]


class TestChunkedFormatterIdentity:
    @pytest.mark.parametrize("device_times,syncs", LAYOUTS)
    @pytest.mark.parametrize("n", LENGTHS)
    def test_write_csv_matches_reference(self, n, device_times, syncs):
        trace = make_trace(n, device_times, syncs)
        assert written(trace) == reference_csv(trace)

    @pytest.mark.parametrize("device_times,syncs", LAYOUTS)
    @pytest.mark.parametrize("n", LENGTHS)
    def test_iter_csv_rows_matches_reference(self, n, device_times, syncs):
        trace = make_trace(n, device_times, syncs)
        rows = list(iter_csv_rows(trace))
        assert len(rows) == n + 1
        assert "".join(row + "\n" for row in rows) == reference_csv(trace)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_chunks_split_at_4096_rows(self, n):
        blocks = list(iter_csv_chunks(make_trace(n, True, True), header=False))
        counts = [block.count("\n") for block in blocks]
        assert sum(counts) == n
        assert all(c == CSV_CHUNK_ROWS for c in counts[:-1])

    def test_exact_ties_round_half_even(self):
        stamps = np.array([0.0625, 0.1875, 1.0625, 2.5625, 1e12 + 0.0625])
        trace = BlockTrace(
            timestamps=stamps,
            lbas=np.arange(5),
            sizes=np.ones(5, dtype=np.int64),
            ops=np.zeros(5, dtype=np.int8),
            issues=stamps,
            completes=stamps + 0.3125,
        )
        text = written(trace)
        assert text == reference_csv(trace)
        first = text.splitlines()[1]
        assert first == "0.062,0,1,R,0.062,0.375"

    @pytest.mark.parametrize("device_times,syncs", LAYOUTS)
    def test_huge_stamps(self, device_times, syncs):
        trace = make_trace(CSV_CHUNK_ROWS + 1, device_times, syncs, base=1e12)
        assert trace.timestamps.min() >= 1e12
        assert written(trace) == reference_csv(trace)

    def test_special_values_and_extreme_ints(self):
        stamps = np.array([-0.0, 0.0005, 0.0015, 9.9995, 1e15 + 0.5, 2.0**53])
        n = len(stamps)
        trace = BlockTrace(
            timestamps=stamps,
            lbas=np.array([0, 1, 2**62, 7, 2**40, 3]),
            sizes=np.array([1, 2**31, 3, 4, 5, 6]),
            ops=np.array([1, 0, 1, 0, 1, 0], dtype=np.int8),
            issues=np.array([np.inf, 1.0, 2.0, 3.0, 4.0, 5.0]),
            completes=np.array([np.nan, -np.inf, 2.0, 3.0, 4.0, 5.0]),
            syncs=np.array([True, False] * (n // 2)),
        )
        assert written(trace) == reference_csv(trace)

    def test_empty_trace_writes_header_only(self):
        for device_times, syncs in LAYOUTS:
            trace = make_trace(1, device_times, syncs).select(np.zeros(1, dtype=bool))
            assert len(trace) == 0
            assert written(trace) == reference_csv(trace)

    def test_invalid_op_raises_like_the_enum(self):
        trace = make_trace(10, False, False)
        trace.ops[4] = 2
        with pytest.raises(ValueError, match="2 is not a valid OpType"):
            written(trace)


class _FailingHandle:
    """File-handle proxy whose next ``write`` lands half its bytes, then fails."""

    def __init__(self, handle):
        self._handle = handle
        self.fail_next = False

    def write(self, data: bytes) -> int:
        if self.fail_next:
            self.fail_next = False
            self._handle.write(data[: len(data) // 2])
            raise OSError("injected write failure")
        return self._handle.write(data)

    def __getattr__(self, name):
        return getattr(self._handle, name)


class TestSinkAppend:
    def test_failed_append_rolls_back_and_retry_matches_write_csv(self, tmp_path):
        full = make_trace(3 * 700, True, False)
        pieces = [full.select(np.arange(len(full)) // 700 == k) for k in range(3)]
        path = tmp_path / "out.csv"
        sink = _CsvSink(path)
        sink.open(0)
        proxy = _FailingHandle(sink._handle)
        sink._handle = proxy
        sink.append(pieces[0])
        sink.sync()
        before = path.stat().st_size
        assert before == sink.nbytes > 0

        proxy.fail_next = True
        with pytest.raises(OSError, match="injected"):
            sink.append(pieces[1])
        sink.sync()
        assert path.stat().st_size == before
        assert sink.nbytes == before

        sink.append(pieces[1])
        sink.append(pieces[2])
        sink.close()
        assert path.read_bytes() == written(full).encode("utf-8")

    def test_failed_first_append_retries_with_header(self, tmp_path):
        trace = make_trace(50, False, True)
        path = tmp_path / "out.csv"
        sink = _CsvSink(path)
        sink.open(0)
        proxy = _FailingHandle(sink._handle)
        sink._handle = proxy
        proxy.fail_next = True
        with pytest.raises(OSError):
            sink.append(trace)
        sink.sync()
        assert path.stat().st_size == 0
        sink.append(trace)
        sink.close()
        assert path.read_bytes() == written(trace).encode("utf-8")
