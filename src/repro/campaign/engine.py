"""Resumable, chunked execution of campaign plans.

:class:`CampaignEngine` turns a :class:`~repro.campaign.spec.
CampaignSpec` into a :class:`~repro.campaign.results.ResultsTable`:

1. the plan is expanded (:func:`~repro.campaign.plan.expand`) and every
   point's run key computed;
2. keys already checkpointed under ``<out_dir>/runs/`` are loaded back
   instead of recomputed — an interrupted campaign resumes for free;
3. the remaining points are cut into contiguous chunks and run through
   one chunk body (:func:`_run_chunk`): in-process at ``jobs=1``, or
   pulled by the worker processes of the
   :class:`~repro.campaign.supervise.SupervisedExecutor` above that,
   sharing the binary trace store so each catalog trace is
   materialised once and memory-mapped by every worker;
4. every completed point is checkpointed *as it finishes* (one flushed
   line in the worker's ``segment-*.jsonl``), so a kill mid-chunk loses
   at most the point in flight;
5. rows are reassembled in plan order and aggregated column-wise; with
   an output directory set, ``results.npz``/``results.csv``/
   ``report.md`` are written alongside the checkpoints.

Actions — what actually runs at a grid point — are small functions over
the existing pipeline: they collect catalog traces through
:func:`~repro.workloads.materialize.collect_trace_cached`, build
OLD/NEW pairs through :func:`~repro.experiments.pairs.build_pair_for`,
reconstruct with :mod:`~repro.core.baselines` methods, and summarise
with :mod:`~repro.metrics`.  The figure sweeps in
:mod:`repro.experiments.figures` are these actions under fixed specs,
which is what keeps the campaign path bit-identical to the historical
per-figure loops.
"""

from __future__ import annotations

import functools
import json
import math
import os
import tempfile
import time
from contextlib import ExitStack
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, TextIO

import numpy as np

from ..core.baselines import (
    Acceleration,
    Dynamic,
    FixedThreshold,
    ReconstructionMethod,
    Revision,
    TraceTrackerMethod,
)
from ..inference.idle import extract_idle
from ..metrics.breakdown import average_idle_us, idle_breakdown
from ..metrics.comparison import intt_gap_stats
from ..perf import PerfRecorder
from ..trace.io.cache import (
    TraceStore,
    default_trace_store_dir,
    get_default_store,
    set_default_store,
)
from ..workloads.catalog import get_spec
from ..workloads.generator import WorkloadSpec
from ..workloads.materialize import collect_trace_cached
from .plan import CampaignPlan, RunPoint, expand
from .results import ResultsTable
from .spec import CampaignSpec
from .supervise import (
    QUARANTINED,
    Resilience,
    SupervisedExecutor,
    run_point_resilient,
)

__all__ = [
    "CampaignEngine",
    "CampaignResult",
    "resolve_method",
    "run_campaign",
    "run_point",
]

#: Trace families whose OLD traces carry device stamps (Section V's
#: ":math:`T_{sdev}` known" group) — the ``device_times: auto`` rule.
_STAMPED_FAMILIES = ("MSPS", "MSRC")


def resolve_method(text: str) -> ReconstructionMethod:
    """Parse a campaign method string into a reconstruction method.

    ``tracetracker``, ``dynamic`` and ``revision`` take no argument;
    ``acceleration:<factor>`` and ``fixed-th:<threshold_us>`` carry
    their parameter after a colon (defaults: the paper's 100x and
    10 000 µs).
    """
    base, _, arg = text.strip().partition(":")
    base = base.strip().lower()
    if base == "tracetracker":
        return TraceTrackerMethod()
    if base == "dynamic":
        return Dynamic()
    if base == "revision":
        return Revision()
    if base == "acceleration":
        return Acceleration(float(arg) if arg else 100.0)
    if base in ("fixed-th", "fixed_threshold"):
        return FixedThreshold(float(arg) if arg else 10_000.0)
    raise ValueError(
        f"unknown method {text!r}; use tracetracker, dynamic, revision, "
        f"acceleration:<factor>, or fixed-th:<threshold_us>"
    )


def _device_times_auto(options: dict[str, Any], wspec: WorkloadSpec) -> bool:
    """Resolve the ``device_times`` option for a direct collection."""
    value = options.get("device_times", "auto")
    if value == "auto":
        return wspec.category in _STAMPED_FAMILIES
    return bool(value)


def _build_pair(spec: CampaignSpec, point: RunPoint):
    """OLD/NEW pair for a grid point (campaign devices, shared intents)."""
    # Imported lazily: ``repro.experiments`` imports the campaign
    # package at module level (the figure sweeps are campaign specs),
    # so the reverse import must happen at call time.
    from ..experiments.pairs import build_pair_for

    value = spec.options.get("device_times", "auto")
    old_has_device_times = None if value == "auto" else bool(value)
    return build_pair_for(
        point.workload,
        n_requests=point.n_requests,
        old_has_device_times=old_has_device_times,
        old_device=spec.source_device.build(),
        new_device=point.device.build(),
    )


# ----------------------------------------------------------------------
# Actions
# ----------------------------------------------------------------------


def _action_idle(spec: CampaignSpec, point: RunPoint) -> dict[str, Any]:
    """Collect the workload on the point's device and profile its idle.

    The Figure 16/17 computation: idle extraction on the OLD trace,
    average idle above ``min_idle_us``, and the Tslat/0-10ms/10-100ms/
    >100ms frequency and period buckets.
    """
    wspec = get_spec(point.workload).scaled(point.n_requests)
    old = collect_trace_cached(
        wspec,
        point.device.build(),
        record_device_times=_device_times_auto(spec.options, wspec),
    )
    extraction = extract_idle(old)
    min_idle_us = float(spec.options.get("min_idle_us", 0.0))
    breakdown = idle_breakdown(extraction, min_idle_us=min_idle_us)
    row: dict[str, Any] = {
        "category": wspec.category,
        "avg_idle_us": average_idle_us(extraction, min_idle_us=min_idle_us),
        "idle_frequency": breakdown.idle_frequency(),
        "idle_period": breakdown.idle_period(),
    }
    for bucket, value in breakdown.frequency.items():
        row[f"freq_{bucket}"] = value
    for bucket, value in breakdown.period.items():
        row[f"period_{bucket}"] = value
    return row


def _action_target_diff(spec: CampaignSpec, point: RunPoint) -> dict[str, Any]:
    """Reconstruct onto the point's device; gap stats vs the OLD trace.

    The Figure 14 computation: how far the reconstruction's
    inter-arrival times sit from the trace it was derived from.
    """
    pair = _build_pair(spec, point)
    method = resolve_method(point.method)
    reconstructed = method.reconstruct(pair.old, point.device.build())
    stats = intt_gap_stats(pair.old, reconstructed)
    return {
        "category": get_spec(point.workload).category,
        "method_name": method.name,
        "avg_diff_us": stats["mean_us"],
        "max_diff_us": stats["max_us"],
        "signed_avg_us": stats["mean_signed_us"],
    }


#: Memo of (OLD trace, reference reconstruction) per method_gap grid
#: column.  The method axis varies fastest in plan order, so without
#: this every method point would rebuild the pair and re-reconstruct
#: the reference the historical figure loop computed once per
#: workload.  Everything cached here is deterministic in its key, and
#: the memo is bounded: at most one entry per distinct (workload,
#: device, size) combination seen by this process.
_METHOD_GAP_MEMO: dict[str, tuple[Any, Any]] = {}
_METHOD_GAP_MEMO_CAP = 256


def _method_gap_context(spec: CampaignSpec, point: RunPoint, reference_name: str):
    """The shared (pair, reference trace) for a method_gap point."""
    memo_key = json.dumps(
        {
            "reference": reference_name,
            "workload": point.workload,
            "device": point.device.to_dict(),
            "source_device": spec.source_device.to_dict(),
            "n_requests": point.n_requests,
            "device_times": spec.options.get("device_times", "auto"),
        },
        sort_keys=True,
    )
    hit = _METHOD_GAP_MEMO.get(memo_key)
    if hit is not None:
        return hit
    pair = _build_pair(spec, point)
    ref_trace = resolve_method(reference_name).reconstruct(pair.old, point.device.build())
    if len(_METHOD_GAP_MEMO) >= _METHOD_GAP_MEMO_CAP:
        _METHOD_GAP_MEMO.clear()
    _METHOD_GAP_MEMO[memo_key] = (pair, ref_trace)
    return pair, ref_trace


def _action_method_gap(spec: CampaignSpec, point: RunPoint) -> dict[str, Any]:
    """Gap between the point's method and a reference reconstruction.

    The Figure 13 computation: both methods reconstruct the same OLD
    trace onto the same target; the row reports their inter-arrival
    distance.  The reference defaults to TraceTracker (option
    ``reference``) and is computed once per (workload, device, size)
    column, not once per method point.
    """
    reference = resolve_method(str(spec.options.get("reference", "tracetracker")))
    pair, ref_trace = _method_gap_context(spec, point, reference.name)
    method = resolve_method(point.method)
    rec_trace = method.reconstruct(pair.old, point.device.build())
    stats = intt_gap_stats(rec_trace, ref_trace)
    return {
        "category": get_spec(point.workload).category,
        "method_name": method.name,
        "reference": reference.name,
        "gap_mean_us": stats["mean_us"],
        "gap_max_us": stats["max_us"],
    }


def _action_reconstruct(spec: CampaignSpec, point: RunPoint) -> dict[str, Any]:
    """The general sweep action: collect on the source, remaster on the
    point's device, report span/speedup/inter-arrival summaries."""
    wspec = get_spec(point.workload).scaled(point.n_requests)
    old = collect_trace_cached(
        wspec,
        spec.source_device.build(),
        record_device_times=_device_times_auto(spec.options, wspec),
    )
    method = resolve_method(point.method)
    new = method.reconstruct(old, point.device.build())
    old_duration = float(old.duration)
    new_duration = float(new.duration)
    if new_duration > 0.0:
        speedup = old_duration / new_duration
    else:
        speedup = float("inf") if old_duration > 0.0 else 1.0
    return {
        "category": wspec.category,
        "method_name": method.name,
        "old_duration_us": old_duration,
        "new_duration_us": new_duration,
        "speedup": speedup,
        "median_intt_old_us": float(np.median(old.inter_arrival_times())),
        "median_intt_new_us": float(np.median(new.inter_arrival_times())),
    }


def _action_synthetic(spec: CampaignSpec, point: RunPoint) -> dict[str, Any]:
    """Deterministic spin action for executor benchmarks and tests.

    Burns CPU proportional to ``n_requests`` (``iters_per_request``
    option, default 50) and returns a value that depends only on the
    iteration count — no traces, no devices, no wall clock — so
    execution experiments can build grids with *known, skewed* point
    costs and still assert bitwise-equal results across job counts
    and resume boundaries.
    """
    iters = int(spec.options.get("iters_per_request", 50)) * point.n_requests
    acc = 0.0
    for i in range(iters):
        acc += (i % 7) * 1e-3
    return {"category": "SYNTH", "iters": iters, "value": acc}


_ACTIONS: dict[str, Callable[[CampaignSpec, RunPoint], dict[str, Any]]] = {
    "reconstruct": _action_reconstruct,
    "idle": _action_idle,
    "target_diff": _action_target_diff,
    "method_gap": _action_method_gap,
    "synthetic": _action_synthetic,
}


def run_point(spec: CampaignSpec, point: RunPoint) -> dict[str, Any]:
    """Execute one grid point; returns its flat, JSON-able result row."""
    row = dict(point.axis_values())
    row.update(_ACTIONS[spec.action](spec, point))
    return row


# ----------------------------------------------------------------------
# Checkpointing
# ----------------------------------------------------------------------
#
# Completed points are appended to ``<out_dir>/runs/segment-<pid>-<n>.jsonl``
# files, one self-contained JSON line per point, flushed per line: one
# open file per worker instead of a write+rename pair per point, which
# is what keeps large grids' checkpoint overhead flat.  Crash-safe by
# construction: a kill can only tear the final line, and the resume
# scan skips any line that does not parse.  Append-only — a resumed
# campaign opens a fresh segment and never rewrites an old one.
#
# Directories written before segments existed hold one atomic
# ``<key>.json`` per point; the resume scan still reads (and
# quarantines) those, from the same single directory listing.

_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".jsonl"


def _checkpoint_path(out_dir: Path, key: str) -> Path:
    return out_dir / "runs" / f"{key}.json"


class _SegmentWriter:
    """Append-only checkpoint segment for one worker's share of a run.

    The file is created lazily on the first append, with an
    ``O_EXCL`` claim on the first free ``segment-<pid>-<n>.jsonl``
    name, so concurrent workers (distinct pids) and sequential runs
    (same pid, bumped ``<n>``) never share a segment.
    Every appended line is flushed immediately: after a kill the file
    holds every completed point, at worst plus one torn final line the
    resume scan discards.
    """

    def __init__(self, out_dir: Path) -> None:
        self._dir = out_dir / "runs"
        self._handle: TextIO | None = None
        self.path: Path | None = None

    def _open(self) -> TextIO:
        self._dir.mkdir(parents=True, exist_ok=True)
        n = 0
        while True:
            path = self._dir / f"{_SEGMENT_PREFIX}{os.getpid()}-{n}{_SEGMENT_SUFFIX}"
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            except FileExistsError:
                n += 1
                continue
            self.path = path
            return os.fdopen(fd, "w", encoding="utf-8")

    def append(self, key: str, row: dict[str, Any], wall_s: float | None = None) -> None:
        """Record one completed run key (one flushed JSON line).

        ``wall_s`` — the point's measured compute time — rides along in
        the line when given, so the result lake's rescan can rebuild
        wall-time columns from the flat files alone.  Scanners ignore
        unknown fields, so old and new lines mix freely in a directory.
        """
        if self._handle is None:
            self._handle = self._open()
        payload: dict[str, Any] = {"key": key, "row": row}
        if wall_s is not None:
            payload["wall_s"] = wall_s
        self._handle.write(json.dumps(payload) + "\n")
        self._handle.flush()

    def close(self) -> None:
        """Close the segment (a no-op when nothing was appended)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def _degraded_note(out_dir: Path | None, message: str) -> None:
    """Append one line to the campaign's degradation log (best-effort).

    ``degraded.log`` is the visible trail of everything the engine
    survived instead of raising — lake write failures, quarantined
    corrupt checkpoint files — and :class:`CampaignEngine` reports its
    line count as :attr:`CampaignResult.n_degraded`.  A failure to log
    must itself never fail the campaign.
    """
    if out_dir is None:
        return
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "degraded.log", "a", encoding="utf-8") as handle:
            handle.write(message.rstrip("\n") + "\n")
    except OSError:
        pass


def _quarantine_file(path: Path, out_dir: Path | None = None, reason: str = "") -> bool:
    """Rename a corrupt artifact to ``<name>.bad`` (best-effort).

    The sidecar name keeps the bytes around for a post-mortem while
    taking the file out of every scan pattern (``.json``, ``.jsonl``,
    ``.npz``), so the next resume or rebuild recomputes instead of
    raising.  Returns whether the rename happened (a read-only tree —
    e.g. a lake rescan over an archive — degrades to skip-in-place).
    """
    target = path.with_name(path.name + ".bad")
    try:
        os.replace(path, target)
    except OSError:
        return False
    _degraded_note(
        out_dir, f"quarantined corrupt checkpoint {path.name} -> {target.name}: {reason}"
    )
    return True


def _valid_row(data: Any, key: str | None = None) -> dict[str, Any] | None:
    """The checkpoint payload's row, or ``None`` when malformed."""
    if not isinstance(data, dict) or "row" not in data:
        return None
    if key is not None and data.get("key") != key:
        return None
    row = data["row"]
    return row if isinstance(row, dict) and isinstance(data.get("key"), str) else None


def _wall_s_of(data: Any) -> float | None:
    """The checkpoint payload's wall-time stamp, when present and sane."""
    value = data.get("wall_s") if isinstance(data, dict) else None
    return float(value) if isinstance(value, (int, float)) else None


def _scan_checkpoints_meta(
    out_dir: Path, keys: list[str]
) -> dict[str, tuple[dict[str, Any], float | None, str]]:
    """Checkpointed ``(row, wall_s, filename)`` per key, one dir scan.

    Reads every segment file and exactly the legacy per-point JSON
    files whose key appears in the listing — a resumed campaign never
    stats ``runs/<key>.json`` once per grid point.  Torn or malformed
    segment lines (a crash mid-append) and corrupt JSON files are
    skipped, so those points simply recompute.

    When a key appears more than once (e.g. a ``--no-resume`` rerun
    after a code change appended fresh lines next to an older segment
    or legacy JSON file), the row from the newest file wins — file mtime, with
    later lines beating earlier ones inside a segment and filename as
    the cross-file tiebreak — matching the overwrite semantics the
    JSON-per-point format always had.

    The metadata — the wall-time stamp a new-format line carries
    (``None`` for old lines) and the checkpoint file's name — is what
    the result lake's rescan ingests; the engine's own resume path
    reads just the rows through :func:`_scan_checkpoints`.
    """
    runs_dir = out_dir / "runs"
    try:
        with os.scandir(runs_dir) as it:
            entries = {e.name: e.stat().st_mtime_ns for e in it if e.is_file()}
    except OSError:
        return {}
    wanted = set(keys)
    best: dict[str, tuple[int, dict[str, Any], float | None, str]] = {}
    segments = sorted(
        (
            name
            for name in entries
            if name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)
        ),
        key=lambda name: (entries[name], name),
    )
    for name in segments:
        try:
            text = (runs_dir / name).read_text(encoding="utf-8")
        except UnicodeDecodeError:
            # Not even text: bad disk or foreign bytes.  Quarantine the
            # whole file; its points recompute.
            _quarantine_file(runs_dir / name, out_dir, "undecodable bytes")
            continue
        except OSError:
            continue
        mtime = entries[name]
        parsed_any = False
        for line in text.splitlines():
            try:
                data = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn final line of a killed worker
            parsed_any = True
            row = _valid_row(data)
            if row is None or data["key"] not in wanted:
                continue
            previous = best.get(data["key"])
            if previous is None or mtime >= previous[0]:
                best[data["key"]] = (mtime, row, _wall_s_of(data), name)
        if text.strip() and not parsed_any:
            # Not one line decodes: the segment is corrupt from byte 0
            # (bad disk, torn single-row file), not merely torn at the
            # tail.  Quarantine it so its points recompute.
            _quarantine_file(runs_dir / name, out_dir, "no decodable segment lines")
    for key in keys:
        name = f"{key}.json"
        mtime = entries.get(name)
        if mtime is None:
            continue
        previous = best.get(key)
        if previous is not None and previous[0] > mtime:
            continue
        path = _checkpoint_path(out_dir, key)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            # Corrupt or truncated per-point checkpoint: quarantine to
            # ``<key>.json.bad`` and leave the key un-resumed, so the
            # point re-queues instead of the resume raising (or the
            # corruption silently shadowing an older good row).
            _quarantine_file(path, out_dir, f"undecodable JSON ({exc})")
            continue
        except OSError:
            continue
        row = _valid_row(data, key)
        if row is None:
            _quarantine_file(path, out_dir, "malformed checkpoint payload")
            continue
        best[key] = (mtime, row, _wall_s_of(data), name)
    return {key: (row, wall_s, name) for key, (_, row, wall_s, name) in best.items()}


def _scan_checkpoints(out_dir: Path, keys: list[str]) -> dict[str, dict[str, Any]]:
    """All checkpointed rows for ``keys`` (see :func:`_scan_checkpoints_meta`)."""
    return {key: row for key, (row, _, _) in _scan_checkpoints_meta(out_dir, keys).items()}


#: Per-process cache of open lake catalogs, keyed by database path.  A
#: worker records every point it completes into one connection; the
#: catalog runs WAL mode with a busy timeout, so concurrent workers
#: (and concurrent campaigns) interleave their upserts safely.  The
#: in-process run closes its entry when it ends (:func:`_release_chunk_state`).
_WORKER_LAKES: dict[str, Any] = {}


def _worker_lake(lake_text: str | None):
    """This worker's open lake catalog, or ``None`` when no lake is set."""
    if lake_text is None:
        return None
    lake = _WORKER_LAKES.get(lake_text)
    if lake is None:
        from ..lake.catalog import LakeCatalog

        lake = _WORKER_LAKES.setdefault(lake_text, LakeCatalog(lake_text))
    return lake


def _record_into_lake(
    lake: Any,
    spec: CampaignSpec,
    key: str,
    row: dict[str, Any],
    wall_s: float | None,
    out_dir: Path | None,
    checkpoint_file: str | None,
) -> None:
    """Best-effort lake recording of one completed point.

    A full disk, a locked database that outlasts the catalog's own
    bounded retry, or a read-only catalog must never fail the campaign
    that computed the point — the checkpoint on disk already has it,
    and the next ``repro-lake ingest`` will pick it up.  Every swallow
    leaves a line in ``degraded.log`` so the fallback is visible, not
    silent.
    """
    import sqlite3

    from ..lake.ingest import record_campaign_point

    try:
        record_campaign_point(
            lake,
            spec,
            key,
            row,
            wall_s=wall_s,
            source_dir=out_dir,
            checkpoint_file=checkpoint_file,
        )
    except (sqlite3.Error, OSError) as exc:
        _degraded_note(
            out_dir,
            f"lake record failed for {key} ({type(exc).__name__}: {exc}); "
            f"flat-file checkpoint retained",
        )


def _execute_point(
    spec: CampaignSpec,
    plan: CampaignPlan,
    index: int,
    key: str,
    resilience: Resilience | None,
    injector: Any,
) -> tuple[dict[str, Any], float, bool]:
    """Run one grid point under the worker's fault policy.

    Returns ``(row, wall_s, quarantined)``.  With no resilience
    configured this is the historical behaviour — the point's exception
    propagates and fails the run.  With one, transient failures retry
    with backoff and exhausted/permanent failures come back as
    quarantine rows (see :func:`~repro.campaign.supervise.
    run_point_resilient`).  ``run_point`` is resolved through the
    module at call time so test instrumentation (and hot patching) of
    ``engine.run_point`` is honoured.
    """
    start = time.perf_counter()
    if resilience is None:
        row, quarantined = run_point(spec, plan.points[index]), False
    else:
        row, quarantined = run_point_resilient(
            run_point, spec, plan.points[index], index, key, resilience, injector
        )
    return row, round(time.perf_counter() - start, 6), quarantined


#: Per-process caches of :func:`_run_chunk`.  A process runs many
#: chunks of one campaign, so the expanded plan is computed once per
#: process (not once per chunk) and all of its chunks append to *one*
#: segment file.  Bounded by construction: a process serves one engine
#: run at a time, the plan cache holds one spec, and the segment cache
#: is keyed by output directory.  The in-process path empties the
#: segment entry at the end of its run (:func:`_release_chunk_state`);
#: a supervised worker's entry lives until the worker exits.
_CHUNK_PLANS: dict[str, tuple[CampaignSpec, CampaignPlan]] = {}
_CHUNK_SEGMENTS: dict[str, _SegmentWriter] = {}


def _run_chunk(
    context: tuple[Any, ...],
    items: list[tuple[int, str]],
) -> list[tuple[str, dict[str, Any]]]:
    """Run one chunk of (point index, run key) pairs; the one chunk body.

    ``context`` is ``(spec dict, out dir, lake path, resilience dict)``
    — the last three ``None`` when unset.  The plan is re-expanded
    locally on first use (expansion is deterministic, so indices agree
    with the parent's plan).  Each completed point is appended to this
    process's segment file the moment it finishes and, when a lake is
    configured, recorded into the catalog with its measured wall time;
    the return value is the chunk's ``(key, row)`` pairs.  Every append
    is flushed, so a cached segment is crash-equivalent to a closed one.
    """
    spec_dict, out_dir_text, lake_text, resilience_dict = context
    spec_key = json.dumps(spec_dict, sort_keys=True)
    cached = _CHUNK_PLANS.get(spec_key)
    if cached is None:
        spec = CampaignSpec.from_dict(spec_dict)
        cached = (spec, expand(spec))
        _CHUNK_PLANS.clear()
        _CHUNK_PLANS[spec_key] = cached
    spec, plan = cached
    out_dir = Path(out_dir_text) if out_dir_text else None
    lake = _worker_lake(lake_text)
    resilience = (
        Resilience.from_dict(resilience_dict) if resilience_dict is not None else None
    )
    injector = resilience.injector() if resilience is not None else None
    segment = None
    if out_dir is not None:
        segment = _CHUNK_SEGMENTS.setdefault(out_dir_text, _SegmentWriter(out_dir))
    results: list[tuple[str, dict[str, Any]]] = []
    for index, key in items:
        row, wall_s, quarantined = _execute_point(
            spec, plan, index, key, resilience, injector
        )
        checkpoint: Path | None = None
        if segment is not None:
            segment.append(key, row, wall_s=wall_s)
            checkpoint = segment.path
        if injector is not None:
            injector.after_checkpoint(index, checkpoint)
        if lake is not None and not quarantined:
            checkpoint_file = checkpoint.name if checkpoint is not None else None
            _record_into_lake(lake, spec, key, row, wall_s, out_dir, checkpoint_file)
        results.append((key, row))
    return results


def _release_chunk_state(out_dir_text: str | None, lake_text: str | None) -> None:
    """Close and forget this process's cached segment and lake handles.

    The in-process run calls this when it finishes (or fails), so the
    next run in the same process claims a fresh segment instead of
    appending to this one, and no open catalog connection is inherited
    by the worker processes a later supervised run forks.
    """
    segment = _CHUNK_SEGMENTS.pop(out_dir_text, None) if out_dir_text else None
    if segment is not None:
        segment.close()
    lake = _WORKER_LAKES.pop(lake_text, None) if lake_text else None
    if lake is not None:
        lake.close()


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignResult:
    """What one engine run produced (and how much of it was reused).

    ``n_resumed`` counts points loaded back from this directory's own
    checkpoints; ``n_lake_hits`` counts points skipped because *some
    prior campaign* — any directory, any machine sharing the catalog —
    already recorded their run keys in the result lake.
    ``n_quarantined`` counts rows carrying ``status: "quarantined"``
    (points that exhausted their retry budget); ``n_degraded`` counts
    the ``degraded.log`` lines — failures the run absorbed (lake
    fallbacks, quarantined corrupt checkpoint files) instead of
    raising.  ``supervision`` holds the supervised executor's
    dead/hung/respawned/reclaimed counters (``None`` for an in-process
    run).
    """

    table: ResultsTable
    plan: CampaignPlan
    n_computed: int
    n_resumed: int
    out_dir: Path | None
    n_lake_hits: int = 0
    n_quarantined: int = 0
    n_degraded: int = 0
    supervision: dict[str, int] | None = None


class CampaignEngine:
    """Plans, chunks, checkpoints, and aggregates one campaign.

    There is one execution path.  The pending points are cut into
    contiguous chunks (``CampaignPlan.chunks``; ~4 per worker, capped
    at 32 points) and each chunk runs through :func:`_run_chunk`.  With
    ``jobs > 1``, or a ``resilience`` policy carrying chaos injections
    (which kill and hang workers), the chunks go to a
    :class:`~repro.campaign.supervise.SupervisedExecutor`: worker
    processes pull chunks as they free up and beat a heartbeat file at
    each point boundary, and the parent SIGKILLs hung workers, reclaims
    dead workers' leases (salvaging their checkpointed points), and
    respawns replacements up to ``respawn_budget``.  Otherwise the same
    chunks run in this process.  Both produce identical rows and
    identical checkpoints, so resume never depends on how a point was
    dispatched.

    Parameters
    ----------
    spec:
        The campaign to run.
    out_dir:
        Output/checkpoint directory.  ``None`` (the in-process mode the
        figure sweeps use) computes everything in memory with no disk
        traffic.  Completed points are appended to
        ``runs/segment-*.jsonl`` (one file per worker); the resume scan
        also reads the one-``<key>.json``-per-point files older runs
        wrote.
    jobs:
        Worker processes; ``1`` runs in-process.
    use_trace_store / trace_store_dir:
        Materialise catalog traces once into the binary trace store and
        memory-map them from every worker (same semantics as
        ``repro-report``).
    resume:
        Load checkpointed run keys instead of recomputing them
        (default).  ``False`` ignores — but does not delete — existing
        checkpoints (and skips the lake lookup).
    lake:
        Optional result-lake catalog database
        (:class:`~repro.lake.catalog.LakeCatalog` path).  With a lake,
        pending points whose run keys any prior campaign recorded are
        loaded from the catalog instead of recomputed
        (``n_lake_hits``), and every point this run computes is
        recorded back — campaigns become incremental across runs and
        directories, not just resumable within one.
    resilience:
        Optional :class:`~repro.campaign.supervise.Resilience` — the
        per-point fault policy (retry/backoff on transient failures,
        wall-clock point timeouts, poison-point quarantine, chaos
        injection).  ``None`` (default) keeps the historical contract:
        a grid point's exception propagates and fails the run.
    hang_timeout_s / respawn_budget:
        Supervised-executor knobs: the heartbeat staleness that
        declares a worker hung, and the total replacement workers the
        run may spawn (default ``2 * jobs``).  The hang deadline is
        part of the fault policy, so it applies only when
        ``resilience`` is set, and must then exceed the slowest
        legitimate point; with ``resilience=None`` a slow point is
        never declared hung.
    perf:
        Optional :class:`~repro.perf.PerfRecorder`; when given, the
        engine times its ``plan``/``resume_scan``/``compute``/
        ``aggregate`` phases into it.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        out_dir: str | Path | None = None,
        jobs: int = 1,
        use_trace_store: bool = False,
        trace_store_dir: str | Path | None = None,
        resume: bool = True,
        lake: "str | Path | None" = None,
        perf: "PerfRecorder | None" = None,
        resilience: "Resilience | None" = None,
        hang_timeout_s: float = 30.0,
        respawn_budget: int | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.spec = spec
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.jobs = jobs
        self.use_trace_store = use_trace_store
        self.trace_store_dir = trace_store_dir
        self.resume = resume
        self.lake = Path(lake) if lake is not None else None
        self.perf = perf if perf is not None else PerfRecorder(enabled=False)
        if (
            resilience is not None
            and resilience.chaos is not None
            and resilience.chaos.injections
        ):
            if self.out_dir is None:
                raise ValueError(
                    "chaos injection needs an out_dir (fire-once markers live there)"
                )
            if resilience.chaos_dir is None:
                resilience = replace(
                    resilience, chaos_dir=str(self.out_dir / ".chaos")
                )
        self.resilience = resilience
        if hang_timeout_s <= 0:
            raise ValueError("hang_timeout_s must be positive")
        self.hang_timeout_s = hang_timeout_s
        self.respawn_budget = respawn_budget

    def run(self, log: TextIO | None = None) -> CampaignResult:
        """Execute the campaign; returns the aggregated results.

        Raises whatever a grid point raises — by then every point that
        finished before the failure is already checkpointed, so rerun
        to resume.
        """
        with self.perf.stage("plan"):
            plan = expand(self.spec)
            keys = plan.keys()
        completed: dict[str, dict[str, Any]] = {}
        if self.out_dir is not None and self.resume:
            with self.perf.stage("resume_scan"):
                completed = _scan_checkpoints(self.out_dir, keys)
        pending = [i for i, key in enumerate(keys) if key not in completed]
        n_resumed = len(plan) - len(pending)
        n_lake_hits = 0
        if pending and self.lake is not None and self.resume:
            # Cross-campaign skip: run keys some prior campaign already
            # recorded load straight from the catalog — the lake's
            # whole point.  Run keys cover everything that determines a
            # row (plan.run_key), so a hit is exact, not heuristic.
            with self.perf.stage("lake_scan"):
                from ..lake.catalog import LakeCatalog

                with LakeCatalog(self.lake) as lake:
                    hits = lake.completed_rows([keys[i] for i in pending])
            completed.update(hits)
            pending = [i for i in pending if keys[i] not in completed]
            n_lake_hits = len(hits)
        # Chaos kills and hangs workers, so it always runs supervised.
        supervised = self.jobs > 1 or (
            self.resilience is not None and self.resilience.injector() is not None
        )
        if log is not None:
            lake_note = f", {n_lake_hits} from lake" if self.lake is not None else ""
            log.write(
                f"[campaign] {self.spec.name}: {len(plan)} point(s), "
                f"{n_resumed} checkpointed{lake_note}, {len(pending)} to compute "
                f"(jobs={self.jobs}{', supervised' if supervised else ''})\n"
            )
        if self.out_dir is not None:
            # Even a zero-compute run (everything resumed or lake-hit)
            # writes outputs below, so the directory must exist and be
            # self-describing: spec.json is what `repro-campaign
            # report` and `repro-lake ingest` recognise a campaign by.
            self.out_dir.mkdir(parents=True, exist_ok=True)
            self._write_spec_once()
        supervision: dict[str, int] | None = None
        if pending:
            # ~4 chunks per worker bounds the tail (the last chunk to
            # start is at most 1/(4*jobs) of the grid) while the cap of
            # 32 keeps the per-chunk dispatch overhead invisible on
            # huge grids.
            chunk = max(1, min(32, -(-len(pending) // (self.jobs * 4))))
            tasks = [
                [(i, keys[i]) for i in part]
                for part in plan.chunks(chunk, indices=pending)
            ]
            context = (
                self.spec.to_dict(),
                str(self.out_dir) if self.out_dir is not None else None,
                str(self.lake) if self.lake is not None else None,
                self.resilience.to_dict() if self.resilience is not None else None,
            )
            start = time.perf_counter()
            with self.perf.stage("compute"):
                if supervised:
                    supervision = self._run_supervised(tasks, context, completed)
                else:
                    self._run_in_process(tasks, context, completed)
            note = ""
            if supervision is not None:
                for name, value in supervision.items():
                    self.perf.count(f"supervise_{name}", value)
                note = (
                    f" (dead={supervision['dead']}, hung={supervision['hung']}, "
                    f"respawned={supervision['respawned']})"
                )
            if log is not None:
                log.write(
                    f"[campaign] computed {len(pending)} point(s) in "
                    f"{time.perf_counter() - start:.1f}s{note}\n"
                )
        with self.perf.stage("aggregate"):
            table = ResultsTable.from_rows([completed[key] for key in keys])
            if self.out_dir is not None:
                self._write_outputs(table, n_resumed=n_resumed, n_computed=len(pending))
                self._record_results_artifacts()
        n_quarantined = sum(
            1 for key in keys if completed[key].get("status") == QUARANTINED
        )
        n_degraded = self._count_degraded()
        if log is not None and (n_quarantined or n_degraded):
            log.write(
                f"[campaign] degraded finish: {n_quarantined} quarantined point(s), "
                f"{n_degraded} degradation event(s) — see "
                f"{'degraded.log in ' + str(self.out_dir) if self.out_dir else 'log'}\n"
            )
        return CampaignResult(
            table=table,
            plan=plan,
            n_computed=len(pending),
            n_resumed=n_resumed,
            out_dir=self.out_dir,
            n_lake_hits=n_lake_hits,
            n_quarantined=n_quarantined,
            n_degraded=n_degraded,
            supervision=supervision,
        )

    def _trace_store_root(self) -> str | None:
        """The shared trace-store directory, or ``None`` when disabled."""
        if not self.use_trace_store:
            return None
        if self.trace_store_dir is not None:
            return str(self.trace_store_dir)
        return str(default_trace_store_dir())

    def _run_in_process(
        self,
        tasks: list[list[tuple[int, str]]],
        context: tuple[Any, ...],
        completed: dict[str, dict[str, Any]],
    ) -> None:
        """Run every chunk in this process, in plan order.

        Installs the shared trace store for the duration (restoring the
        previous default afterwards) and owns the run's one segment
        writer, which is closed when the run ends — also when a point
        raises.
        """
        _, out_dir_text, lake_text, _ = context
        store_root = self._trace_store_root()
        previous_store = get_default_store()
        if store_root is not None:
            set_default_store(TraceStore(root=store_root, enabled=True))
        try:
            for items in tasks:
                completed.update(_run_chunk(context, items))
        finally:
            _release_chunk_state(out_dir_text, lake_text)
            if store_root is not None:
                set_default_store(previous_store)

    def _run_supervised(
        self,
        tasks: list[list[tuple[int, str]]],
        context: tuple[Any, ...],
        completed: dict[str, dict[str, Any]],
    ) -> dict[str, int]:
        """Run every chunk in supervised worker processes.

        Workers are always real processes — even at ``jobs=1`` under
        chaos — so an injected or organic worker death never takes the
        parent down with it.  Heartbeats live in ``<out_dir>/.supervise``,
        or in a temporary directory removed on return for an in-memory
        run.  Returns the executor's supervision counters.
        """
        from ..experiments.runner import _worker_init_trace_store

        store_root = self._trace_store_root()
        initializer = (
            functools.partial(_worker_init_trace_store, store_root)
            if store_root is not None
            else None
        )
        with ExitStack() as stack:
            if self.out_dir is not None:
                hearts_dir = self.out_dir / ".supervise"
            else:
                hearts_dir = Path(
                    stack.enter_context(tempfile.TemporaryDirectory(prefix="repro-supervise-"))
                )
            executor = SupervisedExecutor(
                jobs=self.jobs,
                worker_fn=_run_chunk,
                context=context,
                hearts_dir=hearts_dir,
                # Without a fault policy a slow point must finish, not
                # be killed as hung and recomputed.
                hang_timeout_s=(
                    self.hang_timeout_s if self.resilience is not None else math.inf
                ),
                respawn_budget=self.respawn_budget,
                reclaim=self._reclaim_chunk,
                initializer=initializer,
            )
            for payload in executor.run(tasks):
                completed.update(payload)
        return dict(executor.stats)

    def _reclaim_chunk(
        self, items: list[tuple[int, str]]
    ) -> tuple[list[tuple[str, dict[str, Any]]], list[tuple[int, str]]]:
        """Salvage a reclaimed lease: checkpointed points stay done.

        A dead worker checkpointed every point it finished before dying
        (every segment line is flushed), so a rescan of this
        chunk's run keys recovers them without recomputation — the
        acceptance bar for supervisor recovery.  Whatever the scan does
        not find is re-queued.
        """
        if self.out_dir is None:
            return [], list(items)
        found = _scan_checkpoints(self.out_dir, [key for _, key in items])
        salvaged = [(key, found[key]) for _, key in items if key in found]
        remaining = [(i, key) for i, key in items if key not in found]
        return salvaged, remaining

    def _count_degraded(self) -> int:
        """How many degradation events this directory has absorbed.

        The count is the ``degraded.log`` line count — one line per
        swallowed failure (lake fallback, quarantined corrupt artifact)
        — so it accumulates across resumes of the same directory, which
        is the honest reading: the directory's history degraded, even
        if this particular run did not.
        """
        if self.out_dir is None:
            return 0
        try:
            with open(self.out_dir / "degraded.log", "r", encoding="utf-8") as handle:
                return sum(1 for _ in handle)
        except OSError:
            return 0

    def _write_spec_once(self) -> None:
        """Record the spec next to the checkpoints, skipping no-op rewrites.

        Every resume used to rewrite ``spec.json`` even when nothing
        changed; now the existing bytes are compared first, so resuming
        an unchanged campaign touches the file zero times (and the
        mtime stays meaningful for "when did this grid last change").
        """
        assert self.out_dir is not None
        path = self.out_dir / "spec.json"
        text = json.dumps(self.spec.to_dict(), indent=2, sort_keys=True) + "\n"
        try:
            if path.read_text(encoding="utf-8") == text:
                return
        except OSError:
            pass
        path.write_text(text, encoding="utf-8")

    def _write_outputs(self, table: ResultsTable, n_resumed: int, n_computed: int) -> None:
        """Persist the aggregate next to the checkpoints."""
        from ..experiments.reporting import ab_campaign_report, campaign_report

        assert self.out_dir is not None
        table.save_npz(self.out_dir / "results.npz")
        table.to_csv(self.out_dir / "results.csv")
        report = campaign_report(
            self.spec, table, n_resumed=n_resumed, n_computed=n_computed
        )
        if self.spec.options.get("ab"):
            report = report + "\n" + ab_campaign_report(self.spec, table)
        (self.out_dir / "report.md").write_text(report, encoding="utf-8")

    def _record_results_artifacts(self) -> None:
        """Best-effort catalog registration of the aggregate tables.

        Mirrors what ``repro-lake ingest`` records for a campaign
        directory's ``results.npz``/``results.csv``, so a live-recorded
        catalog and a rescan of the same tree hold identical artifact
        rows.  No lake configured, or a write failure, is a no-op.
        """
        if self.lake is None or self.out_dir is None:
            return
        import sqlite3

        from ..lake.catalog import LakeCatalog

        try:
            with LakeCatalog(self.lake) as lake:
                for name in ("results.npz", "results.csv"):
                    path = self.out_dir / name
                    if path.exists():
                        lake.record_artifact(
                            "results",
                            path,
                            ref=f"campaign:{self.spec.name}",
                            meta={"campaign": self.spec.name},
                        )
        except (sqlite3.Error, OSError):
            pass


def run_campaign(
    spec: CampaignSpec,
    out_dir: str | Path | None = None,
    jobs: int = 1,
    log: TextIO | None = None,
) -> ResultsTable:
    """One-call campaign execution; returns just the results table.

    The figure sweeps call this with the defaults (in-process, silent);
    the CLI builds a :class:`CampaignEngine` directly for the full
    checkpoint/report treatment.
    """
    return CampaignEngine(spec, out_dir=out_dir, jobs=jobs).run(log=log).table
