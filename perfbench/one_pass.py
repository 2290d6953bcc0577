"""One measured pass of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per pass, so every pass begins with
cold memos (the flash relative-service memo, the inference model memo,
``generation_fingerprint``), exactly like one ``repro-*`` invocation.
The pass times its set-up (imports plus building the generated inputs)
apart from the job, checks the job's outputs, and prints one JSON
object as its last line of standard output.

Run directly (from the repository root, with ``src`` importable)::

    PYTHONPATH=src python3 perfbench/one_pass.py --workload pair-msnfs \
        --seed 1 --serve-rate 7000 --workdir /tmp/pass

With ``--traced 1`` the pass also records spans around every layer
call (see ``spans.py``) and returns them with its result.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from dataclasses import asdict, dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402
from typing import Any  # noqa: E402

import numpy as np  # noqa: E402

from repro.campaign import CampaignEngine, CampaignSpec, DeviceSpec  # noqa: E402
from repro.core import TraceTracker  # noqa: E402
from repro.experiments.figures import USER_IDLE_THRESHOLD_US  # noqa: E402
from repro.experiments.nodes import new_node, old_node  # noqa: E402
from repro.replay.qdepth import replay_queue_depth  # noqa: E402
from repro.replay.replayer import replay_with_idle  # noqa: E402
from repro.service import FileTailSource, ServiceConfig, StreamingReconstructionService  # noqa: E402
from repro.trace import TraceReader  # noqa: E402
from repro.trace.io import load_trace_bulk, load_trace_npz, save_trace_npz, trace_digest  # noqa: E402
from repro.trace.writers import iter_csv_rows, write_csv  # noqa: E402
from repro.workloads import (  # noqa: E402
    ALL_WORKLOADS,
    FIU_WORKLOADS,
    MSPS_WORKLOADS,
    MSRC_WORKLOADS,
    collect_trace,
    generate_intents,
    get_spec,
)

from spans import Tracer  # noqa: E402

WORKLOADS = ("pair-msnfs", "remaster-homes-file", "campaign-zoo", "serve-tail")

#: Requests per batch workload at scale 1 (the ROADMAP's 10^5 point).
PAIR_N = 100_000
HOMES_N = 100_000
#: Campaign grid: trace sizes spanning 16x, so point costs are heavy-tailed.
CAMPAIGN_SIZES = (1_000, 4_000, 16_000)
CAMPAIGN_JOBS = 2
CAMPAIGN_TARGETS = (
    "new-node",
    {"name": "nvme_mq", "kind": "nvme_mq"},
    {"name": "raid0", "kind": "raid0", "n": 4, "member": {"kind": "hdd"}},
    {"name": "tiered", "kind": "tiered"},
)
#: Service chunk size (``ServiceConfig`` default) and phase lengths in
#: chunks; whole chunks keep every phase-1 row except the carried one
#: visible before the backlog lands.
SERVE_CHUNK = 256
SERVE_PHASE_CHUNKS = 40
SERVE_BACKLOG_CHUNKS = 384
#: End-of-stream idleness; far above the gap between the two phases.
SERVE_UNTIL_IDLE_S = 0.5
#: How often the watcher polls ``out.csv`` and the checkpoint, during
#: the fixed-rate phase and during the backlog drain.
SERVE_WATCH_S = 0.002
SERVE_DRAIN_WATCH_S = 0.01
#: Prefix replayed through the scalar oracle in a run's first batch pass.
ORACLE_PREFIX = 2_000


def scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, int(round(n * scale)))


def peak_rss_mb() -> float:
    """Peak resident set of this process or any finished child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def ratio_accuracy(a: float, b: float) -> float:
    """min/max of two non-negative quantities (1.0 when both are 0)."""
    hi = max(a, b)
    return 1.0 if hi == 0 else min(a, b) / hi


def idle_accuracy(extraction: Any, intents: Any) -> tuple[float, float, int]:
    """Frequency and period accuracy of the reconstructed user idle.

    Gap ``i`` sits before request ``i + 1``, whose think time is the
    ground truth.  A reconstructed gap counts as user idle when its
    ``T_idle`` exceeds ``USER_IDLE_THRESHOLD_US``.
    """
    tidle = extraction.tidle_us
    truth = intents.is_idle[1:]
    recon = tidle > USER_IDLE_THRESHOLD_US
    freq = ratio_accuracy(float(recon.mean()), float(truth.mean()))
    period = ratio_accuracy(float(tidle[recon].sum()), float(intents.thinks[1:][truth].sum()))
    return freq, period, int(recon.sum())


def reconstructor(tracer: Tracer) -> TraceTracker:
    """A fresh ``TraceTracker`` whose stages record spans when tracing."""
    tracker = TraceTracker()
    pipeline = tracker.pipeline
    pipeline.infer = tracer.traced_stage(pipeline.infer, "core.infer")
    pipeline.emulate = tracer.traced_stage(pipeline.emulate, "core.emulate")
    pipeline.postprocess = tracer.traced_stage(pipeline.postprocess, "core.postprocess")
    pipeline.metrics = tracer.traced_stage(pipeline.metrics, "core.metrics")
    return tracker


@dataclass
class PassResult:
    """What one pass measured; ``run.py`` aggregates these."""

    units: int
    job_requests: int
    #: ``name -> [(start, end), ...]`` on the system-wide monotonic
    #: clock, so ``run.py`` can match them against the speed probes.
    steps: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    #: Per-layer metrics measured directly, keyed by their metric name.
    values: dict[str, float] = field(default_factory=dict)
    checks: list[tuple[str, bool]] = field(default_factory=list)
    input_digest: str = ""
    output_digest: str = ""

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))


class Timer:
    """Records the job's top-level calls into ``steps``, by span name.

    Each timed call is also a span when the tracer is enabled.  The job
    is the union of the steps, so output checks stay outside it.
    """

    def __init__(self, steps: dict[str, list[tuple[float, float]]], tracer: Tracer) -> None:
        self.steps = steps
        self.tracer = tracer

    @contextlib.contextmanager
    def __call__(self, name: str):
        with self.tracer.span(name):
            start = time.perf_counter()
            try:
                yield
            finally:
                self.steps.setdefault(name, []).append((start, time.perf_counter()))


# ----------------------------------------------------------------------
# Batch checks shared by pair-msnfs and remaster-homes-file
# ----------------------------------------------------------------------


def check_remastered(result: PassResult, old: Any, recon: Any, oracle: bool) -> None:
    """Order kept, stamps non-decreasing, prefix equal to the oracle."""
    out = recon.trace
    result.check(
        "order_kept",
        np.array_equal(out.lbas, old.lbas)
        and np.array_equal(out.sizes, old.sizes)
        and np.array_equal(out.ops, old.ops),
    )
    result.check("stamps_non_decreasing", bool(np.all(np.diff(out.timestamps) >= 0)))
    if not oracle:
        return
    # The scalar replayer over a prefix, post-processed by the same
    # stage, must give the prefix of the batch engine's output: replay
    # is causal and the async revival is a running sum.
    p = min(ORACLE_PREFIX, len(old))
    extraction = recon.extraction
    scalar = replay_with_idle(old.select(slice(0, p)), new_node(), idle_us=extraction.tidle_us[: p - 1])
    asyncs = recon.async_indices[recon.async_indices < p - 1]
    expected = TraceTracker().pipeline.postprocess.run(
        scalar, SimpleNamespace(tintt_us=extraction.tintt_us[: p - 1]), asyncs
    )
    result.check(
        "oracle_prefix_bit_identical",
        all(
            np.array_equal(getattr(expected, col), getattr(out, col)[:p])
            for col in ("timestamps", "issues", "completes")
        ),
    )


def traces_equal(a: Any, b: Any) -> bool:
    cols = ("timestamps", "lbas", "sizes", "ops", "issues", "completes", "syncs")
    return len(a) == len(b) and all(
        (getattr(a, c) is None and getattr(b, c) is None)
        or (getattr(a, c) is not None and getattr(b, c) is not None
            and np.array_equal(getattr(a, c), getattr(b, c)))
        for c in cols
    )


# ----------------------------------------------------------------------
# Workloads: set-up builds the inputs, the job is what users wait for
# ----------------------------------------------------------------------


def setup_pair(seed: int, scale: float, workdir: Path) -> Any:
    return SimpleNamespace(spec=replace(get_spec("MSNFS").scaled(scaled(PAIR_N, scale, 500)), seed=seed))


def job_pair(inp: Any, tracer: Tracer, workdir: Path, oracle: bool) -> PassResult:
    n = inp.spec.n_requests
    result = PassResult(units=n, job_requests=n)
    timed = Timer(result.steps, tracer)
    tracker = reconstructor(tracer)
    with timed("workloads.generate_intents"):
        intents = generate_intents(inp.spec)
    with timed("workloads.collect_trace.old"):
        old = collect_trace(intents, old_node(), record_device_times=True)
    with timed("workloads.collect_trace.new"):
        new = collect_trace(intents, new_node(), record_device_times=True)
    with timed("core.reconstruct"):
        recon = tracker.reconstruct(old, new_node())
    freq, period, idle_gaps = idle_accuracy(recon.extraction, intents)
    result.values.update({
        "idle_freq_accuracy": freq,
        "idle_period_accuracy": period,
        "inference.idle_gaps": idle_gaps,
        "replay.postprocess.async_gaps": recon.metrics.n_async_gaps,
    })
    check_remastered(result, old, recon, oracle)
    result.check("new_trace_complete", len(new) == n)
    result.input_digest = trace_digest(old).hex()
    result.output_digest = trace_digest(recon.trace).hex()
    return result


def setup_homes(seed: int, scale: float, workdir: Path) -> Any:
    spec = replace(get_spec("homes").scaled(scaled(HOMES_N, scale, 500)), seed=seed)
    intents = generate_intents(spec)
    # FIU-style collection: no device stamps, so T_sdev must be inferred.
    old = collect_trace(intents, old_node(), record_device_times=False)
    path = workdir / "homes.csv"
    with path.open("w", encoding="utf-8") as handle:
        write_csv(old, handle)
    return SimpleNamespace(intents=intents, path=path, n=len(old), digest=trace_digest(old).hex())


def job_homes(inp: Any, tracer: Tracer, workdir: Path, oracle: bool) -> PassResult:
    result = PassResult(units=inp.n, job_requests=inp.n)
    timed = Timer(result.steps, tracer)
    tracker = reconstructor(tracer)
    out_csv, out_npz = workdir / "remastered.csv", workdir / "remastered.npz"
    with timed("trace.io.parse"):
        old = load_trace_bulk(inp.path)
    with timed("core.reconstruct"):
        recon = tracker.reconstruct(old, new_node())
    with timed("trace.writers.write_csv"):
        with out_csv.open("w", encoding="utf-8") as handle:
            write_csv(recon.trace, handle)
    with timed("trace.io.store.save"):
        save_trace_npz(recon.trace, out_npz)
    with timed("trace.io.store.load"):
        loaded = load_trace_npz(out_npz)
    with timed("replay.qdepth"):
        qd8 = replay_queue_depth(old, new_node(), idle_us=recon.extraction.tidle_us, queue_depth=8)
    freq, period, idle_gaps = idle_accuracy(recon.extraction, inp.intents)
    result.values.update({
        "idle_freq_accuracy": freq,
        "idle_period_accuracy": period,
        "inference.idle_gaps": idle_gaps,
        "replay.postprocess.async_gaps": recon.metrics.n_async_gaps,
    })
    check_remastered(result, old, recon, oracle)
    result.check("inference_ran", not recon.extraction.used_measured_tsdev)
    result.check("npz_round_trip_equal", traces_equal(loaded, recon.trace))
    result.check(
        "qd8_order_kept",
        len(qd8.trace) == inp.n and np.array_equal(qd8.trace.lbas, old.lbas),
    )
    result.input_digest = inp.digest
    result.output_digest = hashlib.sha256(
        trace_digest(recon.trace) + trace_digest(qd8.trace) + out_csv.read_bytes()
    ).hexdigest()
    return result


def campaign_grid(seed: int) -> tuple[str, ...]:
    """Four catalog workloads: one per family plus one more, by seed."""
    rng = np.random.default_rng(seed)
    picks = [str(rng.choice(family)) for family in (MSPS_WORKLOADS, FIU_WORKLOADS, MSRC_WORKLOADS)]
    rest = [name for name in ALL_WORKLOADS if name not in picks]
    picks.append(str(rng.choice(rest)))
    return tuple(picks)


def setup_campaign(seed: int, scale: float, workdir: Path) -> Any:
    spec = CampaignSpec(
        name="perfbench-zoo",
        action="reconstruct",
        workloads=campaign_grid(seed),
        devices=tuple(DeviceSpec.from_dict(d) for d in CAMPAIGN_TARGETS),
        methods=("tracetracker", "revision"),
        n_requests=tuple(scaled(n, scale, 200) for n in CAMPAIGN_SIZES),
    )
    digest = hashlib.blake2b(json.dumps(spec.to_dict(), sort_keys=True).encode(), digest_size=20)
    return SimpleNamespace(spec=spec, digest=digest.hexdigest())


def job_campaign(inp: Any, tracer: Tracer, workdir: Path) -> PassResult:
    spec = inp.spec
    n_points = len(spec.workloads) * len(spec.devices) * len(spec.methods) * len(spec.n_requests)
    requests = n_points // len(spec.n_requests) * sum(spec.n_requests)
    result = PassResult(units=n_points, job_requests=requests)
    out_dir, lake = workdir / "campaign", workdir / "lake.db"
    engine = CampaignEngine(spec, out_dir=out_dir, jobs=CAMPAIGN_JOBS, lake=lake)
    with Timer(result.steps, tracer)("campaign.run"):
        res = engine.run()
    ((start, end),) = result.steps["campaign.run"]
    point_walls = [
        json.loads(line)["wall_s"]
        for segment in sorted((out_dir / "runs").glob("segment-*.jsonl"))
        for line in segment.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    result.values.update({
        "campaign.point_wall_p50_s": float(np.percentile(point_walls, 50)) if point_walls else 0.0,
        "campaign.point_wall_p90_s": float(np.percentile(point_walls, 90)) if point_walls else 0.0,
        "campaign.worker_busy_ratio": float(sum(point_walls)) / (CAMPAIGN_JOBS * (end - start)),
        "campaign.n_points": len(res.plan),
        "campaign.n_quarantined": res.n_quarantined,
        "campaign.n_lake_hits": res.n_lake_hits,
    })
    result.check("all_points_computed", res.n_computed == n_points == len(res.plan) == len(res.table))
    result.check("no_quarantined_points", res.n_quarantined == 0)
    result.check("no_lake_hits", res.n_lake_hits == 0)
    result.check("every_point_checkpointed", len(point_walls) == n_points)
    result.input_digest = inp.digest
    result.output_digest = hashlib.sha256((out_dir / "results.csv").read_bytes()).hexdigest()
    return result


def setup_serve(seed: int, scale: float, workdir: Path) -> Any:
    n_phase = SERVE_CHUNK * scaled(SERVE_PHASE_CHUNKS, scale, 4)
    n_backlog = SERVE_CHUNK * scaled(SERVE_BACKLOG_CHUNKS, scale, 4)
    spec = replace(get_spec("MSNFS").scaled(n_phase + n_backlog), seed=seed)
    old = collect_trace(generate_intents(spec), old_node(), record_device_times=True)
    lines = [(row + "\n").encode("utf-8") for row in iter_csv_rows(old)]
    return SimpleNamespace(
        header=lines[0],
        rows=lines[1:],
        n_phase=n_phase,
        n_backlog=n_backlog,
        digest=trace_digest(old).hex(),
    )


class _ServeLoad:
    """Open-loop generator plus ``out.csv`` watcher around the service.

    The generator appends record ``k`` when it falls due at
    ``t0 + k / rate`` (batching whatever is due when it wakes), then,
    once every phase-1 row but the carried one is visible, appends the
    backlog in one write.  The watcher stamps the moment each row
    becomes visible in ``out.csv`` and each checkpoint replacement.
    """

    def __init__(self, inp: Any, rate: float, src: Path, svc_dir: Path) -> None:
        self.inp, self.rate, self.src, self.svc_dir = inp, rate, src, svc_dir
        total = inp.n_phase + inp.n_backlog
        self.due = np.empty(inp.n_phase)
        self.written_at = np.empty(inp.n_phase)
        self.visible_at = np.full(total, np.nan)
        self.commit_at: list[float] = []
        self.written = 0
        self.visible = 0
        self.backlog_max = 0
        self.t_backlog: float | None = None
        self.stop = threading.Event()
        self.error: BaseException | None = None

    def generate(self) -> None:
        try:
            n1, rows = self.inp.n_phase, self.inp.rows
            with self.src.open("ab", buffering=0) as handle:
                t0 = time.perf_counter()
                self.due[:] = t0 + np.arange(n1) / self.rate
                k = 0
                while k < n1 and not self.stop.is_set():
                    now = time.perf_counter()
                    j = min(n1, int((now - t0) * self.rate) + 1)
                    if j <= k:
                        time.sleep(max(0.0, self.due[k] - now))
                        continue
                    handle.write(b"".join(rows[k:j]))
                    self.written_at[k:j] = time.perf_counter()
                    self.written = k = j
                while self.visible < n1 - 1 and not self.stop.is_set():
                    time.sleep(SERVE_WATCH_S)
                self.t_backlog = time.perf_counter()
                handle.write(b"".join(rows[n1:]))
                self.written = len(rows)
        except BaseException as exc:  # noqa: BLE001 - reported by the pass
            self.error = exc

    def watch(self) -> None:
        try:
            out, checkpoint = self.svc_dir / "out.csv", self.svc_dir / "checkpoint.json"
            total = len(self.visible_at)
            while not out.exists() and not self.stop.is_set():
                time.sleep(SERVE_WATCH_S)
            header_pending = True
            last_commit = None
            with out.open("rb") as handle:
                while self.visible < total and not self.stop.is_set():
                    data = handle.read()
                    now = time.perf_counter()
                    try:
                        stamp = checkpoint.stat().st_mtime_ns
                    except FileNotFoundError:
                        stamp = None
                    if stamp is not None and stamp != last_commit:
                        last_commit = stamp
                        self.commit_at.append(now)
                    lines = data.count(b"\n")
                    if header_pending and lines:
                        lines -= 1
                        header_pending = False
                    self.visible_at[self.visible : self.visible + lines] = now
                    self.visible += lines
                    if self.written < len(self.inp.rows):
                        self.backlog_max = max(self.backlog_max, self.written - self.visible)
                    # Poll gently while the backlog drains: every wake-up
                    # takes the interpreter lock from the service.
                    draining = self.t_backlog is not None
                    time.sleep(SERVE_DRAIN_WATCH_S if draining else SERVE_WATCH_S)
        except BaseException as exc:  # noqa: BLE001 - reported by the pass
            self.error = exc


def job_serve(inp: Any, tracer: Tracer, workdir: Path, oracle: bool, rate: float) -> PassResult:
    n1, n2 = inp.n_phase, inp.n_backlog
    result = PassResult(units=n1 + n2, job_requests=n2)
    src, svc_dir = workdir / "stream.csv", workdir / "service"
    src.write_bytes(inp.header)
    service = StreamingReconstructionService(
        FileTailSource(src),
        new_node(),
        svc_dir,
        ServiceConfig(chunk_requests=SERVE_CHUNK, until_idle_s=SERVE_UNTIL_IDLE_S),
        tracker=reconstructor(tracer),
    )
    load = _ServeLoad(inp, rate, src, svc_dir)
    threads = [
        threading.Thread(target=load.generate, name="perfbench-generator"),
        threading.Thread(target=load.watch, name="perfbench-watcher"),
    ]
    for thread in threads:
        thread.start()
    run_start = time.perf_counter()
    try:
        with tracer.span("service.run"):
            metrics = service.run(install_signal_handlers=False)
    finally:
        load.stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
    result.check("load_threads_ended", not any(t.is_alive() for t in threads) and load.error is None)
    result.check("service_finished", service.outcome == "finished" and metrics is not None)
    quarantined = sum(1 for line in service.quarantine_path.read_text().splitlines() if line.strip())
    result.check("no_quarantined_records", quarantined == 0)
    result.values["service.quarantined"] = quarantined
    if metrics is not None:
        result.values["service.chunks"] = metrics.n_chunks
    complete = load.visible == n1 + n2 and load.t_backlog is not None
    result.check("every_row_visible", complete)
    sink = service.sink_path.read_bytes()
    result.input_digest = inp.digest
    result.output_digest = hashlib.sha256(sink).hexdigest()
    if not complete:
        # A failed stream still reports, with the whole service run as
        # its drain, so the result names the failed checks.
        result.steps["drain"] = [(run_start, time.perf_counter())]
        return result
    # Row k is visible once its chunk commits; the last phase-1 row is
    # carried into the backlog's first chunk, so it is left out.
    latency_ms = (load.visible_at[: n1 - 1] - load.due[: n1 - 1]) * 1e3
    phase1 = [t for t in load.commit_at if t < load.t_backlog]
    result.steps["drain"] = [(load.t_backlog, float(load.visible_at[n1 + n2 - 2]))]
    result.values.update({
        "serve_p50_ms": float(np.percentile(latency_ms, 50)),
        "serve_p99_ms": float(np.percentile(latency_ms, 99)),
        "service.commit_interval_p50_ms": (
            float(np.median(np.diff(phase1)) * 1e3) if len(phase1) > 1 else 0.0
        ),
        "service.backlog_max_rows": load.backlog_max,
        "service.generator_late_p99_ms": float(np.percentile(load.written_at - load.due, 99) * 1e3),
    })
    if oracle:
        batch = TraceTracker().pipeline.run_stream(
            TraceReader(src, chunk_requests=SERVE_CHUNK), new_node()
        )
        expected = io.StringIO()
        write_csv(batch.trace, expected)
        result.check("out_csv_matches_batch_oracle", sink == expected.getvalue().encode("utf-8"))
    return result


SETUPS = {
    "pair-msnfs": setup_pair,
    "remaster-homes-file": setup_homes,
    "campaign-zoo": setup_campaign,
    "serve-tail": setup_serve,
}


def input_digest(workload: str, seed: int, scale: float, workdir: Path) -> str:
    """Digest of the inputs a workload's set-up builds for ``seed``."""
    workdir.mkdir(parents=True, exist_ok=True)
    inp = SETUPS[workload](seed, scale, workdir)
    if workload == "pair-msnfs":
        return trace_digest(collect_trace(generate_intents(inp.spec), old_node())).hex()
    return inp.digest


def run_pass(args: argparse.Namespace) -> dict[str, Any]:
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(enabled=bool(args.traced))
    inp = SETUPS[args.workload](args.seed, args.scale, workdir)
    job_start = time.perf_counter()
    if args.workload == "pair-msnfs":
        result = job_pair(inp, tracer, workdir, args.oracle)
    elif args.workload == "remaster-homes-file":
        result = job_homes(inp, tracer, workdir, args.oracle)
    elif args.workload == "campaign-zoo":
        result = job_campaign(inp, tracer, workdir)
    else:
        result = job_serve(inp, tracer, workdir, args.oracle, args.serve_rate)
    job_elapsed_s = time.perf_counter() - job_start
    doc: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.traced),
        "setup": (_T_START, job_start),
        "job_elapsed_s": job_elapsed_s,
        "units": result.units,
        "job_requests": result.job_requests,
        "steps": result.steps,
        "values": result.values,
        "checks": result.checks,
        "input_digest": result.input_digest,
        "output_digest": result.output_digest,
        "peak_rss_mb": peak_rss_mb(),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    if tracer.enabled:
        doc["spans"] = [asdict(span) for span in tracer.spans]
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--serve-rate", type=float, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--oracle", action="store_true",
                        help="also compare the output with the scalar or batch oracle")
    args = parser.parse_args(argv)
    print(json.dumps(run_pass(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
