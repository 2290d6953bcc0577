"""TraceTracker end-to-end benchmark: one workload, one seed, one result.

Run from the repository root::

    python3 perfbench/run.py --serve-rate 8000 --workload pair-msnfs \
        --seed 1 --seconds 25 --trace 0

The run repeats *passes* of the workload for ``--seconds`` seconds.
Each pass is a fresh interpreter (``one_pass.py``), so the library's
memos start cold as in one ``repro-*`` invocation; the trace store is
disabled and every output directory is new.  Figures are medians over
the passes.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer
metrics, the per-layer self times, and the tracing overhead.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full result, with the environment it ran in and every
pass (a traced pass with its spans), is also written under
``.perfbench_run/out/``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from spans import Span, busy_by_name, self_time_by_layer

HERE = Path(__file__).resolve().parent
WORKLOADS = ("pair-msnfs", "remaster-homes-file", "campaign-zoo", "serve-tail")

#: A run must end within this many seconds, passes included.
RUN_BUDGET_S = 170.0

#: (name, unit) of every end-to-end metric, as in BENCHMARK.json.
END_TO_END = (
    ("job_req_per_s", "req/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric, as in BENCHMARK.json.  A
#: layer a workload never calls reads 0.
PER_LAYER = (
    ("pair_build_req_per_s", "req/s"),
    ("reconstruct_req_per_s", "req/s"),
    ("remaster_file_req_per_s", "req/s"),
    ("qd8_replay_req_per_s", "req/s"),
    ("campaign_points_per_s", "1/s"),
    ("serve_p50_ms", "ms"),
    ("serve_p99_ms", "ms"),
    ("serve_drain_req_per_s", "req/s"),
    ("idle_freq_accuracy", "ratio"),
    ("idle_period_accuracy", "ratio"),
    ("workloads.generate_intents.busy_s", "s"),
    ("workloads.collect_trace.old.busy_s", "s"),
    ("workloads.collect_trace.new.busy_s", "s"),
    ("core.infer.busy_s", "s"),
    ("core.emulate.busy_s", "s"),
    ("core.postprocess.busy_s", "s"),
    ("core.metrics.busy_s", "s"),
    ("inference.idle_gaps", "count"),
    ("replay.postprocess.async_gaps", "count"),
    ("trace.io.parse.busy_s", "s"),
    ("trace.writers.write_csv.busy_s", "s"),
    ("trace.io.store.save.busy_s", "s"),
    ("trace.io.store.load.busy_s", "s"),
    ("replay.qdepth.busy_s", "s"),
    ("campaign.point_wall_p50_s", "s"),
    ("campaign.point_wall_p90_s", "s"),
    ("campaign.worker_busy_ratio", "ratio"),
    ("campaign.n_points", "count"),
    ("campaign.n_quarantined", "count"),
    ("campaign.n_lake_hits", "count"),
    ("service.commit_interval_p50_ms", "ms"),
    ("service.backlog_max_rows", "count"),
    ("service.generator_late_p99_ms", "ms"),
    ("service.chunks", "count"),
    ("service.quarantined", "count"),
    ("workloads.self_s", "s"),
    ("core.self_s", "s"),
    ("trace.self_s", "s"),
    ("replay.self_s", "s"),
    ("campaign.self_s", "s"),
    ("service.self_s", "s"),
    ("bench.tracing_overhead_s", "s"),
)

#: Stage rates from the untraced passes' step times: the steps a rate
#: covers (all must have run), timed against the pass's request count.
_STAGE_RATES = {
    "pair_build_req_per_s": (
        "workloads.generate_intents",
        "workloads.collect_trace.old",
        "workloads.collect_trace.new",
    ),
    "reconstruct_req_per_s": ("core.reconstruct",),
    "remaster_file_req_per_s": (
        "trace.io.parse",
        "core.reconstruct",
        "trace.writers.write_csv",
        "trace.io.store.save",
        "trace.io.store.load",
    ),
    "qd8_replay_req_per_s": ("replay.qdepth",),
    "serve_drain_req_per_s": ("drain",),
}


class PassFailed(RuntimeError):
    """A pass crashed or printed no result; the run reports nothing."""


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


class SpeedTrack:
    """The probes' samples, turning raw intervals into reference seconds.

    An interval of ``d`` raw seconds during which the probe loop took
    ``m`` seconds on average counts as ``d * (REF_PROBE_S / m) **
    ELASTICITY``: the time it would have taken on a core where the loop
    takes ``REF_PROBE_S``.  The mean is over the samples of the pass's
    CPUs that fall inside the interval, widened around it until at
    least ``MIN_SAMPLES``.  ``ELASTICITY`` is how much more the
    library's work slows than the probe loop when the host slows: the
    slope of log job time on log probe time within runs, measured at
    1.08-1.20 on three workloads and 1.7 on the two-process campaign
    over 20 runs each.
    """

    REF_PROBE_S = 0.0004
    ELASTICITY = 1.2
    MIN_SAMPLES = 3

    def __init__(self, samples: list[tuple[float, float]]) -> None:
        samples.sort()
        self.times = [t for t, _ in samples]
        self.loops = [d for _, d in samples]

    def slowness(self, start: float, end: float) -> float:
        pad = 0.0
        while True:
            lo = bisect.bisect_left(self.times, start - pad)
            hi = bisect.bisect_right(self.times, end + pad)
            if hi - lo >= self.MIN_SAMPLES or (lo == 0 and hi == len(self.times)):
                break
            pad += 0.05
        window = self.loops[lo:hi]
        if not window:
            raise PassFailed("the speed probes recorded no samples")
        return sum(window) / len(window)

    def ref_seconds(self, start: float, end: float) -> float:
        return (end - start) * (self.REF_PROBE_S / self.slowness(start, end)) ** self.ELASTICITY


def child_env(root: Path, tmp: Path) -> dict[str, str]:
    """Environment of every pass: store off, caches and temp in the checkout."""
    env = dict(os.environ)
    for name in ("REPRO_TRACE_STORE_DIR", "REPRO_LAKE_DB", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_TRACE_STORE"] = "0"
    env["REPRO_CACHE_DIR"] = str(tmp / "cache")
    env["TMPDIR"] = str(tmp)
    return env


def run_child(cmd: list[str], env: dict[str, str], timeout: float, cpus: set[int]) -> str:
    """Run one child on ``cpus`` to completion.

    The child leads its own process group, so a timeout or an
    interrupt kills it together with any worker it started.
    """
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True, preexec_fn=lambda: os.sched_setaffinity(0, cpus),
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise PassFailed(f"timed out: {' '.join(cmd)}") from None
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if proc.returncode != 0:
        raise PassFailed(f"exit {proc.returncode}: {' '.join(cmd)}\n{stderr[-4000:]}")
    return stdout


class Probes:
    """One ``probe.py`` per CPU, for the whole run."""

    def __init__(self, cpus: set[int], tmp: Path) -> None:
        self.paths = [tmp / f"probe-cpu{cpu}.txt" for cpu in sorted(cpus)]
        self.procs = [
            subprocess.Popen([sys.executable, str(HERE / "probe.py"), str(cpu), str(path)])
            for cpu, path in zip(sorted(cpus), self.paths)
        ]

    def stop(self) -> SpeedTrack:
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        samples = []
        for path in self.paths:
            if path.exists():
                for line in path.read_text(encoding="utf-8").splitlines():
                    fields = line.split()
                    if len(fields) == 2:
                        samples.append((float(fields[0]), float(fields[1])))
        return SpeedTrack(samples)


def run_pass(args: argparse.Namespace, index: int, traced: bool, env: dict[str, str],
             tmp: Path, deadline: float, cpus: set[int]) -> dict[str, Any]:
    cmd = [
        sys.executable, str(HERE / "one_pass.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--scale", repr(args.scale),
        "--serve-rate", repr(args.serve_rate),
        "--traced", "1" if traced else "0",
        "--workdir", str(tmp / f"pass{index}"),
    ]
    if index == 0:
        # Later passes are held to the first one's output digest.
        cmd.append("--oracle")
    stdout = run_child(cmd, env, deadline - time.perf_counter(), cpus)
    lines = stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise PassFailed(f"pass {index} printed no result") from None
    shutil.rmtree(tmp / f"pass{index}", ignore_errors=True)
    return doc


def measure(passes: list[dict[str, Any]], track: SpeedTrack) -> None:
    """Add each pass's set-up and step times in reference seconds."""
    for p in passes:
        p["setup_ref_s"] = track.ref_seconds(*p["setup"])
        p["steps_ref_s"] = {
            name: sum(track.ref_seconds(a, b) for a, b in intervals)
            for name, intervals in p["steps"].items()
        }
        p["steps_raw_s"] = {
            name: sum(b - a for a, b in intervals) for name, intervals in p["steps"].items()
        }
        p["job_ref_s"] = sum(p["steps_ref_s"].values())
        p["job_raw_s"] = sum(p["steps_raw_s"].values())
        p["slowness_s"] = track.slowness(p["setup"][0], max(b for iv in p["steps"].values() for _, b in iv))
        if p["traced"]:
            spans = [Span(**d) for d in p["spans"]]
            p["busy_s"] = busy_by_name(spans, lambda s: track.ref_seconds(s.start, s.end))
            p["self_s"] = self_time_by_layer(spans, lambda s: track.ref_seconds(s.start, s.end))
            p["raw_self_sum_s"] = sum(self_time_by_layer(spans, lambda s: s.end - s.start).values())


def layer_metrics(untraced: list[dict[str, Any]], traced: list[dict[str, Any]]) -> dict[str, float]:
    """Medians of every per-layer metric (0 for layers the workload skips)."""
    values = {
        name: median([p["values"][name] for p in untraced if name in p["values"]])
        for name, _ in PER_LAYER
    }
    for name, steps in _STAGE_RATES.items():
        values[name] = median([
            p["job_requests"] / sum(p["steps_ref_s"][s] for s in steps)
            for p in untraced
            if all(s in p["steps_ref_s"] for s in steps)
        ])
    values["campaign_points_per_s"] = median([
        p["values"]["campaign.n_points"] / p["steps_ref_s"]["campaign.run"]
        for p in untraced if "campaign.run" in p["steps_ref_s"]
    ])
    for name, _ in PER_LAYER:
        if name.endswith(".busy_s"):
            call = name[: -len(".busy_s")]
            values[name] = median([p["busy_s"].get(call, 0.0) for p in traced])
        elif name.endswith(".self_s"):
            layer = name[: -len(".self_s")]
            values[name] = median([p["self_s"].get(layer, 0.0) for p in traced])
    values["bench.tracing_overhead_s"] = median([p["job_ref_s"] for p in traced]) - median(
        [p["job_ref_s"] for p in untraced]
    )
    return values


def cross_pass_checks(passes: list[dict[str, Any]]) -> list[tuple[str, bool]]:
    """Every pass saw the same inputs and produced the same outputs.

    Traced and untraced passes of one seed must agree on both, and a
    traced pass's layer self times must fit in its job's wall time.
    """
    checks = [
        ("inputs_identical_across_passes", len({p["input_digest"] for p in passes}) == 1),
        ("outputs_identical_across_passes", len({p["output_digest"] for p in passes}) == 1),
    ]
    for p in passes:
        if p["traced"]:
            checks.append(("layer_self_within_wall", p["raw_self_sum_s"] <= p["job_elapsed_s"]))
    return checks


def environment(args: argparse.Namespace, passes: list[dict[str, Any]], cpus: set[int]) -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "pass_cpus": sorted(cpus),
        "python": passes[0]["python"],
        "numpy": passes[0]["numpy"],
        "platform": platform.platform(),
        "memos": "cold: one fresh interpreter per pass",
        "trace_store": "disabled (REPRO_TRACE_STORE=0)",
        "lake": "fresh per campaign pass",
        "serve_rate_per_s": args.serve_rate,
        "scale": args.scale,
        "seconds": args.seconds,
        "probe_reference_s": SpeedTrack.REF_PROBE_S,
        "probe_mean_s": median([p["slowness_s"] for p in passes]),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--serve-rate", type=float, required=True,
                        help="open-loop append rate of serve-tail, records/s")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input-size factor (tests use small values)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.serve_rate <= 0 or args.scale <= 0:
        parser.error("--seconds, --serve-rate and --scale must be positive")

    # A terminated run still stops its probes and its current pass.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    run_dir = root / ".perfbench_run"
    tmp = run_dir / "tmp" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    out = run_dir / "out"
    tmp.mkdir(parents=True, exist_ok=True)
    out.mkdir(parents=True, exist_ok=True)
    env = child_env(root, tmp)
    deadline = time.perf_counter() + RUN_BUDGET_S
    # The campaign's workers use every CPU; the other workloads are one
    # interpreter, pinned to one CPU so one probe watches its speed.
    allowed = os.sched_getaffinity(0)
    cpus = allowed if args.workload == "campaign-zoo" else {max(allowed)}
    probes = None
    try:
        # Compile the package once, untimed: a user's install has its
        # bytecode cached, so no pass should pay for compilation.
        run_child([sys.executable, "-c", "import repro.campaign, repro.service, repro.experiments"],
                  env, deadline - time.perf_counter(), cpus)
        probes = Probes(cpus, tmp)
        passes: list[dict[str, Any]] = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(args, len(passes), traced, env, tmp, deadline, cpus))
            elapsed = time.perf_counter() - start
            need_traced = bool(args.trace) and not any(p["traced"] for p in passes)
            if elapsed >= args.seconds and not need_traced:
                break
            # Stop early rather than let one more pass overrun the budget.
            if time.perf_counter() + elapsed / len(passes) * 1.5 > deadline and not need_traced:
                break
        track = probes.stop()
        probes = None
        measure(passes, track)
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        if probes is not None:
            probes.stop()
        shutil.rmtree(tmp, ignore_errors=True)

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    checks = [(name, ok) for p in passes for name, ok in p["checks"]] + cross_pass_checks(passes)
    failed_checks = sorted({name for name, ok in checks if not ok})
    attempted = sum(p["units"] for p in passes)
    failed = sum(p["units"] for p in passes if not all(ok for _, ok in p["checks"]))
    if failed_checks and not failed:
        failed = attempted  # a cross-pass check failed: no pass can be trusted

    if args.trace:
        values = layer_metrics(untraced, traced)
        table = PER_LAYER
    else:
        values = {
            "job_req_per_s": median([p["job_requests"] / p["job_ref_s"] for p in untraced]),
            "setup_s": median([p["setup_ref_s"] for p in untraced]),
            "peak_rss_mb": median([p["peak_rss_mb"] for p in untraced]),
        }
        table = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in table}

    env_doc = environment(args, passes, cpus)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(untraced)} untraced + {len(traced)} traced pass(es)")
    print("environment: " + json.dumps(env_doc, sort_keys=True))
    for name, unit in table:
        print(f"  {name:36s} {values[name]:>16.6g} {unit}")
    if not args.trace:
        # The raw wall-clock figures, and the stage figures behind the
        # end-to-end number.
        raw_rate = median([p["job_requests"] / p["job_raw_s"] for p in untraced])
        raw_setup = median([p["setup"][1] - p["setup"][0] for p in untraced])
        print(f"  (raw job_req_per_s {raw_rate:.6g} req/s, raw setup_s {raw_setup:.4g} s)")
        for name, value in sorted(layer_metrics(untraced, []).items()):
            if value and name != "bench.tracing_overhead_s":
                print(f"  ({name:34s} {value:>16.6g})")
    print(f"checks: {len(checks)} run, failed: {failed_checks or 'none'}")
    result = {
        "correct": not failed_checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {"result": result, "environment": env_doc, "passes": passes,
              "workload": args.workload, "seed": args.seed, "trace": args.trace}
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
