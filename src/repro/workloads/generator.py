"""Synthetic workload generation and trace collection.

The paper's verification methodology issues a known request pattern to
an HDD node (producing the "OLD" trace) and to a flash node (producing
the ground-truth "NEW" trace).  We reproduce that exactly, except the
nodes are simulators:

1. a :class:`WorkloadSpec` describes an application's behaviour — size
   mix, read ratio, sequentiality, CPU bursts, user idle process,
   async fraction;
2. :func:`generate_intents` expands the spec into a deterministic
   *intent stream*: the device-independent sequence of requests plus
   the host-side think time preceding each one;
3. :func:`collect_trace` replays the intent stream against any
   :class:`~repro.storage.device.StorageDevice` with proper sync/async
   semantics and records what a block-layer tracer would see.

Because the same intent stream can be collected on different devices,
OLD/NEW trace pairs share their user behaviour by construction — the
property every verification experiment in Section V relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..storage.device import StorageDevice
from ..storage.drive import drive
from ..trace.record import OpType
from ..trace.trace import BlockTrace

__all__ = [
    "INTENT_STREAM_VERSION",
    "SizeMix",
    "IdleProcess",
    "WorkloadSpec",
    "IntentStream",
    "generate_intents",
    "collect_trace",
]

#: Identity of the :func:`generate_intents` draw scheme.  Version 2
#: draws each column in bulk from its own ``SeedSequence.spawn`` child
#: stream; version 1 drew request by request from one stream.  The
#: same spec yields a different realisation under each version, so
#: campaign run keys fold this number in.
INTENT_STREAM_VERSION = 2


@dataclass(frozen=True, slots=True)
class SizeMix:
    """Discrete request-size mixture (sectors, probability weights)."""

    sizes: tuple[int, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.sizes) != len(self.weights) or not self.sizes:
            raise ValueError("sizes and weights must be equal-length and non-empty")
        if any(s <= 0 for s in self.sizes):
            raise ValueError("sizes must be positive")
        if any(w < 0 for w in self.weights) or sum(self.weights) <= 0:
            raise ValueError("weights must be non-negative with positive sum")

    @property
    def probabilities(self) -> np.ndarray:
        """Normalised weights."""
        w = np.asarray(self.weights, dtype=np.float64)
        return w / w.sum()

    def mean_sectors(self) -> float:
        """Expected request size in sectors."""
        return float(np.dot(self.sizes, self.probabilities))

    def mean_kb(self) -> float:
        """Expected request size in KB."""
        return self.mean_sectors() * 512 / 1024

    @classmethod
    def for_average_kb(cls, avg_kb: float) -> "SizeMix":
        """Construct a plausible mixture with the requested mean size.

        Server traces are dominated by 4 KB pages with a tail of larger
        transfers; we keep a fixed shape — 4 KB, 8 KB, 32 KB, 128 KB
        buckets — and tune the tail weight to hit ``avg_kb``.  At least
        three distinct sizes are always present because the inference
        model needs two per operation type (plus variety for realism).
        """
        if avg_kb < 4.0:
            # Mostly 4 KB with a sliver of sub-page 2 KB requests.
            small_w = min(0.9, (4.0 - avg_kb) / 2.0)
            return cls(sizes=(4, 8, 16), weights=(small_w, 1.0 - small_w, 0.0001))
        buckets_kb = np.array([4.0, 8.0, 32.0, 128.0])
        # Weights: geometric with ratio r; solve r for the mean.  Ratios
        # below 1 give 4 KB-dominated mixes, above 1 large-transfer-heavy
        # ones (the mean spans ~4.6 KB to ~116 KB over this sweep).
        best = None
        for r in np.geomspace(0.01, 12.0, 600):
            w = r ** np.arange(len(buckets_kb), dtype=np.float64)
            mean = float(np.dot(buckets_kb, w) / w.sum())
            err = abs(mean - avg_kb)
            if best is None or err < best[0]:
                best = (err, w)
        assert best is not None
        weights = best[1] / best[1].sum()
        return cls(
            sizes=tuple(int(kb * 2) for kb in buckets_kb),
            weights=tuple(float(x) for x in weights),
        )


@dataclass(frozen=True, slots=True)
class IdleProcess:
    """User/system idleness model.

    With probability ``idle_fraction`` the host inserts a *user idle*
    before preparing the next request; otherwise only a short CPU burst
    (mode switches, buffer copies, address translation — the costs
    Section II attributes to the storage stack) separates requests.

    Idle periods are log-normal: ``exp(N(log(median_us), sigma))``,
    which produces the heavy right tail Figures 16/17 report (most idle
    *time* lives in the >100 ms bucket even when idle *events* are a
    minority).
    """

    idle_fraction: float = 0.2
    idle_median_us: float = 20_000.0
    idle_sigma: float = 1.6
    cpu_burst_mean_us: float = 40.0
    cpu_burst_sigma: float = 0.6

    def __post_init__(self) -> None:
        if not 0.0 <= self.idle_fraction <= 1.0:
            raise ValueError("idle_fraction must lie in [0, 1]")
        if self.idle_median_us < 0 or self.cpu_burst_mean_us < 0:
            raise ValueError("durations must be non-negative")
        for label, value in (("idle_sigma", self.idle_sigma), ("cpu_burst_sigma", self.cpu_burst_sigma)):
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{label} must be finite and non-negative")

    def sample(
        self, n: int, idle_rng: np.random.Generator, think_rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``n`` think times; returns ``(microseconds, is_user_idle)``.

        The idle/burst decisions are one bulk draw from ``idle_rng``
        and the log-normal magnitudes one bulk draw from ``think_rng``.
        """
        is_idle = idle_rng.random(n) < self.idle_fraction
        mean = np.where(
            is_idle,
            np.log(max(self.idle_median_us, 1e-9)),
            np.log(max(self.cpu_burst_mean_us, 1e-9)),
        )
        sigma = np.where(is_idle, self.idle_sigma, self.cpu_burst_sigma)
        return think_rng.lognormal(mean, sigma), is_idle


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """Deterministic description of one synthetic workload.

    Attributes mirror the knobs the paper's workloads differ in; the
    catalog (:mod:`repro.workloads.catalog`) instantiates 31 of these
    from Table I and the idle statistics of Figures 16/17.
    """

    name: str
    category: str = "synthetic"
    n_requests: int = 8_000
    read_fraction: float = 0.6
    seq_run_continue: float = 0.5
    size_mix: SizeMix = field(default_factory=lambda: SizeMix.for_average_kb(8.0))
    idle: IdleProcess = field(default_factory=IdleProcess)
    async_fraction: float = 0.2
    address_space_sectors: int = 200_000_000
    seed: int = 1

    def __post_init__(self) -> None:
        if self.n_requests <= 0:
            raise ValueError("n_requests must be positive")
        for label, value in (
            ("read_fraction", self.read_fraction),
            ("seq_run_continue", self.seq_run_continue),
            ("async_fraction", self.async_fraction),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{label} must lie in [0, 1]")
        if self.address_space_sectors <= max(self.size_mix.sizes):
            raise ValueError("address space must exceed the largest request size")

    def scaled(self, n_requests: int) -> "WorkloadSpec":
        """Copy with a different request count (same behaviour otherwise)."""
        return replace(self, n_requests=n_requests)


@dataclass(frozen=True, slots=True)
class IntentStream:
    """Device-independent request stream with ground-truth host behaviour.

    Columns (all length ``n``):

    - ``ops``, ``lbas``, ``sizes`` — the block requests;
    - ``thinks`` — host-side delay (µs) *before* each request is ready,
      relative to the moment the host became free;
    - ``is_idle`` — whether that delay was a user idle (vs a CPU burst);
    - ``syncs`` — whether the host blocks on this request's completion.
    """

    ops: np.ndarray
    lbas: np.ndarray
    sizes: np.ndarray
    thinks: np.ndarray
    is_idle: np.ndarray
    syncs: np.ndarray
    spec: WorkloadSpec

    def __len__(self) -> int:
        return len(self.ops)

    def idle_count(self) -> int:
        """Number of user-idle gaps in the stream."""
        return int(self.is_idle.sum())

    def total_idle_us(self) -> float:
        """Summed user-idle time (µs)."""
        return float(self.thinks[self.is_idle].sum())


def generate_intents(spec: WorkloadSpec) -> IntentStream:
    """Expand a :class:`WorkloadSpec` into its deterministic intent stream.

    The spatial process alternates sequential runs and random jumps:
    after each request the stream continues sequentially with
    probability ``seq_run_continue``, otherwise it jumps to a uniform
    random aligned address.  Sequential continuations keep the current
    operation type (real streams are homogeneous); jumps re-draw it.

    Every column is drawn in bulk from its own child stream of
    ``SeedSequence(spec.seed)`` (see :data:`INTENT_STREAM_VERSION`), so
    changing one knob re-draws only the columns that depend on it: a
    new :class:`IdleProcess` leaves ops, addresses, sizes and sync
    flags unchanged, and a new ``seq_run_continue`` leaves sizes, sync
    flags and think times unchanged.
    """
    n = spec.n_requests
    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(spec.seed).spawn(7)]
    size_rng, sync_rng, jump_rng, addr_rng, op_rng, idle_rng, think_rng = streams
    sizes = size_rng.choice(
        np.asarray(spec.size_mix.sizes, dtype=np.int64), size=n, p=spec.size_mix.probabilities
    )
    syncs = sync_rng.random(n) >= spec.async_fraction
    jumps = jump_rng.random(n) >= spec.seq_run_continue
    jumps[0] = True
    starts = np.flatnonzero(jumps)
    # Jump targets: uniform in [0, space - size), 4 KB aligned as
    # filesystems issue.
    addr = addr_rng.integers(0, spec.address_space_sectors - sizes[starts])
    addr -= addr % 8
    run_ops = np.where(
        op_rng.random(len(starts)) < spec.read_fraction, int(OpType.READ), int(OpType.WRITE)
    ).astype(np.int8)
    # Each request sits at its run's target plus the sectors the run
    # has already covered.
    run = np.cumsum(jumps) - 1
    offset = np.cumsum(sizes) - sizes
    lbas = addr[run] + (offset - offset[starts][run])
    ops = run_ops[run]
    thinks, is_idle = spec.idle.sample(n, idle_rng, think_rng)
    # The first request has no preceding gap to model.
    thinks[0] = 0.0
    is_idle[0] = False
    return IntentStream(
        ops=ops, lbas=lbas, sizes=sizes, thinks=thinks, is_idle=is_idle, syncs=syncs, spec=spec
    )


def collect_trace(
    intents: IntentStream,
    device: StorageDevice,
    record_device_times: bool = True,
    record_sync_flags: bool = False,
    name: str | None = None,
) -> BlockTrace:
    """Issue an intent stream to a device and record the block trace.

    Submission semantics follow the paper's Figure 2b:

    - the host becomes *free* at the previous request's completion when
      it was synchronous, or at its channel acknowledgement when it was
      asynchronous;
    - the next request is submitted ``think`` microseconds after the
      host became free (CPU burst or user idle);
    - the tracer records the submit time below the block layer, plus
      issue/completion stamps when ``record_device_times`` (an MSPS or
      MSRC style collection; pass ``False`` for an FIU-style trace).

    The device is reset before collection so runs are reproducible.

    The stream goes through :func:`repro.storage.drive.drive` with
    ``gaps = thinks`` and the intents' sync flags: a closed-form
    recurrence over the pre-priced stream on single-FIFO servers with
    gap-invariant service times (``fifo_single_server`` and a
    successful ``service_batch``), the plan loop on devices that build
    a replay plan (flash, flash arrays — the plan is content-cached, so
    a later replay of the same request columns on an equal device
    reuses it), the per-request ``_service`` loop elsewhere.  Every
    path records the stamps a ``device.submit``-driven loop would, bit
    for bit.
    """
    device.reset()
    metadata = {
        "category": intents.spec.category,
        "collected_on": device.name,
        "n_user_idles": intents.idle_count(),
        "total_user_idle_us": intents.total_idle_us(),
    }
    trace_name = name if name is not None else intents.spec.name
    svc = (
        device.service_batch(intents.ops, intents.lbas, intents.sizes)
        if device.fifo_single_server
        else None
    )
    submits, __, __, finishes = drive(
        device, intents.ops, intents.lbas, intents.sizes, intents.thinks, intents.syncs, priced=svc
    )
    return BlockTrace(
        timestamps=submits,
        lbas=intents.lbas,
        sizes=intents.sizes,
        ops=intents.ops,
        issues=submits.copy() if record_device_times else None,
        completes=finishes if record_device_times else None,
        syncs=intents.syncs if record_sync_flags else None,
        name=trace_name,
        metadata=metadata,
    )
