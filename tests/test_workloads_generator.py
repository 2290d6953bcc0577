"""Unit tests for workload specs, intent generation, and trace collection."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.storage import ConstantLatencyDevice, SATA_600
from repro.trace import OpType
from repro.workloads import (
    IdleProcess,
    IntentStream,
    SizeMix,
    WorkloadSpec,
    collect_trace,
    generate_intents,
    get_spec,
)


def _sample_think_v1(idle: IdleProcess, rng: np.random.Generator) -> tuple[float, bool]:
    """Version-1 per-request think draw (reference for ``IdleProcess.sample``)."""
    if rng.random() < idle.idle_fraction:
        period = float(rng.lognormal(np.log(max(idle.idle_median_us, 1e-9)), idle.idle_sigma))
        return period, True
    burst = float(rng.lognormal(np.log(max(idle.cpu_burst_mean_us, 1e-9)), idle.cpu_burst_sigma))
    return burst, False


def generate_intents_v1(spec: WorkloadSpec) -> IntentStream:
    """Version-1 generator: one stream, drawn request by request.

    Kept as the distributional reference for the bulk version-2
    :func:`generate_intents`; the two share every distribution but not
    their per-seed realisation.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_requests
    sizes_choices = np.asarray(spec.size_mix.sizes, dtype=np.int64)
    probs = spec.size_mix.probabilities
    ops = np.empty(n, dtype=np.int8)
    lbas = np.empty(n, dtype=np.int64)
    sizes = rng.choice(sizes_choices, size=n, p=probs)
    thinks = np.empty(n, dtype=np.float64)
    is_idle = np.empty(n, dtype=bool)
    syncs = rng.random(n) >= spec.async_fraction
    current_op = int(OpType.READ if rng.random() < spec.read_fraction else OpType.WRITE)
    cursor = int(rng.integers(0, spec.address_space_sectors // 2))
    for i in range(n):
        if i == 0 or rng.random() >= spec.seq_run_continue:
            # Random jump: new aligned location, re-draw the op type.
            cursor = int(rng.integers(0, spec.address_space_sectors - int(sizes[i])))
            cursor -= cursor % 8  # 4 KB alignment, as filesystems issue
            current_op = int(OpType.READ if rng.random() < spec.read_fraction else OpType.WRITE)
        ops[i] = current_op
        lbas[i] = cursor
        cursor += int(sizes[i])
        think, idle_flag = _sample_think_v1(spec.idle, rng)
        thinks[i] = think
        is_idle[i] = idle_flag
    # The first request has no preceding gap to model.
    thinks[0] = 0.0
    is_idle[0] = False
    return IntentStream(
        ops=ops, lbas=lbas, sizes=sizes, thinks=thinks, is_idle=is_idle, syncs=syncs, spec=spec
    )


class TestSizeMix:
    def test_mean_and_probabilities(self):
        mix = SizeMix(sizes=(8, 16), weights=(1.0, 1.0))
        assert mix.mean_sectors() == pytest.approx(12.0)
        assert mix.mean_kb() == pytest.approx(6.0)
        np.testing.assert_allclose(mix.probabilities, [0.5, 0.5])

    @pytest.mark.parametrize("avg_kb", [4.0, 8.27, 10.71, 28.79, 74.42])
    def test_for_average_kb_hits_target(self, avg_kb):
        mix = SizeMix.for_average_kb(avg_kb)
        assert mix.mean_kb() == pytest.approx(avg_kb, rel=0.15)

    def test_for_average_kb_has_size_variety(self):
        # The inference model needs at least two sizes per op type.
        for avg in (4.0, 9.0, 40.0):
            assert len(SizeMix.for_average_kb(avg).sizes) >= 3

    def test_validation(self):
        with pytest.raises(ValueError):
            SizeMix(sizes=(), weights=())
        with pytest.raises(ValueError):
            SizeMix(sizes=(8,), weights=(-1.0,))
        with pytest.raises(ValueError):
            SizeMix(sizes=(0,), weights=(1.0,))


class TestIdleProcess:
    def test_idle_fraction_respected(self, rng):
        proc = IdleProcess(idle_fraction=0.3, idle_median_us=1e5)
        __, flags = proc.sample(5000, rng, np.random.default_rng(7))
        assert np.mean(flags) == pytest.approx(0.3, abs=0.03)

    def test_idles_longer_than_bursts(self, rng):
        proc = IdleProcess(idle_fraction=0.5, idle_median_us=1e5, cpu_burst_mean_us=40.0)
        values, flags = proc.sample(2000, rng, np.random.default_rng(7))
        assert np.median(values[flags]) > 100 * np.median(values[~flags])

    def test_validation(self):
        for kwargs in (
            {"idle_fraction": 1.5},
            {"idle_median_us": -1.0},
            {"idle_sigma": -0.1},
            {"idle_sigma": float("nan")},
            {"idle_sigma": float("inf")},
            {"cpu_burst_sigma": -0.1},
            {"cpu_burst_sigma": float("nan")},
            {"cpu_burst_sigma": float("inf")},
        ):
            with pytest.raises(ValueError):
                IdleProcess(**kwargs)


class TestWorkloadSpec:
    def test_scaled(self, mixed_spec):
        assert mixed_spec.scaled(123).n_requests == 123
        # Other fields unchanged.
        assert mixed_spec.scaled(123).seed == mixed_spec.seed

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(name="x", n_requests=0)
        with pytest.raises(ValueError):
            WorkloadSpec(name="x", read_fraction=1.5)
        with pytest.raises(ValueError):
            WorkloadSpec(name="x", address_space_sectors=4)


class TestGenerateIntents:
    def test_deterministic(self, mixed_spec):
        a = generate_intents(mixed_spec)
        b = generate_intents(mixed_spec)
        np.testing.assert_array_equal(a.lbas, b.lbas)
        np.testing.assert_array_equal(a.thinks, b.thinks)

    def test_read_fraction_approximate(self, mixed_spec):
        stream = generate_intents(mixed_spec)
        read_frac = np.mean(stream.ops == int(OpType.READ))
        assert read_frac == pytest.approx(mixed_spec.read_fraction, abs=0.08)

    def test_async_fraction_approximate(self, mixed_spec):
        stream = generate_intents(mixed_spec)
        assert np.mean(~stream.syncs) == pytest.approx(mixed_spec.async_fraction, abs=0.05)

    def test_sequential_continuations_share_op(self, mixed_spec):
        stream = generate_intents(mixed_spec)
        seq_mask = stream.lbas[1:] == stream.lbas[:-1] + stream.sizes[:-1]
        same_op = stream.ops[1:] == stream.ops[:-1]
        assert same_op[seq_mask].all()

    def test_first_request_has_no_think(self, mixed_spec):
        stream = generate_intents(mixed_spec)
        assert stream.thinks[0] == 0.0
        assert not stream.is_idle[0]

    def test_idle_accounting(self, mixed_spec):
        stream = generate_intents(mixed_spec)
        assert stream.idle_count() == int(stream.is_idle.sum())
        assert stream.total_idle_us() == pytest.approx(stream.thinks[stream.is_idle].sum())

    def test_lbas_within_address_space(self, mixed_spec):
        stream = generate_intents(mixed_spec)
        assert (stream.lbas >= 0).all()
        # Sequential runs may extend a little past a jump target but
        # must stay within the configured space plus one max run.
        assert stream.lbas.max() < mixed_spec.address_space_sectors * 1.01


# Distribution checks of the bulk generator against the version-1 loop.
_N_DIST = 100_000
_DIST_SPECS = ("MSNFS", "homes", "hm")


def _ks_critical(n: int, m: int | None = None, alpha: float = 0.001) -> float:
    """Asymptotic Kolmogorov-Smirnov critical D (one- or two-sample)."""
    c = np.sqrt(-0.5 * np.log(alpha / 2))
    return float(c * np.sqrt(1 / n + (1 / m if m is not None else 0.0)))


def _ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(np.sort(a), grid, side="right") / len(a)
    cdf_b = np.searchsorted(np.sort(b), grid, side="right") / len(b)
    return float(np.abs(cdf_a - cdf_b).max())


def _run_starts(stream: IntentStream) -> np.ndarray:
    """Indices where a request does not continue its predecessor."""
    cont = stream.lbas[1:] == stream.lbas[:-1] + stream.sizes[:-1]
    return np.flatnonzero(np.concatenate([[True], ~cont]))


def _within_4_sigma(count: float, n: int, p: float) -> bool:
    return abs(count - n * p) <= 4 * np.sqrt(n * p * (1 - p)) + 1e-9


@pytest.fixture(scope="module")
def stream_pairs() -> dict[str, tuple[IntentStream, IntentStream]]:
    """(version 2, version-1 reference) streams at 10^5 requests."""
    pairs = {}
    for name in _DIST_SPECS:
        spec = get_spec(name).scaled(_N_DIST)
        pairs[name] = (generate_intents(spec), generate_intents_v1(spec))
    return pairs


@pytest.mark.parametrize("name", _DIST_SPECS)
class TestBulkGeneratorDistributions:
    def test_think_times_match_reference(self, stream_pairs, name):
        new, ref = stream_pairs[name]
        for idle in (True, False):
            a = new.thinks[1:][new.is_idle[1:] == idle]
            b = ref.thinks[1:][ref.is_idle[1:] == idle]
            assert _ks_two_sample(a, b) < _ks_critical(len(a), len(b))

    def test_size_counts_multinomial(self, stream_pairs, name):
        mix = get_spec(name).size_mix
        for stream in stream_pairs[name]:
            for size, p in zip(mix.sizes, mix.probabilities):
                assert _within_4_sigma(np.sum(stream.sizes == size), _N_DIST, p)

    def test_run_lengths_geometric(self, stream_pairs, name):
        cont = get_spec(name).seq_run_continue
        for stream in stream_pairs[name]:
            lengths = np.diff(_run_starts(stream))
            k = np.arange(1, lengths.max() + 1)
            empirical = np.searchsorted(np.sort(lengths), k, side="right") / len(lengths)
            assert np.abs(empirical - (1 - cont**k)).max() < _ks_critical(len(lengths))

    def test_read_async_idle_shares(self, stream_pairs, name):
        spec = get_spec(name)
        for stream in stream_pairs[name]:
            starts = _run_starts(stream)
            run_reads = np.sum(stream.ops[starts] == int(OpType.READ))
            assert _within_4_sigma(run_reads, len(starts), spec.read_fraction)
            assert _within_4_sigma(np.sum(~stream.syncs), _N_DIST, spec.async_fraction)
            idles = np.sum(stream.is_idle[1:])
            assert _within_4_sigma(idles, _N_DIST - 1, spec.idle.idle_fraction)

    def test_run_starts_aligned(self, stream_pairs, name):
        new, __ = stream_pairs[name]
        assert (new.lbas[_run_starts(new)] % 8 == 0).all()


class TestBulkGenerator:
    def test_column_dtypes(self, mixed_spec):
        stream = generate_intents(mixed_spec)
        assert stream.ops.dtype == np.int8
        assert stream.lbas.dtype == np.int64 and stream.sizes.dtype == np.int64
        assert stream.thinks.dtype == np.float64
        assert stream.is_idle.dtype == bool and stream.syncs.dtype == bool

    def test_idle_change_leaves_requests_untouched(self, mixed_spec):
        base = generate_intents(mixed_spec)
        idle = IdleProcess(idle_fraction=0.6, idle_median_us=90_000.0, idle_sigma=0.7)
        other = generate_intents(replace(mixed_spec, idle=idle))
        for column in ("ops", "lbas", "sizes", "syncs"):
            assert getattr(base, column).tobytes() == getattr(other, column).tobytes()
        assert base.thinks.tobytes() != other.thinks.tobytes()

    def test_sequentiality_change_leaves_sizes_and_timing_untouched(self, mixed_spec):
        base = generate_intents(mixed_spec)
        other = generate_intents(replace(mixed_spec, seq_run_continue=0.9))
        for column in ("sizes", "syncs", "thinks", "is_idle"):
            assert getattr(base, column).tobytes() == getattr(other, column).tobytes()
        assert base.lbas.tobytes() != other.lbas.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tiny_streams(self, mixed_spec, n):
        spec = mixed_spec.scaled(n)
        stream = generate_intents(spec)
        assert len(stream) == n
        for column in ("lbas", "sizes", "thinks", "is_idle", "syncs"):
            assert len(getattr(stream, column)) == n
        assert stream.thinks[0] == 0.0 and not stream.is_idle[0]
        assert stream.lbas[0] % 8 == 0
        assert 0 <= stream.lbas[0] <= spec.address_space_sectors - stream.sizes[0]
        assert (stream.lbas >= 0).all()
        assert set(stream.ops.tolist()) <= {int(OpType.READ), int(OpType.WRITE)}
        assert (stream.thinks[1:] > 0).all()


class TestCollectTrace:
    def test_sync_semantics_gap_includes_service(self):
        # All-sync, no idle: each gap = previous completion + think(0).
        spec = WorkloadSpec(
            name="sync",
            n_requests=50,
            async_fraction=0.0,
            idle=IdleProcess(idle_fraction=0.0, cpu_burst_mean_us=10.0),
            seq_run_continue=0.0,
            seed=3,
        )
        device = ConstantLatencyDevice(SATA_600, read_us=500.0, write_us=500.0)
        trace = collect_trace(generate_intents(spec), device)
        gaps = trace.inter_arrival_times()
        # Every gap must exceed the 500 us device time (sync wait).
        assert (gaps > 500.0).all()

    def test_async_requests_produce_short_gaps(self):
        spec = WorkloadSpec(
            name="async",
            n_requests=200,
            async_fraction=1.0,
            idle=IdleProcess(idle_fraction=0.0, cpu_burst_mean_us=10.0),
            seq_run_continue=0.0,
            seed=3,
        )
        device = ConstantLatencyDevice(SATA_600, read_us=500.0, write_us=500.0)
        trace = collect_trace(generate_intents(spec), device)
        gaps = trace.inter_arrival_times()
        # Async submitters only pay channel delay + burst, far below 500us.
        assert np.median(gaps) < 200.0

    def test_device_stamps_optional(self, mixed_spec, const_device):
        stream = generate_intents(mixed_spec.scaled(100))
        with_dev = collect_trace(stream, const_device, record_device_times=True)
        without = collect_trace(stream, const_device, record_device_times=False)
        assert with_dev.has_device_times
        assert not without.has_device_times
        np.testing.assert_allclose(with_dev.timestamps, without.timestamps)

    def test_sync_flags_recorded_when_asked(self, mixed_spec, const_device):
        stream = generate_intents(mixed_spec.scaled(100))
        trace = collect_trace(stream, const_device, record_sync_flags=True)
        assert trace.has_sync_flags
        assert trace.syncs is not None
        np.testing.assert_array_equal(trace.syncs, stream.syncs)

    def test_metadata_carries_ground_truth(self, mixed_spec, const_device):
        stream = generate_intents(mixed_spec.scaled(100))
        trace = collect_trace(stream, const_device)
        assert trace.metadata["n_user_idles"] == stream.idle_count()
        assert trace.metadata["collected_on"] == const_device.name

    def test_same_pattern_different_devices(self, mixed_spec, hdd, flash):
        # The paper's OLD/NEW methodology: identical request patterns,
        # different timing.
        stream = generate_intents(mixed_spec.scaled(300))
        old = collect_trace(stream, hdd)
        new = collect_trace(stream, flash)
        np.testing.assert_array_equal(old.lbas, new.lbas)
        np.testing.assert_array_equal(old.ops, new.ops)
        assert old.duration > new.duration  # flash is faster
