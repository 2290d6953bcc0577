"""Bit-identity suite for the device-model fast paths.

Every fast path of the storage emulation must reproduce its retained
scalar oracle *exactly* — same IEEE-754 doubles, same simulator state
afterwards:

- the memoised busy walks (``FlashSSD._busy_read`` / ``_busy_program``,
  including the exception/slice split) against the scalar per-page
  walks ``FlashSSD._read_pages`` / ``_program_pages``, at every extent
  size up to 1024 pages;
- idle-state batch pricing (``_service_batch``, flash and array)
  against per-request ``_service`` on a reset device;
- the extent and shape arithmetic the plan builders share
  (``page_span``, ``group_shapes``);
- the RAID member-stream decomposition against the scalar builders;
- the plan loop, at queue depth and synchronously, against the scalar
  replay oracles, including *simulator-state equivalence* (die/channel
  busy stamps, write-buffer occupancy, horizons, RNG state where
  present) and mixed batch/scalar use, with extents of up to 1100
  pages.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.replay import (
    replay_queue_depth,
    replay_queue_depth_scalar,
    replay_with_idle,
    replay_with_idle_batch,
)
from repro.storage import FlashArray, FlashGeometry, FlashSSD, HDDModel, Raid0, Raid1
from repro.storage.kernels import group_shapes, page_span
from repro.trace.record import OpType
from repro.trace.trace import BlockTrace
from test_replay_batch import DEVICE_FACTORIES, assert_replays_identical

#: Geometries covering the default device, a tiny array-shaped layout,
#: single-plane dies, and a buffer-less configuration.
GEOMETRIES = {
    "default": FlashGeometry(),
    "tiny": FlashGeometry(channels=3, dies_per_channel=2, planes_per_die=2, page_kb=4),
    "single-plane": FlashGeometry(channels=4, dies_per_channel=1, planes_per_die=1),
    "no-buffer": FlashGeometry(write_buffer_kb=0),
    "wide-planes": FlashGeometry(channels=2, dies_per_channel=3, planes_per_die=4),
}


def _random_state(rng, ssd):
    """Random busy stamps: a mix of idle, mildly busy, and far-future."""
    g = ssd.geometry
    die = rng.uniform(0.0, 3000.0, g.total_dies)
    die[rng.random(g.total_dies) < 0.4] = 0.0
    chan = rng.uniform(0.0, 2000.0, g.channels)
    chan[rng.random(g.channels) < 0.4] = 0.0
    ssd._die_busy = die.tolist()
    ssd._chan_busy = chan.tolist()


def _clone_state(ssd):
    return list(ssd._die_busy), list(ssd._chan_busy)


class TestBusyWalks:
    """Memoised busy walks (exception/slice split, multi-wave walks)."""

    @pytest.mark.parametrize("geom_key", sorted(GEOMETRIES))
    @pytest.mark.parametrize("interleave", [True, False])
    def test_busy_read_matches_oracle(self, geom_key, interleave):
        g = GEOMETRIES[geom_key]
        ssd = FlashSSD(geometry=g, plane_interleave=interleave)
        rng = np.random.default_rng(23)
        ps = g.page_sectors
        for n_pages in [1, 2, g.channels, g.channels + 1, 67, 1024]:
            for lba_page in [0, 3, g.total_dies + 1]:
                lba = lba_page * ps
                size = n_pages * ps
                entry = ssd._rel_entry(OpType.READ, lba // ps, n_pages, size)
                for t_ready in [0.0, 500.5]:
                    _random_state(rng, ssd)
                    d0, c0 = _clone_state(ssd)
                    oracle = ssd._read_pages(ssd._pages_of(lba, size), t_ready)
                    d1, c1 = _clone_state(ssd)
                    ssd._die_busy, ssd._chan_busy = list(d0), list(c0)
                    got = ssd._busy_read(entry, t_ready)
                    assert got == oracle
                    assert ssd._die_busy == d1
                    assert ssd._chan_busy == c1

    @pytest.mark.parametrize("geom_key", sorted(GEOMETRIES))
    @pytest.mark.parametrize("interleave", [True, False])
    def test_busy_program_matches_oracle(self, geom_key, interleave):
        g = GEOMETRIES[geom_key]
        ssd = FlashSSD(geometry=g, plane_interleave=interleave)
        rng = np.random.default_rng(29)
        ps = g.page_sectors
        for n_pages in [1, 2, g.channels, g.channels + 2, 65, 1024]:
            for lba_page in [0, 5]:
                lba = lba_page * ps
                size = n_pages * ps
                entry = ssd._rel_entry(OpType.WRITE, lba // ps, n_pages, size)
                for t_ready in [0.0, 77.125]:
                    _random_state(rng, ssd)
                    d0, c0 = _clone_state(ssd)
                    oracle = ssd._program_pages(ssd._pages_of(lba, size), t_ready)
                    d1, c1 = _clone_state(ssd)
                    ssd._die_busy, ssd._chan_busy = list(d0), list(c0)
                    got = ssd._busy_program(entry, t_ready)
                    assert got == oracle
                    assert ssd._die_busy == d1
                    assert ssd._chan_busy == c1


class TestMultiPlaneInterleave:
    """``_page_op_us`` edge cases: memoised busy walks vs the page walks."""

    def test_planes_per_die_one_no_speedup(self):
        g = FlashGeometry(channels=2, dies_per_channel=2, planes_per_die=1)
        ssd = FlashSSD(geometry=g)
        # Page count above the die count forces multi-visit waves.
        assert ssd._page_op_us(g.read_us, 3) == g.read_us
        self._assert_walks_match(g, plane_interleave=True)

    def test_interleave_disabled(self):
        self._assert_walks_match(FlashGeometry(), plane_interleave=False)

    @pytest.mark.parametrize("n_pages_per_die", [1, 2, 3, 5])
    def test_page_count_around_plane_count(self, n_pages_per_die):
        # planes_per_die = 2: covers below (1), at (2), above (3, 5).
        g = FlashGeometry(channels=2, dies_per_channel=1, planes_per_die=2)
        ssd = FlashSSD(geometry=g)
        n_pages = n_pages_per_die * g.total_dies
        oracle = ssd._read_pages(range(0, n_pages), 0.0)
        d1, c1 = list(ssd._die_busy), list(ssd._chan_busy)
        ssd.reset()
        entry = ssd._rel_entry(OpType.READ, 0, n_pages, n_pages * g.page_sectors)
        got = ssd._busy_read(entry, 0.0)
        assert got == oracle
        assert ssd._die_busy == d1 and ssd._chan_busy == c1

    @staticmethod
    def _assert_walks_match(g, plane_interleave):
        ssd = FlashSSD(geometry=g, plane_interleave=plane_interleave)
        for n_pages in [1, g.planes_per_die, g.planes_per_die + 1, 2 * g.total_dies]:
            size = n_pages * g.page_sectors
            for op, oracle_walk, busy_walk in (
                (OpType.READ, ssd._read_pages, ssd._busy_read),
                (OpType.WRITE, ssd._program_pages, ssd._busy_program),
            ):
                ssd.reset()
                oracle = oracle_walk(range(3, 3 + n_pages), 10.0)
                d1, c1 = list(ssd._die_busy), list(ssd._chan_busy)
                ssd.reset()
                got = busy_walk(ssd._rel_entry(op, 3, n_pages, size), 10.0)
                assert got == oracle
                assert ssd._die_busy == d1 and ssd._chan_busy == c1


def _random_stream(rng, n, max_lba=1 << 22, max_size=600):
    return (
        rng.integers(0, 2, n).astype(np.int8),
        rng.integers(0, max_lba, n),
        rng.integers(1, max_size, n),
    )


def _idle_service(device, ops, lbas, sizes):
    """Per-request ``_service`` on a freshly reset device at t = 0."""
    out = []
    for op, lba, size in zip(ops.tolist(), lbas.tolist(), sizes.tolist()):
        device.reset()
        start, finish = device._service(OpType(op), lba, size, 0.0)
        assert start == 0.0
        out.append(finish)
    return np.array(out, dtype=np.float64)


class TestIdleServiceBatch:
    """``_service_batch`` (memo-entry pricing) vs ``_service`` on an
    idle device, request by request; the batch call is pure."""

    @pytest.mark.parametrize("geom_key", sorted(GEOMETRIES))
    @pytest.mark.parametrize("interleave", [True, False])
    def test_flash_service_batch_identical(self, geom_key, interleave):
        g = GEOMETRIES[geom_key]
        rng = np.random.default_rng(31)
        ops, lbas, sizes = _random_stream(rng, 300)
        ssd = FlashSSD(geometry=g, plane_interleave=interleave)
        d0, c0 = _clone_state(ssd)
        got = ssd._service_batch(ops, lbas, sizes)
        assert ssd._die_busy == d0 and ssd._chan_busy == c0
        oracle = _idle_service(
            FlashSSD(geometry=g, plane_interleave=interleave), ops, lbas, sizes
        )
        np.testing.assert_array_equal(got, oracle)

    def test_array_service_batch_identical(self):
        rng = np.random.default_rng(37)
        ops, lbas, sizes = _random_stream(rng, 300)
        arr = FlashArray()
        before = _flash_state(arr)
        got = arr._service_batch(ops, lbas, sizes)
        assert _flash_state(arr) == before
        np.testing.assert_array_equal(got, _idle_service(FlashArray(), ops, lbas, sizes))

    def test_array_service_batch_wide_extents(self):
        # Extents spanning many stripes (fragment count above n_ssds).
        ops = np.array([0, 1] * 20, dtype=np.int8)
        lbas = np.arange(40, dtype=np.int64) * 13
        sizes = np.full(40, 8 * 2 * 7, dtype=np.int64)  # 7 stripes each
        got = FlashArray(n_ssds=3, stripe_kb=8)._service_batch(ops, lbas, sizes)
        oracle = _idle_service(FlashArray(n_ssds=3, stripe_kb=8), ops, lbas, sizes)
        np.testing.assert_array_equal(got, oracle)


class TestShapeArithmetic:
    """Extent and shape helpers shared by the plan builders."""

    def test_group_shapes_roundtrip(self):
        rng = np.random.default_rng(41)
        ops = rng.integers(0, 2, 500)
        slots = rng.integers(0, 36, 500)
        n_pages = rng.integers(1, 40, 500)
        sizes = rng.integers(1, 1 << 40, 500)  # forces the row-unique fallback
        uniq, inverse = group_shapes(ops, slots, n_pages, sizes)
        rebuilt = uniq[inverse]
        np.testing.assert_array_equal(rebuilt[:, 0], ops)
        np.testing.assert_array_equal(rebuilt[:, 1], slots)
        np.testing.assert_array_equal(rebuilt[:, 2], n_pages)
        np.testing.assert_array_equal(rebuilt[:, 3], sizes)

    def test_page_span_matches_pages_of(self):
        ssd = FlashSSD()
        ps = ssd.geometry.page_sectors
        for lba, size in [(0, 1), (ps - 1, 1), (ps - 1, 2), (123456, 999)]:
            first, n_pages = page_span(lba, size, ps)
            pages = ssd._pages_of(lba, size)
            assert pages.start == first and len(pages) == n_pages


class TestRaidStreams:
    """RAID fan-out: columnar member streams vs the scalar builders."""

    def _assert_streams_equal(self, got, expected):
        assert (got is None) == (expected is None)
        if expected is None:
            return
        assert len(got) == len(expected)
        for g_s, e_s in zip(got, expected):
            for col_g, col_e in zip(g_s, e_s):
                np.testing.assert_array_equal(np.asarray(col_g), np.asarray(col_e))

    def test_raid0_streams_identical(self):
        rng = np.random.default_rng(43)
        raid = Raid0([HDDModel(seed=s) for s in (1, 2, 3)], stripe_kb=64)
        ops, lbas, sizes = _random_stream(rng, 200, max_size=64 * 2 * 3)
        self._assert_streams_equal(
            raid._member_streams_columnar(ops, lbas, sizes),
            raid._member_streams_scalar(ops, lbas, sizes),
        )

    def test_raid0_wide_extent_rejected_by_both(self):
        raid = Raid0([HDDModel(seed=s) for s in (1, 2)], stripe_kb=8)
        ops = np.zeros(3, dtype=np.int8)
        lbas = np.array([0, 5, 10])
        sizes = np.array([8, 8 * 2 * 5, 8])  # middle spans > 2 stripes
        assert raid._member_streams_scalar(ops, lbas, sizes) is None
        assert raid._member_streams_columnar(ops, lbas, sizes) is None

    @pytest.mark.parametrize("counter", [0, 1, 5])
    def test_raid1_streams_identical(self, counter):
        rng = np.random.default_rng(47)
        raid = Raid1([HDDModel(seed=s) for s in (1, 2)])
        ops, lbas, sizes = _random_stream(rng, 150)
        self._assert_streams_equal(
            raid._member_streams_columnar(ops, lbas, sizes, counter),
            raid._member_streams_scalar(ops, lbas, sizes, counter),
        )

    def test_raid1_custom_policy_uses_scalar(self):
        raid = Raid1(
            [HDDModel(seed=s) for s in (1, 2)],
            read_policy=lambda lba, n: lba % n,
        )
        rng = np.random.default_rng(53)
        ops, lbas, sizes = _random_stream(rng, 60)
        streams = raid._member_streams(ops, lbas, sizes, 0)
        expected = raid._member_streams_scalar(ops, lbas, sizes, 0)
        self._assert_streams_equal(streams, expected)

    def test_raid_service_batch_end_to_end(self, monkeypatch):
        """Batch pricing over the columnar streams vs over the scalar
        builder's streams (patched in on the oracle device)."""
        rng = np.random.default_rng(59)
        for make in (
            lambda: Raid0([HDDModel(seed=s) for s in (1, 2, 3)], stripe_kb=64),
            lambda: Raid1([HDDModel(seed=s) for s in (1, 2)]),
        ):
            ops, lbas, sizes = _random_stream(rng, 120, max_size=64 * 2 * 3)
            d1, d2 = make(), make()
            monkeypatch.setattr(d2, "_member_streams", d2._member_streams_scalar)
            got = d1.service_batch(ops, lbas, sizes)
            expected = d2.service_batch(ops, lbas, sizes)
            assert (got is None) == (expected is None)
            if got is not None:
                np.testing.assert_array_equal(got, expected)


def _flash_state(device):
    """Comparable simulator-state snapshot for flash-family devices."""
    ssds = device.ssds if isinstance(device, FlashArray) else [device]
    return [
        (
            s._die_busy,
            s._chan_busy,
            s._state_horizon,
            list(s._buffered),
            s._buffered_bytes,
        )
        for s in ssds
    ]


class TestPlanReplayStateEquivalence:
    """Plan loop: stamps AND simulator state match the oracle."""

    @pytest.mark.parametrize(
        "device_key", ["flash-buffered", "flash-nobuffer", "array-default", "array-nobuffer"]
    )
    @pytest.mark.parametrize("queue_depth", [2, 4, 9])
    def test_state_after_replay(self, device_key, queue_depth):
        make = DEVICE_FACTORIES[device_key]
        rng = np.random.default_rng(61)
        n = 120
        trace = BlockTrace(
            timestamps=np.cumsum(rng.integers(1, 200, n)).astype(np.float64),
            lbas=rng.integers(0, 1 << 22, n),
            sizes=rng.integers(1, 600, n),
            ops=rng.integers(0, 2, n).astype(np.int8),
        )
        idle = rng.uniform(0, 800.0, n - 1)
        fast_dev, oracle_dev = make(), make()
        fast = replay_queue_depth(trace, fast_dev, idle_us=idle, queue_depth=queue_depth)
        oracle = replay_queue_depth_scalar(
            trace, oracle_dev, idle_us=idle, queue_depth=queue_depth
        )
        assert_replays_identical(fast, oracle)
        assert _flash_state(fast_dev) == _flash_state(oracle_dev)

    @pytest.mark.parametrize("device_key", ["flash-buffered", "array-default"])
    def test_state_after_sync_replay(self, device_key):
        """Synchronous replay (the plan loop's sync clock rule) vs the
        scalar ``replay_with_idle`` oracle, stamps and member state.

        Buffered devices only: a buffer-less device prices a synchronous
        stream with ``service_batch`` and leaves its timing state
        unspecified, so only the stamps are comparable there.
        """
        make = DEVICE_FACTORIES[device_key]
        rng = np.random.default_rng(63)
        n = 120
        trace = BlockTrace(
            timestamps=np.cumsum(rng.integers(1, 200, n)).astype(np.float64),
            lbas=rng.integers(0, 1 << 22, n),
            sizes=rng.integers(1, 600, n),
            ops=rng.integers(0, 2, n).astype(np.int8),
        )
        # Zero idles make back-to-back requests meet a busy device.
        idle = np.where(rng.random(n - 1) < 0.5, 0.0, rng.uniform(0, 800.0, n - 1))
        fast_dev, oracle_dev = make(), make()
        assert fast_dev.service_batch(trace.ops, trace.lbas, trace.sizes) is None
        fast = replay_with_idle_batch(trace, fast_dev, idle_us=idle)
        oracle = replay_with_idle(trace, oracle_dev, idle_us=idle)
        assert_replays_identical(fast, oracle)
        assert _flash_state(fast_dev) == _flash_state(oracle_dev)

    def test_state_after_mixed_batch_and_scalar_use(self):
        """Batch pricing, replay, then scalar submits — state stays lockstep."""
        rng = np.random.default_rng(67)
        n = 60
        trace = BlockTrace(
            timestamps=np.arange(n, dtype=np.float64),
            lbas=rng.integers(0, 1 << 20, n),
            sizes=rng.integers(1, 300, n),
            ops=np.zeros(n, dtype=np.int8),  # reads: batch-capable
        )
        d_fast, d_oracle = FlashArray(), FlashArray()
        # Batch pricing equals each request's ``_service`` on an idle
        # array at t_ready = 0 (so finish is the service time exactly).
        svc_fast = d_fast.service_batch(trace.ops, trace.lbas, trace.sizes)
        pricer = FlashArray()
        svc_oracle = []
        for lba, size in zip(trace.lbas.tolist(), trace.sizes.tolist()):
            pricer.reset()
            svc_oracle.append(pricer._service(OpType.READ, lba, size, 0.0)[1])
        np.testing.assert_array_equal(svc_fast, np.array(svc_oracle))
        # Replay (plan engine vs oracle), then identical scalar submits.
        fast = replay_queue_depth(trace, d_fast, queue_depth=3)
        oracle = replay_queue_depth_scalar(trace, d_oracle, queue_depth=3)
        assert_replays_identical(fast, oracle)
        t = float(fast.finishes[-1]) + 1e4
        for j in range(8):
            c_fast = d_fast.submit(OpType.READ, int(trace.lbas[j]), int(trace.sizes[j]), t)
            c_oracle = d_oracle.submit(
                OpType.READ, int(trace.lbas[j]), int(trace.sizes[j]), t
            )
            assert (c_fast.start, c_fast.ack, c_fast.finish) == (
                c_oracle.start, c_oracle.ack, c_oracle.finish
            )
            t = c_fast.finish + 5.0
        assert _flash_state(d_fast) == _flash_state(d_oracle)

    def test_hdd_rng_state_unaffected(self):
        """Non-plan devices keep RNG lockstep (regression guard)."""
        rng = np.random.default_rng(71)
        n = 40
        trace = BlockTrace(
            timestamps=np.arange(n, dtype=np.float64),
            lbas=rng.integers(0, 1 << 20, n),
            sizes=rng.integers(1, 200, n),
            ops=rng.integers(0, 2, n).astype(np.int8),
        )
        d1, d2 = HDDModel(), HDDModel()
        fast = replay_queue_depth(trace, d1, queue_depth=4)
        oracle = replay_queue_depth_scalar(trace, d2, queue_depth=4)
        assert_replays_identical(fast, oracle)
        assert d1._rng.uniform() == d2._rng.uniform()


#: Flash-family devices for the large-extent replays: every geometry
#: as a single SSD plus two array layouts (one with many-stripe extents).
LARGE_EXTENT_DEVICES = {
    **{
        f"flash-{key}": (lambda g=g: FlashSSD(geometry=g))
        for key, g in GEOMETRIES.items()
    },
    "array-default": lambda: FlashArray(),
    "array-narrow-stripes": lambda: FlashArray(n_ssds=3, stripe_kb=8),
}


def _large_extent_trace(device, n=40, seed=79):
    """Mixed trace whose extents reach 1100 flash pages."""
    geometry = device.ssds[0].geometry if isinstance(device, FlashArray) else device.geometry
    rng = np.random.default_rng(seed)
    trace = BlockTrace(
        timestamps=np.cumsum(rng.integers(1, 300, n)).astype(np.float64),
        lbas=rng.integers(0, 1 << 22, n),
        sizes=rng.integers(1, 1100, n) * geometry.page_sectors,
        ops=rng.integers(0, 2, n).astype(np.int8),
    )
    return trace, rng.uniform(0.0, 2000.0, n - 1)


class TestLargeExtentReplay:
    """Extents of hundreds of pages through the plan loop, which serves
    every extent size with the memoised walks, vs the oracles."""

    @pytest.mark.parametrize("device_key", sorted(LARGE_EXTENT_DEVICES))
    def test_sync_plan_matches_service_loop(self, device_key, monkeypatch):
        make = LARGE_EXTENT_DEVICES[device_key]
        plan_dev, loop_dev = make(), make()
        trace, idle = _large_extent_trace(plan_dev)
        with_plan = replay_with_idle_batch(trace, plan_dev, idle)
        monkeypatch.setattr(loop_dev, "replay_plan", lambda ops, lbas, sizes: None)
        without_plan = replay_with_idle_batch(trace, loop_dev, idle)
        assert_replays_identical(with_plan, without_plan)
        assert _flash_state(plan_dev) == _flash_state(loop_dev)

    @pytest.mark.parametrize("device_key", sorted(LARGE_EXTENT_DEVICES))
    def test_queue_depth_plan_matches_scalar_oracle(self, device_key):
        make = LARGE_EXTENT_DEVICES[device_key]
        fast_dev, oracle_dev = make(), make()
        trace, idle = _large_extent_trace(fast_dev)
        assert fast_dev.replay_plan(trace.ops, trace.lbas, trace.sizes) is not None
        fast = replay_queue_depth(
            trace, fast_dev, idle_us=idle, queue_depth=3, engine="plan"
        )
        oracle = replay_queue_depth_scalar(trace, oracle_dev, idle_us=idle, queue_depth=3)
        assert_replays_identical(fast, oracle)
        assert _flash_state(fast_dev) == _flash_state(oracle_dev)


class TestFastVsScalarPathPin:
    """Satellite: pin the known ~1-ulp seed-revision delta precisely.

    The memoised fast path sums *relative* offsets before adding
    ``t_ready``; the seed-era scalar walk added ``t_ready`` first.  The
    two can differ at rounding level for multi-wave shapes — but batch,
    plan-replay, and scalar engines (which all share the memoised
    ``_service``) must agree with each other with tolerance zero.
    This test pins that contract across the zoo.
    """

    @pytest.mark.parametrize("device_key", sorted(DEVICE_FACTORIES))
    def test_batch_vs_scalar_tolerance_zero(self, device_key):
        from repro.replay import replay_with_idle, replay_with_idle_batch

        rng = np.random.default_rng(79)
        n = 64
        trace = BlockTrace(
            timestamps=np.cumsum(rng.integers(1, 400, n)).astype(np.float64),
            lbas=rng.integers(0, 1 << 22, n),
            sizes=rng.integers(1, 96, n),
            ops=rng.integers(0, 2, n).astype(np.int8),
        )
        idle = rng.uniform(0.0, 1e4, n - 1)
        make = DEVICE_FACTORIES[device_key]
        batch = replay_with_idle_batch(trace, make(), idle_us=idle)
        scalar = replay_with_idle(trace, make(), idle_us=idle)
        # Tolerance-zero: assert_array_equal is exact equality.
        assert_replays_identical(batch, scalar)
