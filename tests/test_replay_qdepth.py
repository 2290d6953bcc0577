"""Unit tests for queue-depth replay."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.nodes import new_node
from repro.replay import replay_queue_depth, replay_with_idle
from repro.storage import ConstantLatencyDevice, FlashArray, SATA_600
from repro.trace import BlockTrace


def pattern(n: int = 40) -> BlockTrace:
    ts = np.arange(n) * 10_000.0
    return BlockTrace(ts, np.arange(n) * 8, np.full(n, 8), np.zeros(n, dtype=int), name="p")


class TestQueueDepthReplay:
    def test_depth_one_matches_sync_replay_timing(self):
        old = pattern(10)
        device = ConstantLatencyDevice(SATA_600, read_us=200.0, write_us=200.0)
        qd = replay_queue_depth(old, device, queue_depth=1)
        device2 = ConstantLatencyDevice(SATA_600, read_us=200.0, write_us=200.0)
        sync = replay_with_idle(old, device2, None)
        # Same completion-driven pacing (identical durations).
        assert qd.trace.duration == pytest.approx(sync.trace.duration, rel=0.05)

    def test_deeper_queue_is_faster(self):
        old = pattern(60)
        d1 = replay_queue_depth(old, FlashArray(), queue_depth=1).trace.duration
        d8 = replay_queue_depth(old, FlashArray(), queue_depth=8).trace.duration
        assert d8 < d1

    def test_window_bound_respected(self):
        old = pattern(30)
        device = ConstantLatencyDevice(SATA_600, read_us=1_000.0, write_us=1_000.0)
        result = replay_queue_depth(old, device, queue_depth=2)
        # At most 2 requests may be submitted before the first finishes.
        submits = result.trace.timestamps
        finishes = np.array([c.finish for c in result.completions])
        for i in range(2, len(submits)):
            assert submits[i] >= finishes[i - 2] - 1e-9

    def test_preserves_pattern_and_collects_device_times(self):
        old = pattern(15)
        result = replay_queue_depth(old, FlashArray(), queue_depth=4)
        np.testing.assert_array_equal(result.trace.lbas, old.lbas)
        assert result.trace.has_device_times
        assert result.trace.metadata["queue_depth"] == 4

    def test_idle_is_injected_between_submissions(self):
        old = pattern(5)
        idle = np.full(4, 50_000.0)
        device = ConstantLatencyDevice(SATA_600, read_us=10.0, write_us=10.0)
        result = replay_queue_depth(old, device, idle_us=idle, queue_depth=4)
        gaps = result.trace.inter_arrival_times()
        assert (gaps >= 50_000.0).all()

    def test_validation(self):
        old = pattern(5)
        device = ConstantLatencyDevice(SATA_600)
        with pytest.raises(ValueError):
            replay_queue_depth(old, device, queue_depth=0)
        with pytest.raises(ValueError):
            replay_queue_depth(old, device, idle_us=np.zeros(2))
        with pytest.raises(ValueError):
            replay_queue_depth(BlockTrace([], [], [], []), device)
        with pytest.raises(ValueError):
            replay_queue_depth(old, device, idle_us=np.full(4, -1.0))


def _mixed_trace(n: int = 400, seed: int = 5) -> tuple[BlockTrace, np.ndarray]:
    """Mixed reads/writes with idle periods both shorter and longer than service."""
    rng = np.random.default_rng(seed)
    trace = BlockTrace(
        timestamps=np.cumsum(rng.integers(1, 500, n)).astype(np.float64),
        lbas=rng.integers(0, 1 << 24, n),
        sizes=rng.integers(1, 256, n),
        ops=rng.integers(0, 2, n).astype(np.int8),
    )
    idle = rng.choice([0.0, 5.0, 80.0, 3_000.0], size=n - 1)
    return trace, idle


DEPTH_ONE_DEVICES = {
    "new-node": new_node,
    "constant-latency": lambda: ConstantLatencyDevice(SATA_600, read_us=200.0, write_us=350.0),
}


class TestDepthOneSubmitRule:
    """The documented queue_depth=1 rule, pinned at tolerance zero."""

    @pytest.mark.parametrize("device", sorted(DEPTH_ONE_DEVICES))
    def test_submit_is_max_of_ack_plus_idle_and_previous_finish(self, device):
        trace, idle = _mixed_trace()
        result = replay_queue_depth(
            trace, DEPTH_ONE_DEVICES[device](), idle_us=idle, queue_depth=1
        )
        expected = np.empty(len(trace))
        expected[0] = 0.0
        expected[1:] = np.maximum(result.acks[:-1] + idle, result.finishes[:-1])
        np.testing.assert_array_equal(result.submits, expected)
        np.testing.assert_array_equal(result.trace.timestamps, expected)
        # Think time overlaps service: somewhere the idle period fits
        # inside the previous request's service, so the sync rule
        # (finish + idle) would submit strictly later.
        assert np.any(result.submits[1:] < result.finishes[:-1] + idle)

    @pytest.mark.parametrize("device", sorted(DEPTH_ONE_DEVICES))
    def test_zero_idle_equals_synchronous_replay(self, device):
        trace, __ = _mixed_trace()
        qd = replay_queue_depth(trace, DEPTH_ONE_DEVICES[device](), queue_depth=1)
        sync = replay_with_idle(trace, DEPTH_ONE_DEVICES[device](), None)
        for name in ("submits", "acks", "starts", "finishes"):
            np.testing.assert_array_equal(getattr(qd, name), getattr(sync, name))
