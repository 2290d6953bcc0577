"""Differential identity harness over the whole device zoo.

Every registry kind — healthy and degraded — must produce bitwise
identical replay stamps under every engine pairing:

- synchronous scalar replay vs the batch fast path;
- the production queue-depth engine vs its retained scalar oracle, at
  queue depth 1 (FIFO fast path) and 3 (``_service`` loop / plan loop);
- the plan loop vs the per-request ``_service`` loop under the
  synchronous clock rule (``replay_plan`` patched to ``None`` on the
  device instance);
- whole-stream ``service_batch`` pricing vs the same stream priced in
  two chunks (order-dependent state — stall ordinals, mirror round
  robin, SMR zone pointers — must advance identically).

The zoo itself (:func:`repro.campaign.devices.device_zoo`) is the
parametrisation source, and the coverage test pins it to the registry:
adding a device kind without a zoo entry fails here, so new models are
automatically locked into the identity matrix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign.devices import DEVICE_KINDS, FAULT_PARAMS, build_device, device_zoo
from repro.replay import (
    replay_queue_depth,
    replay_queue_depth_scalar,
    replay_with_idle,
    replay_with_idle_batch,
)
from repro.trace.trace import BlockTrace
from test_replay_batch import assert_replays_identical

ZOO = device_zoo()


def _zoo_trace(n: int = 60, seed: int = 17) -> tuple[BlockTrace, np.ndarray]:
    """Deterministic mixed read/write trace spanning the tiered split.

    LBAs range over [0, 20000) so the tiered zoo entries (flash tier
    below 8192 sectors) route requests to both tiers, and sizes stay
    below the flash write buffer often enough to exercise both the
    buffered and media write paths.
    """
    rng = np.random.default_rng(seed)
    trace = BlockTrace(
        timestamps=np.cumsum(rng.integers(1, 400, n)).astype(np.float64),
        lbas=rng.integers(0, 20_000, n),
        sizes=rng.integers(1, 96, n),
        ops=rng.integers(0, 2, n).astype(np.int8),
    )
    idle = rng.uniform(0.0, 5_000.0, n - 1)
    return trace, idle


def _build(entry: str):
    desc = dict(ZOO[entry])
    kind = desc.pop("kind")
    return build_device(kind, desc)


class TestZooCoverage:
    """The zoo is the registry's mirror — no kind or fault escapes it."""

    def test_every_registry_kind_in_zoo(self):
        zoo_kinds = {desc["kind"] for desc in ZOO.values()}
        assert zoo_kinds == set(DEVICE_KINDS)

    def test_every_fault_parameter_in_zoo(self):
        used = {key for desc in ZOO.values() for key in desc}
        missing = set(FAULT_PARAMS) - used
        assert not missing, f"fault parameters with no degraded zoo entry: {sorted(missing)}"

    def test_healthy_and_degraded_shapes_present(self):
        degraded = [
            name for name, desc in ZOO.items() if set(desc) & set(FAULT_PARAMS)
        ]
        healthy = [name for name in ZOO if name not in degraded]
        assert len(degraded) >= 8 and len(healthy) >= 8

    def test_fingerprints_distinct(self):
        prints = {name: _build(name).fingerprint() for name in ZOO}
        assert len(set(prints.values())) == len(prints)


class TestSyncReplayIdentity:
    """Scalar synchronous replay vs the batch fast path, bitwise."""

    @pytest.mark.parametrize("entry", sorted(ZOO))
    def test_sync_scalar_vs_batch(self, entry):
        trace, idle = _zoo_trace()
        scalar = replay_with_idle(trace, _build(entry), idle)
        batch = replay_with_idle_batch(trace, _build(entry), idle)
        assert_replays_identical(scalar, batch)


class TestQueueDepthIdentity:
    """Every queue-depth engine vs the scalar oracle, bitwise.

    Three differential columns per zoo entry: the scalar oracle is the
    ground truth, and the generic ``_service`` loop (``events``) and the
    plan loop (``plan``) must each reproduce its stamps exactly.
    Plan-less devices route ``plan`` back to the ``_service`` loop,
    so the parametrisation is uniform over the whole zoo — fault
    wrappers included.
    """

    @pytest.mark.parametrize("entry", sorted(ZOO))
    @pytest.mark.parametrize("queue_depth", [1, 3])
    @pytest.mark.parametrize("engine", ["events", "plan"])
    def test_qdepth_vs_scalar_oracle(self, entry, queue_depth, engine):
        trace, idle = _zoo_trace()
        fast = replay_queue_depth(
            trace, _build(entry), idle_us=idle, queue_depth=queue_depth, engine=engine
        )
        oracle = replay_queue_depth_scalar(
            trace, _build(entry), idle_us=idle, queue_depth=queue_depth
        )
        assert_replays_identical(fast, oracle)

    @pytest.mark.parametrize("entry", sorted(ZOO))
    @pytest.mark.parametrize("engine", ["auto", "events", "plan"])
    def test_saturated_window_vs_scalar_oracle(self, entry, engine):
        """Zero idle everywhere: the window is full at almost every
        request, so every engine's clock-bump path runs constantly."""
        trace, __ = _zoo_trace()
        idle = np.zeros(len(trace) - 1)
        fast = replay_queue_depth(
            trace, _build(entry), idle_us=idle, queue_depth=2, engine=engine
        )
        oracle = replay_queue_depth_scalar(
            trace, _build(entry), idle_us=idle, queue_depth=2
        )
        assert_replays_identical(fast, oracle)


class TestPlanVsServiceLoop:
    """Synchronous replay with and without a replay plan, bitwise.

    Plan devices (flash, flash arrays) run the plan loop under every
    clock rule; with ``replay_plan`` patched to ``None`` they run the
    generic ``_service`` loop instead.  Queue depth has the same
    differential through ``engine="events"`` above.  Plan-less devices
    take the same path on both sides.
    """

    @pytest.mark.parametrize("entry", sorted(ZOO))
    def test_sync_without_plan_matches_plan(self, entry, monkeypatch):
        trace, idle = _zoo_trace()
        with_plan = replay_with_idle_batch(trace, _build(entry), idle)
        device = _build(entry)
        monkeypatch.setattr(device, "replay_plan", lambda ops, lbas, sizes: None)
        without_plan = replay_with_idle_batch(trace, device, idle)
        assert_replays_identical(with_plan, without_plan)


class TestChunkedBatchPricing:
    """Whole-stream vs chunked ``service_batch``: state advances alike.

    Splitting a stream across two batch calls must price identically to
    one call — the order-dependent fault state (stall ordinals, mirror
    read counters, mid-trace switch indices, SMR append pointers, HDD
    RNG draws) has to advance by exactly the consumed prefix.
    """

    @pytest.mark.parametrize("entry", sorted(ZOO))
    @pytest.mark.parametrize("split", [1, 23, 30])
    def test_chunked_equals_whole(self, entry, split):
        trace, __ = _zoo_trace()
        ops, lbas, sizes = trace.ops, trace.lbas, trace.sizes
        whole = _build(entry).service_batch(ops, lbas, sizes)
        chunked_device = _build(entry)
        head = chunked_device.service_batch(ops[:split], lbas[:split], sizes[:split])
        tail = chunked_device.service_batch(ops[split:], lbas[split:], sizes[split:])
        if whole is None:
            # Streams the device refuses whole must not be priced
            # piecewise either once the refusing chunk is reached.
            assert head is None or tail is None
            return
        assert head is not None and tail is not None
        np.testing.assert_array_equal(np.concatenate([head, tail]), whole)
