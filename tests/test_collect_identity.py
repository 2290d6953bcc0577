"""Collection on gap-sensitive devices vs a ``device.submit`` reference.

:func:`repro.workloads.collect_trace` issues an intent stream through
:func:`repro.storage.drive.drive` with the collection clock rule: the
plan loop on flash devices and flash arrays, the per-request
``_service`` loop on every other gap-sensitive device.  Both must
reproduce, at tolerance zero, what a plain loop over
:meth:`~repro.storage.device.StorageDevice.submit` records — the
stamps *and* (for flash) the simulator state left behind.

The file also pins plan sharing: collecting an intent stream and
replaying the collected trace on fingerprint-equal devices consume one
content-cached plan object.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.campaign.devices import build_device, device_zoo
from repro.experiments.nodes import new_node
from repro.replay import replay_queue_depth, replay_with_idle_batch
from repro.storage import FlashArray, FlashGeometry, FlashSSD, InterfaceChannel, flash
from repro.trace.record import OpType
from repro.workloads import collect_trace, generate_intents, get_spec
from test_device_kernels_identity import _flash_state

#: A hand-off so short that ``ack == submit`` in floating point once the
#: clock has advanced: asynchronous requests with zero think time are
#: then submitted at the same instant.
ZERO_HANDOFF = InterfaceChannel(
    name="zero-handoff", bandwidth_mb_s=1e30, read_overhead_us=0.0, write_overhead_us=0.0
)

PLAN_DEVICES = {
    "flash-buffered": lambda: FlashSSD(),
    "flash-nobuffer": lambda: FlashSSD(geometry=FlashGeometry(write_buffer_kb=0)),
    "array-default": lambda: FlashArray(),
    "array-nobuffer": lambda: FlashArray(geometry=FlashGeometry(write_buffer_kb=0)),
    "flash-zero-handoff": lambda: FlashSSD(channel=ZERO_HANDOFF),
    "array-zero-handoff": lambda: FlashArray(channel=ZERO_HANDOFF),
}

ZOO = device_zoo()


def reference_collect(intents, device) -> tuple[np.ndarray, np.ndarray]:
    """Collection written against ``device.submit`` only: (submits, finishes)."""
    device.reset()
    host_free = 0.0
    submits, finishes = [], []
    for i in range(len(intents)):
        submit = host_free + float(intents.thinks[i])
        c = device.submit(
            OpType(int(intents.ops[i])), int(intents.lbas[i]), int(intents.sizes[i]), submit
        )
        submits.append(c.submit)
        finishes.append(c.finish)
        host_free = c.finish if intents.syncs[i] else c.ack
    return np.array(submits), np.array(finishes)


def _intents(variant: str):
    """MSNFS intents, optionally reshaped to stress the clock rule."""
    intents = generate_intents(get_spec("MSNFS").scaled(300))
    n = len(intents)
    rng = np.random.default_rng(5)
    if variant == "zero-thinks":
        # Every request ready the moment the host frees up.
        return replace(intents, thinks=np.zeros(n))
    if variant == "async-bursts":
        # Runs of asynchronous zero-think requests (same-instant
        # submissions on a zero hand-off channel), broken by sync ones.
        syncs = rng.random(n) < 0.2
        thinks = np.where(rng.random(n) < 0.7, 0.0, rng.uniform(0.0, 3_000.0, n))
        return replace(intents, thinks=thinks, syncs=syncs)
    if variant == "all-sync":
        return replace(intents, syncs=np.ones(n, dtype=bool))
    return intents


def _assert_collect_matches_reference(intents, make):
    device, reference = make(), make()
    trace = collect_trace(intents, device, record_device_times=True)
    submits, finishes = reference_collect(intents, reference)
    np.testing.assert_array_equal(trace.timestamps, submits)
    np.testing.assert_array_equal(trace.issues, submits)
    np.testing.assert_array_equal(trace.completes, finishes)
    return device, reference


class TestCollectPlanDevices:
    """Plan loop on flash devices and flash arrays."""

    @pytest.mark.parametrize("device_key", sorted(PLAN_DEVICES))
    @pytest.mark.parametrize("variant", ["msnfs", "zero-thinks", "async-bursts", "all-sync"])
    def test_stamps_and_state_match_reference(self, device_key, variant):
        device, reference = _assert_collect_matches_reference(
            _intents(variant), PLAN_DEVICES[device_key]
        )
        assert _flash_state(device) == _flash_state(reference)

    def test_zero_handoff_really_submits_at_one_instant(self):
        """The same-instant case is exercised, not vacuous."""
        trace = collect_trace(_intents("async-bursts"), FlashArray(channel=ZERO_HANDOFF))
        assert np.any(np.diff(trace.timestamps) == 0.0)


class TestCollectZoo:
    """Every registry device kind, healthy and degraded, vs the reference."""

    @pytest.mark.parametrize("entry", sorted(ZOO))
    def test_zoo_collect_matches_reference(self, entry):
        desc = dict(ZOO[entry])
        kind = desc.pop("kind")
        _assert_collect_matches_reference(
            _intents("async-bursts"), lambda: build_device(kind, dict(desc))
        )


class TestPlanSharing:
    """One content-cached plan serves collection and later replays."""

    def test_collection_and_replays_share_one_plan(self, monkeypatch):
        """Collecting intents on NEW, then replaying the collected trace
        synchronously and at queue depth 8 on fresh fingerprint-equal
        devices, consumes one plan object."""
        returned = []
        original = FlashArray.replay_plan

        def spy(self, ops, lbas, sizes):
            plan = original(self, ops, lbas, sizes)
            returned.append(plan)
            return plan

        monkeypatch.setattr(FlashArray, "replay_plan", spy)
        flash._PLAN_CACHE.clear()  # the first plan must come from collection
        intents = generate_intents(get_spec("MSNFS").scaled(400))
        collecting = new_node()
        trace = collect_trace(intents, collecting)
        idle = np.full(len(trace) - 1, 40.0)
        replaying = new_node()
        assert replaying.fingerprint() == collecting.fingerprint()
        replay_with_idle_batch(trace, replaying, idle_us=idle)
        replay_queue_depth(trace, new_node(), idle_us=idle, queue_depth=8)
        assert len(returned) == 3
        first = returned[0]
        assert first is not None
        assert all(plan is first for plan in returned)
