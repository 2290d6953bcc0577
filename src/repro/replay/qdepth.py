"""Queue-depth replay: asynchronous replay with bounded outstanding I/O.

The paper's emulation issues synchronously and repairs asynchrony in
post-processing.  An alternative (and the natural extension once the
sync flags are *known*, as they are for synthetic traces) is to replay
with a bounded submission window, the way ``fio`` drives a device at
``iodepth > 1``: up to ``queue_depth`` requests may be in flight; a new
request is submitted as soon as a slot frees *and* its think time has
elapsed.

Two engines produce identical results:

- :func:`replay_queue_depth_scalar` — the original discrete-event loop
  over :meth:`~repro.storage.device.StorageDevice.submit`, kept as the
  readable specification and the bit-identity oracle for the test
  suite.  Its in-flight window is a plain list it re-filters per
  request (O(n·qd) comprehensions), and every request pays the full
  ``submit``/``Completion``/collector overhead.
- :func:`replay_queue_depth` — the production engine.  When the device
  prices the whole stream up front (``service_batch``) *and* queueing
  is a single FIFO server (``fifo_single_server``, or trivially at
  ``queue_depth == 1``), the window recurrence collapses to scalar
  arithmetic over precomputed channel-delay and service columns: the
  in-flight set of a FIFO device is always the trailing ``qd``
  requests, so "wait for the oldest outstanding completion" is one
  comparison against ``finishes[i - qd]``.  Every other device goes
  through :func:`repro.storage.drive.drive` with the queue-depth clock
  rule (``gaps = [0, idle...]``, every request asynchronous, a window
  of ``queue_depth``) — the plan loop on devices that build a replay
  plan (flash, flash arrays), the per-request ``device._service`` loop
  elsewhere.  Both keep the in-flight window in a binary heap whose
  expired completions are swept only when the window *looks* full, so
  a replay that never saturates the window pays one length check per
  request instead of a pop scan.

Used by tests and available to studies that want target-load
sensitivity (e.g. how reconstruction fidelity changes when the replayer
is allowed genuine overlap).
"""

from __future__ import annotations

import numpy as np

from ..storage.device import StorageDevice
from ..storage.drive import drive
from ..trace.record import OpType
from ..trace.trace import BlockTrace
from .collector import TraceCollector
from .replayer import ReplayResult, validated_idle

__all__ = ["replay_queue_depth", "replay_queue_depth_scalar"]


def _qdepth_metadata(old_trace: BlockTrace, device: StorageDevice, method: str, qd: int) -> dict:
    return {
        **old_trace.metadata,
        "method": method,
        "replayed_on": device.name,
        "queue_depth": qd,
    }


def replay_queue_depth(
    old_trace: BlockTrace,
    device: StorageDevice,
    idle_us: np.ndarray | None = None,
    queue_depth: int = 4,
    method: str = "qdepth-replay",
    engine: str = "auto",
) -> ReplayResult:
    """Replay with up to ``queue_depth`` requests in flight.

    Submission rule: request ``i`` submitted at ``submit_i`` holds the
    host for its channel hand-off until ``ack_i = submit_i + t_cdel_i``;
    request ``i + 1`` becomes *ready* ``idle_us[i]`` after that ack
    (think time runs from the hand-off, not from completion — the
    asynchronous interpretation) and is submitted at ``max(ready,
    slot_free)``, where ``slot_free`` is the completion of the oldest
    in-flight request if ``queue_depth`` requests are still outstanding
    at ``ready``.

    ``queue_depth=1`` is therefore *not* the synchronous replay of
    :func:`repro.replay.replayer.replay_with_idle`: it submits request
    ``i + 1`` at ``max(ack_i + idle_us[i], finish_i)``, so think time
    overlaps the device service, while the synchronous replayer submits
    at ``finish_i + idle_us[i]``.  The two coincide only when every idle
    period is zero (both then submit at ``finish_i``).  This
    asynchronous reading is intended: the window bounds how many
    requests are outstanding, and think time keeps running from the
    hand-off at every depth (pinned by
    ``tests/test_replay_qdepth.py::TestDepthOneSubmitRule``).

    Stamps are bit-identical to :func:`replay_queue_depth_scalar`
    (property-tested across every device type); see the module
    docstring for how the execution regimes achieve that.

    ``engine`` selects the execution strategy: ``"auto"`` (default)
    runs the precomputed-service window recurrence where it applies
    (``queue_depth == 1`` or a single-FIFO-server device), else the
    plan loop on devices that build a replay plan (flash, flash
    arrays), else the per-request ``_service`` loop (both in
    :func:`repro.storage.drive.drive`).  ``"plan"`` and ``"events"``
    force one of those two loops (used by the differential identity
    suite and the benchmarks — every engine produces the same stamps);
    devices without a plan run the ``_service`` loop under ``"plan"``
    too.

    Returns the same :class:`ReplayResult` shape as the synchronous
    replayer.
    """
    if engine not in ("auto", "plan", "events"):
        raise ValueError(f"unknown engine {engine!r}")
    n = len(old_trace)
    if n == 0:
        raise ValueError("cannot replay an empty trace")
    if queue_depth < 1:
        raise ValueError("queue depth must be at least 1")
    idle_arr = validated_idle(n, idle_us)
    if np.any(old_trace.lbas < 0):
        raise ValueError("lba must be non-negative")
    device.reset()
    # The precomputed-service regime needs gap-invariant durations for
    # the actual arrival pattern.  ``service_batch`` guarantees them for
    # idle-at-arrival streams, which queue_depth == 1 produces; for
    # deeper windows a request can arrive while the device is busy, and
    # only a single-FIFO-server device (``fifo_single_server``) keeps
    # its durations order-determined under queued arrivals.
    svc = None
    if engine == "auto" and (queue_depth == 1 or device.fifo_single_server):
        svc = device.service_batch(old_trace.ops, old_trace.lbas, old_trace.sizes)
    submits, acks, starts, finishes = drive(
        device,
        old_trace.ops,
        old_trace.lbas,
        old_trace.sizes,
        np.concatenate(([0.0], idle_arr)),
        np.zeros(n, dtype=bool),
        queue_depth=queue_depth,
        use_plan=engine != "events",
        priced=svc,
    )
    trace = BlockTrace(
        timestamps=submits,
        lbas=old_trace.lbas,
        sizes=old_trace.sizes,
        ops=old_trace.ops,
        issues=submits.copy(),  # driver-level stamp, as the collector records
        completes=finishes,
        name=old_trace.name,
        metadata=_qdepth_metadata(old_trace, device, method, queue_depth),
    )
    return ReplayResult(
        trace=trace,
        device_name=device.name,
        submits=submits,
        acks=acks,
        starts=starts,
        finishes=finishes,
    )


def replay_queue_depth_scalar(
    old_trace: BlockTrace,
    device: StorageDevice,
    idle_us: np.ndarray | None = None,
    queue_depth: int = 4,
    method: str = "qdepth-replay",
) -> ReplayResult:
    """Reference queue-depth replay (the bit-identity oracle).

    The original request-at-a-time loop over ``device.submit`` with a
    list-filtered in-flight window.  Kept verbatim as the readable
    specification; the property suite asserts
    :func:`replay_queue_depth` reproduces its stamps bit-for-bit.
    """
    n = len(old_trace)
    if n == 0:
        raise ValueError("cannot replay an empty trace")
    if queue_depth < 1:
        raise ValueError("queue depth must be at least 1")
    idle_arr = validated_idle(n, idle_us)
    device.reset()
    collector = TraceCollector(
        name=old_trace.name,
        metadata=_qdepth_metadata(old_trace, device, method, queue_depth),
    )
    completions = []
    in_flight_finish: list[float] = []  # finish times of outstanding requests
    clock = 0.0
    for i in range(n):
        # Free slots that completed by now; if the window is full, wait
        # for the oldest outstanding completion.
        in_flight_finish = [f for f in in_flight_finish if f > clock]
        if len(in_flight_finish) >= queue_depth:
            in_flight_finish.sort()
            clock = in_flight_finish[0]
            in_flight_finish = in_flight_finish[1:]
        if queue_depth == 1 and completions:
            # Depth 1: wait for the previous completion (a no-op after
            # the window rule above; think time still runs from the ack).
            clock = max(clock, completions[-1].finish)
        completion = device.submit(
            OpType(int(old_trace.ops[i])),
            int(old_trace.lbas[i]),
            int(old_trace.sizes[i]),
            clock,
        )
        completions.append(completion)
        in_flight_finish.append(completion.finish)
        collector.observe(
            submit=clock,
            lba=int(old_trace.lbas[i]),
            size=int(old_trace.sizes[i]),
            op=int(old_trace.ops[i]),
            completion=completion,
        )
        if i < n - 1:
            # Host is occupied for the channel hand-off, then thinks.
            clock = completion.ack + float(idle_arr[i])
    return ReplayResult(
        trace=collector.build(),
        device_name=device.name,
        submits=np.array([c.submit for c in completions]),
        acks=np.array([c.ack for c in completions]),
        starts=np.array([c.start for c in completions]),
        finishes=np.array([c.finish for c in completions]),
        completions=tuple(completions),
    )
