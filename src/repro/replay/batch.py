"""Vectorised batch replay engine.

:func:`replay_with_idle_batch` produces results identical to the scalar
:func:`~repro.replay.replayer.replay_with_idle` while avoiding its
per-request Python overhead.  Two regimes:

1. **Vector path** — when the target device can price the whole request
   stream up front (``device.service_batch`` returns an array: the
   device's latencies are *gap-invariant*, a pure function of request
   order), all four stamp columns come out of one cumulative sum.  The
   scalar replayer's clock recurrence is

   .. math::

      ack_i = clock_i + T_{cdel,i}, \\quad
      finish_i = ack_i + svc_i, \\quad
      clock_{i+1} = finish_i + idle_i

   which is exactly a running sum over the interleaved sequence
   ``[T_cdel_0, svc_0, idle_0, T_cdel_1, svc_1, idle_1, ...]`` — and
   ``np.cumsum`` performs the same left-to-right chain of IEEE-754
   additions, so the stamps are *bit-identical* to the scalar loop's.

2. **Drive fallback** — devices whose latencies depend on real
   submission instants (e.g. a flash array with a write-back buffer
   draining in the background) return ``None`` from ``service_batch``.
   The stream then goes through :func:`repro.storage.drive.drive` with
   the synchronous clock rule (``gaps = [0, idle...]``, every request
   synchronous, no window): the plan loop on devices that build a
   replay plan (flash, flash arrays), else one ``device._service``
   call per request with the validation and conversions hoisted out.

Either way the produced :class:`~repro.replay.replayer.ReplayResult`
matches the scalar engine's stamps exactly; the property suite
(`tests/test_replay_batch.py`) enforces this across every device type.
"""

from __future__ import annotations

import numpy as np

from ..storage.device import StorageDevice
from ..storage.drive import drive
from ..trace.trace import BlockTrace
from .replayer import ReplayResult, validated_idle

__all__ = ["replay_with_idle_batch", "replay_back_to_back_batch"]


def _replay_metadata(old_trace: BlockTrace, device: StorageDevice, method: str) -> dict:
    return {**old_trace.metadata, "method": method, "replayed_on": device.name}


def replay_with_idle_batch(
    old_trace: BlockTrace,
    device: StorageDevice,
    idle_us: np.ndarray | None = None,
    method: str = "replay",
) -> ReplayResult:
    """Batch equivalent of :func:`~repro.replay.replayer.replay_with_idle`.

    Same contract and same results as the scalar replayer; see the
    module docstring for how the two execution regimes achieve that.
    """
    n = len(old_trace)
    if n == 0:
        raise ValueError("cannot replay an empty trace")
    idle = validated_idle(n, idle_us)
    if np.any(old_trace.lbas < 0):
        raise ValueError("lba must be non-negative")
    device.reset()
    svc = device.service_batch(old_trace.ops, old_trace.lbas, old_trace.sizes)
    metadata = _replay_metadata(old_trace, device, method)
    if svc is not None:
        t_cdel = device.channel.delay_batch_us(old_trace.ops, old_trace.sizes)
        # One interleaved running sum reproduces the scalar clock chain
        # addition-for-addition (see module docstring).
        increments = np.empty(3 * n, dtype=np.float64)
        increments[0::3] = t_cdel
        increments[1::3] = svc
        increments[2:-1:3] = idle
        increments[-1] = 0.0
        cum = np.cumsum(increments)
        acks = cum[0::3]
        finishes = cum[1::3]
        submits = np.empty(n, dtype=np.float64)
        submits[0] = 0.0
        submits[1:] = cum[2::3][:-1]
        starts = acks
    else:
        gaps = np.concatenate(([0.0], idle))
        submits, acks, starts, finishes = drive(
            device, old_trace.ops, old_trace.lbas, old_trace.sizes, gaps, np.ones(n, dtype=bool)
        )
    trace = BlockTrace(
        timestamps=submits,
        lbas=old_trace.lbas,
        sizes=old_trace.sizes,
        ops=old_trace.ops,
        issues=submits.copy(),  # driver-level stamp, as the collector records
        completes=finishes,
        name=old_trace.name,
        metadata=metadata,
    )
    return ReplayResult(
        trace=trace,
        device_name=device.name,
        submits=submits,
        acks=acks,
        starts=starts,
        finishes=finishes,
    )


def replay_back_to_back_batch(
    old_trace: BlockTrace, device: StorageDevice, method: str = "revision"
) -> ReplayResult:
    """Batch equivalent of :func:`~repro.replay.replayer.replay_back_to_back`."""
    return replay_with_idle_batch(old_trace, device, idle_us=None, method=method)
