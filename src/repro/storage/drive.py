"""One request loop per device kind, for every host clock rule.

Synchronous replay, collection of an intent stream and queue-depth
replay differ only in how the host clock advances.  The rule is data:
request ``i`` is submitted ``gaps[i]`` after the host became free
(after waiting for the oldest outstanding completion when a queue
depth is given and the window is full); its command crosses the
channel (``ack = submit + T_cdel``) and the device services it; the
host is free again at the request's finish when ``syncs[i]``, else at
its ack.

=================  ==================  ===============  ==========
regime             ``gaps``            ``syncs``        window
=================  ==================  ===============  ==========
synchronous        ``[0, idle...]``    all ``True``     none
collection         intent ``thinks``   intent ``syncs`` none
queue depth        ``[0, idle...]``    all ``False``    ``qd``
=================  ==================  ===============  ==========

Every loop performs the additions ``StorageDevice.submit`` performs, in
the same order, so the stamps are bit-identical to a ``submit``-driven
loop under the same rule.
"""

from __future__ import annotations

import heapq
from array import array

import numpy as np

from ..trace.record import OpType
from .device import StorageDevice
from .flash import FlashReplayPlan

__all__ = ["drive"]

Columns = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def drive(
    device: StorageDevice,
    ops: np.ndarray,
    lbas: np.ndarray,
    sizes: np.ndarray,
    gaps: np.ndarray,
    syncs: np.ndarray,
    queue_depth: int | None = None,
    use_plan: bool = True,
    priced: np.ndarray | None = None,
) -> Columns:
    """Issue a request stream under a clock rule; ``(submits, acks, starts, finishes)``.

    ``gaps`` and ``syncs`` are the clock rule (see the module
    docstring); ``queue_depth=None`` means no window.  The device is
    driven from its current state (callers reset it and validate the
    columns).  Three loops:

    - ``priced`` service times (``service_batch`` output) of a device
      that is a single FIFO server: a closed-form recurrence;
    - a device that builds a replay plan (flash, flash arrays): the
      plan loop, unless ``use_plan=False``;
    - any other device: one ``device._service`` call per request.
    """
    gaps = np.asarray(gaps, dtype=np.float64)
    syncs = np.asarray(syncs, dtype=bool)
    t_cdel = device.channel.delay_batch_us(ops, sizes)
    if priced is not None:
        return _priced_loop(t_cdel, priced, gaps, syncs, queue_depth)
    plan = device.replay_plan(ops, lbas, sizes) if use_plan and len(lbas) else None
    if plan is not None:
        return _plan_loop(device, plan, t_cdel, gaps, syncs, queue_depth)
    return _service_loop(device, ops, lbas, sizes, t_cdel, gaps, syncs, queue_depth)


def _column(n: int) -> array:
    """A zeroed typed float64 buffer (no per-element float objects)."""
    return array("d", [0.0]) * n


def _priced_loop(
    t_cdel: np.ndarray, svc: np.ndarray, gaps: np.ndarray, syncs: np.ndarray, qd: int | None
) -> Columns:
    """Single FIFO server with up-front service times.

    ``start = max(ack, busy)`` and ``finish = start + svc`` is exactly
    what ``_service`` computes on such a device.  Finishes are then
    non-decreasing, so the in-flight set is always the trailing window
    and the oldest outstanding completion is ``finishes[i - qd]``.
    Acks (``submit + T_cdel``) and starts (``max(ack, previous
    finish)``) are the same operations done vectorised afterwards.
    """
    n = len(svc)
    t_cdel_l = t_cdel.tolist()
    svc_l = svc.tolist()
    gaps_l = gaps.tolist()
    syncs_l = syncs.tolist()
    submits = _column(n)
    finishes = _column(n)
    host_free = 0.0
    busy = 0.0
    for i in range(n):
        clock = host_free + gaps_l[i]
        if qd and i >= qd and finishes[i - qd] > clock:
            clock = finishes[i - qd]
        ack = clock + t_cdel_l[i]
        busy = (ack if ack >= busy else busy) + svc_l[i]
        submits[i] = clock
        finishes[i] = busy
        host_free = busy if syncs_l[i] else ack
    submits_arr = np.frombuffer(submits, dtype=np.float64)
    finishes_arr = np.frombuffer(finishes, dtype=np.float64)
    acks = submits_arr + t_cdel
    starts = acks.copy()
    np.maximum(starts[1:], finishes_arr[:-1], out=starts[1:])
    return submits_arr, acks, starts, finishes_arr


def _service_loop(
    device: StorageDevice,
    ops: np.ndarray,
    lbas: np.ndarray,
    sizes: np.ndarray,
    t_cdel: np.ndarray,
    gaps: np.ndarray,
    syncs: np.ndarray,
    qd: int | None,
) -> Columns:
    """Per-request ``device._service`` calls with the conversions hoisted.

    The in-flight window lives in a binary heap whose expired
    completions are swept only when the window *looks* full: the heap
    may carry stale entries, but after the sweep the live count is
    exactly what eager expiry would see, so every blocking decision
    (and hence every stamp) is unchanged.
    """
    n = len(lbas)
    ops_l = [OpType.READ if op == 0 else OpType.WRITE for op in ops.tolist()]
    lbas_l = lbas.tolist()
    sizes_l = sizes.tolist()
    t_cdel_l = t_cdel.tolist()
    gaps_l = gaps.tolist()
    syncs_l = syncs.tolist()
    service = device._service
    heappush, heappop = heapq.heappush, heapq.heappop
    in_flight: list[float] = []
    submits, acks, starts, finishes = _column(n), _column(n), _column(n), _column(n)
    host_free = 0.0
    for i in range(n):
        clock = host_free + gaps_l[i]
        if qd and len(in_flight) >= qd:
            while in_flight and in_flight[0] <= clock:
                heappop(in_flight)
            if len(in_flight) >= qd:
                clock = heappop(in_flight)
        ack = clock + t_cdel_l[i]
        start, finish = service(ops_l[i], lbas_l[i], sizes_l[i], ack)
        if qd:
            heappush(in_flight, finish)
        submits[i] = clock
        acks[i] = ack
        starts[i] = start
        finishes[i] = finish
        host_free = finish if syncs_l[i] else ack
    return tuple(np.frombuffer(c, dtype=np.float64) for c in (submits, acks, starts, finishes))


def _plan_loop(
    device: StorageDevice,
    plan: FlashReplayPlan,
    t_cdel: np.ndarray,
    gaps: np.ndarray,
    syncs: np.ndarray,
    qd: int | None,
) -> Columns:
    """The service loop over a precomputed flash plan.

    Request ``i`` owns the next ``plan.counts[i]`` fragments of the
    parallel ``plan.member_idx``/``plan.entries`` lists, in the order
    the scalar fragment walk visits them.  The body inlines
    ``FlashSSD._service`` branch for branch — horizon check, slot-range
    idle probe, slot-range commit, write-buffer admission — so every
    stamp and every piece of member state (busy stamps, buffer
    occupancy, horizon) is bit-identical to driving ``_service`` per
    request.  Uniform single-wave shapes commit with slice assignments
    (the shared stamp ``t_ready + v`` equals what the per-item loop
    writes, same operands).  Only acks and finishes are stored per
    request; submits and starts are derived from them afterwards.
    """
    counts = plan.counts
    member_idx = plan.member_idx
    entries = plan.entries
    array_level = plan.array_level
    members = plan.members_of(device)
    n = len(counts)
    t_cdel_l = t_cdel.tolist()
    gaps_l = gaps.tolist()
    syncs_l = syncs.tolist()
    heappush, heappop = heapq.heappush, heapq.heappop
    in_flight: list[float] = []
    acks = _column(n)
    finishes = _column(n)
    #: Rare per-request deviations recorded as (index, value) pairs.
    clock_bumps: list[tuple[int, float]] = []
    start_overrides: list[tuple[int, float]] = []
    # Per-member state mirrored into locals: busy lists are shared
    # objects (mutated in place, so the member's own slow paths stay
    # coherent), horizons and buffer byte counts are plain floats/ints
    # written back once at the end — and synced whenever a slow path
    # re-enters member methods that read them.
    dbs = [m._die_busy for m in members]
    cbs = [m._chan_busy for m in members]
    hors = [m._state_horizon for m in members]
    bufs = [m._buffered for m in members]
    bbs = [m._buffered_bytes for m in members]
    caps = [m._buffer_capacity for m in members]
    bw_us = [m.geometry.buffer_write_us for m in members]
    bw4 = [m.channel.bandwidth_mb_s * 4 for m in members]
    host_free = 0.0
    k = 0
    for i in range(n):
        clock = host_free + gaps_l[i]
        if qd and len(in_flight) >= qd:
            while in_flight and in_flight[0] <= clock:
                heappop(in_flight)
            if len(in_flight) >= qd:
                clock = heappop(in_flight)
                clock_bumps.append((i, clock))
        ack = clock + t_cdel_l[i]
        finish = ack
        k1 = k + counts[i]
        while k < k1:
            mi = member_idx[k]
            e = entries[k]
            k += 1
            db = dbs[mi]
            cb = cbs[mi]
            hor = hors[mi]
            buffered = e.buffered
            if buffered:
                nbytes = e.nbytes
                buf = bufs[mi]
                bb = bbs[mi]
                while buf and buf[0][0] <= ack:
                    bb -= buf.popleft()[1]
                bbs[mi] = bb
                fast = bb + nbytes <= caps[mi]
            else:
                fast = True
            if fast and not ack >= hor:
                # Sparse idle probe: no touched die or channel is busy
                # past ``ack`` (``max()`` over a slice is the same
                # comparison set as the scalar per-item loop).
                a, b, b2 = e.die_segs
                c, d, d2 = e.chan_segs
                fast = not (
                    max(db[a:b]) > ack
                    or (b2 and max(db[:b2]) > ack)
                    or max(cb[c:d]) > ack
                    or (d2 and max(cb[:d2]) > ack)
                )
            if fast:
                if buffered:
                    buf.append((ack + e.drain_rel, nbytes))
                    bbs[mi] = bb + nbytes
                u = e.die_uval
                if u is not None:
                    a, b, b2 = e.die_segs
                    v = ack + u
                    db[a:b] = [v] * (b - a)
                    if b2:
                        db[:b2] = [v] * b2
                else:
                    for s, rel in e.die_items:
                        db[s] = ack + rel
                u = e.chan_uval
                if u is not None:
                    a, b, b2 = e.chan_segs
                    v = ack + u
                    cb[a:b] = [v] * (b - a)
                    if b2:
                        cb[:b2] = [v] * b2
                else:
                    for c, rel in e.chan_items:
                        cb[c] = ack + rel
                h = ack + e.horizon
                if h > hor:
                    hors[mi] = h
                f = ack + e.svc
            elif e.is_read:
                f = members[mi]._busy_read(e, ack)
                if f > hor:
                    hors[mi] = f
            elif buffered:
                ssd = members[mi]
                ssd._buffered_bytes = bb
                start = ssd._buffer_admit(nbytes, ack)
                f = start + bw_us[mi] + nbytes / bw4[mi]
                drain = ssd._busy_program(e, f)
                buf.append((drain, nbytes))
                bbs[mi] = ssd._buffered_bytes + nbytes
                if drain > hor:
                    hors[mi] = drain
                if not array_level:
                    start_overrides.append((i, start))
            else:
                f = members[mi]._busy_program(e, ack)
                if f > hor:
                    hors[mi] = f
            if f > finish:
                finish = f
        if qd:
            heappush(in_flight, finish)
        acks[i] = ack
        finishes[i] = finish
        host_free = finish if syncs_l[i] else ack
    for m, h, bb in zip(members, hors, bbs):
        m._state_horizon = h
        m._buffered_bytes = bb
    acks_arr = np.frombuffer(acks, dtype=np.float64)
    finishes_arr = np.frombuffer(finishes, dtype=np.float64)
    # Submit column: the same ``host_free + gap`` additions the loop
    # made, overridden where a full window bumped the clock.
    submits = np.zeros(n, dtype=np.float64)
    np.copyto(submits[1:], acks_arr[:-1])
    np.copyto(submits[1:], finishes_arr[:-1], where=syncs[:-1])
    submits += gaps
    for i, bumped in clock_bumps:
        submits[i] = bumped
    # Start column: the device admits at the ready time everywhere
    # except a standalone SSD's buffered-write slow path.
    starts = acks_arr.copy() if start_overrides else acks_arr
    for i, start in start_overrides:
        starts[i] = start
    return submits, acks_arr, starts, finishes_arr
