"""RAID layer over member devices.

"In MSRC, all workloads contain specific device-level information such
as the type of RAID" (Section V) — the Cambridge volumes sat on RAID
groups, so a faithful OLD node for those traces is a disk array, not a
single spindle.  Two classic levels are modelled:

- :class:`Raid0` — striping; an extent is chopped at stripe boundaries
  and fragments are serviced concurrently by their members;
- :class:`Raid1` — mirroring; reads go to the member that can start
  earliest, writes must land on every member.

Both are :class:`~repro.storage.device.StorageDevice` implementations,
so traces can be collected on them and reconstructions can target them
like any other device.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from ..trace.record import OpType
from .channel import InterfaceChannel
from .device import StorageDevice

__all__ = ["Raid0", "Raid1"]


def _scatter_max(
    out: np.ndarray, member_svcs: list[tuple[list[int], np.ndarray]]
) -> np.ndarray:
    """Combine per-member fragment services into per-request maxima."""
    for request_indices, svc in member_svcs:
        if len(request_indices):
            np.maximum.at(out, np.asarray(request_indices, dtype=np.intp), svc)
    return out


class _RaidBase(StorageDevice):
    """Shared plumbing: member management and reset."""

    def __init__(self, members: Sequence[StorageDevice], channel: InterfaceChannel) -> None:
        if not members:
            raise ValueError("a RAID group needs at least one member")
        super().__init__(channel)
        self.members = list(members)

    def reset(self) -> None:
        super().reset()
        for member in self.members:
            member.reset()

    def fingerprint(self) -> str:
        stripe = getattr(self, "stripe_sectors", None)
        members = ";".join(member.fingerprint() for member in self.members)
        return f"{super().fingerprint()}|stripe={stripe}|members=[{members}]"


class Raid0(_RaidBase):
    """Striped array (no redundancy).

    Parameters
    ----------
    members:
        Member devices (commonly :class:`~repro.storage.hdd.HDDModel`).
    stripe_kb:
        Stripe unit; stripe ``i`` lives on member ``i mod n``.
    channel:
        Host-side link of the array controller; defaults to the first
        member's channel model.
    """

    def __init__(
        self,
        members: Sequence[StorageDevice],
        stripe_kb: int = 64,
        channel: InterfaceChannel | None = None,
    ) -> None:
        if stripe_kb <= 0:
            raise ValueError("stripe unit must be positive")
        if not members:
            raise ValueError("a RAID group needs at least one member")
        super().__init__(members, channel if channel is not None else members[0].channel)
        self.stripe_sectors = stripe_kb * 2

    @property
    def name(self) -> str:
        """Human-readable model name."""
        return f"raid0({len(self.members)}x {self.members[0].name})"

    def _fragments(self, lba: int, size: int) -> list[tuple[int, int, int]]:
        """``(member_index, local_lba, local_size)`` per stripe chunk."""
        out = []
        cursor, remaining = lba, size
        n = len(self.members)
        while remaining > 0:
            stripe = cursor // self.stripe_sectors
            within = cursor - stripe * self.stripe_sectors
            chunk = min(remaining, self.stripe_sectors - within)
            # Local address: collapse the stripe round-robin so member
            # address spaces stay dense (and sequential streams remain
            # sequential per member).
            local = (stripe // n) * self.stripe_sectors + within
            out.append((stripe % n, local, chunk))
            cursor += chunk
            remaining -= chunk
        return out

    def _service(self, op: OpType, lba: int, size: int, t_ready: float) -> tuple[float, float]:
        finish = t_ready
        for member_index, local_lba, local_size in self._fragments(lba, size):
            __, frag_finish = self.members[member_index]._service(op, local_lba, local_size, t_ready)
            finish = max(finish, frag_finish)
        return t_ready, finish

    def _member_streams(
        self, ops: np.ndarray, lbas: np.ndarray, sizes: np.ndarray
    ) -> list[tuple] | None:
        """Per-member ``(request_idx, ops, lbas, sizes)`` fragment streams.

        ``None`` when some extent spans more stripes than there are
        members — its same-member fragments would queue behind each
        other, breaking the max-of-independent-fragments combination.
        """
        return self._member_streams_columnar(ops, lbas, sizes)

    def _member_streams_scalar(
        self, ops: np.ndarray, lbas: np.ndarray, sizes: np.ndarray
    ) -> list[tuple[list[int], list[int], list[int], list[int]]] | None:
        """Retained per-request stream builder — the columnar builder's test oracle."""
        n_members = len(self.members)
        streams: list[tuple[list[int], list[int], list[int], list[int]]] = [
            ([], [], [], []) for _ in range(n_members)
        ]
        ops_l = np.asarray(ops).tolist()
        lbas_l = np.asarray(lbas, dtype=np.int64).tolist()
        sizes_l = np.asarray(sizes, dtype=np.int64).tolist()
        for i in range(len(ops_l)):
            frags = self._fragments(lbas_l[i], sizes_l[i])
            if len(frags) > n_members:
                return None
            for member_index, local_lba, local_size in frags:
                idx, f_ops, f_lbas, f_sizes = streams[member_index]
                idx.append(i)
                f_ops.append(ops_l[i])
                f_lbas.append(local_lba)
                f_sizes.append(local_size)
        return streams

    def _member_streams_columnar(
        self, ops: np.ndarray, lbas: np.ndarray, sizes: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] | None:
        """Stripe fan-out as index arithmetic (one pass per member).

        Produces the same per-member streams as the scalar walk —
        fragments in request order, stripe round-robin collapsed into
        dense member addresses — built from flat fragment columns and
        boolean masks instead of per-request list appends.
        """
        n_members = len(self.members)
        ss = self.stripe_sectors
        ops_arr = np.asarray(ops)
        lbas = np.asarray(lbas, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        n = len(lbas)
        stripe0 = lbas // ss
        spans = (lbas + sizes - 1) // ss - stripe0 + 1
        if n and int(spans.max()) > n_members:
            return None
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(spans, out=offsets[1:])
        total = int(offsets[-1])
        req = np.repeat(np.arange(n, dtype=np.int64), spans)
        k = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], spans)
        frag_stripe = stripe0[req] + k
        frag_start = np.maximum(lbas[req], frag_stripe * ss)
        frag_end = np.minimum((lbas + sizes)[req], (frag_stripe + 1) * ss)
        within = frag_start - frag_stripe * ss
        local = (frag_stripe // n_members) * ss + within
        member = frag_stripe % n_members
        ops_f = ops_arr[req]
        frag_size = frag_end - frag_start
        streams = []
        for m in range(n_members):
            sel = member == m
            streams.append((req[sel], ops_f[sel], local[sel], frag_size[sel]))
        return streams

    def supports_batch(self, ops: np.ndarray, lbas: np.ndarray, sizes: np.ndarray) -> bool:
        streams = self._member_streams(ops, lbas, sizes)
        if streams is None:
            return False
        return all(
            member.supports_batch(
                np.asarray(s[1], dtype=np.int8),
                np.asarray(s[2], dtype=np.int64),
                np.asarray(s[3], dtype=np.int64),
            )
            for member, s in zip(self.members, streams)
        )

    def service_batch(
        self, ops: np.ndarray, lbas: np.ndarray, sizes: np.ndarray
    ) -> np.ndarray | None:
        # Overrides the gate-then-price split so the fragment streams
        # are computed once, not once per phase.
        streams = self._member_streams(ops, lbas, sizes)
        if streams is None:
            return None
        member_streams = [
            (
                s[0],
                np.asarray(s[1], dtype=np.int8),
                np.asarray(s[2], dtype=np.int64),
                np.asarray(s[3], dtype=np.int64),
            )
            for s in streams
        ]
        if not all(
            member.supports_batch(f_ops, f_lbas, f_sizes)
            for member, (__, f_ops, f_lbas, f_sizes) in zip(self.members, member_streams)
        ):
            return None
        member_svcs = [
            (idx, member._service_batch(f_ops, f_lbas, f_sizes))
            for member, (idx, f_ops, f_lbas, f_sizes) in zip(self.members, member_streams)
        ]
        return _scatter_max(np.zeros(len(ops), dtype=np.float64), member_svcs)


class Raid1(_RaidBase):
    """Mirrored pair (or wider mirror set).

    Reads are dispatched to a single member chosen by ``read_policy``
    (default: strict alternation, the common round-robin balancer);
    writes are broadcast and complete when the slowest member finishes.
    """

    def __init__(
        self,
        members: Sequence[StorageDevice],
        channel: InterfaceChannel | None = None,
        read_policy: Callable[[int, int], int] | None = None,
    ) -> None:
        if len(members) < 2:
            raise ValueError("a mirror needs at least two members")
        super().__init__(members, channel if channel is not None else members[0].channel)
        self._read_counter = 0
        self._read_policy = read_policy

    @property
    def name(self) -> str:
        """Human-readable model name."""
        return f"raid1({len(self.members)}x {self.members[0].name})"

    def reset(self) -> None:
        super().reset()
        self._read_counter = 0

    def _pick_reader(self, lba: int) -> int:
        if self._read_policy is not None:
            return self._read_policy(lba, len(self.members)) % len(self.members)
        member = self._read_counter % len(self.members)
        self._read_counter += 1
        return member

    def _service(self, op: OpType, lba: int, size: int, t_ready: float) -> tuple[float, float]:
        if op is OpType.READ:
            member = self._pick_reader(lba)
            __, finish = self.members[member]._service(op, lba, size, t_ready)
            return t_ready, finish
        finish = t_ready
        for member in self.members:
            __, member_finish = member._service(op, lba, size, t_ready)
            finish = max(finish, member_finish)
        return t_ready, finish

    def _member_streams(
        self, ops: np.ndarray, lbas: np.ndarray, sizes: np.ndarray, counter: int
    ) -> list[tuple]:
        """Per-member substreams: each read on its chosen mirror, writes on all."""
        # A custom read policy is an arbitrary Python callable, so only
        # the default round-robin balancer has a columnar expression.
        if self._read_policy is None:
            return self._member_streams_columnar(ops, lbas, sizes, counter)
        return self._member_streams_scalar(ops, lbas, sizes, counter)

    def _member_streams_scalar(
        self, ops: np.ndarray, lbas: np.ndarray, sizes: np.ndarray, counter: int
    ) -> list[tuple[list[int], list[int], list[int], list[int]]]:
        """Per-request stream builder: the custom-policy path, and the
        columnar builder's oracle."""
        n_members = len(self.members)
        streams: list[tuple[list[int], list[int], list[int], list[int]]] = [
            ([], [], [], []) for _ in range(n_members)
        ]
        ops_l = np.asarray(ops).tolist()
        lbas_l = np.asarray(lbas, dtype=np.int64).tolist()
        sizes_l = np.asarray(sizes, dtype=np.int64).tolist()
        read = int(OpType.READ)
        for i in range(len(ops_l)):
            if ops_l[i] == read:
                if self._read_policy is not None:
                    member = self._read_policy(lbas_l[i], n_members) % n_members
                else:
                    member = counter % n_members
                    counter += 1
                targets: tuple[int, ...] = (member,)
            else:
                targets = tuple(range(n_members))
            for member_index in targets:
                idx, f_ops, f_lbas, f_sizes = streams[member_index]
                idx.append(i)
                f_ops.append(ops_l[i])
                f_lbas.append(lbas_l[i])
                f_sizes.append(sizes_l[i])
        return streams

    def _member_streams_columnar(
        self, ops: np.ndarray, lbas: np.ndarray, sizes: np.ndarray, counter: int
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Mirror fan-out as index arithmetic (round-robin policy only).

        Read ``r`` (in stream order) lands on member
        ``(counter + r) % n`` — the strict-alternation balancer as a
        cumulative count — and writes broadcast to every member, all
        selected with boolean masks that preserve request order.
        """
        n_members = len(self.members)
        ops_arr = np.asarray(ops)
        lbas = np.asarray(lbas, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        idx = np.arange(len(lbas), dtype=np.int64)
        is_read = ops_arr == int(OpType.READ)
        chosen = (counter + np.cumsum(is_read) - 1) % n_members
        streams = []
        for m in range(n_members):
            sel = ~is_read | (chosen == m)
            streams.append((idx[sel], ops_arr[sel], lbas[sel], sizes[sel]))
        return streams

    def supports_batch(self, ops: np.ndarray, lbas: np.ndarray, sizes: np.ndarray) -> bool:
        streams = self._member_streams(ops, lbas, sizes, self._read_counter)
        return all(
            member.supports_batch(
                np.asarray(s[1], dtype=np.int8),
                np.asarray(s[2], dtype=np.int64),
                np.asarray(s[3], dtype=np.int64),
            )
            for member, s in zip(self.members, streams)
        )

    def service_batch(
        self, ops: np.ndarray, lbas: np.ndarray, sizes: np.ndarray
    ) -> np.ndarray | None:
        # Single-pass override (see Raid0.service_batch); the read
        # counter only advances once the whole stream is accepted.
        streams = self._member_streams(ops, lbas, sizes, self._read_counter)
        member_streams = [
            (
                s[0],
                np.asarray(s[1], dtype=np.int8),
                np.asarray(s[2], dtype=np.int64),
                np.asarray(s[3], dtype=np.int64),
            )
            for s in streams
        ]
        if not all(
            member.supports_batch(f_ops, f_lbas, f_sizes)
            for member, (__, f_ops, f_lbas, f_sizes) in zip(self.members, member_streams)
        ):
            return None
        if self._read_policy is None:
            self._read_counter += int(np.sum(np.asarray(ops) == int(OpType.READ)))
        member_svcs = [
            (idx, member._service_batch(f_ops, f_lbas, f_sizes))
            for member, (idx, f_ops, f_lbas, f_sizes) in zip(self.members, member_streams)
        ]
        return _scatter_max(np.zeros(len(ops), dtype=np.float64), member_svcs)
