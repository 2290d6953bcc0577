"""Deterministic expansion of a campaign spec into grid points.

:func:`expand` resolves the workload selectors, takes the cross-product
of the four axes in a fixed order (workloads, then devices, then
methods, then trace sizes), applies the spec's ``exclude`` filters and
``limit``, and returns a :class:`CampaignPlan` of :class:`RunPoint`\\ s.

Every point has a stable **run key** — a SHA-1 over the canonical JSON
of everything that determines its result (action, options, the point's
axis values, the source-device description, and the intent generator's
:data:`~repro.workloads.generator.INTENT_STREAM_VERSION`).  Run keys
are the unit of checkpointing: the engine records each completed key on
disk, and a resumed campaign recomputes exactly the keys that are
missing.  The campaign *name* is deliberately not part of the key, so
renaming a spec (or running two specs that share grid points into the
same output directory) reuses completed work.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any

from ..workloads import generator
from ..workloads.catalog import get_spec, workload_names
from .spec import CampaignSpec, DeviceSpec

__all__ = ["CampaignPlan", "RunPoint", "expand", "resolve_workloads", "run_key"]


@dataclass(frozen=True)
class RunPoint:
    """One grid point: a (workload, device, method, size) combination."""

    workload: str
    device: DeviceSpec
    method: str
    n_requests: int

    def axis_values(self) -> dict[str, Any]:
        """The point's coordinates, keyed by axis name."""
        return {
            "workload": self.workload,
            "device": self.device.name,
            "method": self.method,
            "n_requests": self.n_requests,
        }


def resolve_workloads(selectors: tuple[str, ...]) -> tuple[str, ...]:
    """Expand workload selectors into concrete catalog names.

    ``"all"`` is the whole Table I catalog; ``"family:FIU"`` (or
    ``MSPS``/``MSRC``) one collection family; anything else must be a
    catalog name (validated eagerly so typos fail at planning time,
    not three shards into a run).  Order is preserved, duplicates are
    dropped.
    """
    out: list[str] = []
    for selector in selectors:
        if selector == "all":
            names: tuple[str, ...] = workload_names()
        elif selector.startswith("family:"):
            names = workload_names(selector.split(":", 1)[1])
        else:
            get_spec(selector)  # raises KeyError with the catalog listing
            names = (selector,)
        for name in names:
            if name not in out:
                out.append(name)
    return tuple(out)


def run_key(spec: CampaignSpec, point: RunPoint) -> str:
    """Stable content key for one grid point's result.

    Covers the action, the shared options, the source device, the
    point's full description (including device parameters, not just
    its display name) — everything :func:`~repro.campaign.engine.
    run_point` reads — and the intent-stream version, so results
    generated under another draw scheme are never reused.  Campaign
    name and description are excluded on purpose; see the module
    docstring.
    """
    payload = {
        "intent_stream_version": generator.INTENT_STREAM_VERSION,
        "action": spec.action,
        "options": spec.options,
        "source_device": spec.source_device.to_dict(),
        "workload": point.workload,
        "device": point.device.to_dict(),
        "method": point.method,
        "n_requests": point.n_requests,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(canonical.encode("utf-8")).hexdigest()[:20]


def _excluded(point: RunPoint, filters: tuple[dict[str, Any], ...]) -> bool:
    values = point.axis_values()
    for entry in filters:
        if entry and all(values.get(axis) == wanted for axis, wanted in entry.items()):
            return True
    return False


@dataclass(frozen=True)
class CampaignPlan:
    """The expanded, filtered grid of a campaign."""

    spec: CampaignSpec
    points: tuple[RunPoint, ...]

    def __len__(self) -> int:
        return len(self.points)

    def keys(self) -> list[str]:
        """Run keys in plan order."""
        return [run_key(self.spec, point) for point in self.points]

    def shards(self, n_shards: int, indices: list[int] | None = None) -> list[list[int]]:
        """Split point indices into ``n_shards`` round-robin shards.

        ``indices`` restricts the split to a subset (the engine passes
        the still-pending points of a resumed campaign); the default is
        every point.  Round-robin (rather than contiguous chunks)
        spreads each workload's sizes across shards, which balances
        wall-clock when axis values have very different costs.  Empty
        shards are dropped.
        """
        if n_shards < 1:
            raise ValueError("need at least one shard")
        pool = list(range(len(self.points))) if indices is None else list(indices)
        shards = [pool[i::n_shards] for i in range(n_shards)]
        return [s for s in shards if s]

    def chunks(self, chunk_size: int, indices: list[int] | None = None) -> list[list[int]]:
        """Split point indices into contiguous chunks of ``chunk_size``.

        The work-stealing scheduler's unit of dispatch: unlike
        :meth:`shards`, which pre-assigns every point to a worker,
        chunks are queued and pulled by whichever worker frees up
        first, so one pathologically slow point delays only its own
        chunk.  Contiguous (rather than strided) slicing keeps each
        chunk's points adjacent in plan order, which preserves the
        per-worker memo locality of actions like ``method_gap`` whose
        fastest-varying axis benefits from neighbouring points landing
        on the same process.  Empty chunks cannot occur; the final
        chunk may be short.
        """
        if chunk_size < 1:
            raise ValueError("chunk size must be at least 1")
        pool = list(range(len(self.points))) if indices is None else list(indices)
        return [pool[i : i + chunk_size] for i in range(0, len(pool), chunk_size)]


def expand(spec: CampaignSpec) -> CampaignPlan:
    """Cross-product expansion with filters: the campaign's plan."""
    workloads = resolve_workloads(spec.workloads)
    points = [
        RunPoint(workload=w, device=d, method=m, n_requests=n)
        for w in workloads
        for d in spec.devices
        for m in spec.methods
        for n in spec.n_requests
    ]
    points = [p for p in points if not _excluded(p, spec.exclude)]
    if spec.limit is not None:
        points = points[: spec.limit]
    if not points:
        raise ValueError(f"campaign {spec.name!r} expands to zero grid points")
    return CampaignPlan(spec=spec, points=tuple(points))
