"""Legacy per-point checkpoint files, for the resume-scan tests.

Campaigns once wrote every completed point as its own
``runs/<key>.json`` holding ``{"key", "row"[, "wall_s"]}``.  The engine
now only appends segment lines, but the resume scan still reads (and
quarantines) those files so old output directories resume; these
helpers produce them the way the old writer did.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any


def write_legacy_checkpoint(
    out_dir: Path, key: str, row: dict[str, Any], wall_s: float | None = None
) -> Path:
    """Write ``<out_dir>/runs/<key>.json`` in the legacy payload shape."""
    path = out_dir / "runs" / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    payload: dict[str, Any] = {"key": key, "row": row}
    if wall_s is not None:
        payload["wall_s"] = wall_s
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def segments_to_legacy(out_dir: Path) -> list[str]:
    """Rewrite every segment line under ``runs/`` as a legacy JSON file.

    The segments are deleted afterwards, so the directory looks exactly
    like one a pre-segment campaign left behind.  Returns the keys
    written, in segment order.
    """
    keys: list[str] = []
    for segment in sorted((out_dir / "runs").glob("segment-*.jsonl")):
        for line in segment.read_text(encoding="utf-8").splitlines():
            data = json.loads(line)
            write_legacy_checkpoint(out_dir, data["key"], data["row"], data.get("wall_s"))
            keys.append(data["key"])
        segment.unlink()
    return keys
