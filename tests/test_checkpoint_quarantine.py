"""Resume-scan hardening: corrupt checkpoints quarantine, never raise.

Satellite of ISSUE 9: a corrupt or truncated ``runs/<key>.json`` (not
just a torn trailing segment line) is renamed to ``<key>.json.bad`` and
its point re-queued; a segment file with zero decodable lines is
quarantined whole; a merely-torn segment tail keeps losing only the
torn line.  Every quarantine leaves a ``degraded.log`` line and counts
into :attr:`CampaignResult.n_degraded`.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.campaign import CampaignEngine, CampaignSpec, DeviceSpec, expand
from repro.campaign.engine import _scan_checkpoints

from legacy_checkpoints import segments_to_legacy


def _spec(n_points: int = 4) -> CampaignSpec:
    return CampaignSpec(
        name="quarantine-grid",
        action="synthetic",
        workloads=("MSNFS",),
        devices=(DeviceSpec("new", "new-node"),),
        methods=("revision",),
        n_requests=tuple(range(100, 100 + n_points)),
        options={"iters_per_request": 3},
    )


def _complete_json_campaign(out_dir: Path) -> list[str]:
    """Leave a finished campaign as legacy per-point JSON files; returns
    its run keys."""
    CampaignEngine(_spec(), out_dir=out_dir).run()
    keys = expand(_spec()).keys()
    assert sorted(segments_to_legacy(out_dir)) == sorted(keys)
    return keys


class TestCorruptJsonCheckpoint:
    def test_truncated_json_quarantined_and_requeued(self, tmp_path: Path):
        out = tmp_path / "camp"
        keys = _complete_json_campaign(out)
        victim = out / "runs" / f"{keys[1]}.json"
        victim.write_text(victim.read_text(encoding="utf-8")[: victim.stat().st_size // 2])

        found = _scan_checkpoints(out, keys)
        assert keys[1] not in found  # re-queued, not raised
        assert set(found) == set(keys) - {keys[1]}
        assert (out / "runs" / f"{keys[1]}.json.bad").exists()
        assert not victim.exists()

    def test_wrong_shape_payload_quarantined(self, tmp_path: Path):
        out = tmp_path / "camp"
        keys = _complete_json_campaign(out)
        victim = out / "runs" / f"{keys[2]}.json"
        victim.write_text(json.dumps({"key": keys[2], "row": "not-a-dict"}))

        found = _scan_checkpoints(out, keys)
        assert keys[2] not in found
        assert (out / "runs" / f"{keys[2]}.json.bad").exists()

    def test_resume_recomputes_only_the_quarantined_point(self, tmp_path: Path):
        clean = CampaignEngine(_spec(), out_dir=tmp_path / "clean").run()
        out = tmp_path / "camp"
        keys = _complete_json_campaign(out)
        (out / "runs" / f"{keys[0]}.json").write_text("{ torn", encoding="utf-8")

        resumed = CampaignEngine(_spec(), out_dir=out).run()
        assert resumed.n_computed == 1 and resumed.n_resumed == len(keys) - 1
        assert resumed.table == clean.table
        assert resumed.n_degraded >= 1
        degraded = (out / "degraded.log").read_text(encoding="utf-8")
        assert keys[0] in degraded


class TestCorruptSegment:
    def test_all_garbage_segment_quarantined_whole(self, tmp_path: Path):
        out = tmp_path / "camp"
        CampaignEngine(_spec(), out_dir=out).run()
        keys = expand(_spec()).keys()
        segments = sorted((out / "runs").glob("segment-*.jsonl"))
        assert segments
        segments[0].write_bytes(b"\x00\xff garbage bytes, zero json lines\n\x00")

        found = _scan_checkpoints(out, keys)
        assert found == {}  # single-worker run: every point was in that segment
        assert Path(str(segments[0]) + ".bad").exists()
        assert not segments[0].exists()

    def test_torn_tail_still_loses_only_the_torn_line(self, tmp_path: Path):
        out = tmp_path / "camp"
        CampaignEngine(_spec(), out_dir=out).run()
        keys = expand(_spec()).keys()
        segment = sorted((out / "runs").glob("segment-*.jsonl"))[0]
        lines = segment.read_text(encoding="utf-8").splitlines()
        torn = "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2]
        segment.write_text(torn, encoding="utf-8")

        found = _scan_checkpoints(out, keys)
        assert len(found) == len(keys) - 1  # only the torn line is lost
        assert segment.exists()  # a torn tail is normal, not quarantinable
