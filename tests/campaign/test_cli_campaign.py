"""Exit-code and report contract of ``python -m repro campaign``."""

import json

import pytest

from repro.__main__ import main
from repro.campaign.scenarios import Scenario, scenario_to_dict


@pytest.fixture
def crashing_spec(tmp_path):
    """A two-scenario spec where one scenario's factory always raises."""
    scenarios = [
        Scenario(scenario_id="good", factory="prototype", ticks=2600),
        Scenario(scenario_id="bad", factory="broken", ticks=2600),
    ]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(
        {"scenarios": [scenario_to_dict(s) for s in scenarios]}))
    return str(path)


class TestCampaignExitCodes:
    def test_clean_campaign_exits_zero(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["campaign", "--suite", "fault-matrix",
                     "--scenarios", "4", "--mtfs", "3",
                     "--json", str(report)]) == 0
        out = capsys.readouterr().out
        assert "4 ok" in out
        document = json.loads(report.read_text())
        assert document["aggregate"]["status"] == {"ok": 4}

    def test_failing_scenario_exits_nonzero_and_is_marked_crashed(
            self, crashing_spec, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["campaign", "--spec", crashing_spec,
                     "--json", str(report)]) == 1
        out = capsys.readouterr().out
        assert "FAILED bad [crashed]" in out
        document = json.loads(report.read_text())
        assert document["aggregate"]["status"]["crashed"] == 1
        by_id = {entry["id"]: entry for entry in document["scenarios"]}
        assert by_id["bad"]["status"] == "crashed"
        assert "broken factory" in by_id["bad"]["error"]
        assert by_id["good"]["status"] == "ok"

    def test_verify_serial_passes_on_pooled_run(self, capsys):
        assert main(["campaign", "--suite", "fault-matrix",
                     "--scenarios", "4", "--mtfs", "3",
                     "--workers", "2", "--verify-serial"]) == 0
        assert "verified: pooled (2 workers) == serial" in \
            capsys.readouterr().out

    def test_seed_sweep_suite_runs(self, capsys):
        assert main(["campaign", "--suite", "seed-sweep",
                     "--scenarios", "2", "--mtfs", "6"]) == 0
        assert "2 ok" in capsys.readouterr().out

    def test_config_sweep_suite_runs(self, capsys):
        assert main(["campaign", "--suite", "config-sweep",
                     "--scenarios", "2"]) == 0
        assert "2 ok" in capsys.readouterr().out

    def test_chaos_suite_runs_clean_and_verified(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["campaign", "--suite", "chaos",
                     "--scenarios", "6", "--mtfs", "5",
                     "--workers", "2", "--verify-serial",
                     "--json", str(report)]) == 0
        out = capsys.readouterr().out
        assert "6 ok" in out
        assert "verified: pooled (2 workers) == serial" in out
        document = json.loads(report.read_text())
        assert document["aggregate"]["status"] == {"ok": 6}
        # The injection log rides along in the per-scenario records.
        assert all(entry["injections"] for entry in document["scenarios"])

    def test_shared_fault_chaos_with_tree_flags(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["campaign", "--suite", "chaos",
                     "--scenarios", "6", "--mtfs", "8",
                     "--shared-seed", "--prefix-mtfs", "2",
                     "--shared-faults", "2",
                     "--workers", "2", "--verify-serial",
                     "--json", str(report)]) == 0
        out = capsys.readouterr().out
        assert "6 ok" in out
        assert "verified: pooled (2 workers) == serial" in out
        document = json.loads(report.read_text())
        execution = document["timing"]["execution"]
        assert execution["prefix_tree"]["enabled"]
        assert execution["prefix_tree"]["planned_scenarios"] == 6
        assert execution["workers"]  # per-worker cache counters present

