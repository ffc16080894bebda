"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main
from repro.apps.prototype import build_prototype
from repro.config.loader import dump_config, save_config


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "prototype.json"
    save_config(build_prototype().config, str(path))
    return str(path)


class TestDemo:
    def test_demo_runs_and_reports(self, capsys):
        assert main(["demo", "--mtfs", "2"]) == 0
        out = capsys.readouterr().out
        assert "AIR Partition Scheduler" in out
        assert "deadline misses:" in out
        assert "schedule switches: 2" in out

    def test_demo_rejects_negative_mtfs(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["demo", "--mtfs", "-1"])
        assert exit_info.value.code == 2
        assert "--mtfs: must be >= 0" in capsys.readouterr().err


class TestValidate:
    def test_valid_config_exits_zero(self, config_path, capsys):
        assert main(["validate", config_path]) == 0
        out = capsys.readouterr().out
        assert "SCHEDULE_METRICS" in out

    def test_invalid_config_exits_nonzero(self, tmp_path, capsys):
        document = dump_config(build_prototype().config)
        # Break eq. (23): shrink P1's only chi1 window below its duration.
        for schedule in document["model"]["schedules"]:
            if schedule["schedule_id"] == "chi1":
                schedule["windows"][0]["duration"] = 150
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(document))
        assert main(["validate", str(path)]) == 1
        assert "EQ23_VIOLATED" in capsys.readouterr().out


class TestAnalyze:
    def test_analyze_prototype(self, config_path, capsys):
        exit_code = main(["analyze", config_path])
        out = capsys.readouterr().out
        assert "schedule 'chi1':" in out
        assert "P1/aocs-sensing" in out
        assert exit_code in (0, 1)  # the faulty process's analysis may MISS


class TestRun:
    def test_run_reports_occupancy(self, config_path, capsys):
        assert main(["run", config_path, "--ticks", "2600"]) == 0
        out = capsys.readouterr().out
        assert "ran 2600 ticks" in out
        # Occupancy comes from the PMK's own counters: tick 0 belongs to
        # P1 (its window opens in that tick's ISR), so no tick is idle.
        for partition, ticks in (("P1", 400), ("P2", 400), ("P3", 400),
                                 ("P4", 1400)):
            assert f"  {partition:12s} {ticks:8d} ticks" in out
        assert "(idle)" not in out

    def test_run_rejects_negative_ticks(self, config_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", config_path, "--ticks", "-5"])
        assert exit_info.value.code == 2
        assert "--ticks: must be >= 0" in capsys.readouterr().err

    def test_run_trace_out_writes_jsonl(self, config_path, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        assert main(["run", config_path, "--ticks", "2600",
                     "--trace-out", str(trace_path)]) == 0
        lines = [line for line in
                 trace_path.read_text().splitlines() if line]
        assert lines
        events = [json.loads(line) for line in lines]
        assert all("kind" in event and "tick" in event for event in events)
        ticks = [event["tick"] for event in events]
        assert ticks == sorted(ticks)
        assert f"({len(events)} events)" in capsys.readouterr().out

    def test_run_metrics_and_timeline_out(self, config_path, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        timeline_path = tmp_path / "timeline.json"
        assert main(["run", config_path, "--ticks", "2600",
                     "--metrics-out", str(metrics_path),
                     "--timeline-out", str(timeline_path)]) == 0
        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"]
        assert metrics["gauges"]["air_ticks_executed"] == 2600
        timeline = json.loads(timeline_path.read_text())
        assert timeline["traceEvents"]

    def test_run_profile_reports_to_stderr(self, config_path, capsys):
        assert main(["run", config_path, "--ticks", "1300",
                     "--profile"]) == 0
        report = json.loads(capsys.readouterr().err)
        assert report["deterministic"] is False
        assert {"core.pmk", "core.scheduler"} <= set(report["subsystems"])
        assert report["event_core"]["ticks_batched"] + \
            report["event_core"]["ticks_stepped"] == 1300

    def test_run_profile_keeps_outputs_byte_identical(self, config_path,
                                                      tmp_path):
        outputs = {}
        for flags in ([], ["--profile"]):
            trace_path = tmp_path / f"trace{len(flags)}.jsonl"
            metrics_path = tmp_path / f"metrics{len(flags)}.json"
            assert main(["run", config_path, "--ticks", "2600",
                         "--trace-out", str(trace_path),
                         "--metrics-out", str(metrics_path)] + flags) == 0
            outputs[bool(flags)] = (trace_path.read_bytes(),
                                    metrics_path.read_bytes())
        assert outputs[True] == outputs[False]


class TestDemoArtifacts:
    def test_demo_metrics_and_timeline_out(self, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        timeline_path = tmp_path / "timeline.json"
        assert main(["demo", "--mtfs", "2",
                     "--metrics-out", str(metrics_path),
                     "--timeline-out", str(timeline_path)]) == 0
        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"]["air_deadline_misses_total"
                                   "{partition=P1,process=p1-faulty}"] > 0
        timeline = json.loads(timeline_path.read_text())
        switches = sorted(event["name"]
                          for event in timeline["traceEvents"]
                          if event["ph"] == "i"
                          and event.get("cat") == "schedule")
        assert switches == ["PST switch: chi1 -> chi2",
                            "PST switch: chi2 -> chi1"]


class TestObserve:
    def run_with_trace(self, config_path, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        assert main(["run", config_path, "--ticks", "3900",
                     "--trace-out", str(trace_path)]) == 0
        return str(trace_path)

    def test_observe_summarizes(self, config_path, tmp_path, capsys):
        trace_path = self.run_with_trace(config_path, tmp_path)
        capsys.readouterr()
        assert main(["observe", trace_path]) == 0
        out = capsys.readouterr().out
        assert "events (ticks" in out
        assert "PartitionDispatched" in out
        assert "occupancy P1:" in out

    def test_observe_writes_artifacts(self, config_path, tmp_path, capsys):
        trace_path = self.run_with_trace(config_path, tmp_path)
        metrics_path = tmp_path / "derived.json"
        timeline_path = tmp_path / "timeline.json"
        assert main(["observe", trace_path, "--config", config_path,
                     "--metrics-out", str(metrics_path),
                     "--timeline-out", str(timeline_path)]) == 0
        derived = json.loads(metrics_path.read_text())
        assert derived["occupancy"]["P1"]["ticks"] > 0
        assert derived["occupancy"]["P1"]["entitlement"]["chi1"]["allocated"]
        assert json.loads(timeline_path.read_text())["traceEvents"]

    def test_observe_missing_file_fails(self, tmp_path, capsys):
        assert main(["observe", str(tmp_path / "nope.jsonl")]) == 1
        assert "error" in capsys.readouterr().err.lower()
