"""Tests for configuration (de)serialization (repro.config.loader)."""

import json

import pytest

from repro.apps.prototype import build_prototype
from repro.config.loader import (
    dump_config,
    dump_model,
    load_config,
    load_model,
    read_config,
    save_config,
)
from repro.config.schema import PartitionRuntimeConfig, SystemConfig
from repro.exceptions import ConfigurationError
from repro.hm.tables import HmTables
from repro.types import ErrorCode, RecoveryAction, ScheduleChangeAction

from ..conftest import make_system


class TestModelRoundTrip:
    def test_simple_model(self):
        model = make_system(partitions=("P1", "P2"),
                            requirements=(("P1", 100, 30), ("P2", 100, 20)),
                            windows=(("P1", 0, 30), ("P2", 50, 20)))
        rebuilt = load_model(dump_model(model))
        assert rebuilt == model

    def test_prototype_model_round_trips(self):
        model = build_prototype().config.model
        document = dump_model(model)
        rebuilt = load_model(document)
        assert rebuilt == model
        # And survives an actual JSON round trip.
        assert load_model(json.loads(json.dumps(document))) == model

    def test_change_actions_preserved(self):
        model = make_system(change_actions={
            "P1": ScheduleChangeAction.WARM_START})
        rebuilt = load_model(dump_model(model))
        assert rebuilt.schedule("s1").change_action_for("P1") is \
            ScheduleChangeAction.WARM_START

    def test_missing_key_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="missing required key"):
            load_model({"partitions": []})

    def test_loaded_model_is_revalidated(self):
        document = dump_model(make_system())
        document["schedules"][0]["windows"][0]["duration"] = 10_000
        with pytest.raises(ConfigurationError):
            load_model(document)


class TestConfigRoundTrip:
    def test_full_prototype_config(self):
        config = build_prototype().config
        rebuilt = load_config(dump_config(config))
        assert rebuilt.model == config.model
        assert [c.name for c in rebuilt.channels] == \
            [c.name for c in config.channels]
        assert rebuilt.hm_tables.partition_action(
            "P1", ErrorCode.DEADLINE_MISSED) is \
            RecoveryAction.STOP_AND_RESTART_PROCESS
        assert rebuilt.deadline_store_kind == config.deadline_store_kind
        assert rebuilt.seed == config.seed

    def test_runtime_knobs_round_trip(self):
        config = SystemConfig(
            model=make_system(),
            runtime={"P1": PartitionRuntimeConfig(
                pos_kind="generic", quantum=7, memory_size=128 * 1024,
                deadline_store_kind="tree", auto_start=("a", "b"))})
        rebuilt = load_config(dump_config(config))
        runtime = rebuilt.runtime_for("P1")
        assert runtime.pos_kind == "generic"
        assert runtime.quantum == 7
        assert runtime.memory_size == 128 * 1024
        assert runtime.deadline_store_kind == "tree"
        assert runtime.auto_start == ("a", "b")

    def test_bodies_are_not_serialized(self):
        config = build_prototype().config
        document = dump_config(config)
        assert "bodies" not in json.dumps(document)
        rebuilt = load_config(document)
        assert rebuilt.runtime_for("P1").bodies == {}

    def test_file_round_trip(self, tmp_path):
        config = build_prototype().config
        path = tmp_path / "module.json"
        save_config(config, str(path))
        rebuilt = read_config(str(path))
        assert rebuilt.model == config.model

    def test_defaults_fill_missing_sections(self):
        document = {"model": dump_model(make_system())}
        config = load_config(document)
        assert config.deadline_store_kind == "list"
        assert config.channels == ()
        assert isinstance(config.hm_tables, HmTables)
        assert config.fdir is None

    def test_fdir_config_round_trips(self):
        config = build_prototype(fdir_supervision=True).config
        assert config.fdir is not None
        document = dump_config(config)
        rebuilt = load_config(json.loads(json.dumps(document)))
        assert rebuilt.fdir == config.fdir

    def test_absent_fdir_round_trips_as_none(self):
        config = build_prototype().config
        document = dump_config(config)
        assert document["fdir"] is None
        assert load_config(document).fdir is None

    def test_null_trace_capacity_still_loads(self):
        # Earlier dumps wrote "trace_capacity": null; they stay loadable.
        config = build_prototype().config
        document = dump_config(config)
        assert "trace_capacity" not in document
        document["trace_capacity"] = None
        assert load_config(document).model == config.model

    def test_bounded_trace_capacity_rejected(self):
        document = dump_config(build_prototype().config)
        document["trace_capacity"] = 50_000
        with pytest.raises(ConfigurationError, match="trace_capacity"):
            load_config(document)


class TestLoadedConfigRuns:
    def test_rebuilt_prototype_simulates_identically(self):
        """Load the serialized prototype, re-attach the bodies, and check
        the trace matches the original run exactly."""
        from repro.kernel.simulator import Simulator

        original_handles = build_prototype()
        original = Simulator(original_handles.config)
        original.run_mtf(3)

        rebuilt_config = load_config(dump_config(original_handles.config))
        # Re-attach code (bodies + hooks) from a freshly built prototype.
        fresh = build_prototype()
        for name in rebuilt_config.model.partition_names:
            source = fresh.config.runtime_for(name)
            target = rebuilt_config.runtime_for(name)
            target.bodies.update(source.bodies)
            target.init_hook = source.init_hook
            target.error_handler = source.error_handler
        rebuilt = Simulator(rebuilt_config)
        rebuilt.run_mtf(3)

        def signature(simulator):
            return [(e.tick, e.kind) for e in simulator.trace.events]

        assert signature(rebuilt) == signature(original)
