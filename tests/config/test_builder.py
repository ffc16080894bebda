"""Tests for the fluent system builder (repro.config.builder)."""

import pytest

from repro import SystemBuilder
from repro.exceptions import ConfigurationError, ValidationError
from repro.types import ScheduleChangeAction

from ..conftest import periodic_body


def minimal_builder():
    builder = SystemBuilder()
    builder.partition("P1").process("w", period=100, deadline=100,
                                    priority=1, wcet=10) \
        .body("w", periodic_body(10))
    builder.schedule("main", mtf=100) \
        .require("P1", cycle=100, duration=40) \
        .window("P1", offset=0, duration=40)
    return builder


class TestBuilding:
    def test_minimal_system_builds(self):
        config = minimal_builder().build()
        assert config.model.partition_names == ("P1",)
        assert config.model.initial_schedule == "main"

    def test_empty_builder_rejected(self):
        with pytest.raises(ConfigurationError, match="no partitions"):
            SystemBuilder().build()

    def test_partition_without_schedule_rejected(self):
        builder = SystemBuilder()
        builder.partition("P1")
        with pytest.raises(ConfigurationError, match="no schedules"):
            builder.build()

    def test_invalid_model_rejected_at_build(self):
        builder = minimal_builder()
        builder.schedule("bad", mtf=150) \
            .require("P1", cycle=100, duration=10) \
            .window("P1", offset=0, duration=10)
        with pytest.raises(ValidationError):
            builder.build()

    def test_partition_builders_are_memoized(self):
        builder = SystemBuilder()
        assert builder.partition("P1") is builder.partition("P1")

    def test_first_schedule_is_initial_by_default(self):
        builder = minimal_builder()
        builder.schedule("other", mtf=100) \
            .require("P1", cycle=100, duration=40) \
            .window("P1", offset=0, duration=40)
        assert builder.build().model.initial_schedule == "main"

    def test_initial_schedule_override(self):
        builder = minimal_builder()
        builder.schedule("other", mtf=100) \
            .require("P1", cycle=100, duration=40) \
            .window("P1", offset=0, duration=40)
        builder.initial_schedule("other")
        assert builder.build().model.initial_schedule == "other"

    def test_runtime_knobs_flow_through(self):
        builder = minimal_builder()
        builder.partition("P1").memory(128 * 1024).deadline_store("tree")
        builder.deadline_store("tree").change_action_policy("mtf_start")
        builder.seed(99)
        config = builder.build()
        assert config.runtime_for("P1").memory_size == 128 * 1024
        assert config.seed == 99
        assert config.change_action_policy == "mtf_start"

    def test_system_partition_and_change_actions(self):
        builder = minimal_builder()
        builder.partition("P1").system_partition()
        builder.schedule("main", mtf=100).on_switch(
            "P1", ScheduleChangeAction.COLD_START)
        config = builder.build()
        assert config.model.partition("P1").system_partition
        assert config.model.schedule("main").change_action_for("P1") is \
            ScheduleChangeAction.COLD_START

    def test_generic_pos_selection(self):
        builder = minimal_builder()
        builder.partition("P1").pos("generic", quantum=7)
        config = builder.build()
        runtime = config.runtime_for("P1")
        assert runtime.pos_kind == "generic"
        assert runtime.quantum == 7

    def test_channels(self):
        builder = minimal_builder()
        builder.partition("P2").process("r", period=100, deadline=100,
                                        priority=1, wcet=5) \
            .body("r", periodic_body(5))
        builder.schedule("main", mtf=100) \
            .require("P2", cycle=100, duration=30) \
            .window("P2", offset=50, duration=30)
        builder.queuing_channel("q", source=("P1", "out"),
                                destination=("P2", "in"))
        builder.sampling_channel("s", source=("P1", "att"),
                                 destinations=(("P2", "att"),),
                                 refresh_period=50)
        config = builder.build()
        assert [c.name for c in config.channels] == ["q", "s"]
