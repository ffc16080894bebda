"""Tests for steady-state MTF cycle memoization (repro.kernel.cycle_cache).

Two contracts are pinned here.  First, the state fingerprint: identical
deterministic state must hash identically across runs and interpreter
processes (the concrete hex digests are recorded, like the derived-seed
values in test_rng.py — any encoding change silently invalidates every
cached template, so it must fail loudly here), while every state
component the kernel can branch on — rng streams, FDIR escalation
bookkeeping, queued port payloads, pending schedule switches — must
produce a *distinct* digest.  Second, the cache itself: on a steady
workload it replays most frames, on a faulty workload it conservatively
replays none, and in both cases traces, counters and end state are
bit-identical to a cache-off run.  End state is compared as raw
snapshots (:func:`assert_same_state`): the fingerprint excludes counter
values, so it cannot see a wrong counter advance.
"""

import gc
import hashlib
import json
import subprocess
import sys
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Call, Compute, SystemBuilder
from repro.apps.prototype import (
    STEADY_MTF,
    build_prototype,
    build_steady_prototype,
    inject_faulty_process,
    make_simulator,
    make_steady_simulator,
)
from repro.kernel import trace as trace_module
from repro.kernel.cycle_cache import CYCLE_CACHE_STAT_KEYS, state_fingerprint
from repro.kernel.simulator import Simulator
from repro.kernel.snapshot import SimulatorSnapshot
from repro.types import PartitionMode

from ..conftest import remote_config

#: Pinned full-state digests (see module docstring).  STEADY_DIGEST is
#: the steady cruise prototype after 3 MTFs; PROTO_DIGEST the chi1
#: prototype after 2 MTFs.  Both must survive re-encoding changes or the
#: change is a silent cache invalidation of recorded behavior.
STEADY_DIGEST = \
    "be5d02e9e3e23ba86efe9e95168fa9e098db7b8d6ef687d3e8da6cfa02c1f4dd"
PROTO_DIGEST = \
    "6f885095f1ae944d66e67df86cbad1717b718eca3cc3b5c22b368d7f0443d870"
#: The remote configuration mid-frame after 20 MTFs, with both row shapes
#: the two digests above miss live: an armed watchdog's (last_kick,
#: deadline) and an in-flight (arrival, sequence, envelope, tag).
REMOTE_DIGEST = \
    "65f04df8e0d8f3e4efdecc6bfe3aaf91a9b0d0737e663cb83c712555d9e8b84f"


def full_signature(simulator):
    """Every trace event, every field — the strictest equivalence check."""
    return [repr(e) for e in simulator.trace.events]


def assert_same_state(cached, plain):
    """Raw PMK and time snapshots are equal, counters included."""
    assert cached.pmk.snapshot() == plain.pmk.snapshot()
    assert cached.time.snapshot() == plain.time.snapshot()


class TestFingerprintStability:
    def test_identical_runs_identical_fingerprint(self):
        first = make_steady_simulator()
        first.run_fast(STEADY_MTF * 3)
        second = make_steady_simulator()
        second.run_fast(STEADY_MTF * 3)
        assert state_fingerprint(first) == state_fingerprint(second)

    def test_pinned_digests(self):
        steady = make_steady_simulator()
        steady.run_fast(STEADY_MTF * 3)
        assert state_fingerprint(steady) == STEADY_DIGEST
        proto = make_simulator(build_prototype())
        proto.run_fast(STEADY_MTF * 2)
        assert state_fingerprint(proto) == PROTO_DIGEST
        remote = Simulator(remote_config(latency=620, watchdog=800))
        remote.run_fast(500 * 20 + 250)
        state = remote.pmk.snapshot()
        assert state["fdir"]["watchdog"]["armed"]
        assert state["router"]["channels"]["ch"]["link"]["in_flight"]
        assert state_fingerprint(remote) == REMOTE_DIGEST

    def test_fingerprint_is_reproducible_across_interpreter_processes(self):
        # str hashing is randomized per process (PYTHONHASHSEED); the
        # fingerprint walks dicts keyed by strings and enums and must
        # not depend on it, or a restored snapshot in a campaign worker
        # would never match the coordinator's template.
        import pathlib

        src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
        program = (
            "from repro.apps.prototype import make_steady_simulator, "
            "STEADY_MTF; "
            "from repro.kernel.cycle_cache import state_fingerprint; "
            "sim = make_steady_simulator(); sim.run_fast(STEADY_MTF); "
            "print(state_fingerprint(sim))")
        local = make_steady_simulator()
        local.run_fast(STEADY_MTF)
        expected = state_fingerprint(local)
        for hash_seed in ("0", "1", "random"):
            output = subprocess.run(
                [sys.executable, "-c", program],
                env={"PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
                capture_output=True, text=True, check=True).stdout.strip()
            assert output == expected, f"PYTHONHASHSEED={hash_seed}"

    def test_mid_frame_state_is_distinct(self):
        boundary = make_steady_simulator()
        boundary.run_fast(STEADY_MTF * 3)
        mid = make_steady_simulator()
        mid.run_fast(STEADY_MTF * 3 + 170)
        assert state_fingerprint(mid) != state_fingerprint(boundary)


class TestFingerprintDivergence:
    """Each kernel-visible state component must flip the digest."""

    def test_rng_stream_position_diverges(self):
        simulator = make_steady_simulator()
        simulator.run_fast(STEADY_MTF)
        before = state_fingerprint(simulator)
        simulator.pmk.apex("P1")._rng.randint(0, 10**9)
        assert state_fingerprint(simulator) != before

    def test_fdir_escalation_state_diverges(self):
        simulator = make_simulator(build_prototype(fdir_supervision=True))
        simulator.run_fast(STEADY_MTF)
        before = state_fingerprint(simulator)
        snapshot = simulator.pmk.fdir.snapshot()
        snapshot["restarts"] = dict(snapshot["restarts"], P1=2)
        simulator.pmk.fdir.restore(snapshot)
        assert state_fingerprint(simulator) != before

    def test_queued_port_payload_diverges(self):
        simulator = make_steady_simulator()
        simulator.run_fast(STEADY_MTF)
        before = state_fingerprint(simulator)
        simulator.pmk.apex("P2").queuing_port("tm_out").send(b"extra-frame")
        assert state_fingerprint(simulator) != before

    def test_queued_payload_bytes_diverge(self):
        # Same queue depth, different bytes — the payload content itself
        # is part of the digest, not just the occupancy count.
        first = make_steady_simulator()
        first.run_fast(STEADY_MTF)
        first.pmk.apex("P2").queuing_port("tm_out").send(b"frame-a")
        second = make_steady_simulator()
        second.run_fast(STEADY_MTF)
        second.pmk.apex("P2").queuing_port("tm_out").send(b"frame-b")
        assert state_fingerprint(first) != state_fingerprint(second)

    def test_pending_schedule_switch_diverges(self):
        simulator = make_simulator(build_prototype())
        simulator.run_fast(STEADY_MTF)
        before = state_fingerprint(simulator)
        simulator.pmk.scheduler.request_switch("chi2", now=simulator.time.now)
        assert state_fingerprint(simulator) != before


def logging_config(mtf=500, diverge_after=None,
                   lines=lambda cycles: ["frame done"]):
    """One partition whose process logs ``lines(cycle)`` every frame.

    The body records its ApplicationMessages between yields — a side
    effect replay must neither repeat nor invent when it re-drives the
    generator.  With *diverge_after*, the body's ``Compute`` grows after
    that many cycles (generator-local state the fingerprint cannot see),
    so a replayed frame diverges and the cache rolls back by resume-log
    replay.  A *lines* that depends on the cycle count changes the log
    the same way while every yield stays the same.
    """
    builder = SystemBuilder()
    partition = builder.partition("P1")
    partition.process("logger", period=mtf, deadline=mtf, priority=1,
                      wcet=10)

    def logger(ctx):
        cycles = 0
        while True:
            cycles += 1
            grown = diverge_after is not None and cycles > diverge_after
            yield Compute(2 if grown else 1)
            for line in lines(cycles):
                ctx.log(line)
            yield Call(ctx.apex.periodic_wait)

    partition.body("logger", logger)

    def init(apex):
        apex.start("logger")
        apex.set_partition_mode(PartitionMode.NORMAL)

    partition.init_hook(init)
    builder.schedule("main", mtf=mtf) \
        .require("P1", cycle=mtf, duration=50) \
        .window("P1", offset=0, duration=50)
    return builder.build()


class TestCycleCache:
    def test_armed_by_default(self):
        assert make_steady_simulator().cycle_cache_stats is not None
        config = make_steady_simulator().config
        assert Simulator(config).cycle_cache_stats is not None

    def test_false_is_the_off_switch_with_identical_digests(self):
        armed = make_steady_simulator()
        armed.run_fast(STEADY_MTF * 12)
        off = Simulator(build_steady_prototype(), cycle_cache=False)
        off.run_fast(STEADY_MTF * 12)
        assert off.cycle_cache_stats is None
        assert armed.cycle_cache_stats["hits"] > 0
        assert armed.trace.digest() == off.trace.digest()

    def test_armed_simulator_and_cache_are_freed_without_the_cyclic_gc(
            self):
        # Campaigns build a simulator per scenario; a cache that kept
        # its simulator, or an armed resume hook that kept the cache,
        # would leave each finished one (templates and boundary
        # snapshots included) for the cyclic GC to find.
        gc.disable()
        try:
            simulator = make_steady_simulator()
            simulator.run_fast(STEADY_MTF * 12)
            assert simulator.cycle_cache_stats["hits"] > 0
            released = [weakref.ref(simulator),
                        weakref.ref(simulator._cycle_cache)]
            del simulator
            assert [ref() for ref in released] == [None, None]
        finally:
            gc.enable()

    def test_stats_keys_are_the_governed_set(self):
        simulator = Simulator(build_steady_prototype(), cycle_cache=True)
        simulator.run_fast(STEADY_MTF * 4)
        assert tuple(simulator.cycle_cache_stats) == CYCLE_CACHE_STAT_KEYS

    def test_steady_workload_replays_most_frames(self):
        simulator = Simulator(build_steady_prototype(), cycle_cache=True)
        simulator.run_fast(STEADY_MTF * 20)
        stats = simulator.cycle_cache_stats
        # A few warm-up frames: the counter gate needs two equal deltas,
        # the probe pipeline two equal fingerprints, before replay fires.
        assert stats["hits"] >= 12
        assert stats["invalidations"] == 0

    def test_bit_identity_steady(self):
        cached = Simulator(build_steady_prototype(), cycle_cache=True)
        cached.run_fast(STEADY_MTF * 12)
        plain = Simulator(build_steady_prototype(), cycle_cache=False)
        plain.run_fast(STEADY_MTF * 12)
        assert cached.cycle_cache_stats["hits"] > 0  # genuinely replayed
        assert full_signature(cached) == full_signature(plain)
        assert cached.now == plain.now
        assert cached.pmk.ticks_executed == plain.pmk.ticks_executed
        assert cached.pmk.partition_ticks == plain.pmk.partition_ticks
        assert state_fingerprint(cached) == state_fingerprint(plain)
        assert_same_state(cached, plain)

    def test_faulty_workload_never_fires_but_stays_identical(self):
        cached = Simulator(build_prototype().config, cycle_cache=True)
        cached.run_fast(STEADY_MTF * 4)
        inject_faulty_process(cached)
        cached.run_fast(STEADY_MTF * 4)
        plain = Simulator(build_prototype().config, cycle_cache=False)
        plain.run_fast(STEADY_MTF * 4)
        inject_faulty_process(plain)
        plain.run_fast(STEADY_MTF * 4)
        assert cached.cycle_cache_stats["hits"] == 0  # conservative
        assert full_signature(cached) == full_signature(plain)
        assert state_fingerprint(cached) == state_fingerprint(plain)
        assert_same_state(cached, plain)

    def test_odd_chunked_runs_stay_identical(self):
        # run_fast calls that straddle MTF boundaries arbitrarily must
        # not disturb replay: the cache only acts at exact boundaries.
        cached = Simulator(build_steady_prototype(), cycle_cache=True)
        for chunk in (700, STEADY_MTF * 5 + 311, STEADY_MTF * 6, 289):
            cached.run_fast(chunk)
        plain = Simulator(build_steady_prototype(), cycle_cache=False)
        plain.run_fast(STEADY_MTF * 12)
        assert cached.now == plain.now
        assert cached.cycle_cache_stats["hits"] > 0
        assert full_signature(cached) == full_signature(plain)
        assert state_fingerprint(cached) == state_fingerprint(plain)
        assert_same_state(cached, plain)

    def test_body_side_effect_events_are_not_recorded_twice(self):
        # Replay re-drives the generator, which runs the body's ctx.log
        # again; the frame delta already carries that line.
        cached = Simulator(logging_config())
        cached.run_fast(500 * 12)
        plain = Simulator(logging_config(), cycle_cache=False)
        plain.run_fast(500 * 12)
        assert cached.cycle_cache_stats["hits"] > 0
        assert full_signature(cached) == full_signature(plain)
        assert_same_state(cached, plain)

    def test_rollback_does_not_re_record_the_body_history(self):
        # A divergent replay rebuilds bodies by resume-log replay, which
        # re-runs every ctx.log the body ever made.
        cached = Simulator(logging_config(diverge_after=6))
        cached.run_fast(500 * 12)
        plain = Simulator(logging_config(diverge_after=6),
                          cycle_cache=False)
        plain.run_fast(500 * 12)
        assert cached.cycle_cache_stats["invalidations"] > 0
        assert full_signature(cached) == full_signature(plain)
        assert_same_state(cached, plain)

    @pytest.mark.parametrize("lines", [
        lambda cycles: ["warming" if cycles < 8 else "cruising"],
        lambda cycles: ["checkpoint"] if cycles % 9 == 0 else [],
        lambda cycles: ["frame done"] * (1 if cycles < 8 else 2),
    ], ids=["text-changes", "line-appears", "line-repeats"])
    def test_body_log_that_changes_with_local_state_rolls_back(
            self, lines):
        # Yields stay the same every frame while the log lines follow a
        # generator-local counter the fingerprint cannot see: the
        # re-drive's own lines must be checked against the template's.
        cached = Simulator(logging_config(lines=lines))
        cached.run_fast(500 * 14)
        plain = Simulator(logging_config(lines=lines), cycle_cache=False)
        plain.run_fast(500 * 14)
        assert cached.cycle_cache_stats["invalidations"] > 0
        assert full_signature(cached) == full_signature(plain)
        assert cached.trace.digest() == plain.trace.digest()
        assert_same_state(cached, plain)

    def test_armed_watchdog_and_in_flight_message_replay(self):
        # The two tuple-shaped timers: a kicked watchdog's
        # (last_kick, deadline) and a link's (arrival, sequence,
        # envelope, tag), both live across every replayed boundary.
        cached = Simulator(remote_config(latency=620, watchdog=800))
        cached.run_fast(500 * 20)
        plain = Simulator(remote_config(latency=620, watchdog=800),
                          cycle_cache=False)
        plain.run_fast(500 * 20)
        assert cached.cycle_cache_stats["hits"] >= 12
        state = cached.pmk.snapshot()
        assert state["fdir"]["watchdog"]["armed"]
        assert state["router"]["channels"]["ch"]["link"]["in_flight"]
        assert full_signature(cached) == full_signature(plain)
        assert_same_state(cached, plain)


def one_shot_json(trace):
    """The canonical document built the slow, obvious way."""
    return json.dumps({"dropped": 0, "events": trace.to_dicts()},
                      sort_keys=True, separators=(",", ":"))


def assert_canonical(trace):
    document = one_shot_json(trace)
    assert trace.to_json() == document
    assert trace.digest() == \
        hashlib.sha256(document.encode("utf-8")).hexdigest()[:16]


def deferred_frames(trace):
    """Replayed frames the trace will render from a frame format."""
    return sum(len(offsets) for _start, _frame, offsets in trace._deferred)


#: Body log lines per cycle for the property test's logging configs.
_LINES = {
    "same": lambda cycles: ["frame done"],
    "changes": lambda cycles: ["warming" if cycles < 8 else "cruising"],
    "repeats": lambda cycles: ["frame done"] * (1 if cycles < 8 else 2),
}

#: Where the property test may encode, digest or fork between chunks.
_SEAMS = ("none", "digest", "to_json", "digest+to_json", "to_json+digest",
          "fork", "trace-round-trip")


class TestReplayRenderedFrames:
    """Replay hands the trace frames to render from the template's one
    frame format; every document and digest stays byte-identical to the
    one-shot ``json.dumps`` of the events."""

    def test_replayed_frames_render_from_the_frame_format(self):
        simulator = make_steady_simulator()
        simulator.run_fast(STEADY_MTF * 12)
        hits = simulator.cycle_cache_stats["hits"]
        assert hits > 0
        # Nothing was formatted during run_fast: every replayed frame is
        # still deferred, one per committed frame.
        assert deferred_frames(simulator.trace) == hits
        plain = Simulator(build_steady_prototype(), cycle_cache=False)
        plain.run_fast(STEADY_MTF * 12)
        assert_canonical(simulator.trace)
        assert simulator.trace.digest() == plain.trace.digest()
        assert simulator.trace._deferred == []

    @given(data=st.data())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_documents_match_one_shot_json_at_every_seam(self, data):
        kind = data.draw(st.sampled_from(("steady", "logging")), "config")
        if kind == "steady":
            config = make_steady_simulator().config
            mtf = STEADY_MTF
        else:
            config = logging_config(
                diverge_after=data.draw(
                    st.one_of(st.none(), st.integers(3, 12)), "diverge"),
                lines=_LINES[data.draw(st.sampled_from(sorted(_LINES)),
                                       "lines")])
            mtf = 500
        simulator = Simulator(config)
        for _step in range(data.draw(st.integers(1, 6), "steps")):
            simulator.run_fast(data.draw(st.integers(1, 8 * mtf), "chunk"))
            seam = data.draw(st.sampled_from(_SEAMS), "seam")
            trace = simulator.trace
            if seam == "fork":
                # A checkpoint renders the deferred frames into the
                # shipped encoding; the fork adopts it.
                snapshot = SimulatorSnapshot.capture(simulator)
                assert "encoded" in snapshot.trace
                simulator = snapshot.restore(config)
            elif seam == "trace-round-trip":
                trace.restore(trace.snapshot())
            for call in seam.split("+"):
                if call == "digest":
                    assert trace.digest() == hashlib.sha256(
                        one_shot_json(trace).encode("utf-8")
                    ).hexdigest()[:16]
                elif call == "to_json":
                    assert trace.to_json() == one_shot_json(trace)
        assert_canonical(simulator.trace)
        plain = Simulator(config, cycle_cache=False)
        plain.run_fast(simulator.now)
        assert simulator.trace.digest() == plain.trace.digest()

    def _assert_matches_cache_off(self, config):
        cached = Simulator(config)
        cached.run_fast(500 * 12)
        plain = Simulator(config, cycle_cache=False)
        plain.run_fast(500 * 12)
        assert cached.cycle_cache_stats["hits"] > 0
        assert cached.trace._deferred == []  # no frame format to render
        assert_canonical(cached.trace)
        assert cached.trace.to_json() == plain.trace.to_json()
        assert cached.trace.digest() == plain.trace.digest()

    def test_frames_without_templates_encode_per_event(self, monkeypatch):
        # An empty, full template memo: no event can be templated, so the
        # cycle cache builds no frame format and replayed frames take
        # the per-event json.dumps path.
        monkeypatch.setattr(trace_module, "TEMPLATE_MEMO_CAP", 0)
        monkeypatch.setattr(trace_module, "_ENCODERS", {})
        self._assert_matches_cache_off(logging_config())
        assert all(not encoder.templates
                   for encoder in trace_module._ENCODERS.values())

    @pytest.mark.parametrize("text", [1.5, ["frame", "done"]],
                             ids=["float", "unhashable"])
    def test_untemplatable_log_line_encodes_per_event(self, text):
        self._assert_matches_cache_off(
            logging_config(lines=lambda cycles: [text]))

    def test_rendered_frames_stop_at_the_last_committed_frame(self):
        # The body's ninth cycle grows its Compute, so the replay batch
        # that starts at tick 3000 commits two frames and diverges in
        # the frame at 4000, which then runs live.
        simulator = Simulator(logging_config(diverge_after=8))
        simulator.run_fast(500 * 14)
        stats = simulator.cycle_cache_stats
        assert stats["invalidations"] == 1
        trace = simulator.trace
        events = trace.events
        assert deferred_frames(trace) == stats["hits"]
        start, frame, offsets = trace._deferred[0]
        end = start + len(offsets) * frame.events
        assert events[start].tick == 3000 and len(offsets) == 2
        assert events[end - 1].tick < 4000 <= events[end].tick
        assert [frame.render(offset) for offset in offsets] == [
            ",".join(trace_module._encode_events(
                events[index:index + frame.events]))
            for index in range(start, end, frame.events)]
        assert_canonical(trace)
