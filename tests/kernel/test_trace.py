"""Tests for the structured execution trace (repro.kernel.trace)."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import trace as trace_module
from repro.kernel.trace import (
    ApplicationMessage,
    DeadlineMissed,
    PartitionDispatched,
    PortMessageSent,
    Trace,
)


def dispatched(tick, heir="P1"):
    return PartitionDispatched(tick=tick, previous=None, heir=heir)


def missed(tick, process="p"):
    return DeadlineMissed(tick=tick, partition="P1", process=process,
                          deadline_time=tick - 1, detection_latency=1)


class TestRecording:
    def test_events_kept_in_order(self):
        trace = Trace()
        trace.record(dispatched(1))
        trace.record(missed(2))
        assert [e.tick for e in trace.events] == [1, 2]
        assert len(trace) == 2

    def test_kind_labels(self):
        assert dispatched(0).kind == "PartitionDispatched"

    def test_unbounded_by_default(self):
        trace = Trace()
        for tick in range(1000):
            trace.record(dispatched(tick))
        assert len(trace) == 1000
        assert trace.summary()["dropped"] == 0


class TestQueries:
    def test_of_type_filters(self):
        trace = Trace()
        trace.record(dispatched(1))
        trace.record(missed(2))
        trace.record(dispatched(3))
        assert [e.tick for e in trace.of_type(PartitionDispatched)] == [1, 3]
        assert trace.count(DeadlineMissed) == 1

    def test_last(self):
        trace = Trace()
        assert trace.last(DeadlineMissed) is None
        trace.record(missed(5))
        trace.record(missed(9))
        assert trace.last(DeadlineMissed).tick == 9

    def test_where_and_between(self):
        trace = Trace()
        for tick in range(10):
            trace.record(dispatched(tick, heir="P1" if tick % 2 else "P2"))
        assert len(trace.where(lambda e: e.heir == "P1")) == 5
        assert [e.tick for e in trace.between(3, 6)] == [3, 4, 5]


class TestDigestMemoization:
    """The encoded chunks and the running hash are the digest's memo: a
    repeat digest re-encodes nothing, and every change to the log shows."""

    def test_repeated_digest_does_not_rescan(self, monkeypatch):
        # Only the first digest of an unchanged log may encode events.
        trace = Trace()
        for tick in range(50):
            trace.record(dispatched(tick))
        encoded = []
        original = trace_module._encode_events

        def counting_encode(events):
            events = list(events)
            encoded.append(len(events))
            return original(events)

        monkeypatch.setattr(trace_module, "_encode_events", counting_encode)
        first = trace.digest()
        assert encoded == [50]
        assert trace.digest() == first
        assert trace.summary()["digest"] == first
        assert encoded == [50], "a repeat digest re-encoded events"
        trace.record(dispatched(50))
        assert trace.digest() != first
        assert encoded == [50, 1]

    def test_append_changes_the_digest(self):
        trace = Trace()
        trace.record(dispatched(1))
        before = trace.digest()
        trace.record(dispatched(2))
        after = trace.digest()
        assert after != before

    def test_restore_changes_the_digest(self):
        trace = Trace()
        trace.record(dispatched(1))
        stale = trace.digest()
        other = Trace()
        other.record(dispatched(1))
        other.record(missed(2))
        trace.restore(other.snapshot())
        assert trace.digest() == other.digest() != stale

    def test_same_length_same_last_tick_still_distinguished(self):
        # restore() drops the encoded chunks and the running hash, so a
        # rebuilt log of equal length and final tick cannot reuse a
        # stale encoding.
        trace = Trace()
        trace.record(dispatched(1, heir="P1"))
        first = trace.digest()
        trace.restore(Trace().snapshot())
        trace.record(dispatched(1, heir="P2"))
        assert trace.digest() != first


class TestBetweenBisect:
    def test_duplicate_boundary_ticks(self):
        trace = Trace()
        ticks = [0, 1, 1, 1, 2, 2, 3, 3, 3, 5]
        for tick in ticks:
            trace.record(dispatched(tick))
        assert [e.tick for e in trace.between(1, 2)] == [1, 1, 1]
        assert [e.tick for e in trace.between(1, 3)] == [1, 1, 1, 2, 2]
        assert [e.tick for e in trace.between(3, 6)] == [3, 3, 3, 5]
        assert trace.between(4, 5) == ()
        assert trace.between(2, 2) == ()
        assert trace.between(3, 1) == ()

    def test_matches_linear_scan_reference(self):
        trace = Trace()
        ticks = [0, 0, 2, 2, 2, 5, 7, 7, 11, 11, 11, 11, 13]
        for tick in ticks:
            trace.record(dispatched(tick))
        for start in range(-1, 15):
            for end in range(-1, 16):
                expected = tuple(e for e in trace.events
                                 if start <= e.tick < end)
                assert trace.between(start, end) == expected


class TestWhere:
    def test_where_filters_by_predicate(self):
        trace = Trace()
        trace.record(dispatched(1, heir="P1"))
        trace.record(missed(2))
        trace.record(dispatched(3, heir="P2"))
        hits = trace.where(lambda e: e.tick >= 2)
        assert [e.tick for e in hits] == [2, 3]
        assert trace.where(lambda e: False) == ()


class TestJsonl:
    def test_save_and_load_round_trip(self, tmp_path):
        trace = Trace()
        trace.record(dispatched(1))
        trace.record(missed(2))
        path = str(tmp_path / "trace.jsonl")
        assert trace.save_jsonl(path) == 2
        rebuilt = Trace.load_jsonl(path)
        assert rebuilt.events == trace.events
        assert rebuilt.digest() == trace.digest()

    def test_load_jsonl_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind": "PartitionDispatched", "tick": 1, '
                        '"previous": null, "heir": "P1"}\n\n')
        assert len(Trace.load_jsonl(str(path))) == 1

    def test_load_jsonl_rejects_unknown_kind(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind": "NoSuchEvent", "tick": 1}\n')
        with pytest.raises(ValueError, match="unknown trace event kind"):
            Trace.load_jsonl(str(path))


class TestSummaryAndJson:
    def sample_trace(self):
        trace = Trace()
        trace.record(dispatched(1))
        trace.record(missed(2))
        trace.record(ApplicationMessage(tick=3, partition="P3",
                                        process=None, text="tm frame"))
        trace.record(dispatched(4, heir=None))
        return trace

    def test_summary_counts_and_range(self):
        summary = self.sample_trace().summary()
        assert summary["events"] == 4
        assert summary["counts"] == {"ApplicationMessage": 1,
                                     "DeadlineMissed": 1,
                                     "PartitionDispatched": 2}
        assert summary["first_tick"] == 1
        assert summary["last_tick"] == 4
        assert len(summary["digest"]) == 16

    def test_empty_trace_summary(self):
        summary = Trace().summary()
        assert summary["events"] == 0
        assert summary["first_tick"] is None

    def test_json_round_trip_preserves_events(self):
        trace = self.sample_trace()
        rebuilt = Trace.from_json(trace.to_json())
        assert rebuilt.events == trace.events

    def test_summary_survives_json_round_trip(self):
        trace = self.sample_trace()
        assert Trace.from_json(trace.to_json()).summary() == trace.summary()

    def test_digest_differs_on_different_content(self):
        assert self.sample_trace().digest() != Trace().digest()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown trace event kind"):
            Trace.from_json('{"dropped": 0, "events": '
                            '[{"kind": "NoSuchEvent", "tick": 1}]}')

    def test_document_with_dropped_events_rejected(self):
        # A document that evicted events is a window, not a whole log.
        with pytest.raises(ValueError, match="dropped 2 events"):
            Trace.from_json('{"dropped": 2, "events": '
                            '[{"kind": "PartitionDispatched", "tick": 4, '
                            '"previous": null, "heir": "P1"}]}')

    def test_digest_matches_explicit_construction(self):
        # Recording digests identically to loading the hand-written
        # canonical document of the same events.
        recorded = Trace()
        for tick in range(2, 5):
            recorded.record(dispatched(tick))
        reference = Trace.from_json(
            '{"dropped": 0, "events": ['
            '{"kind": "PartitionDispatched", "tick": 2, "previous": null,'
            ' "heir": "P1"},'
            '{"kind": "PartitionDispatched", "tick": 3, "previous": null,'
            ' "heir": "P1"},'
            '{"kind": "PartitionDispatched", "tick": 4, "previous": null,'
            ' "heir": "P1"}]}')
        assert recorded.events == reference.events
        assert recorded.digest() == reference.digest()

    def test_round_trip_of_a_real_run(self):
        # The satellite-task contract: summarizing a live run equals
        # summarizing the serialized-then-rebuilt trace of that run.
        from repro.apps.prototype import (
            MTF,
            build_prototype,
            inject_faulty_process,
            make_simulator,
        )

        simulator = make_simulator(build_prototype())
        inject_faulty_process(simulator)
        simulator.run_fast(3 * MTF)
        trace = simulator.trace
        rebuilt = Trace.from_json(trace.to_json())
        assert rebuilt.summary() == trace.summary()
        assert rebuilt.events == trace.events


class TestIncrementalEncoding:
    """Traces assemble to_json from lazily-encoded chunks; the result
    must stay byte-identical to the one-shot ``json.dumps`` and
    survive snapshot/restore so forks only encode their own tail."""

    def one_shot(self, trace):
        import json
        return json.dumps({"dropped": 0, "events": trace.to_dicts()},
                          sort_keys=True, separators=(",", ":"))

    def test_incremental_json_is_byte_identical(self):
        trace = Trace()
        for tick in range(20):
            trace.record(dispatched(tick))
        trace.record(ApplicationMessage(tick=21, partition="P3",
                                        process=None, text="tm frame"))
        assert trace.to_json() == self.one_shot(trace)

    def test_encoding_grows_in_chunks_across_appends(self):
        trace = Trace()
        trace.record(dispatched(1))
        first = trace.to_json()
        trace.record(missed(2))
        second = trace.to_json()
        assert second == self.one_shot(trace)
        assert first != second

    def test_snapshot_ships_the_encoded_prefix(self):
        trace = Trace()
        for tick in range(5):
            trace.record(dispatched(tick))
        state = trace.snapshot()
        assert state["encoded"]  # canonical JSON rides the capture

    def test_restored_trace_reuses_prefix_and_encodes_only_the_tail(
            self, monkeypatch):
        trace = Trace()
        for tick in range(8):
            trace.record(dispatched(tick))
        state = trace.snapshot()

        forked = Trace()
        forked.restore(state)
        forked.record(missed(9))

        encoded_batches = []
        original = Trace._encode_pending

        def spying_encode(self):
            watermark = self._encoded_count
            result = original(self)
            encoded_batches.append(self._encoded_count - watermark)
            return result

        monkeypatch.setattr(Trace, "_encode_pending", spying_encode)
        digest = forked.digest()
        assert encoded_batches == [1]  # only the post-fork tail

        cold = Trace()
        for tick in range(8):
            cold.record(dispatched(tick))
        cold.record(missed(9))
        assert digest == cold.digest()

    def test_restore_resets_the_encoded_prefix(self):
        trace = Trace()
        trace.record(dispatched(1))
        trace.digest()  # chunks and running hash over the old log
        trace.restore(Trace().snapshot())
        trace.record(dispatched(2))
        assert trace.to_json() == self.one_shot(trace)
        fresh = Trace()
        fresh.record(dispatched(2))
        assert trace.digest() == fresh.digest()

    def test_restore_mid_chunk_then_rebased_delta_is_byte_identical(self):
        # The cycle-cache replay path: a checkpoint lands while the
        # source trace holds several already-encoded chunks plus an
        # unencoded tail; the fork then splices a *rebased* copy of a
        # template delta on top of the adopted prefix.  The assembled
        # document must stay byte-identical to a one-shot encoding.
        from repro.kernel.trace import rebase_event

        source = Trace()
        for tick in range(4):
            source.record(dispatched(tick))
        source.to_json()  # chunk 1 sealed at the watermark
        source.record(missed(4))
        source.to_json()  # chunk 2
        for tick in range(5, 8):
            source.record(dispatched(tick))  # unencoded tail
        state = source.snapshot()

        forked = Trace()
        forked.restore(state)
        template = [dispatched(8), missed(9)]
        for offset in (0, 10, 20):
            for event in template:
                forked.record(rebase_event(event, offset))
        assert forked.to_json() == self.one_shot(forked)
        assert [e.tick for e in forked.events] == \
            [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 18, 19, 28, 29]

    def test_direct_append_replay_fast_path_is_byte_identical(self):
        # Replay appends straight onto the event list, not through
        # Trace.record.  The incremental encoder's watermark must still
        # pick those events up.
        trace = Trace()
        for tick in range(3):
            trace.record(dispatched(tick))
        first = trace.to_json()
        trace._events.append(dispatched(3))
        trace._events.append(missed(4))
        second = trace.to_json()
        assert second != first
        assert second == self.one_shot(trace)

    def test_chained_forks_each_encode_only_their_tail(self, monkeypatch):
        # fork-of-a-fork: every restore adopts the whole encoded prefix,
        # so each generation's digest re-encodes only its own delta —
        # and the final bytes still equal a cold end-to-end encoding.
        from repro.kernel.trace import rebase_event

        root = Trace()
        for tick in range(6):
            root.record(dispatched(tick))

        first = Trace()
        first.restore(root.snapshot())
        delta = [dispatched(6), missed(7)]
        for event in delta:
            first.record(rebase_event(event, 0))

        second = Trace()
        second.restore(first.snapshot())
        for event in delta:
            second.record(rebase_event(event, 10))

        encoded_batches = []
        original = Trace._encode_pending

        def spying_encode(self):
            watermark = self._encoded_count
            result = original(self)
            encoded_batches.append(self._encoded_count - watermark)
            return result

        monkeypatch.setattr(Trace, "_encode_pending", spying_encode)
        document = second.to_json()
        assert encoded_batches == [2]  # only the second fork's delta

        cold = Trace()
        for tick in range(6):
            cold.record(dispatched(tick))
        for offset in (0, 10):
            for event in delta:
                cold.record(rebase_event(event, offset))
        assert document == cold.to_json()
        assert second.digest() == cold.digest()


class TestSnapshotState:
    def test_restore_shares_events_in_a_fresh_log(self):
        source = Trace()
        for tick in range(4):
            source.record(dispatched(tick))
        state = source.snapshot()
        forks = [Trace(), Trace()]
        for fork in forks:
            fork.restore(state)
        forks[0].record(missed(5))
        assert len(forks[1]) == len(state["events"]) == 4
        assert all(a is b is c for a, b, c in zip(
            forks[0].events, forks[1].events, state["events"]))
        assert forks[1].digest() == source.digest()

    def test_pack_unpack_round_trip(self):
        source = Trace()
        source.record(dispatched(1))
        source.record(missed(2))
        state = source.snapshot()
        packed = Trace.pack_state(state)
        assert packed["events"] == [
            (type(event).__name__,) + dataclasses.astuple(event)
            for event in source.events]
        assert list(packed) == list(state)
        assert packed["encoded"] == state["encoded"]
        unpacked = Trace.unpack_state(packed)
        assert unpacked["events"] == state["events"]
        assert state["events"] == source.events  # packing copied
        restored = Trace()
        restored.restore(unpacked)
        assert restored.digest() == source.digest()


class TestRebasePlan:
    """rebase_plan must be a faithful precompilation of rebase_event."""

    def test_matches_rebase_event_for_every_field_shape(self):
        from repro.kernel.trace import (
            DeadlineRegistered,
            WatchdogExpired,
            rebase_event,
            rebase_plan,
        )

        samples = [
            dispatched(5),
            missed(9),
            ApplicationMessage(tick=3, partition="P2", process="p",
                               text="tm"),
            # extra tick-valued fields beyond .tick:
            DeadlineRegistered(tick=4, partition="P1", process="p",
                               deadline_time=10),
            WatchdogExpired(tick=7, partition="P1", last_kick=2),
        ]
        for event in samples:
            for offset in (0, 13, 2600):
                event_type, args, indices = rebase_plan(event)
                rebased = list(args)
                for index in indices:
                    rebased[index] += offset
                assert event_type(*rebased) == rebase_event(event, offset)

    def test_none_valued_tick_fields_are_left_alone(self):
        from repro.kernel.trace import DeadlineRegistered, rebase_plan

        event = DeadlineRegistered(tick=4, partition="P1", process="p",
                                   deadline_time=None)
        event_type, args, indices = rebase_plan(event)
        rebased = list(args)
        for index in indices:
            rebased[index] += 50
        assert event_type(*rebased).deadline_time is None


def one_shot_events(trace):
    """The reference encoding the per-class encoders must reproduce."""
    return json.dumps(trace.to_dicts(), sort_keys=True,
                      separators=(",", ":"))


#: Field values for the encoder property: pooled strings (so templates
#: are reused across examples) with non-ASCII characters, quotes,
#: backslashes and ``%``; ints; None; True, 1 and 1.0, which hash equal
#: but render differently; and an unhashable list.
_VALUES = st.one_of(
    st.sampled_from(["P1", "caf\u00e9", "\u2603 snow", 'say "hi"',
                     "back\\slash", "100%", "%d", "%s%%", ""]),
    st.text(max_size=8),
    st.integers(-2, 3),
    st.integers(),
    st.none(),
    st.sampled_from([True, 1, 1.0]),
    st.lists(st.integers(0, 3), max_size=2),
)

_EVENTS = st.sampled_from(sorted(trace_module._EVENT_TYPES.values(),
                                 key=lambda cls: cls.__name__)).flatmap(
    lambda cls: st.tuples(*[_VALUES for _ in dataclasses.fields(cls)])
    .map(lambda values: cls(*values)))


class TestEncoder:
    """The memoized per-class encoder is byte-identical to ``json.dumps``
    of :meth:`Trace.to_dicts`, and its template memo stays bounded."""

    @given(st.lists(_EVENTS, max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_byte_identical_to_one_shot_json(self, events):
        trace = Trace()
        for event in events:
            trace.record(event)
        assert "[" + ",".join(trace._encode_pending()) + "]" == \
            one_shot_events(trace)

    def test_equal_hashing_values_keep_their_own_rendering(self):
        # True == 1 == 1.0 share a hash; a template stored for one must
        # not serve the others.
        trace = Trace()
        for size in (1, True, 1.0, 1):
            trace.record(PortMessageSent(tick=5, partition="P1",
                                         port="out", size=size))
        assert trace.to_json().count('"size":1,') == 2
        assert '"size":true' in trace.to_json()
        assert '"size":1.0' in trace.to_json()
        assert trace.to_json() == json.dumps(
            {"dropped": 0, "events": trace.to_dicts()}, sort_keys=True,
            separators=(",", ":"))

    def test_template_memo_is_capped(self):
        cap = trace_module.TEMPLATE_MEMO_CAP
        trace = Trace()
        for index in range(cap + 50):
            trace.record(ApplicationMessage(
                tick=index, partition="P1", process=None,
                text=f"unique line {index}"))
        encoded = "[" + ",".join(trace._encode_pending()) + "]"
        templates = trace_module._ENCODERS[ApplicationMessage].templates
        assert len(templates) <= cap
        assert encoded == one_shot_events(trace)
