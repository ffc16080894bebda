"""Tests for deterministic randomness (repro.kernel.rng)."""

import subprocess
import sys

from repro.kernel.rng import SeededRng


class TestDeterminism:
    def test_same_seed_same_stream(self):
        first = [SeededRng(42).randint(0, 1000) for _ in range(10)]
        second = [SeededRng(42).randint(0, 1000) for _ in range(10)]
        assert first == second

    def test_different_seeds_diverge(self):
        a = SeededRng(1)
        b = SeededRng(2)
        assert [a.randint(0, 10**9) for _ in range(4)] != \
            [b.randint(0, 10**9) for _ in range(4)]

    def test_fork_is_stable_per_label(self):
        assert SeededRng(7).fork("aocs").randint(0, 10**9) == \
            SeededRng(7).fork("aocs").randint(0, 10**9)

    def test_fork_labels_decorrelate(self):
        parent = SeededRng(7)
        assert parent.fork("a").seed != parent.fork("b").seed

    def test_fork_seed_is_a_documented_stable_value(self):
        # Pin concrete derived seeds: any change to the derivation scheme
        # silently invalidates every recorded campaign digest, so it must
        # show up here as a failure.
        assert SeededRng(0).fork("P1").seed == 940671125
        assert SeededRng(7).fork("aocs").seed == 1432942316

    def test_fork_is_reproducible_across_interpreter_processes(self):
        # str hashing is randomized per process (PYTHONHASHSEED); fork
        # must not depend on it, or campaign workers would decorrelate
        # from the coordinator.  A fresh interpreter with a different
        # hash seed must derive the identical child stream.
        import pathlib

        src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
        program = ("from repro.kernel.rng import SeededRng; "
                   "rng = SeededRng(42).fork('campaign-worker'); "
                   "print(rng.seed, rng.randint(0, 10**9))")
        local = SeededRng(42).fork("campaign-worker")
        expected = f"{local.seed} {local.randint(0, 10**9)}"
        for hash_seed in ("0", "1", "random"):
            output = subprocess.run(
                [sys.executable, "-c", program],
                env={"PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
                capture_output=True, text=True, check=True).stdout.strip()
            assert output == expected, f"PYTHONHASHSEED={hash_seed}"


class TestStateDict:
    def test_round_trip_resumes_the_exact_stream(self):
        source = SeededRng(42)
        for _ in range(7):  # advance to an arbitrary mid-stream position
            source.randint(0, 10**9)
        frozen = source.state_dict()
        expected = [source.randint(0, 10**9) for _ in range(10)]
        resumed = SeededRng(0)  # deliberately wrong seed: load overwrites
        resumed.load_state_dict(frozen)
        assert resumed.seed == 42
        assert [resumed.randint(0, 10**9) for _ in range(10)] == expected

    def test_round_trip_survives_json(self):
        import json

        source = SeededRng(9)
        source.uniform(0.0, 1.0)
        frozen = json.loads(json.dumps(source.state_dict()))
        expected = [source.randint(0, 10**9) for _ in range(5)]
        resumed = SeededRng(0)
        resumed.load_state_dict(frozen)
        assert [resumed.randint(0, 10**9) for _ in range(5)] == expected

    def test_fork_equivalence_after_restore(self):
        # fork depends only on the seed, so a restored stream must derive
        # children identical to the original's — the property simulator
        # snapshots rely on when processes re-fork their rngs on restore.
        source = SeededRng(17)
        source.randint(0, 10**9)  # position must not influence fork
        resumed = SeededRng(0)
        resumed.load_state_dict(source.state_dict())
        for label in ("P1", "P1/ctx", "campaign-worker"):
            assert resumed.fork(label).seed == SeededRng(17).fork(label).seed
            assert resumed.fork(label).randint(0, 10**9) == \
                SeededRng(17).fork(label).randint(0, 10**9)

    def test_lazy_seeding_matches_eager_seeding(self):
        # A stream seeds itself on first use: what it reports and draws
        # equals an eagerly seeded random.Random.
        import random

        assert SeededRng(11).state_dict()["state"] == \
            random.Random(11).getstate()
        assert SeededRng(11).sample(range(100), 5) == \
            random.Random(11).sample(range(100), 5)
        never_drawn = SeededRng(5).fork("P1")
        never_drawn.load_state_dict(SeededRng(11).state_dict())
        assert never_drawn.uniform(0.0, 1.0) == \
            random.Random(11).uniform(0.0, 1.0)

    def test_state_dict_is_a_capture_not_a_view(self):
        source = SeededRng(3)
        frozen = source.state_dict()
        drawn = source.randint(0, 10**9)  # advancing must not mutate it
        resumed = SeededRng(0)
        resumed.load_state_dict(frozen)
        assert resumed.randint(0, 10**9) == drawn


class TestHelpers:
    def test_chance_extremes(self):
        rng = SeededRng(0)
        assert not any(rng.chance(0.0) for _ in range(100))
        assert all(rng.chance(1.0) for _ in range(100))

    def test_choice_and_sample(self):
        rng = SeededRng(3)
        options = ["a", "b", "c", "d"]
        assert rng.choice(options) in options
        sample = rng.sample(options, 2)
        assert len(sample) == len(set(sample)) == 2

    def test_shuffle_preserves_elements(self):
        rng = SeededRng(5)
        items = list(range(20))
        rng.shuffle(items)
        assert sorted(items) == list(range(20))
