"""Deterministic randomness for workload generation.

Experiments must be reproducible run-to-run (the paper's verification story
depends on determinism); all stochastic workload parameters flow through a
:class:`SeededRng` so a seed fully determines a simulation.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Dict, List, Optional, Sequence, TypeVar

T = TypeVar("T")

__all__ = ["SeededRng"]


class SeededRng:
    """Thin, explicitly-seeded wrapper over :class:`random.Random`.

    Exists so that simulation components never touch the global
    :mod:`random` state, and so test code can assert a component received
    (and only used) its own stream.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        # Seeded on first use: a stream whose state load_state_dict then
        # replaces (every stream a snapshot restore rebuilds) or that is
        # never drawn from skips the Mersenne Twister seeding.
        self._random: Optional[random.Random] = None

    def _stream(self) -> random.Random:
        stream = self._random
        if stream is None:
            stream = self._random = random.Random(self._seed)
        return stream

    @property
    def seed(self) -> int:
        """The seed this stream was created with."""
        return self._seed

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive."""
        return self._stream().randint(low, high)

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in ``[low, high]``."""
        return self._stream().uniform(low, high)

    def choice(self, options: Sequence[T]) -> T:
        """Uniformly pick one element of *options*."""
        return self._stream().choice(options)

    def sample(self, options: Sequence[T], count: int) -> List[T]:
        """Sample *count* distinct elements of *options*."""
        return self._stream().sample(options, count)

    def shuffle(self, items: List[T]) -> None:
        """In-place Fisher-Yates shuffle."""
        self._stream().shuffle(items)

    def chance(self, probability: float) -> bool:
        """True with the given *probability* in ``[0, 1]``."""
        return self._stream().random() < probability

    def state_dict(self) -> Dict[str, Any]:
        """Serializable stream position: seed plus the Mersenne state.

        The returned value is pure data (ints and tuples) — picklable and
        JSON-encodable after a tuple→list conversion — so simulator
        snapshots can freeze a stream mid-sequence and
        :meth:`load_state_dict` can resume it bit-exactly, in this process
        or another.
        """
        return {"seed": self._seed, "state": self._stream().getstate()}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a position captured by :meth:`state_dict`.

        After loading, the stream produces exactly the draws the captured
        stream would have produced next, and :meth:`fork` children are
        identical (forking depends only on the seed, never on the
        position).
        """
        self._seed = state["seed"]
        raw = state["state"]
        if self._random is None:
            # An unseeded generator: setstate overwrites all of it.
            self._random = random.Random.__new__(random.Random)
        # Tolerate a JSON round-trip: getstate() is nested tuples, which
        # JSON flattens to lists.
        self._random.setstate(
            (raw[0], tuple(raw[1]), raw[2]) if not isinstance(raw, tuple)
            else raw)

    def fork(self, label: str) -> "SeededRng":
        """Derive an independent child stream, stable for a given label.

        Components forked with distinct labels get decorrelated streams
        while remaining fully determined by the parent seed.  Child seeds
        are derived with sha256 over a canonical encoding — *not*
        :func:`hash`, whose str hashing is randomized per interpreter
        process and would silently decorrelate campaign workers from the
        coordinator (and every run from every other run).
        """
        encoded = f"{self._seed}:{label}".encode("utf-8")
        child_seed = int.from_bytes(
            hashlib.sha256(encoded).digest()[:4], "big") & 0x7FFFFFFF
        return SeededRng(child_seed)
