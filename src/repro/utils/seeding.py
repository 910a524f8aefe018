"""Deterministic, hierarchical random-number management.

Every stochastic element of the reproduction (node deployment, link weight draws,
source/destination sampling, per-run repetitions) derives its generator from a single
experiment seed through :func:`derive_seed`, so whole density sweeps are reproducible
bit-for-bit while individual runs remain statistically independent.

Code that needs one number per derived generator (the protocol simulator's loss, delay
and jitter draws, the uniform link weights, the churn coins) uses :class:`DerivedDraws`,
which returns exactly what :func:`spawn_rng` would without building a generator per draw.
:func:`spawn_rng` itself is for sequential generators that draw many numbers each.
"""

from __future__ import annotations

import _random
import hashlib
import random
from typing import Dict, Iterable, Tuple

_MASK_63 = (1 << 63) - 1


def _hasher(base_seed: int, components: Iterable[object]):
    """The SHA-256 state :func:`derive_seed` digests, after ``base_seed`` and ``components``."""
    hasher = hashlib.sha256()
    hasher.update(str(int(base_seed)).encode("utf-8"))
    _extend(hasher, components)
    return hasher


def _extend(hasher, components: Iterable[object]) -> None:
    for component in components:
        hasher.update(b"\x1f" + repr(component).encode("utf-8"))


def _seed_of(hasher) -> int:
    return int.from_bytes(hasher.digest()[:8], "big") & _MASK_63


def derive_seed(base_seed: int, *components: object) -> int:
    """Derive a child seed from ``base_seed`` and a sequence of labeling components.

    The derivation hashes the textual representation of the components with SHA-256 so
    that nearby base seeds or labels do not produce correlated child seeds (as they would
    with simple arithmetic mixing).
    """
    return _seed_of(_hasher(base_seed, components))


def spawn_rng(base_seed: int, *components: object) -> random.Random:
    """Return an independent generator derived from ``base_seed`` and ``components``."""
    return random.Random(derive_seed(base_seed, *components))


class DerivedDraws:
    """One number from each derived generator, without building the generator.

    ``draws.random(prefix, last)`` equals ``spawn_rng(base_seed, *prefix, last).random()``
    bit for bit, and :meth:`uniform` likewise equals ``.uniform(low, high)``.  The hash
    state after ``base_seed`` and each distinct ``prefix`` is kept, so a draw is one
    SHA-256 finish (``last`` hashed on a copy of that state), one reseed of a generator
    owned by the instance and one ``random()``.  The reseed calls ``_random.Random.seed``,
    the C method that ``random.Random.seed`` wraps: for an int the wrapper adds only a type
    check and clears ``gauss_next``, which ``random()`` never reads.  The reseed (Mersenne
    Twister initialisation) is most of what a draw costs.

    The hash states cannot be pickled, so an instance pickles and copies as
    ``DerivedDraws(seed)``, and its holders pickle and copy as they did without it.
    """

    __slots__ = ("seed", "_root", "_prefixes", "_reseed", "_random")

    def __init__(self, base_seed: int) -> None:
        self.seed = base_seed
        self._root = _hasher(base_seed, ())
        self._prefixes: Dict[Tuple[object, ...], object] = {}
        # Seeded with 0 rather than from os.urandom: every draw reseeds it anyway.
        generator = _random.Random(0)
        self._reseed = generator.seed
        self._random = generator.random

    def __reduce__(self):
        return (DerivedDraws, (self.seed,))

    def random(self, prefix: Tuple[object, ...], last: object) -> float:
        """``spawn_rng(base_seed, *prefix, last).random()``."""
        state = self._prefixes.get(prefix)
        if state is None:
            state = self._prefixes[prefix] = self._root.copy()
            _extend(state, prefix)
        hasher = state.copy()
        # _extend(hasher, (last,)) and _seed_of(hasher), inlined.
        hasher.update(b"\x1f" + repr(last).encode("utf-8"))
        self._reseed(int.from_bytes(hasher.digest()[:8], "big") & _MASK_63)
        return self._random()

    def uniform(self, prefix: Tuple[object, ...], last: object, low: float, high: float) -> float:
        """``spawn_rng(base_seed, *prefix, last).uniform(low, high)``."""
        return low + (high - low) * self.random(prefix, last)  # as random.Random.uniform
