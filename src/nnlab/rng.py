"""Deterministic seeded random streams.

Every random quantity in the package is drawn from a stream identified by a
master seed plus a tuple of labels.  Streams with the same (seed, labels) are
bit-identical regardless of the order in which other streams were consumed,
which is what makes runs reproducible from their manifest alone.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _label_entropy(label) -> int:
    # Stable across processes; never rely on hash() which is salted.
    digest = hashlib.sha256(repr(label).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class SeededRng:
    """A labelled, forkable random stream backed by numpy's PCG64."""

    def __init__(self, master_seed: int, labels: tuple = ()):
        self.master_seed = int(master_seed)
        self.labels = tuple(labels)
        entropy = [self.master_seed & 0xFFFFFFFFFFFFFFFF]
        entropy.extend(_label_entropy(lb) for lb in self.labels)
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))

    def child(self, *labels) -> "SeededRng":
        """Derive an independent stream; same labels always give the same stream."""
        return SeededRng(self.master_seed, self.labels + tuple(labels))

    def uniform_open(self, size=None) -> np.ndarray:
        """Uniform draws guaranteed to lie in the open interval (0, 1)."""
        u = self._gen.random(size)
        while True:
            zero = u == 0.0
            if not np.any(zero):
                return u
            if np.isscalar(zero) or zero.shape == ():
                u = self._gen.random(size)
            else:
                u[zero] = self._gen.random(int(zero.sum()))

    def integers(self, low, high, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size=size)

    def bernoulli(self, size=None) -> np.ndarray:
        return self._gen.integers(0, 2, size=size)

    def shuffled(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self):
        return f"SeededRng(seed={self.master_seed}, labels={self.labels!r})"
