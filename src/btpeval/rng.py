"""Deterministic stream derivation for reproducible, schedulable trials.

Every random draw in the package comes from a numpy Generator created by
`substream(seed, *path)`, where the path is a sequence of labels (strings
or integers) naming the consumer: e.g. ``substream(42, "unlink:pi+ad",
chunk_index, "adv")``.  Estimators and games key their streams by chunk
of trials, never by trial.  String labels are folded to
64-bit integers with BLAKE2 so the derivation never depends on Python's
salted `hash()`.  Identical (seed, path) gives an identical stream in any
process, which is what makes results independent of worker count.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

_MASK64 = (1 << 64) - 1


@lru_cache(maxsize=1024)
def _digest(label: str) -> int:
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _label_to_int(label) -> int:
    if isinstance(label, (int, np.integer)):
        return int(label) & _MASK64
    return _digest(str(label))


def seed_sequence(seed: int, *path) -> np.random.SeedSequence:
    """Build the SeedSequence for a derivation path rooted at `seed`."""
    entropy = [int(seed) & _MASK64] + [_label_to_int(p) for p in path]
    return np.random.SeedSequence(entropy)


def substream(seed: int, *path) -> np.random.Generator:
    """Return a fresh Generator for (seed, path)."""
    return np.random.default_rng(seed_sequence(seed, *path))
