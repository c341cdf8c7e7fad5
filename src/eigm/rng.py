"""Seeding helpers for reproducible sampling.

All randomness in this package flows through numpy's counter-based Philox
(4x64) bit generator, so a given 64-bit seed produces the same stream on
every platform.  Derived seeds are computed by hashing, never by drawing
from a shared stream, so adding work items does not perturb existing ones.
"""

from __future__ import annotations

import hashlib

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    """Return a Philox-backed generator keyed by ``seed``."""
    return np.random.Generator(np.random.Philox(key=int(seed) & (2**64 - 1)))


def derive_seed(base: int, *parts: object) -> int:
    """XOR ``base`` with a stable 64-bit hash of ``parts``.

    Floats should be passed as-is; their repr is hashed, which is stable
    across runs and platforms for IEEE doubles.
    """
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\x1f")
    return (int(base) ^ int.from_bytes(h.digest(), "big")) & (2**64 - 1)
