"""Deterministic 64-bit seed derivation.

All randomness in the package flows from a single root seed through
`derive_seed(root, labels)`, a splittable hash over an integer label path
(e.g. [domain_tag, n, replica]).  The mixing function is the splitmix64
finalizer; the algorithm is fixed and documented in the README together
with frozen test vectors, so streams are reproducible bit-for-bit across
runs, thread counts and platforms.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_LABEL_SALT = 0xD1B54A32D192ED03

# domain tag of the matrix streams; the tests' scalar draws use tag 2
DOMAIN_MATRIX = 1


def splitmix64(x: int) -> int:
    """One splitmix64 step: increment by the golden-gamma, then finalize."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(root: int, labels: Iterable[int] = ()) -> int:
    """Derive a 64-bit stream seed from a root seed and an integer label path.

    derive_seed(s, []) == splitmix64(s); each label folds in via
    s <- splitmix64(s XOR splitmix64(label + salt)).  Pure function of its
    arguments, so it is independent of call order and thread scheduling.
    """
    s = splitmix64(root & _MASK64)
    for label in labels:
        s = splitmix64(s ^ splitmix64((int(label) + _LABEL_SALT) & _MASK64))
    return s


def philox_key(root: int, labels: Iterable[int] = ()) -> np.ndarray:
    """128-bit Philox key derived from (root, labels)."""
    k = derive_seed(root, labels)
    return np.array([k, splitmix64(k)], dtype=np.uint64)


def generator(root: int, labels: Iterable[int] = ()) -> np.random.Generator:
    """Counter-based generator for the stream addressed by (root, labels)."""
    return np.random.Generator(np.random.Philox(key=philox_key(root, labels)))
