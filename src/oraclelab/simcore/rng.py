"""Reproducible random streams.

Every stochastic operation in the package takes an explicit
:class:`numpy.random.Generator`.  All generators are backed by Philox4x64,
a counter-based bit generator whose output is a pure function of its 128-bit
key, so results are bit-identical across platforms and runs.

A master seed keys the root stream; independent child streams are keyed by
``(master_seed, task_index)``, so each independent draw of an experiment
(a trial, a circuit, an entry of a list) takes its own stream and its result
depends on nothing drawn for the others.  Child streams never overlap.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def stream(master_seed: int) -> np.random.Generator:
    """Root generator for ``master_seed``."""
    return np.random.Generator(np.random.Philox(key=[master_seed & _MASK64, 0]))


def child(master_seed: int, task_index: int) -> np.random.Generator:
    """Independent generator for task ``task_index`` under ``master_seed``."""
    if task_index < 0:
        raise ValueError("task_index must be nonnegative")
    return np.random.Generator(
        np.random.Philox(key=[master_seed & _MASK64, (task_index + 1) & _MASK64])
    )


def mix64(z: int) -> int:
    """64-bit avalanche mix (splitmix64 finalizer).

    Used to derive deterministic per-node values from composite keys without
    storing exponentially large tables.  A ``uint64`` array is mixed
    elementwise with the same result, since its arithmetic wraps mod 2^64.
    """
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64
