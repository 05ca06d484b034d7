"""Seeded random draws for trial harnesses.

Every trial derives its own Philox stream from (seed, path), so serial and
parallel runs over trials produce identical draws regardless of scheduling.
"""

from __future__ import annotations

import numpy as np


def trial_rng(seed: int, *path: int) -> np.random.Generator:
    """Counter-based generator for the trial identified by `path` under `seed`."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(ss))


def complex_vector(rng: np.random.Generator, m: int) -> np.ndarray:
    """i.i.d. standard complex Gaussian entries."""
    return rng.standard_normal(m) + 1j * rng.standard_normal(m)


def complex_matrix(rng: np.random.Generator, m: int) -> np.ndarray:
    return rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))


def skew_matrix(rng: np.random.Generator, m: int) -> np.ndarray:
    """Random A with A^T = -A (entrywise transpose)."""
    a = complex_matrix(rng, m)
    return (a - a.T) / 2


def psd_matrix(rng: np.random.Generator, m: int) -> np.ndarray:
    a = complex_matrix(rng, m)
    return a.conj().T @ a


def unitary_matrix(rng: np.random.Generator, m: int) -> np.ndarray:
    q, r = np.linalg.qr(complex_matrix(rng, m))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))
