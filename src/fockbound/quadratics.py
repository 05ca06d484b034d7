"""Quadratic second-quantized operators built from one-body matrices.

d_gamma(B)   = sum_{j,k} B[k,j] a+_k a_j      (number preserving, shift 0)
delta(A)     = sum_{j,k} A[k,j] a_k  a_j      (pair annihilation, shift -2)
delta_plus(C)= sum_{j,k} C[k,j] a+_k a+_j     (pair creation,     shift +2)

Each is one fock.ladder_matrix call with the one-body matrix as coefficients.

delta and delta_plus require skew arguments (A^T = -A with the entrywise
transpose); symmetric parts would cancel identically, so non-skew input is
rejected rather than silently projected.  Use skew_part for intentional
projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import (LADDERS, FockOperator, FockSpace, ladder_matrix, ladder_operator,
                   sector_blocks, slater_state)
from .tolerances import ENTRY_TOL, IDENTITY_TOL, NORM_TOL


def _as_one_body(space: FockSpace, X, name: str = "operator") -> np.ndarray:
    X = np.asarray(X, dtype=complex)
    if X.shape != (space.m, space.m):
        raise ValueError(f"{name} must be {space.m}x{space.m}, got {X.shape}")
    return X


def skew_part(A) -> np.ndarray:
    """Projection onto the skew-symmetric part, (A - A^T)/2."""
    A = np.asarray(A, dtype=complex)
    return (A - A.T) / 2


def is_skew(A, tol: float = ENTRY_TOL) -> bool:
    A = np.asarray(A, dtype=complex)
    scale = 1.0 + np.abs(A).max(initial=0.0)
    return bool(np.abs(A + A.T).max(initial=0.0) <= tol * scale)


def require_skew(A, name: str = "operator") -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    if not is_skew(A):
        raise ValueError(f"{name} must be skew-symmetric (X^T = -X); "
                         "use skew_part for intentional projection")
    return A


def one_body(space: FockSpace, name: str, X) -> np.ndarray:
    """X checked as the one-body matrix of LADDERS[name]; pair operators take only skew X."""
    X = _as_one_body(space, X, f"{name} argument")
    return X if LADDERS[name][1] == 0 else require_skew(X, f"{name} argument")


def d_gamma(space: FockSpace, B) -> FockOperator:
    """Second quantization of B; d_gamma(Id) is the number operator."""
    return ladder_operator(space, "dGamma", one_body(space, "dGamma", B))


def delta(space: FockSpace, A) -> FockOperator:
    """Quadratic annihilation operator of a skew A; lowers particle number by 2."""
    return ladder_operator(space, "Delta", one_body(space, "Delta", A))


def delta_plus(space: FockSpace, C) -> FockOperator:
    """Quadratic creation operator of a skew C; raises particle number by 2."""
    return ladder_operator(space, "DeltaPlus", one_body(space, "DeltaPlus", C))


@dataclass(frozen=True)
class CommutatorReport:
    """Residual of [delta(A), delta_plus(C)] + 4 d_gamma(CA) - 2 tr(AC) Id."""

    residual: float
    scale: float
    passed: bool


def check_commutator(space: FockSpace, A, C) -> CommutatorReport:
    """The identity sector by sector: on the n-particle sector the commutator is
    Delta_{n+2->n} Delta+_{n->n+2} - Delta+_{n-2->n} Delta_{n->n-2}, and every
    entry of the whole-space residual outside these blocks vanishes exactly."""
    A = require_skew(_as_one_body(space, A, "A"), "A")
    C = require_skew(_as_one_body(space, C, "C"), "C")
    da, dpc = sector_blocks(space, "Delta", A), sector_blocks(space, "DeltaPlus", C)
    dg, trace = sector_blocks(space, "dGamma", C @ A), np.trace(A @ C)
    residual = comm_max = target_max = 0.0
    for n in range(space.m + 1):
        comm = da[n + 2] @ dpc[n] - dpc[n - 2] @ da[n]
        target = -4.0 * dg[n] + 2.0 * trace * np.eye(len(comm))
        residual = max(residual, float(np.abs(comm - target).max()))
        comm_max = max(comm_max, np.abs(comm).max())
        target_max = max(target_max, np.abs(target).max())
    scale = 1.0 + float(comm_max + target_max)
    return CommutatorReport(residual=residual, scale=scale,
                            passed=residual <= NORM_TOL * scale)


def check_grading(op: FockOperator) -> bool:
    """True iff all sector blocks inconsistent with the declared shift vanish."""
    if op.grading_shift is None:
        raise ValueError("operator has no declared grading_shift")
    occ = op.space.occupations
    forbidden = occ[:, None] != occ[None, :] + op.grading_shift
    scale = 1.0 + float(np.abs(op.matrix).max(initial=0.0))
    leak = float(np.abs(op.matrix[forbidden]).max(initial=0.0))
    return leak <= ENTRY_TOL * scale


def slater_expectation(space: FockSpace, B, modes) -> complex:
    """<slater(S), d_gamma(B) slater(S)> on the dGamma block of sector |S|, where
    slater(S) lies; cross-checked against sum_{j in S} B_jj."""
    B = _as_one_body(space, B, "B")
    n = len(modes)
    phi = slater_state(space, modes).amplitudes[space.occupations == n]
    value = complex(np.vdot(phi, ladder_matrix(space, "dGamma", B, sector=n) @ phi))
    diagonal_sum = complex(sum(B[j - 1, j - 1] for j in modes))
    if abs(value - diagonal_sum) > IDENTITY_TOL * (1.0 + abs(diagonal_sum)):
        raise AssertionError(
            f"slater expectation {value} disagrees with diagonal sum {diagonal_sum}")
    return value
