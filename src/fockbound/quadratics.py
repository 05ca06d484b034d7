"""Quadratic second-quantized operators built from one-body matrices.

d_gamma(B)   = sum_{j,k} B[k,j] a+_k a_j      (number preserving, shift 0)
delta(A)     = sum_{j,k} A[k,j] a_k  a_j      (pair annihilation, shift -2)
delta_plus(C)= sum_{j,k} C[k,j] a+_k a+_j     (pair creation,     shift +2)

Each is fock.ladder_operator with the one-body matrix as coefficients: its
sector blocks, one fock.ladder_matrix call each, put in place.  The checks
never form them whole: check_commutator builds its blocks link by link, the
dGamma bounds build one fock.ladder_matrix block at a time, both from the
operator's cached layout, and the Delta and DeltaPlus bounds read only the
pair weights (bounds._pair_extremes).  Every one-body argument is checked by
one_body, the same check for builders and checks.

delta and delta_plus require skew arguments (A^T = -A with the entrywise
transpose); symmetric parts would cancel identically, so non-skew input is
rejected rather than silently projected.  A caller that means to project
passes the skew part (A - A^T) / 2.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import (LADDERS, FockOperator, FockSpace, ladder_matrix, ladder_operator,
                   residual_ratio, unit_scaled)
from .tolerances import ENTRY_TOL


def _as_one_body(space: FockSpace, X, name: str = "operator") -> np.ndarray:
    X = np.asarray(X, dtype=complex)
    if X.shape != (space.m, space.m):
        raise ValueError(f"{name} must be {space.m}x{space.m}, got {X.shape}")
    return X


def is_skew(A) -> bool:
    """max |A + A^T| <= ENTRY_TOL max |A|, over the entries.

    Compared on A at unit scale (fock.unit_scaled), so that A + A^T cannot
    overflow, and with no absolute floor, so the verdict is the same for A
    and for 2^k A; a non-finite A is not skew.
    """
    A = unit_scaled(A)[0]
    size = np.abs(A).max(initial=0.0)
    return bool(size < math.inf and np.abs(A + A.T).max(initial=0.0) <= ENTRY_TOL * size)


def require_skew(A, name: str = "operator") -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    if not is_skew(A):
        raise ValueError(f"{name} must be skew-symmetric (X^T = -X); "
                         "pass (X - X^T) / 2 for intentional projection")
    return A


def pair_weights(values) -> np.ndarray:
    """One value per Youla pair: values[0], values[2], ... of a descending list.

    A skew A is U^T C0 U with U unitary and C0 the Youla normal form, which
    holds K = m // 2 canonical pairs (2k, 2k + 1) of weight
    w_k = C0[2k, 2k + 1] = -C0[2k + 1, 2k] >= 0, every other entry 0 (D. C.
    Youla, Canad. J. Math. 13 (1961) 694-704).  So the singular values of A
    are each w_k twice, and 0 once more at odd m.  Pairing rule: with the singular values
    mu in descending order, w_k = mu[2k] is the larger of each pair, and at
    odd m the last value is the unpaired 0.  The eigenvalues of A* A, the
    squares, pair by the same rule.

    Its error: A has the skew part S = (A - A^T) / 2, and a pair operator
    built from A equals the one built from S, as a_k a_j and a+_k a+_j are
    antisymmetric in (k, j).  By Weyl's inequality each singular value of A
    is within |A - S|_2 = |A + A^T|_2 / 2 of that of S, where they pair
    exactly.  So an A that passes `is_skew` only to ENTRY_TOL moves mu, and
    each w_k, by at most half of |A + A^T|_2; an exactly skew A moves them by
    the rounding of the SVD alone.
    """
    return np.asarray(values)[::2]


def require_representable(space: FockSpace, X, name: str) -> None:
    """Reject X if a product of quadratic operators built from it could overflow.

    Each term of Q(X) is a product of two ladder operators of norm <= 1, so
    |Q(X)| <= sum |X_jk| <= m |X|_F.  When X and Y both pass, every number a
    check forms stays below (m + 2)^3 |X|_F |Y|_F <= max / 8: the entries of
    Q(X)* Q(Y) and of [Delta(A), Delta+(C)] (at most m^2 |X|_F |Y|_F and
    2 m^2 |A|_F |C|_F), of 4 dGamma(CA) - 2 tr(AC) Id, and every bound's
    right-hand side ((m^3 + 3) |X|_F^2 or (m + 2)^2 |X|_F^2, as
    |X|_r <= |X|_1 <= sqrt(m) |X|_F).  The factor 8 leaves room for a sum of
    two of them: G + G^H, a slack, a residual or a scale.  |X|_F is formed
    from X at unit scale (fock.unit_scaled), so the check cannot overflow.
    """
    unit, exponent = unit_scaled(X)
    with np.errstate(over="ignore"):  # a size past the float range reads inf
        size = float(np.ldexp(np.linalg.norm(unit), exponent))
    limit = math.sqrt(np.finfo(float).max / 8.0 / (space.m + 2)**3)
    if not size <= limit:
        raise ValueError(f"{name} on {space.m} modes needs a finite Frobenius norm <= "
                         f"{limit:.3g}, got {size:.3g}: products of its quadratic "
                         "operators would overflow")


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


def check_commutator(space: FockSpace, A, C) -> float:
    """Residual of [delta(A), delta_plus(C)] + 4 d_gamma(CA) - 2 tr(AC) Id over its
    scale max |comm| + max |target|, sector by sector: on sector n the commutator
    is Delta_{n+2->n} Delta+_{n->n+2} - Delta+_{n-2->n} Delta_{n->n-2}, links n and
    n - 2, built upward and three held at a time; every other entry vanishes.

    A and C are first brought to unit scale by powers of two (fock.unit_scaled).
    The identity is bilinear in (A, C), so that changes no ratio, and the ratio
    is bit for bit the same under A -> 2^j A and C -> 2^k C; no product under- or
    overflows.  A zero scale has a zero residual, and reads as 0
    (fock.residual_ratio)."""
    A, C = one_body(space, "Delta", A), one_body(space, "DeltaPlus", C)
    require_representable(space, A, "A")
    require_representable(space, C, "C")
    A, C = unit_scaled(A)[0], unit_scaled(C)[0]
    CA, trace = C @ A, np.trace(A @ C)
    da, dpc, empty = {}, {}, np.zeros((0, 0), dtype=complex)
    residual = comm_max = target_max = 0.0
    for n in range(-2, space.m + 1):  # sectors -2 and -1, and links -4 and -3, are empty
        da[n + 2] = ladder_matrix(space, "Delta", A, n + 2)
        dpc[n] = ladder_matrix(space, "DeltaPlus", C, n)
        comm = da[n + 2] @ dpc[n]
        comm -= dpc.pop(n - 2, empty) @ da.pop(n, empty)  # link n - 2 is read for the last time
        target = -4.0 * ladder_matrix(space, "dGamma", CA, n)
        target.reshape(-1)[::len(target) + 1] += 2.0 * trace  # on the diagonal
        # np.maximum keeps a NaN that the builtin max would drop
        residual = np.maximum(residual, np.abs(comm - target).max(initial=0.0))
        comm_max = np.maximum(comm_max, np.abs(comm).max(initial=0.0))
        target_max = np.maximum(target_max, np.abs(target).max(initial=0.0))
    return residual_ratio(residual, comm_max + target_max)


def check_grading(op: FockOperator) -> bool:
    """True iff all sector blocks inconsistent with the declared shift vanish."""
    if op.grading_shift is None:
        raise ValueError("operator has no declared grading_shift")
    occ = op.space.occupations
    forbidden = occ[:, None] != occ[None, :] + op.grading_shift
    scale = 1.0 + float(np.abs(op.matrix).max(initial=0.0))
    leak = float(np.abs(op.matrix[forbidden]).max(initial=0.0))
    return leak <= ENTRY_TOL * scale
