"""Dense Jordan-Wigner reference construction of the Fock operators.

Each a+_j is a dense 2^m x 2^m matrix with the Jordan-Wigner sign
(-1)^{#occupied modes below j}; a_j is its adjoint; the smeared and quadratic
operators are sums of scaled copies and dense products of these.  This is the
construction the package used before its bitmask builder, kept unchanged as
the oracle the builder is compared against at small m.  The package has no
single-mode constructor of its own (a_j is op_a of the basis vector e_j), so
creation, annihilation and the matrix anticommutator live only here.

verify_car and check_commutator are the whole-space versions of the CAR suite
and the commutator identity that the package used before it checked them
sector by sector, with the dense operators of this module.

run_verify_algebra, pair_coefficients, gaussian_state and slater_expectation
are the package's whole-space versions from before those too read sector
blocks: they apply the package's own whole-space operators (d_gamma, delta,
delta_plus and check_grading) to whole-space vectors.  The package keeps no
gaussian_state or slater_expectation; the tests compare these two against
its sector blocks directly.

sector_extremes is the whole-sector path that bounds._gram_extremes took for
Delta and DeltaPlus before it solved the small blocks of their pair form:
the full block Q_n of any skew A and a dense eigvalsh of its Gram.
pair_form_of and gram_dims give, for a test, the argument and the Gram
dimensions of the path that replaced it.
"""

from __future__ import annotations

import argparse
import math
from functools import lru_cache

import numpy as np

from fockbound import quadratics
from fockbound.cli import _check
from fockbound.fock import (CAR_TOL, LADDERS, CarReport, FockOperator, FockSpace,
                            FockVector, _check_mode, _check_vector, _space,
                            ladder_matrix, make_space, slater_state, vacuum)
from fockbound.quadratics import (CommutatorReport, _as_one_body, pair_form, pair_weights,
                                  require_skew)
from fockbound.rng import complex_matrix, complex_vector, skew_matrix, trial_rng
from fockbound.tolerances import ENTRY_TOL, IDENTITY_TOL, NORM_TOL


@lru_cache(maxsize=None)
def _creation_matrix(m: int, j: int) -> np.ndarray:
    space = _space(m)
    bit = np.int64(1 << (j - 1))
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    cols = np.nonzero((space.masks & bit) == 0)[0]
    below = np.bitwise_count(space.masks[cols] & (bit - 1))
    signs = 1.0 - 2.0 * (below % 2)
    rows = space.index_of[space.masks[cols] | bit]
    mat[rows, cols] = signs
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=None)
def _annihilation_matrix(m: int, j: int) -> np.ndarray:
    mat = _creation_matrix(m, j).conj().T.copy()
    mat.setflags(write=False)
    return mat


def creation(space: FockSpace, j: int) -> FockOperator:
    _check_mode(space, j)
    return FockOperator(space, _creation_matrix(space.m, j), grading_shift=+1)


def annihilation(space: FockSpace, j: int) -> FockOperator:
    _check_mode(space, j)
    return FockOperator(space, _annihilation_matrix(space.m, j), grading_shift=-1)


def anticommutator(x: FockOperator, y: FockOperator) -> np.ndarray:
    """The matrix of {x, y} = xy + yx."""
    return x.matrix @ y.matrix + y.matrix @ x.matrix


def op_a(space: FockSpace, f) -> FockOperator:
    f = _check_vector(space, f)
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for j in range(space.m):
        if f[j] != 0:
            mat += f[j] * _annihilation_matrix(space.m, j + 1)
    return FockOperator(space, mat, grading_shift=-1)


def op_adag(space: FockSpace, f) -> FockOperator:
    f = _check_vector(space, f)
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for j in range(space.m):
        if f[j] != 0:
            mat += f[j] * _creation_matrix(space.m, j + 1)
    return FockOperator(space, mat, grading_shift=+1)


def d_gamma(space: FockSpace, B) -> FockOperator:
    B = _as_one_body(space, B, "B")
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for k in range(space.m):
        acc = np.zeros_like(mat)
        for j in range(space.m):
            if B[k, j] != 0:
                acc += B[k, j] * _annihilation_matrix(space.m, j + 1)
        if acc.any():
            mat += _creation_matrix(space.m, k + 1) @ acc
    return FockOperator(space, mat, grading_shift=0)


def delta(space: FockSpace, A) -> FockOperator:
    A = require_skew(_as_one_body(space, A, "A"), "A")
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for k in range(space.m):
        acc = np.zeros_like(mat)
        for j in range(space.m):
            if A[k, j] != 0:
                acc += A[k, j] * _annihilation_matrix(space.m, j + 1)
        if acc.any():
            mat += _annihilation_matrix(space.m, k + 1) @ acc
    return FockOperator(space, mat, grading_shift=-2)


def delta_plus(space: FockSpace, C) -> FockOperator:
    C = require_skew(_as_one_body(space, C, "C"), "C")
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for k in range(space.m):
        acc = np.zeros_like(mat)
        for j in range(space.m):
            if C[k, j] != 0:
                acc += C[k, j] * _creation_matrix(space.m, j + 1)
        if acc.any():
            mat += _creation_matrix(space.m, k + 1) @ acc
    return FockOperator(space, mat, grading_shift=+2)


def verify_car(space: FockSpace, trials: int = 50, seed: int = 0) -> CarReport:
    worst = dict.fromkeys(CAR_TOL, 0.0)
    eye = np.eye(space.dim)
    for t in range(trials):
        rng = trial_rng(seed, t)
        f = complex_vector(rng, space.m)
        g = complex_vector(rng, space.m)
        af, ag = op_a(space, f), op_a(space, g)
        adf, adg = op_adag(space, f), op_adag(space, g)
        pairing = complex(np.sum(f * g))  # (fbar, g) with the antilinear-first inner product
        proj = adf @ op_a(space, f.conj())
        res = {
            "anticommutator_aa": np.abs(anticommutator(af, ag)).max(),
            "anticommutator_adad": np.abs(anticommutator(adf, adg)).max(),
            "anticommutator_mixed": np.abs(anticommutator(af, adg) - pairing * eye).max(),
            "adjoint_relation": np.abs(
                af.matrix.conj().T - op_adag(space, f.conj()).matrix).max(),
            "projection_identity": np.abs(
                (proj @ proj).matrix
                - float(np.linalg.norm(f))**2 * proj.matrix).max(),
            "norm_identity": abs(np.linalg.norm(af.matrix, 2) - np.linalg.norm(f)),
        }
        scale = 1.0 + np.linalg.norm(f) * np.linalg.norm(g)
        for key, val in res.items():
            key_scale = 1.0 + np.linalg.norm(f) if key == "norm_identity" else scale
            worst[key] = max(worst[key], float(val / key_scale))
    return CarReport(residuals=worst,
                     passed=all(worst[key] <= tol for key, tol in CAR_TOL.items()))


def check_commutator(space: FockSpace, A, C) -> CommutatorReport:
    A = require_skew(_as_one_body(space, A, "A"), "A")
    C = require_skew(_as_one_body(space, C, "C"), "C")
    da, dpc = delta(space, A), delta_plus(space, C)
    comm = (da @ dpc).matrix - (dpc @ da).matrix
    target = -4.0 * d_gamma(space, C @ A).matrix \
        + 2.0 * np.trace(A @ C) * np.eye(space.dim)
    residual = float(np.abs(comm - target).max(initial=0.0))
    scale = 1.0 + float(np.abs(comm).max(initial=0.0) + np.abs(target).max(initial=0.0))
    return CommutatorReport(residual=residual, scale=scale,
                            passed=residual <= NORM_TOL * scale)


def run_verify_algebra(cfg: argparse.Namespace) -> list[dict]:
    space = make_space(cfg.m)
    worst = {"commutator": 0.0, "adjoint_dgamma": 0.0, "adjoint_delta": 0.0}
    grading_failures = 0
    for t in range(cfg.trials):
        rng = trial_rng(cfg.seed, t)
        B = complex_matrix(rng, cfg.m)
        A = skew_matrix(rng, cfg.m)
        C = skew_matrix(rng, cfg.m)
        rep = quadratics.check_commutator(space, A, C)
        worst["commutator"] = max(worst["commutator"], rep.residual / rep.scale)
        dg = quadratics.d_gamma(space, B)
        worst["adjoint_dgamma"] = max(worst["adjoint_dgamma"], float(np.abs(
            dg.matrix.conj().T - quadratics.d_gamma(space, B.conj().T).matrix).max()))
        da = quadratics.delta(space, A)
        worst["adjoint_delta"] = max(worst["adjoint_delta"], float(np.abs(
            da.matrix.conj().T
            - quadratics.delta_plus(space, A.conj().T).matrix).max()))
        ops = (dg, da, quadratics.delta_plus(space, C))
        grading_failures += not all(quadratics.check_grading(op) for op in ops)
    inputs = {"m": cfg.m, "trials": cfg.trials, "seed": cfg.seed}
    tols = {"commutator": NORM_TOL, "adjoint_dgamma": ENTRY_TOL * (1 + 4 * cfg.m),
            "adjoint_delta": ENTRY_TOL * (1 + 4 * cfg.m)}
    checks = [
        _check(f"algebra/m={cfg.m}/{key}", f"quadratic-operator identity: {key}",
               {**inputs, "identity": key}, val, tols[key])
        for key, val in sorted(worst.items())
    ]
    checks.append(_check(
        f"algebra/m={cfg.m}/grading", "trials whose declared sector shifts fail entrywise",
        {**inputs, "identity": "grading"}, grading_failures, 0))
    return checks


def pair_coefficients(space: FockSpace, C) -> np.ndarray:
    dp = quadratics.delta_plus(space, C).matrix
    v = vacuum(space).amplitudes
    coeffs = [1.0]
    for _ in range(space.m // 2):
        v = dp @ v
        coeffs.append(float(np.real(np.vdot(v, v))))
    return np.array(coeffs)


def gaussian_state(space: FockSpace, C, z: complex) -> FockVector:
    dp = quadratics.delta_plus(space, C).matrix
    term = vacuum(space).amplitudes
    total = term.copy()
    for n in range(1, space.m // 2 + 1):
        term = (z / n) * (dp @ term)
        total += term
    return FockVector(space, total)


def slater_expectation(space: FockSpace, B, modes) -> complex:
    B = _as_one_body(space, B, "B")
    phi = slater_state(space, modes)
    value = complex(np.vdot(phi.amplitudes, (quadratics.d_gamma(space, B) @ phi).amplitudes))
    diagonal_sum = complex(sum(B[j - 1, j - 1] for j in modes))
    if abs(value - diagonal_sum) > IDENTITY_TOL * (1.0 + abs(diagonal_sum)):
        raise AssertionError(
            f"slater expectation {value} disagrees with diagonal sum {diagonal_sum}")
    return value


def sector_extremes(space: FockSpace, operator: str, X) -> np.ndarray:
    """(lambda_min, lambda_max, 0) of Q_n* Q_n for every sector n, Q = `operator` built
    from any X: the whole block Q_n, its Gram on the smaller side, a dense eigvalsh.
    A wide block has lambda_min = 0 exactly; an empty one gives zeros."""
    extremes = np.zeros((space.m + 1, 3))
    for n in range(space.m + 1):
        q = ladder_matrix(space, operator, X, sector=n)
        if q.size:
            wide = q.shape[0] < q.shape[1]
            gram = q @ q.conj().T if wide else q.conj().T @ q
            eigs = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
            extremes[n, :2] = (0.0 if wide else eigs[0]), eigs[-1]
    return extremes


def pair_form_of(operator: str, X) -> np.ndarray:
    """The argument bounds._gram_extremes takes for X: X for dGamma, and for Delta
    and DeltaPlus the pair form of X's singular values, as verify_bounds forms it."""
    if LADDERS[operator][1] == 0:
        return X
    return pair_form(pair_weights(np.linalg.svd(X, compute_uv=False)), len(X))


def gram_dims(m: int, operator: str) -> list[int]:
    """The dimension of the Gram each sector's eigensolve runs on, the smaller side
    of its block.  dGamma's block is C(m, n + shift) x C(m, n).  A pair operator's
    keeps the states where no pair (2k, 2k + 1) holds only its second mode: each
    pair holds 0, 1 or 2 particles, and an odd m's last mode 0 or 1, so sector n
    keeps the coefficient of x^n in (1 + x + x^2)^(m // 2) (1 + x)^(m % 2)."""
    shift = LADDERS[operator][1]
    if shift == 0:
        sizes = [math.comb(m, n) for n in range(m + 1)]
    else:
        sizes = np.array([1])
        for factor in [[1, 1, 1]] * (m // 2) + [[1, 1]] * (m % 2):
            sizes = np.convolve(sizes, factor)
    return [int(min(sizes[n], sizes[n + shift])) if 0 <= n + shift <= m else 0
            for n in range(m + 1)]
