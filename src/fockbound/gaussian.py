"""Overlap of the pair-coherent (BCS-type) states exp(z Dp)Omega, Dp = delta_plus(C).

The self-overlap omega(z) is computed two ways: exactly on the Fock space as
the terminating series sum_n z^(2n)/(n!)^2 |Dp^n Omega|^2, from the pair
powers Dp^n Omega pushed through Dp's sector blocks (the state itself is
never assembled; tests/jw_oracle.py builds it on the whole space), and from
the one-body data as a determinant-type product over paired singular values of C.
The exponent convention of the determinant formula (1 vs 1/2) is calibrated
against the series oracle rather than assumed; 1/2 is the convention that
matches and ships as the default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockSpace, ladder_matrix, unit_scaled
from .quadratics import one_body, pair_weights, require_skew
from .tolerances import UNIT_ROUNDOFF

DEFAULT_CONVENTION = 0.5


def _pair_powers(space: FockSpace, C) -> list[np.ndarray]:
    """Dp^n Omega on sector 2n for n = 0..floor(m/2): Omega pushed through Dp's sector blocks."""
    powers = [np.ones(1, dtype=complex)]
    for n in range(space.m // 2):
        powers.append(ladder_matrix(space, "DeltaPlus", C, sector=2 * n) @ powers[-1])
    return powers


def pair_coefficients(space: FockSpace, C) -> np.ndarray:
    """|Dp^n Omega|^2 for n = 0..floor(m/2); Dp^n Omega vanishes beyond m/2."""
    return np.array([float(np.real(np.vdot(v, v))) for v in _pair_powers(space, C)])


def _series(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_n coeffs[n] z^(2n) / (n!)^2 at each z, for coeffs from pair_coefficients."""
    total = 0.0 + 0.0j
    for n, c in enumerate(coeffs):
        total += c * z ** (2 * n) / math.factorial(n) ** 2
    return total


def _pair_weights(C) -> np.ndarray:
    """The m // 2 pair weights w_k of a skew C, largest first: its singular values
    read by `pair_weights`' rule, as the bound checks read them."""
    return pair_weights(np.linalg.svd(C, compute_uv=False))[: len(C) // 2]


def _determinant(weights: np.ndarray, z: np.ndarray, convention: float) -> np.ndarray:
    """det(Id + 4 z^2 C*C)^convention at each z, from C's pair weights.

    C*C has the eigenvalues w_k^2, each twice (and a 0 at odd m), so the
    determinant is the square of prod_k (1 + 4 z^2 w_k^2), and the square root
    (convention 1/2) is that product: a polynomial in z^2, no branch cut.
    """
    half = np.prod(1.0 + 4.0 * np.multiply.outer(z**2, weights * weights), axis=-1)
    return half if convention == 0.5 else half * half


def _rel_diff(series: np.ndarray, det: np.ndarray) -> float:
    """max over z of |series - det| / (1 + |series|)."""
    return float((np.abs(series - det) / (1.0 + np.abs(series))).max(initial=0.0))


def _calibrate(series: np.ndarray, weights: np.ndarray, z: np.ndarray) -> float:
    """The convention (1/2 or 1) whose determinant is nearer the series on z; 1/2 on a tie."""
    return min((0.5, 1.0), key=lambda conv: _rel_diff(series, _determinant(weights, z, conv)))


def _zeros(weights: np.ndarray, convention: float) -> np.ndarray:
    """+-i/(2 w) for each weight w given, twice under convention 1."""
    zero = 1j / (2 * weights)
    return np.tile(np.column_stack([zero, -zero]), 1 if convention == 0.5 else 2).ravel()


def _weight_error(C, weights: np.ndarray) -> float:
    """A bound on the error of every SVD weight against the weights the series is built from.

    The computed singular values are exact for C + E with |E|_2 <= m u |C|_2
    (LAPACK's normwise backward error, p(m) = m), and the series is built
    from the skew part of C, whose weights are within |C + C^T|_2 / 2 of C's
    (`pair_weights`); |.|_F bounds |.|_2.
    """
    return (len(C) * UNIT_ROUNDOFF * weights.max(initial=0.0)
            + float(np.linalg.norm(C + C.T)) / 2.0)


def _predicted(weights: np.ndarray) -> np.ndarray:
    """(n!)^2 e_n(4 w^2) for n = 0..len(w): |Dp^n Omega|^2 as the weights give it.

    Dp of the pair form is sum_k 2 w_k times the creation of pair k, so the
    series is prod_k (1 + 4 w_k^2 z^2); its elementary symmetric sums e_n are
    multiplied out one factor at a time, from positive terms without cancellation.
    """
    e = np.zeros(weights.size + 1)
    e[0] = 1.0
    for a in 4.0 * weights * weights:
        e[1:] += a * e[:-1]
    return e * np.array([float(math.factorial(n)) ** 2 for n in range(e.size)])


def omega_determinant(C, z: complex,
                      exponent_convention: float = DEFAULT_CONVENTION) -> complex:
    """det(Id + 4 z^2 C*C)^exponent_convention for a skew C, with exponent 1 or 1/2."""
    if exponent_convention not in (0.5, 1.0):
        raise ValueError(f"exponent convention must be 1 or 1/2, got {exponent_convention}")
    return complex(_determinant(_pair_weights(require_skew(C, "C")), np.complex128(z),
                                exponent_convention))


def _rounding_floors(coeffs: np.ndarray, C) -> np.ndarray:
    """F_n^2 for a bound F_n on |computed - exact| of Dp^n Omega, for every n.

    `_pair_powers` computes v_n = Dp^n Omega as v_n = fl(D_n v_{n-1}), D_n the
    sector block of Dp.  Each entry of D_n is 2 C_jk for the one pair j < k
    that links its row and column, summed from the two terms C_jk and C_kj,
    so the computed block is D_n + dD with |dD| <= u |D_n|, and a row holds
    at most K = m (m - 1) / 2 nonzeros.  A complex matrix-vector product then
    gives fl(D_n v) = D_n v + e with |e| <= gamma_{K+3} |D_n| |v| (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Sec. 3.5-3.6;
    gamma_k = k u / (1 - k u), u = 2^-53).  |D_n| is a sum of 2 |C_jk| times
    partial permutations, so both |D_n|_2 and || |D_n| ||_2 are at most
    S = sum_jk |C_jk|.  The error d_n of v_n therefore obeys
        |d_n| <= S |d_{n-1}| + gamma_{K+3} S |v_{n-1}|,  d_0 = 0,
    which is the recursion for the floor F_n below, read with the computed
    |v_{n-1}| = sqrt(coeffs[n-1]); where the exact v_n is 0, the computed one
    is d_n.  The factor 1 + 1e-6 covers the rounding of the norm and of this
    recursion.
    """
    m = len(C)
    terms = m * (m - 1) // 2 + 3
    gamma = terms * UNIT_ROUNDOFF / (1.0 - terms * UNIT_ROUNDOFF)
    scale = float(np.abs(C).sum())
    floors = np.zeros(len(coeffs))
    for n in range(1, len(coeffs)):
        floors[n] = scale * floors[n - 1] + gamma * scale * math.sqrt(coeffs[n - 1])
    return (floors * (1.0 + 1e-6)) ** 2


def _coefficients_match(coeffs: np.ndarray, C, weights: np.ndarray, convention: float) -> bool:
    """Whether the series polynomial has the formula's zeros, multiplicities
    included, read from its coefficients.

    In y = z^2 the series is sum_n c_n y^n / (n!)^2 and the formula is
    prod_k (1 + 4 w_k^2 y), the weights tiled once per convention (twice at
    exponent 1).  Both are 1 at y = 0, so their zeros agree, with
    multiplicity, iff c_n = P_n(w) (`_predicted`) for every n, c_n = 0 past
    m / 2; a cluster of equal zeros is no worse conditioned in these symmetric
    functions than a simple zero.  Exactly, c_n is P_n at the weights of C's
    skew part, within d = `_weight_error` of `weights` (Weyl's inequality),
    and e_n increases in each nonnegative argument, so P_n(w - d) <= c_n <=
    P_n(w + d), w - d clipped at 0; the computed |Dp^n Omega| is within F_n =
    sqrt(`_rounding_floors`) of the exact one.  So sqrt(coeffs[n]) lies in
    [sqrt(P_n(w - d)) - F_n, sqrt(P_n(w + d)) + F_n], each end widened by
    gamma_(2^m + 3m + 4) for the rounding of the norm (at most 2^m positive
    squares: gamma_(2^m) on its root), of `_predicted` (positive sums over at
    most m factors and w +- d: gamma_(3m+1) on its root) and of the check.
    """
    tiled = np.tile(weights, 1 if convention == 0.5 else 2)
    error = _weight_error(C, weights)
    terms = 2**len(C) + 3 * len(C) + 4
    gamma = terms * UNIT_ROUNDOFF / (1.0 - terms * UNIT_ROUNDOFF)
    coeffs = np.pad(coeffs, (0, tiled.size + 1 - coeffs.size))
    floors = np.sqrt(_rounding_floors(coeffs, C))
    low = np.sqrt(_predicted(np.maximum(tiled - error, 0.0))) * (1.0 - gamma) - floors
    high = np.sqrt(_predicted(tiled + error)) * (1.0 + gamma) + floors
    return bool(np.all((low <= np.sqrt(coeffs)) & (np.sqrt(coeffs) <= high)))


@dataclass(frozen=True)
class OrderEstimate:
    order: float
    fit_window: tuple  # (first index, last index) of coefficients used


def exp_order_estimate(coeffs, degree_step: int = 1) -> OrderEstimate:
    """Growth order of sum_n a_n z^(n*degree_step) from its coefficients.

    Fits -log a_n against (n log n, n, log n, 1) on the large-n half of the
    nonzero coefficients; the leading coefficient alpha gives order
    degree_step/alpha.  Accurate to about +-0.05 on factorial-power families
    with 200 terms.
    """
    a = np.asarray(coeffs, dtype=float)
    nz = np.nonzero(a > 0)[0]
    nz = nz[nz >= 2]
    if nz.size < 20:
        raise ValueError(f"need at least 20 nonzero coefficients, got {nz.size}")
    window = nz[nz.size // 2:]
    n = window.astype(float)
    y = -np.log(a[window])
    design = np.column_stack([n * np.log(n), n, np.log(n), np.ones_like(n)])
    alpha = np.linalg.lstsq(design, y, rcond=None)[0][0]
    if alpha <= 0:
        raise ValueError("coefficients do not decay; order estimate undefined")
    return OrderEstimate(order=degree_step / alpha,
                         fit_window=(int(window[0]), int(window[-1])))


@dataclass(frozen=True)
class GaussianReport:
    """Series-vs-determinant comparison for one skew C on default_z_grid()."""

    coefficients: np.ndarray
    convention: float
    z_grid: np.ndarray
    series_values: np.ndarray
    determinant_values: np.ndarray
    max_rel_diff: float  # max over z of |series - det| / (1 + |series|)
    zeros: np.ndarray
    zeros_matched: bool


def default_z_grid() -> np.ndarray:
    """The 5 x 5 grid of z with real and imaginary parts in {-2, -1, 0, 1, 2}."""
    re = np.linspace(-2.0, 2.0, 5)
    return (re[:, None] + 1j * re[None, :]).ravel()


def gaussian_report(space: FockSpace, C) -> GaussianReport:
    """The series against the determinant on default_z_grid(), the convention
    calibrated on its first five points, and the zeros decided on the series
    coefficients (`_coefficients_match`) of C at unit scale, 2^-e C, where none
    under- or overflows; the report's are theirs times 2^(2 e n), exact in the
    normal range.  C is checked once, as Dp's one-body matrix, and one SVD gives
    its weights; the zeros listed are those of the weights above their error.

    C is rejected unless P^2 <= max / 8, P = prod_k (1 + 32 w_k^2): as |z|^2 <= 8
    on the grid, the series sum_n e_n(4 w^2) z^2n and the determinant are at most
    P (convention 1/2) or P^2 (convention 1) in modulus, a coefficient times z^2n
    at most (7!)^2 P, and a complex product's parts at most twice the product of
    the moduli: no value overflows.  P is formed in Python floats (inf, no warning)."""
    C = one_body(space, "DeltaPlus", C)
    weights = _pair_weights(C)
    grid = math.prod(1.0 + 32.0 * w * w for w in weights.tolist())
    if not grid * grid <= np.finfo(float).max / 8.0:
        raise ValueError("C overflows the overlap series or determinant on the z grid")
    unit, e = unit_scaled(C)
    unit_coeffs = pair_coefficients(space, unit)
    coeffs = np.ldexp(unit_coeffs, 2 * e * np.arange(unit_coeffs.size))
    z = default_z_grid()
    series = _series(coeffs, z)
    convention = _calibrate(series[:5], weights, z[:5])
    det = _determinant(weights, z, convention)
    return GaussianReport(
        coefficients=coeffs, convention=convention, z_grid=z,
        series_values=series, determinant_values=det, max_rel_diff=_rel_diff(series, det),
        zeros=_zeros(weights[weights > _weight_error(C, weights)], convention),
        zeros_matched=_coefficients_match(unit_coeffs, unit, np.ldexp(weights, -e), convention))
