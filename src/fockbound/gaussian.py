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

from .fock import FockSpace, ladder_matrix
from .quadratics import one_body, pair_weights, require_skew
from .tolerances import EIGEN_TOL, NORM_TOL, UNIT_ROUNDOFF

DEFAULT_CONVENTION = 0.5


def _pair_powers(space: FockSpace, C) -> list[np.ndarray]:
    """Dp^n Omega on sector 2n for n = 0..floor(m/2): Omega pushed through Dp's sector blocks."""
    C = one_body(space, "DeltaPlus", C)
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
    C = require_skew(C, "C")
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


def _counted_pairs(C, weights: np.ndarray) -> int:
    """How many pairs, largest weight first, both sides resolve together to EIGEN_TOL.

    The zero +-i/(2 w_k) moves relatively as w_k does.  The formula reads w_k
    from the SVD to within `_weight_error` d, a relative error d / w_k.  The
    series reads w_k from c_k = |Dp^k Omega|^2: the computed |Dp^k Omega| is
    within F_k = sqrt(`_rounding_floors`) of the exact one, so c_k moves
    relatively by at most about 2 F_k / sqrt(c_k), and c_(k-1) by less; the
    root -k^2 c_(k-1) / c_k, which is -1 / (4 w_k^2) for well separated
    weights, by the sum, and w_k by half of that.  Pair k counts iff
        d / w_k + 2 F_k / sqrt(c_k) <= EIGEN_TOL,
    with c_k and F_k evaluated on the coefficients the weights predict
    (`_predicted`), so the count is one decision on C alone that both sides
    then read, and the pairs after the first that fails are left out on both.
    """
    predicted = _predicted(weights)
    root = np.sqrt(predicted[1:])
    floors = np.sqrt(_rounding_floors(predicted, C)[1:])
    resolved = (weights > 0) & (_weight_error(C, weights) * root + 2.0 * floors * weights
                                <= EIGEN_TOL * weights * root)
    return int(np.argmin(np.append(resolved, False)))


def omega_series(space: FockSpace, C, z: complex) -> complex:
    """Overlap by the exact Fock-space series; polynomial in z^2."""
    return complex(_series(pair_coefficients(space, C), np.complex128(z)))


def omega_determinant(C, z: complex,
                      exponent_convention: float = DEFAULT_CONVENTION) -> complex:
    """det(Id + 4 z^2 C*C)^exponent_convention for a skew C, with exponent 1 or 1/2."""
    if exponent_convention not in (0.5, 1.0):
        raise ValueError(f"exponent convention must be 1 or 1/2, got {exponent_convention}")
    return complex(_determinant(_pair_weights(C), np.complex128(z), exponent_convention))


def calibrate_convention(space: FockSpace, C, z_samples) -> float:
    """Exponent convention (1 or 1/2) matching the exact series on z_samples."""
    z = np.asarray(z_samples, dtype=complex)
    return _calibrate(_series(pair_coefficients(space, C), z), _pair_weights(C), z)


def omega_zeros(C, exponent_convention: float = DEFAULT_CONVENTION) -> np.ndarray:
    """Zeros of omega: +-i/(2 w) for each of the `_counted_pairs` weights w."""
    weights = _pair_weights(C)
    return _zeros(weights[: _counted_pairs(C, weights)], exponent_convention)


def omega_polynomial_roots(space: FockSpace, C) -> np.ndarray:
    """Zeros of the exact series polynomial, via companion-matrix roots in z^2."""
    weights = _pair_weights(C)
    return _polynomial_roots(pair_coefficients(space, C), C, weights,
                             _counted_pairs(C, weights))


def _rounding_floors(coeffs: np.ndarray, C) -> np.ndarray:
    """The largest value rounding can give |Dp^n Omega|^2 where its exact value is 0.

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
    |v_{n-1}| = sqrt(coeffs[n-1]).  Where the exact v_n is 0, the computed
    v_n is d_n, so its squared norm is at most F_n^2; the factor 1 + 1e-6
    covers the rounding of the norm and of this recursion.
    """
    m = len(C)
    terms = m * (m - 1) // 2 + 3
    gamma = terms * UNIT_ROUNDOFF / (1.0 - terms * UNIT_ROUNDOFF)
    scale = float(np.abs(C).sum())
    floors = np.zeros(len(coeffs))
    for n in range(1, len(coeffs)):
        floors[n] = scale * floors[n - 1] + gamma * scale * math.sqrt(coeffs[n - 1])
    return (floors * (1.0 + 1e-6)) ** 2


def _polynomial_roots(coeffs: np.ndarray, C, weights: np.ndarray, count: int) -> np.ndarray:
    """Roots in z of sum_n coeffs[n] z^(2n) / (n!)^2 for the `count` pairs that
    `_counted_pairs` keeps, if the tail it leaves out is what the other pairs give.

    Trailing coefficients up to `_rounding_floors` are rounding of an exact 0
    (a rank-deficient C) and are dropped.  The roots in y = z^2 of the rest
    are -1 / (4 w_k^2), so the `count` pairs of largest weight are the `count`
    roots of least |y|; they are kept from the whole polynomial, not from a
    cut one, whose roots the left-out pairs would move.  Exactly,
    c_n <= (n!)^2 e_n(4 (w + d)^2) for the weights w within their error d
    (`_weight_error`), and the computed |Dp^n Omega| is within F_n of the
    exact one.  So every sqrt(c_n) past n = `count` must be at most
    sqrt((n!)^2 e_n(4 (w + d)^2)) + F_n, with 1e-6 for the rounding of the
    check; a tail above that is a pair the weights do not show, and then every
    root is returned, more than the zeros.
    """
    floors = _rounding_floors(coeffs, C)
    kept = np.nonzero(coeffs > floors)[0]
    poly = np.array([c / math.factorial(n) ** 2
                     for n, c in enumerate(coeffs[: kept.max(initial=0) + 1])])
    if poly.size < 2:
        return np.array([], dtype=complex)
    y = np.roots(poly[::-1]).astype(complex)
    most = _predicted(weights + _weight_error(C, weights))
    tail = slice(count + 1, None)
    if np.all(np.sqrt(coeffs[tail])
              <= (np.sqrt(most[tail]) + np.sqrt(floors[tail])) * (1.0 + 1e-6)):
        y = y[np.argsort(np.abs(y))[:count]]
    root = np.sqrt(y)
    return np.column_stack([root, -root]).ravel()


def _sorted_zeros(zs: np.ndarray) -> np.ndarray:
    return np.array(sorted(zs, key=lambda z: (round(abs(z), 9), z.real, z.imag)))


def zeros_match(formula: np.ndarray, roots: np.ndarray,
                tol: float = EIGEN_TOL) -> bool:
    """Set equality of the two zero lists up to tol, multiplicities included."""
    if formula.size != roots.size:
        return False
    a, b = _sorted_zeros(formula), _sorted_zeros(roots)
    return bool(np.all(np.abs(a - b) <= tol * (1.0 + np.abs(a))))


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
    max_abs_diff: float
    max_rel_diff: float  # max over z of |series - det| / (1 + |series|)
    zeros: np.ndarray
    zeros_matched: bool
    passed: bool


def default_z_grid() -> np.ndarray:
    """The 5 x 5 grid of z with real and imaginary parts in {-2, -1, 0, 1, 2}."""
    re = np.linspace(-2.0, 2.0, 5)
    return (re[:, None] + 1j * re[None, :]).ravel()


def gaussian_report(space: FockSpace, C) -> GaussianReport:
    """The series against the determinant on default_z_grid(), with the convention
    calibrated on its first five points, and the formula zeros against the roots
    of the series polynomial.  One SVD of C gives its pair weights, for every z and
    the zeros, and one `_counted_pairs` decision says which zeros both sides compare."""
    weights = _pair_weights(C)
    count = _counted_pairs(C, weights)
    coeffs = pair_coefficients(space, C)
    z = default_z_grid()
    series = _series(coeffs, z)
    convention = _calibrate(series[:5], weights, z[:5])
    det = _determinant(weights, z, convention)
    max_rel_diff = _rel_diff(series, det)
    zeros = _zeros(weights[:count], convention)
    matched = zeros_match(zeros, _polynomial_roots(coeffs, C, weights, count))
    return GaussianReport(
        coefficients=coeffs, convention=convention, z_grid=z,
        series_values=series, determinant_values=det,
        max_abs_diff=float(np.abs(series - det).max(initial=0.0)), max_rel_diff=max_rel_diff,
        zeros=zeros, zeros_matched=matched,
        passed=max_rel_diff <= NORM_TOL and matched and convention == DEFAULT_CONVENTION)
