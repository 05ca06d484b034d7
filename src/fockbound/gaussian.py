"""Pair-coherent (BCS-type) states exp(z*pair_creator)Omega and their overlap.

The self-overlap omega(z) is computed two ways: exactly on the Fock space as
the terminating series sum_n z^(2n)/(n!)^2 |Dp^n Omega|^2, and from the
one-body data as a determinant-type product over paired singular values of C.
The exponent convention of the determinant formula (1 vs 1/2) is calibrated
against the series oracle rather than assumed; 1/2 is the convention that
matches and ships as the default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockSpace, FockVector, ladder_matrix
from .quadratics import one_body, require_skew
from .tolerances import EIGEN_TOL, NORM_TOL

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


def gaussian_state(space: FockSpace, C, z: complex) -> FockVector:
    """sum_{n=0}^{m//2} z^n Dp^n Omega / n!, the terminating exponential."""
    total = np.zeros(space.dim, dtype=complex)
    for n, v in enumerate(_pair_powers(space, C)):
        total[space.occupations == 2 * n] = z**n / math.factorial(n) * v
    return FockVector(space, total)


def omega_series(space: FockSpace, C, z: complex) -> complex:
    """Overlap by the exact Fock-space series; polynomial in z^2."""
    return _series(pair_coefficients(space, C), z)


def _series(coeffs: np.ndarray, z: complex) -> complex:
    """sum_n coeffs[n] z^(2n) / (n!)^2 for coeffs from pair_coefficients."""
    total = 0.0 + 0.0j
    for n, c in enumerate(coeffs):
        total += c * z ** (2 * n) / math.factorial(n) ** 2
    return complex(total)


def _paired_gram_eigs(C) -> np.ndarray:
    """Eigenvalues of C*C, one representative per skew pair (descending)."""
    C = require_skew(C, "C")
    evals = np.linalg.eigvalsh(C.conj().T @ C)[::-1]
    return np.clip(evals, 0.0, None)[::2]


def omega_determinant(C, z: complex,
                      exponent_convention: float = DEFAULT_CONVENTION) -> complex:
    """det(Id + 4 z^2 C*C)^exponent_convention.

    For exponent 1/2 the value is computed as the product over paired
    eigenvalues of C*C, which is a polynomial in z^2 (no branch cut).
    """
    C = require_skew(C, "C")
    if exponent_convention not in (0.5, 1.0):
        raise ValueError(f"exponent convention must be 1 or 1/2, got {exponent_convention}")
    full = np.clip(np.linalg.eigvalsh(C.conj().T @ C), 0.0, None)
    evals = _paired_gram_eigs(C) if exponent_convention == 0.5 else full
    return complex(np.prod(1.0 + 4.0 * z**2 * evals))


def calibrate_convention(space: FockSpace, C, z_samples) -> float:
    """Exponent convention (1 or 1/2) matching the exact series on z_samples."""
    return _calibrate(pair_coefficients(space, C), C, z_samples)


def _calibrate(coeffs: np.ndarray, C, z_samples) -> float:
    best, best_err = None, math.inf
    for conv in (0.5, 1.0):
        err = 0.0
        for z in z_samples:
            series = _series(coeffs, z)
            det = omega_determinant(C, z, conv)
            err = max(err, abs(series - det) / (1.0 + abs(series)))
        if err < best_err:
            best, best_err = conv, err
    return best


def omega_zeros(C, exponent_convention: float = DEFAULT_CONVENTION) -> np.ndarray:
    """Zeros of omega: +-i/(2 mu) for each paired singular value mu > 0."""
    C = require_skew(C, "C")
    if not C.any():
        return np.array([], dtype=complex)
    evals = _paired_gram_eigs(C)
    # filter before the square root: eigensolver noise on a rank-deficient
    # Gram matrix sits at eps * ||C*C|| and would inflate under sqrt
    evals = evals[evals > NORM_TOL * (1.0 + evals.max(initial=0.0))]
    mu = np.sqrt(evals)
    zeros = []
    reps = 1 if exponent_convention == 0.5 else 2
    for val in mu:
        zeros.extend([1j / (2 * val), -1j / (2 * val)] * reps)
    return np.array(zeros, dtype=complex)


def omega_polynomial_roots(space: FockSpace, C) -> np.ndarray:
    """Zeros of the exact series polynomial, via companion-matrix roots in z^2."""
    return _polynomial_roots(pair_coefficients(space, C))


def _polynomial_roots(coeffs: np.ndarray) -> np.ndarray:
    poly = np.array([c / math.factorial(n) ** 2 for n, c in enumerate(coeffs)])
    # strip trailing zero coefficients (rank-deficient C)
    nz = np.nonzero(poly > 0)[0]
    poly = poly[: nz.max() + 1] if nz.size else poly[:1]
    if poly.size < 2:
        return np.array([], dtype=complex)
    u_roots = np.roots(poly[::-1])
    z_roots = []
    for u in u_roots:
        root = np.sqrt(complex(u))
        z_roots.extend([root, -root])
    return np.array(z_roots, dtype=complex)


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
    """Series-vs-determinant comparison for one skew C on a z grid."""

    m: int
    coefficients: np.ndarray
    convention: float
    z_grid: np.ndarray
    series_values: np.ndarray
    determinant_values: np.ndarray
    max_abs_diff: float
    max_rel_diff: float  # max over z of |series - det| / (1 + |series|)
    zeros: np.ndarray
    zeros_matched: bool
    order_estimate: float  # nan when too few coefficients (always at desk scale)
    passed: bool


def default_z_grid(extent: float = 2.0, points_per_axis: int = 5) -> np.ndarray:
    re = np.linspace(-extent, extent, points_per_axis)
    return (re[:, None] + 1j * re[None, :]).ravel()


def gaussian_report(space: FockSpace, C, z_grid=None,
                    rel_tol: float = NORM_TOL) -> GaussianReport:
    C = require_skew(C, "C")
    if z_grid is None:
        z_grid = default_z_grid()
    z_grid = np.asarray(z_grid, dtype=complex)
    coeffs = pair_coefficients(space, C)
    convention = _calibrate(coeffs, C, z_grid[: min(5, z_grid.size)])
    series = np.array([_series(coeffs, z) for z in z_grid])
    det = np.array([omega_determinant(C, z, convention) for z in z_grid])
    diffs = np.abs(series - det)
    max_rel_diff = float((diffs / (1.0 + np.abs(series))).max(initial=0.0))
    zeros = omega_zeros(C, convention)
    matched = zeros_match(zeros, _polynomial_roots(coeffs)) if C.any() else True
    try:
        order = exp_order_estimate(coeffs, degree_step=2).order
    except ValueError:
        order = math.nan
    return GaussianReport(
        m=space.m, coefficients=coeffs, convention=convention, z_grid=z_grid,
        series_values=series, determinant_values=det,
        max_abs_diff=float(diffs.max(initial=0.0)), max_rel_diff=max_rel_diff,
        zeros=zeros, zeros_matched=matched, order_estimate=order,
        passed=max_rel_diff <= rel_tol and matched and convention == DEFAULT_CONVENTION)
