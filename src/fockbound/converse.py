"""Finite-size evidence for the converse statements: decay families, exact
sector norms, growth-exponent fits, and summability certificates.

Everything here runs on the diagonal fast path: for a diagonal one-body
operator with nonnegative entries lam, the norm of its second quantization
restricted to the n-particle sector is exactly the sum of the n largest
lam_j.  That subset-sum identity is what lets the sweeps reach n = 1e5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundSpec, verify_bound
from .fock import FockSpace
from .spectral import schatten_norm
from .tolerances import NORM_TOL, SLOPE_TOL


def decay_values(kind: str, n: int, s: float | None = None) -> np.ndarray:
    """Singular-value sequences: power_decay gives j^(s/2-1), harmonic gives 1/j."""
    j = np.arange(1, n + 1, dtype=float)
    if kind == "harmonic":
        return 1.0 / j
    if kind == "power_decay":
        if s is None or not 0.0 < s < 2.0:
            raise ValueError(f"power_decay needs 0 < s < 2, got {s}")
        return j ** (s / 2.0 - 1.0)
    raise ValueError(f"unknown decay family {kind!r}")


def decay_family(kind: str, m: int, s: float | None = None) -> np.ndarray:
    """Diagonal one-body operator with the stated singular values."""
    return np.diag(decay_values(kind, m, s).astype(complex))


def sector_norm_diagonal(lam, n: int) -> float:
    """Sum of the n largest lam_j: the exact n-sector norm of d_gamma(diag lam)."""
    lam = np.asarray(lam, dtype=float)
    if not 0 <= n <= lam.size:
        raise ValueError(f"need 0 <= n <= {lam.size}, got {n}")
    if n == 0:
        return 0.0
    return float(np.sort(lam)[::-1][:n].sum())


@dataclass(frozen=True)
class SweepResult:
    """Log-log growth fit of sector norms for a decay family."""

    s: float
    n: np.ndarray
    partial_sums: np.ndarray
    slope: float
    fit_window: tuple
    slope_target: float
    passed: bool


def _loglog_slope(n: np.ndarray, values: np.ndarray) -> float:
    x = np.log(n.astype(float))
    y = np.log(values)
    design = np.column_stack([x, np.ones_like(x)])
    return float(np.linalg.lstsq(design, y, rcond=None)[0][0])


def sharpness_sweep(s: float, n_max: int = 100_000,
                    n_grid=None) -> SweepResult:
    """Fit the growth exponent of sector norms for the power_decay(s) family.

    The partial sums of j^(s/2-1) grow like n^(s/2); the fit runs over the top
    decade of the grid and passes iff |slope - s/2| <= SLOPE_TOL.
    """
    lam = decay_values("power_decay", n_max, s)
    cumulative = np.cumsum(lam)  # lam already sorted descending
    if n_grid is None:
        n_grid = np.unique(np.geomspace(10, n_max, 60).astype(int))
    n_grid = np.asarray(n_grid, dtype=int)
    sums = cumulative[n_grid - 1]
    window = n_grid >= n_max / 10
    slope = _loglog_slope(n_grid[window], sums[window])
    return SweepResult(
        s=s, n=n_grid, partial_sums=sums, slope=slope,
        fit_window=(int(n_grid[window][0]), int(n_grid[window][-1])),
        slope_target=s / 2.0, passed=abs(slope - s / 2.0) <= SLOPE_TOL)


@dataclass(frozen=True)
class TraceBoundResult:
    """Per-part trace-sum and singular-value partial sums against the bound."""

    r: float
    n: np.ndarray
    trace_sums: np.ndarray     # sum over both self-adjoint parts of |sum (e_j, H e_j)|
    sv_sums: np.ndarray        # combined sum_{j<=n} mu_j over both parts
    trace_bound: np.ndarray    # (gamma_r n^s + delta_r)^(1/2), combined
    sv_bound: np.ndarray       # gamma_eff n^(s/2), combined
    passed: bool


def trace_bound_check(space: FockSpace, B, n_max: int, r: float) -> TraceBoundResult:
    """Partial trace sums of B against the bound implied by the dGamma estimate.

    B is split into self-adjoint parts B + B* and i(B - B*); each part H is
    checked with its own constants gamma_r = |H|_r^2 and
    delta_r = |H|_2^2 (zero outside 1 < r < 2), using the eigenbasis of H
    ordered by decreasing |eigenvalue|.  verify_bound must pass for each part.
    """
    B = np.asarray(B, dtype=complex)
    if not 1 <= n_max <= space.m:
        raise ValueError(f"need 1 <= n_max <= {space.m}, got {n_max}")
    spec = BoundSpec("dGamma", r)
    n = np.arange(1, n_max + 1)
    trace_sums = np.zeros(n_max)
    sv_sums = np.zeros(n_max)
    trace_bound = np.zeros(n_max)
    sv_bound = np.zeros(n_max)
    parts = [B + B.conj().T, 1j * (B - B.conj().T)]
    for H in parts:
        if not verify_bound(space, spec, H).passed:
            raise ValueError("dGamma bound failed for a self-adjoint part; "
                             "no constants to extract")
        gamma = schatten_norm(H, r) ** 2
        delta_c = schatten_norm(H, 2) ** 2 if 1.0 < r < 2.0 else 0.0
        eigs = np.linalg.eigvalsh(H)
        order = np.argsort(-np.abs(eigs))
        mu = np.abs(eigs[order])
        trace_sums += np.abs(np.cumsum(eigs[order]))[:n_max]
        sv_sums += np.cumsum(mu)[:n_max]
        trace_bound += np.sqrt(gamma * n.astype(float)**spec.s + delta_c)
        # positive and negative eigenvalue groups are bounded separately,
        # hence the factor 2 in front of the n^(s/2) envelope
        sv_bound += 2.0 * (math.sqrt(gamma) + math.sqrt(delta_c)) \
            * n.astype(float)**(spec.s / 2)
    passed = bool(np.all(trace_sums <= trace_bound + NORM_TOL)
                  and np.all(sv_sums <= sv_bound + NORM_TOL))
    return TraceBoundResult(r=r, n=n, trace_sums=trace_sums, sv_sums=sv_sums,
                            trace_bound=trace_bound, sv_bound=sv_bound, passed=passed)


@dataclass(frozen=True)
class ConvergenceCertificate:
    """Integral-test certificate for sum j^(-exponent)."""

    exponent: float
    partial_sum: float      # up to j_max
    j_max: int
    tail_bound: float       # < inf iff convergent; integral comparison
    lower_bound: float      # divergence witness: log lower bound at j_max
    converges: bool


def power_sum_certificate(exponent: float, j_max: int = 10**6) -> ConvergenceCertificate:
    j = np.arange(1, j_max + 1, dtype=float)
    partial = float(np.sum(j**(-exponent)))
    if exponent > 1.0:
        tail = j_max ** (1.0 - exponent) / (exponent - 1.0)
        return ConvergenceCertificate(exponent=exponent, partial_sum=partial,
                                      j_max=j_max, tail_bound=tail,
                                      lower_bound=0.0, converges=True)
    # integral comparison: sum_{j<=N} j^-e >= int_1^{N+1} x^-e dx
    if exponent == 1.0:
        lower = math.log(j_max + 1.0)
    else:
        lower = ((j_max + 1.0)**(1.0 - exponent) - 1.0) / (1.0 - exponent)
    return ConvergenceCertificate(exponent=exponent, partial_sum=partial,
                                  j_max=j_max, tail_bound=math.inf,
                                  lower_bound=lower, converges=False)


@dataclass(frozen=True)
class RecoveryReport:
    """Summability of mu_j = j^(s/2-1) at exponents r and r + eps."""

    s: float
    r: float
    certificates: dict  # eps -> ConvergenceCertificate
    passed: bool        # eps = 0 diverges, every eps > 0 converges


def schatten_recovery_check(s: float, eps_list, j_max: int = 10**6) -> RecoveryReport:
    """For the power_decay(s) family the loss eps is necessary: mu_j^r sums
    like the harmonic series while mu_j^(r+eps) converges for every eps > 0."""
    if not 0.0 < s < 2.0:
        raise ValueError(f"need 0 < s < 2, got {s}")
    r = 2.0 / (2.0 - s)
    certs = {}
    ok = True
    for eps in eps_list:
        exponent = (1.0 - s / 2.0) * (r + eps)
        cert = power_sum_certificate(exponent, j_max)
        certs[float(eps)] = cert
        ok = ok and (cert.converges == (eps > 0))
    return RecoveryReport(s=s, r=r, certificates=certs, passed=ok)
