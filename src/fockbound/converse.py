"""Finite-size evidence for the converse statements: decay families, exact
sector norms, growth-exponent fits, and summability certificates.

Everything here runs on the diagonal fast path: for a diagonal one-body
operator with nonnegative entries lam, the norm of its second quantization
restricted to the n-particle sector is exactly the sum of the n largest
lam_j.  That subset-sum identity turns each sector norm of the power_decay
family into a running power sum, which _power_sums streams in fixed blocks:
the sweeps take the same memory at any n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundSpec, verify_bound
from .fock import FockSpace, ResourceError
from .spectral import schatten_norm
from .tolerances import NORM_TOL

# j values per block of _power_sums: 512 KiB of float64, at any n
_BLOCK = 1 << 16
# largest n_max a sweep sums to: about 14 s at 1.4 s per 1e8 terms
MAX_SWEEP_TERMS = 10**9


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


@dataclass(frozen=True)
class SweepResult:
    """Log-log growth fit of sector norms for a decay family."""

    n: np.ndarray
    partial_sums: np.ndarray
    slope: float
    fit_window: tuple
    slope_target: float


def _loglog_slope(n: np.ndarray, values: np.ndarray) -> float:
    x = np.log(n.astype(float))
    y = np.log(values)
    design = np.column_stack([x, np.ones_like(x)])
    return float(np.linalg.lstsq(design, y, rcond=None)[0][0])


def _power_sums(p: float, ends) -> np.ndarray:
    """Running sums sum_{j<=e} j^p at each end point e of `ends`, whose last is the largest.

    j runs in blocks of _BLOCK.  Each block is a cumulative sum whose first
    element carries the previous block's total; np.cumsum adds in order, so
    the sums equal those of one np.cumsum over all of j, bit for bit.
    """
    ends = np.asarray(ends)
    sums = np.zeros(ends.size)  # an end below 1 keeps the empty sum
    total, last = 0.0, int(ends[-1])
    for start in range(1, last + 1, _BLOCK):
        block = np.arange(start, min(start + _BLOCK, last + 1), dtype=float)
        block **= p
        block[0] += total
        np.cumsum(block, out=block)
        inside = (ends >= start) & (ends < start + block.size)
        sums[inside] = block[ends[inside] - start]
        total = block[-1]
    return sums


def sharpness_sweep(s: float, n_max: int = 100_000) -> SweepResult:
    """Fit the growth exponent of sector norms for the power_decay(s) family.

    The partial sums S(n) of j^p, p = s/2 - 1, grow as (Euler-Maclaurin)
        S(n) = n^(s/2) / (s/2) + zeta(1 - s/2) + n^p / 2 + O(n^(p-1)).
    The constant bends a log-log fit at small s, and the end term n^p / 2
    at small n.  So the fit reads the increments S(n) - S(n/2), in which the
    constant cancels, less their end terms (n^p - (n/2)^p) / 2: that leaves
    n^(s/2) (1 - 2^(-s/2)) / (s/2), up to O(n^(p-1)).  Every grid point is
    even, so n/2 is exact.  The slope is fitted over the top decade of the
    grid, and the sweep/power_decay row holds it to SLOPE_TOL.  The grid is
    2k for k on a 60-point log grid from 5 to n_max / 2, so n_max >= 12 is
    the least that puts two points (10 and 12) in the fit.
    _power_sums runs j as float64, which holds every integer up to 2^53 exactly.
    The time is linear in n_max, so above MAX_SWEEP_TERMS it raises ResourceError
    before any sum.
    """
    if not 0.0 < s < 2.0:
        raise ValueError(f"power_decay needs 0 < s < 2, got {s}")
    if n_max < 12:
        raise ValueError(f"sweep needs n_max >= 12 for two even points in its fit window, "
                         f"got {n_max}")
    if n_max > 2**53:
        raise ValueError(f"sweep needs n_max <= 2**53, the last integer float64 holds "
                         f"exactly, got {n_max}")
    if n_max > MAX_SWEEP_TERMS:
        raise ResourceError(f"sweep sums n_max terms, linear in time; n_max must be "
                            f"<= {MAX_SWEEP_TERMS}, got {n_max}")
    half = np.geomspace(5, n_max / 2, 60).astype(int)
    # already sorted, so np.unique (which imports numpy.ma) is a neighbour test
    half = half[np.concatenate(([True], half[1:] != half[:-1]))]
    n_grid, p = 2 * half, s / 2.0 - 1.0
    # j^p is sorted descending; one call sums both
    both = _power_sums(p, np.concatenate((half, n_grid)))
    sums = both[half.size:]
    ends = 0.5 * (n_grid.astype(float) ** p - half.astype(float) ** p)
    window = n_grid >= n_max / 10
    slope = _loglog_slope(n_grid[window], (sums - both[:half.size] - ends)[window])
    return SweepResult(
        n=n_grid, partial_sums=sums, slope=slope,
        fit_window=(int(n_grid[window][0]), int(n_grid[window][-1])),
        slope_target=s / 2.0)


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
    """Integral-test certificate for sum j^(-(1 + excess))."""

    excess: float
    j_max: int
    tail_bound: float       # < inf iff convergent; integral comparison
    lower_bound: float      # divergence witness: log lower bound at j_max
    converges: bool


def power_sum_certificate(excess: float, j_max: int = 10**6) -> ConvergenceCertificate:
    """The sum of j^(-(1 + excess)) converges iff excess > 0.  It takes the excess
    over 1, not the exponent, as 1 + excess rounds to 1 for an excess below 1.1e-16."""
    if excess > 0.0:
        # integral comparison: sum_{j>N} j^-(1+e) <= int_N^inf x^-(1+e) dx
        tail = j_max ** -excess / excess
        return ConvergenceCertificate(excess=excess, j_max=j_max, tail_bound=tail,
                                      lower_bound=0.0, converges=True)
    # integral comparison: sum_{j<=N} j^-(1+e) >= int_1^{N+1} x^-(1+e) dx
    if excess == 0.0:
        lower = math.log(j_max + 1.0)
    else:
        lower = ((j_max + 1.0) ** -excess - 1.0) / -excess
    return ConvergenceCertificate(excess=excess, j_max=j_max, tail_bound=math.inf,
                                  lower_bound=lower, converges=False)


@dataclass(frozen=True)
class RecoveryReport:
    """Summability of mu_j = j^(s/2-1) at exponents r and r + eps."""

    r: float
    certificates: dict  # eps -> ConvergenceCertificate


def schatten_recovery_check(s: float, eps_list) -> RecoveryReport:
    """For the power_decay(s) family the loss eps is necessary: mu_j^r sums
    like the harmonic series while mu_j^(r+eps) = j^-(1 + eps (1 - s/2)) converges
    for every eps > 0.  The certificate reads that excess over 1, as near s = 2,
    r = 2 / (2 - s) absorbs eps and (1 - s/2)(r + eps) rounds to 1."""
    if not 0.0 < s < 2.0:
        raise ValueError(f"need 0 < s < 2, got {s}")
    certs = {float(eps): power_sum_certificate(eps * (1.0 - s / 2.0)) for eps in eps_list}
    return RecoveryReport(r=2.0 / (2.0 - s), certificates=certs)
