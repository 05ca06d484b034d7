"""Singular values, Schatten norms, and operator-inequality verdicts.

An operator inequality X <= Y always means the Loewner order: Y - X is
positive semidefinite.  Verdicts report the minimal eigenvalue of the slack
so near-failures are visible, not just a boolean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tolerances import EIGEN_TOL, IDENTITY_TOL


@dataclass(frozen=True)
class BoundVerdict:
    """Outcome of a Loewner-order check: pass iff slack_min >= -tolerance."""

    slack_min: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.slack_min >= -self.tolerance


def schatten_norm(B, r) -> float:
    """(sum_j mu_j^r)^(1/r); r = inf gives the operator norm (largest mu_j)."""
    if not r >= 1:
        raise ValueError(f"Schatten exponent must satisfy r >= 1, got {r}")
    mu = np.linalg.svd(np.atleast_2d(np.asarray(B, dtype=complex)), compute_uv=False)
    return _schatten(mu, r)


def _schatten(mu: np.ndarray, r: float) -> float:
    """schatten_norm from the singular values mu of B, largest first."""
    if not mu.size or mu[0] == 0.0:
        return 0.0
    if math.isinf(r):
        return float(mu[0])
    # relative to the largest mu_j, so mu_j^r cannot overflow where the norm does not
    return float(mu[0] * np.sum((mu / mu[0])**r) ** (1.0 / r))


def _require_self_adjoint(X, name: str) -> np.ndarray:
    X = np.asarray(X, dtype=complex)
    scale = 1.0 + np.abs(X).max(initial=0.0)
    # a NaN or inf in X makes the scale NaN or inf, so finiteness needs no pass of its own
    if not (scale < math.inf
            and np.abs(X - X.conj().T).max(initial=0.0) <= IDENTITY_TOL * scale):
        raise ValueError(f"{name} is not finite and self-adjoint to within "
                         f"{IDENTITY_TOL}*scale")
    return X


def loewner_leq(X, Y) -> BoundVerdict:
    """Verdict on X <= Y in the Loewner order, via lambda_min(Y - X)."""
    X = _require_self_adjoint(X, "lhs")
    Y = _require_self_adjoint(Y, "rhs")
    if X.shape != Y.shape:
        raise ValueError(f"shape mismatch: {X.shape} vs {Y.shape}")
    with np.errstate(over="ignore"):
        diff = Y - X
    if not np.isfinite(diff).all():
        raise ValueError("rhs - lhs is not finite: the operands' difference overflows")
    diff *= 0.5  # halved before the sum, so that diff + diff^H cannot overflow
    eigs = np.linalg.eigvalsh(diff + diff.conj().T)
    return BoundVerdict(slack_min=float(eigs.min()), tolerance=_loewner_tolerance(eigs))


def _loewner_tolerance(slack_eigs) -> float:
    """EIGEN_TOL (1 + |slack|_2), the default allowance of every Loewner verdict, from
    the slack's eigenvalues.

    Every caller passes finite eigenvalues: `loewner_leq` rejects a Y - X that
    is not finite, and the sector verdicts read the extremes of a finite Gram
    against the right-hand sides of a representable argument.  So np.max
    reads all of them; a NaN that got here anyway would give a NaN tolerance,
    which fails the verdict, where np.nanmax would skip it.
    """
    return EIGEN_TOL * (1.0 + float(np.max(np.abs(slack_eigs))))


def psd_power(X, p: float) -> np.ndarray:
    """X^p for PSD X via spectral calculus; eigenvalues in [-IDENTITY_TOL*scale, 0) clamp to 0."""
    X = _require_self_adjoint(X, "operand")
    w, v = np.linalg.eigh((X + X.conj().T) / 2)
    scale = 1.0 + float(np.abs(w).max(initial=0.0))
    if w.min(initial=0.0) < -IDENTITY_TOL * scale:
        raise ValueError(f"matrix power of non-PSD operand (lambda_min = {w.min()})")
    w = np.clip(w, 0.0, None)
    return (v * w**p) @ v.conj().T


def jensen_check(weights, ops, p: float, q: float) -> BoundVerdict:
    """(sum_j w_j c_j^p)^(1/p) <= w^(1/p - 1/q) (sum_j w_j c_j^q)^(1/q), w = sum w_j."""
    if not 1 <= p <= q or math.isinf(q):
        raise ValueError(f"need 1 <= p <= q < inf, got p={p}, q={q}")
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    w = float(weights.sum())
    lhs = psd_power(sum(wj * psd_power(c, p) for wj, c in zip(weights, ops)), 1.0 / p)
    rhs = w ** (1.0 / p - 1.0 / q) * psd_power(
        sum(wj * psd_power(c, q) for wj, c in zip(weights, ops)), 1.0 / q)
    return loewner_leq(lhs, rhs)


def _conj_exponents(p: float, q: float) -> None:
    inv = (0.0 if math.isinf(p) else 1.0 / p) + (0.0 if math.isinf(q) else 1.0 / q)
    if p < 1 or q < 1 or abs(inv - 1.0) > IDENTITY_TOL:
        raise ValueError(f"exponents must be conjugate (1/p + 1/q = 1), got p={p}, q={q}")


def hoelder_check(mu, ops, p: float, q: float) -> BoundVerdict:
    """sum_j mu_j c_j <= (sum mu_j^p)^(1/p) (sum c_j^q)^(1/q) for PSD c_j."""
    _conj_exponents(p, q)
    mu = np.asarray(mu, dtype=float)
    if np.any(mu < 0):
        raise ValueError("coefficients must be nonnegative")
    lhs = sum(mj * np.asarray(c, dtype=complex) for mj, c in zip(mu, ops))
    scalar = _schatten(np.sort(mu)[::-1], p)
    if math.isinf(q):
        # limit q -> inf: (sum c_j^q)^(1/q) has no direct finite form, so
        # restrict to finite q; the p = inf, q = 1 orientation covers the
        # remaining case.
        raise ValueError("q = inf not supported; use p = inf, q = 1 orientation")
    rhs = scalar * psd_power(sum(psd_power(c, q) for c in ops), 1.0 / q)
    return loewner_leq(lhs, rhs)


@dataclass(frozen=True)
class CauchySchwarzResult:
    verdict: BoundVerdict
    identity_residual: float   # closed-form difference identity, algebraic
    identity_passed: bool


def cauchy_schwarz_check(a_ops, b_ops, sigma: int) -> CauchySchwarzResult:
    """sigma sum_{jk} a_j* b_k* b_j a_k <= sum_{jk} a_j* b_k* b_k a_j.

    Also verifies the closed form
    rhs - sigma*lhs = (1/2) sum_{jk} (sigma b_k a_j - b_j a_k)*(sigma b_k a_j - b_j a_k).
    """
    if sigma not in (-1, 1):
        raise ValueError(f"sigma must be +1 or -1, got {sigma}")
    a_ops = [np.asarray(a, dtype=complex) for a in a_ops]
    b_ops = [np.asarray(b, dtype=complex) for b in b_ops]
    if len(a_ops) != len(b_ops):
        raise ValueError(f"list length mismatch: {len(a_ops)} vs {len(b_ops)}")
    shape = a_ops[0].shape
    if any(x.shape != shape for x in a_ops + b_ops):
        raise ValueError("all operators must have equal shape")
    ba = [[b @ a for a in a_ops] for b in b_ops]  # ba[k][j] = b_k a_j
    n = len(a_ops)
    lhs = sum(ba[k][j].conj().T @ ba[j][k] for j in range(n) for k in range(n))
    rhs = sum(ba[k][j].conj().T @ ba[k][j] for j in range(n) for k in range(n))
    closed = np.zeros(shape, dtype=complex)
    for j in range(n):
        for k in range(n):
            d = sigma * ba[k][j] - ba[j][k]
            closed += d.conj().T @ d
    residual = float(np.abs((rhs - sigma * lhs) - closed / 2).max(initial=0.0))
    scale = 1.0 + float(np.abs(rhs).max(initial=0.0) + np.abs(lhs).max(initial=0.0))
    return CauchySchwarzResult(verdict=loewner_leq(sigma * lhs, rhs),
                               identity_residual=residual,
                               identity_passed=residual <= IDENTITY_TOL * scale)
