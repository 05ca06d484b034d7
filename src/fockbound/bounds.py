"""Number-operator bounds on the quadratic operators, verified spectrally.

Each bound compares Q*Q against a function rhs(N) of the number operator.  Q
shifts particle number by a fixed amount, so the check splits exactly into
Q_n* Q_n <= rhs(n) Id per sector n, with Q_n the block of Q from sector n.

BOUNDS defines every bound in one row: the operator Q, the admissible
Schatten exponents r_min <= r <= r_max, and rhs(n) from the norms |X|_r,
|X|_2 and |X|_inf of the one-body argument X, with s = 2(r-1)/r.  The README
lists the rows as formulas.

Note on the r = inf comparison bound from the literature: it is implemented
with the squared norm, |B|_inf^2 N^2, which is the dimensionally consistent
form for d_gamma(B)*d_gamma(B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import LADDERS, FockOperator, FockSpace, ladder_matrix, make_space
from .quadratics import one_body, require_representable
from .rng import complex_matrix, skew_matrix, trial_rng
from .spectral import BoundVerdict, _require_self_adjoint, schatten_norm
from .tolerances import EIGEN_TOL, IDENTITY_TOL

# which: (Q, r_min, r_max, rhs(norms, r, s, n)); norms has the keys "r", "2" and
# "inf", and n is float, so n**0.0 is exactly 1 on the vacuum too.
BOUNDS = {
    "dGamma": ("dGamma", 1.0, math.inf,
               lambda norms, r, s, n: norms["r"]**2 * n**s
               + (norms["2"]**2 if 1.0 < r < 2.0 else 0.0)),
    "Delta": ("Delta", 1.0, 2.0,
              lambda norms, r, s, n: norms["r"]**2 * n**s
              + (norms["2"]**2 if r > 1.0 else 0.0)),
    "DeltaPlus": ("DeltaPlus", 1.0, 2.0,
                  lambda norms, r, s, n: norms["r"]**2 * n**s
                  + (3.0 * norms["2"]**2 if r > 1.0 else 0.0)),
    "literature_dGamma": ("dGamma", 1.0, math.inf,
                          lambda norms, r, s, n: norms["inf"]**2 * n**2),
    "literature_Delta": ("Delta", 1.0, math.inf,
                         lambda norms, r, s, n: norms["2"]**2 * n**2),
    "literature_DeltaPlus": ("DeltaPlus", 1.0, math.inf,
                             lambda norms, r, s, n: norms["2"]**2 * (n + 2.0)**2),
    "improved_r2": ("DeltaPlus", 2.0, 2.0,
                    lambda norms, r, s, n: norms["2"]**2 * (n + 2.0)),
}
WHICH = tuple(BOUNDS)


@dataclass(frozen=True)
class BoundSpec:
    """Which inequality to check, at which Schatten exponent r."""

    which: str
    r: float

    def __post_init__(self):
        if self.which not in BOUNDS:
            raise ValueError(f"unknown bound {self.which!r}; expected one of {WHICH}")
        _, r_min, r_max, _ = BOUNDS[self.which]
        if not r_min <= self.r <= r_max:
            raise ValueError(f"{self.which} bound requires {r_min:g} <= r <= {r_max:g}, "
                             f"got r={self.r}")

    @property
    def operator(self) -> str:
        """The operator Q whose Q*Q the bound controls, a key of fock.LADDERS."""
        return BOUNDS[self.which][0]

    @property
    def s(self) -> float:
        """Number-operator exponent 2(r-1)/r; r = inf gives 2."""
        return 2.0 if math.isinf(self.r) else 2.0 * (self.r - 1.0) / self.r


def reads_r_norm(which: str) -> bool:
    """Whether the bound's right-hand side reads |X|_r, found by evaluating its
    row without that norm; a row that reads no r-norm gives one verdict at every r."""
    try:
        BOUNDS[which][3]({"2": 1.0, "inf": 1.0}, 1.0, 0.0, 1.0)
    except KeyError:
        return True
    return False


def _profile(spec: BoundSpec, norms: dict, n: np.ndarray) -> np.ndarray:
    """Diagonal RHS value per particle number n for the given bound."""
    try:
        return BOUNDS[spec.which][3](norms, spec.r, spec.s, n.astype(float))
    except KeyError as missing:
        raise ValueError(f"bound {spec.which!r} at r={spec.r} needs norm "
                         f"{missing.args[0]!r}") from None


def rhs_operator(space: FockSpace, spec: BoundSpec, norms: dict):
    """Diagonal Fock operator gamma_r N^s + delta_r Id for the given bound.

    `norms` maps norm labels to values: "r" (Schatten-r norm of the argument),
    "2" (Hilbert-Schmidt) and "inf" (operator norm).
    """
    diag = _profile(spec, norms, space.occupations)
    return FockOperator(space, np.diag(diag.astype(complex)), grading_shift=0)


def _norms_for(spec: BoundSpec, X) -> dict:
    return {"r": schatten_norm(X, spec.r), "2": schatten_norm(X, 2),
            "inf": schatten_norm(X, math.inf)}


def _gram_extremes(space: FockSpace, operator: str, X) -> np.ndarray:
    """(lambda_min, lambda_max) of Q_n* Q_n for each sector n, Q = `operator` built from X.

    The left side of every bound on Q*Q; no exponent r enters it.  Q_n* Q_n
    and Q_n Q_n* share their nonzero eigenvalues, so the eigensolve runs on
    the smaller of the two.  A wide block (fewer rows than columns, as
    Delta and DeltaPlus have on about half of the sectors) gives Q_n* Q_n a
    rank below its dimension, so lambda_min = 0 exactly and lambda_max is
    the top eigenvalue of Q_n Q_n*.  An empty block (Delta from sectors 0
    and 1, DeltaPlus from m - 1 and m) gives (0, 0) with no eigensolve.
    dGamma blocks are square and keep the full Q_n* Q_n, as do tall blocks.
    """
    coeffs = one_body(space, operator, X)
    require_representable(space, coeffs, f"{operator} argument")
    extremes = np.zeros((space.m + 1, 2))
    for n in range(space.m + 1):
        q = ladder_matrix(space, operator, coeffs, sector=n)
        rows, cols = q.shape
        if rows == 0:
            continue
        wide = rows < cols
        gram = _require_self_adjoint(q @ q.conj().T if wide else q.conj().T @ q, "lhs")
        eigs = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
        extremes[n] = (0.0 if wide else eigs[0]), eigs[-1]
    return extremes


def _sector_verdict(spec: BoundSpec, X, extremes: np.ndarray,
                    tol: float | None) -> tuple[BoundVerdict, float]:
    """The verdict on Q*Q <= rhs(N), and the saturation ratio max_n lambda_max(Q_n* Q_n) / rhs(n).

    In sector n the slack rhs(n) Id - Q_n* Q_n has extreme eigenvalues
    rhs(n) - lambda_max and rhs(n) - lambda_min, so the least slack and the
    largest tolerance over the sectors equal the whole-space values, because
    the slack is block diagonal.
    """
    rhs = _profile(spec, _norms_for(spec, X), np.arange(len(extremes)))
    slack = rhs[:, None] - extremes  # per sector: rhs(n) - lambda_min, rhs(n) - lambda_max
    if tol is None:
        # the 2-norm of a self-adjoint matrix is its largest |eigenvalue|
        tol = EIGEN_TOL * (1.0 + float(np.abs(slack).max()))
    positive = rhs > 0
    ratio = float((extremes[positive, 1] / rhs[positive]).max(initial=0.0))
    return BoundVerdict(f"{spec.which}_lhs", f"{spec.which}_rhs(r={spec.r})",
                        float(slack[:, 1].min()), tol), ratio


def verify_bounds(space: FockSpace, specs, X,
                  tol: float | None = None) -> list[BoundVerdict]:
    """Loewner verdicts on Q*Q <= rhs_operator for every spec, all bounds on one Q.

    One eigensolve of Q_n* Q_n per sector n serves every spec: only the
    right-hand side depends on the bound and its exponent r.
    """
    specs = list(specs)
    if len({spec.operator for spec in specs}) != 1:
        raise ValueError("verify_bounds needs one or more specs that share one operator")
    if tol is not None and not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")
    extremes = _gram_extremes(space, specs[0].operator, X)
    return [_sector_verdict(spec, X, extremes, tol)[0] for spec in specs]


def verify_bound(space: FockSpace, spec: BoundSpec, X,
                 tol: float | None = None) -> BoundVerdict:
    """Loewner verdict on Q*Q <= rhs_operator for Q built from X per spec, sector by sector."""
    return verify_bounds(space, [spec], X, tol)[0]


def basic_estimate_check(space: FockSpace, lam, p: float,
                         tol: float | None = None) -> BoundVerdict:
    """sum_j lam_j a+_j a_j <= Lambda_p N^(1/q), decided by exact subset sums.

    Both sides are diagonal in the occupation basis, so the verdict is the
    minimum over n of Lambda_p n^(1/q) minus the largest n-term sum of lam --
    no eigensolver involved.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (space.m,):
        raise ValueError(f"lambda must have {space.m} entries, got shape {lam.shape}")
    if np.any(lam < 0):
        raise ValueError("lambda entries must be nonnegative")
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    if math.isinf(p):
        big = float(lam.max(initial=0.0))
        inv_q = 1.0
    else:
        big = float(np.sum(lam**p) ** (1.0 / p))
        inv_q = 1.0 - 1.0 / p
    top = np.concatenate(([0.0], np.cumsum(np.sort(lam)[::-1])))
    n = np.arange(space.m + 1, dtype=float)
    rhs = big * np.ones_like(n) if inv_q == 0.0 else big * n**inv_q
    slack = float((rhs - top).min())
    if tol is None:
        tol = IDENTITY_TOL * (1.0 + big * max(1.0, space.m))
    return BoundVerdict(lhs_id="basic_lhs", rhs_id=f"basic_rhs(p={p})",
                        slack_min=slack, tolerance=tol)


def basic_estimate_bruteforce(space: FockSpace, lam, p: float) -> float:
    """Minimal slack over all 2^m subsets; independent oracle for the fast path."""
    lam = np.asarray(lam, dtype=float)
    bits = (space.masks[:, None] >> np.arange(space.m)[None, :]) & 1
    subset_sums = bits @ lam
    if math.isinf(p):
        big = float(lam.max(initial=0.0))
        inv_q = 1.0
    else:
        big = float(np.sum(lam**p) ** (1.0 / p))
        inv_q = 1.0 - 1.0 / p
    occ = space.occupations.astype(float)
    rhs = big * np.ones_like(occ) if inv_q == 0.0 else big * occ**inv_q
    return float((rhs - subset_sums).min())


@dataclass(frozen=True)
class SweepRow:
    m: int
    r: float
    trial: int
    slack_min: float
    max_ratio: float


def bound_sweep(ms, spec: BoundSpec, trials: int, seed: int) -> list[SweepRow]:
    """Empirical tightness: slack and sector-extremal saturation ratio per trial.

    max_ratio is the largest ratio lambda_max(LHS | sector n) / rhs(n) over
    sectors; values approaching 1 indicate the bound is nearly attained.
    """
    rows: list[SweepRow] = []
    for m in ms:
        space = make_space(m)
        skew = LADDERS[spec.operator][1] != 0
        for t in range(trials):
            rng = trial_rng(seed, m, t)
            X = skew_matrix(rng, m) if skew else complex_matrix(rng, m)
            verdict, ratio = _sector_verdict(
                spec, X, _gram_extremes(space, spec.operator, X), None)
            rows.append(SweepRow(m=m, r=spec.r, trial=t,
                                 slack_min=verdict.slack_min, max_ratio=ratio))
    return rows
