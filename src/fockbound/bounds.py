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

from . import fock
from .fock import LADDERS, FockOperator, FockSpace, make_space
from .quadratics import one_body, pair_form, pair_weights, require_representable
from .rng import complex_matrix, complex_vector, skew_matrix, trial_rng
from .spectral import BoundVerdict, _loewner_tolerance, _require_self_adjoint, _schatten
from .tolerances import IDENTITY_TOL, UNIT_ROUNDOFF

# which: (Q, r_min, r_max, rhs(sq, r, s, n)); sq holds the squares |X|_r^2, |X|_2^2
# and |X|_inf^2 under the keys "r", "2" and "inf", and n is float, so n**0.0 is
# exactly 1 on the vacuum too.
BOUNDS = {
    "dGamma": ("dGamma", 1.0, math.inf,
               lambda sq, r, s, n: sq["r"] * n**s + (sq["2"] if 1.0 < r < 2.0 else 0.0)),
    "Delta": ("Delta", 1.0, 2.0,
              lambda sq, r, s, n: sq["r"] * n**s + (sq["2"] if r > 1.0 else 0.0)),
    "DeltaPlus": ("DeltaPlus", 1.0, 2.0,
                  lambda sq, r, s, n: sq["r"] * n**s + (3.0 * sq["2"] if r > 1.0 else 0.0)),
    "literature_dGamma": ("dGamma", 1.0, math.inf, lambda sq, r, s, n: sq["inf"] * n**2),
    "literature_Delta": ("Delta", 1.0, math.inf, lambda sq, r, s, n: sq["2"] * n**2),
    "literature_DeltaPlus": ("DeltaPlus", 1.0, math.inf,
                             lambda sq, r, s, n: sq["2"] * (n + 2.0)**2),
    "improved_r2": ("DeltaPlus", 2.0, 2.0, lambda sq, r, s, n: sq["2"] * (n + 2.0)),
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
    """Diagonal RHS value per particle number n for the given bound.  A norm is squared
    as x * x, which rounds once, not as x**2, whose C-library pow can be an ulp off;
    so X -> 2^k X scales every rhs(n) by exactly 4^k."""
    sq = {key: norm * norm for key, norm in norms.items()}
    try:
        return BOUNDS[spec.which][3](sq, spec.r, spec.s, n.astype(float))
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


# Lanczos steps at most; a Gram no larger than this keeps the dense eigvalsh
_LANCZOS_STEPS = 60
_TINIEST = 2.0**-1074  # the smallest subnormal


def _lanczos(gram: np.ndarray) -> tuple[float, float]:
    """The extreme Ritz values (theta_min, theta_max) of the Hermitian `gram`.

    Lanczos with full reorthogonalisation (classical Gram-Schmidt, twice)
    from a start vector drawn from a fixed seed, for at most _LANCZOS_STEPS
    steps; it stops when theta_max moves by at most 4u theta_max over four
    steps, or when the Krylov space becomes invariant.  theta_min and
    theta_max are Rayleigh quotients, so lambda_min <= theta_min and
    theta_max <= lambda_max up to rounding.
    """
    dim = len(gram)
    basis = np.empty((_LANCZOS_STEPS, dim), dtype=complex)
    conj_basis = np.empty_like(basis)
    v = complex_vector(trial_rng(0, dim), dim)
    v /= np.linalg.norm(v)
    alpha, beta = np.zeros(_LANCZOS_STEPS), np.zeros(_LANCZOS_STEPS)
    top = -math.inf
    for k in range(_LANCZOS_STEPS):
        basis[k] = v
        np.conjugate(v, out=conj_basis[k])
        w = gram @ v
        h = conj_basis[:k + 1] @ w
        alpha[k] = h[k].real
        w -= h @ basis[:k + 1]
        w -= (conj_basis[:k + 1] @ w) @ basis[:k + 1]
        beta[k] = math.sqrt(np.vdot(w, w).real)
        if (k + 1) % 4 == 0 or k + 1 == _LANCZOS_STEPS or beta[k] == 0.0:
            ritz = np.linalg.eigvalsh(np.diag(alpha[:k + 1]) + np.diag(beta[:k], -1))
            if ritz[-1] - top <= 4.0 * UNIT_ROUNDOFF * abs(ritz[-1]) or beta[k] == 0.0:
                break
            top = ritz[-1]
        v = w / beta[k]
    return float(ritz[0]), float(ritz[-1])


def _certificate_shift(gram: np.ndarray, theta: float) -> float:
    """The shift c of the Cholesky test that proves lambda_max(gram) <= theta + 2 c.

    Write G = gram (exactly Hermitian, of order n), u = 2^-53, eta = 2^-1074,
    gamma_k = k u / (1 - k u), kappa = gamma_{n+3} / (1 - gamma_{n+3}), and
    A = fl((theta + c) I - G), the matrix `_cholesky_certifies` factors.
    Off the diagonal A = -G exactly.  Its diagonal is
    a_jj = fl(s - g_jj) with s = fl(theta + c), so A = s I - G + E with E
    diagonal, |E_jj| <= u s, and s <= theta + c + u (|theta| + c).

    If complex Cholesky runs to completion on A, its factor R satisfies
    R* R = A + dA with |dA| <= gamma_{n+3} |R*| |R| entrywise (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 10.3, with
    the complex constant of Sec. 3.6).  The diagonal of R* R gives
    |r_j|^2 <= a_jj / (1 - gamma_{n+3}), so
        |dA|_2 <= gamma_{n+3} |R|_F^2 <= kappa tr A  (+ 4 n (n + 1) eta for underflow).
    R* R >= 0 then gives s I - G >= -(|dA|_2 + max |E_jj|) I, which is
    Rump's test (S. M. Rump, BIT 46 (2006) 433-452).  With
    t = sum_j |theta - g_jj| >= tr(theta I - G), tr A <= (1 + u) (t + n (s - theta)),
    and collecting terms with (1 + u)^2 <= 2,
        lambda_max(G) <= theta + c + b,
        b = 3u (|theta| + c) + kappa (1 + u) t + 2 n kappa (c + u |theta|) + 4 n (n + 1) eta.
    The c returned solves c = b:
        c = (kappa (1 + u) t + (3 + 2 n kappa) u |theta| + 4 n (n + 1) eta)
            / (1 - 3u - 2 n kappa),
    times 1 + 1e-6, which covers the rounding of t (a sum of nonnegative
    terms) and of this formula.  So a factorisation that runs to completion
    proves lambda_max(G) <= theta + 2 c.
    """
    dim, u = len(gram), UNIT_ROUNDOFF
    gamma = (dim + 3) * u / (1.0 - (dim + 3) * u)
    kappa = gamma / (1.0 - gamma)
    t = float(np.abs(theta - gram.diagonal().real).sum())
    shift = ((kappa * (1.0 + u) * t + (3.0 + 2.0 * dim * kappa) * u * abs(theta)
              + 4.0 * dim * (dim + 1) * _TINIEST) / (1.0 - 3.0 * u - 2.0 * dim * kappa))
    return shift * (1.0 + 1e-6)


def _cholesky_certifies(gram: np.ndarray, theta: float, shift: float) -> bool:
    """Whether Cholesky succeeds on (theta + shift) I - gram; `gram` is left as it was.

    The shifted matrix is formed in the Gram's own buffer: negation is exact,
    and the diagonal is saved and put back, so the Gram is restored bit for bit.
    """
    diagonal = gram.diagonal().copy()
    gram *= -1.0
    gram.flat[::len(gram) + 1] += theta + shift
    try:
        np.linalg.cholesky(gram)
        return True
    except np.linalg.LinAlgError:
        return False
    finally:
        gram *= -1.0
        gram.flat[::len(gram) + 1] = diagonal


# bits 0, 2, 4, ...: the first mode of every canonical pair (2k, 2k + 1)
_FIRST_OF_PAIR = np.int64(0x5555555555555555)


def _kept(space: FockSpace, operator: str, n: int) -> np.ndarray:
    """Which states of sector n the blocks of `operator` keep, in basis order.

    dGamma keeps every state.  Delta and DeltaPlus keep the states where no
    pair (2k, 2k + 1) holds only its second mode; see `_sector_block`.
    """
    lo, hi = np.searchsorted(space.occupations, [n, n + 1])
    masks = space.masks[lo:hi]
    if LADDERS[operator][1] == 0:
        return np.ones(masks.size, dtype=bool)
    return ((masks >> 1) & ~masks & _FIRST_OF_PAIR) == 0


def _sector_block(space: FockSpace, operator: str, X, n: int) -> np.ndarray:
    """The block of sector n whose Gram has the extremes of Q_n* Q_n.

    For dGamma it is Q_n itself.  Delta and DeltaPlus take X in pair form
    (`quadratics.pair_form`), so Q(X) = sum_k 2 w_k times the removal
    (Delta) or creation (DeltaPlus) of both modes of pair k.  It leaves each
    singly occupied pair as it is, so Q_n splits into blocks, one for each
    set of singly occupied pairs and choice of the mode filled in each.  On
    the other pairs a block acts as hard-core pair bosons, with a
    Jordan-Wigner sign that does not depend on the state, so blocks that
    differ only in the modes filled are equal entry for entry.  The block
    returned keeps the `_kept` rows and columns, one copy of each distinct
    block.  Its Gram is block diagonal and has the eigenvalues of Q_n* Q_n
    without their multiplicities: the same lambda_min and lambda_max, at
    dimension at most 51 at m = 10 and 393 at m = 14 (the largest
    coefficient of (1 + x + x^2)^K (1 + x)^(m - 2K)).  It is wide exactly
    where Q_n is, which holds for every m <= 18.  The entries come from
    `fock.ladder_entries`, so a row outside the sector raises GradingError,
    and a pair operator's full sector block is never formed.  dGamma keeps
    every state, so its block is `fock.ladder_matrix`'s bit for bit: the
    same entries summed in the same order.
    """
    shift = LADDERS[operator][1]
    (rows, cols), values, _ = fock.ladder_entries(space, operator, X, n)
    kept_rows, kept_cols = (_kept(space, operator, k) for k in (n + shift, n))
    keep = kept_cols[cols]
    block = np.zeros((kept_rows.sum(), kept_cols.sum()), dtype=complex)
    np.add.at(block, ((np.cumsum(kept_rows) - 1)[rows[keep]],
                      (np.cumsum(kept_cols) - 1)[cols[keep]]), values[keep])
    return block


def _sector_extremes(space: FockSpace, operator: str, X, n: int,
                     certify: bool) -> tuple[float, float, float]:
    """(lambda_min, top, width) of Q_n* Q_n, Q = `operator` built from X, from the
    Gram of `_sector_block`.

    q* q and q q* share their nonzero eigenvalues, so the Gram is formed on
    the smaller side.  A wide block (fewer rows than columns, as Delta and
    DeltaPlus have on about half of the sectors) gives q* q a rank below its
    dimension, so lambda_min = 0 exactly.  With `certify`,
    the Ritz values (theta_min, theta_max) of `_lanczos` are kept, however
    wide the bracket, if Cholesky succeeds on (theta_max + c_n) I - G: that
    proves lambda_max <= top + width, width = 2 c_n (`_certificate_shift`).
    Otherwise a dense eigvalsh gives the exact ends and width 0.
    """
    q = _sector_block(space, operator, X, n)
    wide = q.shape[0] < q.shape[1]
    gram = q @ q.conj().T if wide else q.conj().T @ q
    del q  # before the n x n temporaries of the checks below
    gram = _require_self_adjoint(gram, "lhs")
    gram += gram.conj().T  # exactly Hermitian, as (G + G^H) / 2
    gram *= 0.5
    if certify:
        low, top = _lanczos(gram)
        shift = _certificate_shift(gram, top)
        if _cholesky_certifies(gram, top, shift):
            return (0.0 if wide else low), top, 2.0 * shift
    eigs = np.linalg.eigvalsh(gram)
    return (0.0 if wide else eigs[0]), eigs[-1], 0.0


def _gram_extremes(space: FockSpace, operator: str, X) -> np.ndarray:
    """`_sector_extremes` of every sector n: the left side of every bound on Q*Q.

    No exponent r, right-hand side or tolerance enters it; the caller
    validates X, and passes Delta and DeltaPlus their X in pair form.  An
    empty block gives zeros with no eigensolve, and a Gram larger than
    _LANCZOS_STEPS tries the certificate.  Dense sectors come first, in order
    of n, then the Lanczos sectors from the largest down, so their largest
    temporaries come while the heap is smallest (a lower peak RSS).
    """
    shift = LADDERS[operator][1]
    if shift and not np.array_equal(X, pair_form(X.diagonal(1)[::2], space.m)):
        raise ValueError(f"{operator} sector extremes need X in pair form")
    sizes = [_kept(space, operator, n).sum() for n in range(space.m + 1)]
    # each sector's Gram is on the smaller side of Q_n; an empty block has none
    dims = [min(sizes[n], sizes[n + shift]) if 0 <= n + shift <= space.m else 0
            for n in range(space.m + 1)]
    lanczos = [dim > _LANCZOS_STEPS for dim in dims]
    extremes = np.zeros((space.m + 1, 3))
    for n in sorted(range(space.m + 1), key=lambda n: (lanczos[n], -dims[n] * lanczos[n])):
        if dims[n]:
            extremes[n] = _sector_extremes(space, operator, X, n, lanczos[n])
    return extremes


def _sector_verdict(spec: BoundSpec, rhs: np.ndarray, extremes: np.ndarray,
                    tol: float) -> tuple[BoundVerdict, float]:
    """The verdict on Q*Q <= rhs(N), and the saturation ratio max_n upper(n) / rhs(n).

    The slack is block diagonal, so its least eigenvalue is the least over
    the sectors n of rhs(n) - lambda_max, read here from each sector's upper
    end top + width >= lambda_max, so neither the slack nor the ratio is
    ever overstated.  `rhs` holds rhs(n) for n = 0..m.
    """
    upper = extremes[:, 1] + extremes[:, 2]
    positive = rhs > 0
    ratio = float((upper[positive] / rhs[positive]).max(initial=0.0))
    return BoundVerdict(float((rhs - upper).min()), tol), ratio


def _sector_verdicts(space: FockSpace, specs, X,
                     tol: float | None) -> list[tuple[BoundVerdict, float]]:
    """`_sector_verdict` for every spec on one Q.  X is validated before any norm
    is formed; the bounds read X only through its singular values, so one SVD
    gives every rhs(n), and one `_gram_extremes` pass serves every spec.
    For Delta and DeltaPlus the same SVD gives the pair weights: a skew A is
    U^T C0 U with C0 = pair_form(pair_weights(mu)), and Gamma(U) Q(A) Gamma(U)*
    = Q(C0), where Gamma(U) keeps every sector.  So the sector extremes are
    read from C0, whose blocks are small (`_sector_block`).

    A row's tolerance is `tol`, else `_loewner_tolerance` over both ends of
    every sector.  A certified sector where some row's slack at the upper
    end, rhs(n) - top - width, is below -tolerance is solved again by
    eigvalsh, until the recomputed tolerances leave none.  So every
    certified sector passes every row at its upper end, and a row fails only
    on an exact lambda_max.  A reported slack, read from the upper end, is
    below the exact one by at most the width 2 c_n, and never above it.
    """
    specs = list(specs)
    if len({spec.operator for spec in specs}) != 1:
        raise ValueError("verify_bounds needs one or more specs that share one operator")
    if tol is not None and not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")
    operator = specs[0].operator
    X = one_body(space, operator, X)
    require_representable(space, X, f"{operator} argument")
    mu = np.linalg.svd(X, compute_uv=False)
    norms = {"2": _schatten(mu, 2), "inf": _schatten(mu, math.inf)}
    rhs = np.array([_profile(spec, {**norms, "r": _schatten(mu, spec.r)},
                             np.arange(space.m + 1)) for spec in specs])
    if LADDERS[operator][1]:
        X = pair_form(pair_weights(mu), space.m)
    extremes = _gram_extremes(space, operator, X)
    while True:
        tols = [tol if tol is not None else _loewner_tolerance(row[:, None] - extremes[:, :2])
                for row in rhs]
        fails = rhs - extremes[:, 1] - extremes[:, 2] < -np.array(tols)[:, None]
        unproved = np.flatnonzero((extremes[:, 2] > 0.0) & fails.any(axis=0))
        if not unproved.size:
            break
        for n in unproved:
            extremes[n] = _sector_extremes(space, operator, X, n, certify=False)
    return [_sector_verdict(spec, row, extremes, row_tol)
            for spec, row, row_tol in zip(specs, rhs, tols)]


def verify_bounds(space: FockSpace, specs, X,
                  tol: float | None = None) -> list[BoundVerdict]:
    """Loewner verdicts on Q*Q <= rhs_operator for every spec, all bounds on one Q."""
    return [verdict for verdict, _ in _sector_verdicts(space, specs, X, tol)]


def verify_bound(space: FockSpace, spec: BoundSpec, X,
                 tol: float | None = None) -> BoundVerdict:
    """Loewner verdict on Q*Q <= rhs_operator for Q built from X per spec, sector by sector."""
    return verify_bounds(space, [spec], X, tol)[0]


def basic_estimate_check(space: FockSpace, lam, p: float) -> BoundVerdict:
    """sum_j lam_j a+_j a_j <= Lambda_p N^(1/q), decided by exact subset sums.

    Both sides are diagonal in the occupation basis, so the verdict is the
    minimum over n of Lambda_p n^(1/q) minus the largest n-term sum of lam --
    no eigensolver involved.  Lambda_p is read as every bound's right-hand
    side reads its norm (`spectral._schatten`), relative to the largest
    lam_j: it is finite wherever the p-norm is, and 2^k lam scales the slack
    by exactly 2^k.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (space.m,):
        raise ValueError(f"lambda must have {space.m} entries, got shape {lam.shape}")
    if np.any(lam < 0):
        raise ValueError("lambda entries must be nonnegative")
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    ordered = np.sort(lam)[::-1]
    big = _schatten(ordered, p)
    # 1/q = 1 - 1/p is 1 at p = inf, and n**0.0 is 1 at p = 1
    rhs = big * np.arange(space.m + 1, dtype=float)**(1.0 - 1.0 / p)
    slack = float((rhs - np.concatenate(([0.0], np.cumsum(ordered)))).min())
    return BoundVerdict(slack_min=slack,
                        tolerance=IDENTITY_TOL * (1.0 + big * max(1.0, space.m)))


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
            [(verdict, ratio)] = _sector_verdicts(space, [spec], X, None)
            rows.append(SweepRow(m=m, r=spec.r, trial=t,
                                 slack_min=verdict.slack_min, max_ratio=ratio))
    return rows
