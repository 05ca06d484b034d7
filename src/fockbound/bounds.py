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
from itertools import combinations

import numpy as np

from . import fock
from .fock import LADDERS, FockOperator, FockSpace, ResourceError, make_space, mode_count
from .quadratics import one_body, pair_weights, require_representable
from .rng import complex_matrix, complex_vector, skew_matrix, trial_rng
from .spectral import BoundVerdict, _loewner_tolerance, _schatten
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
    steps; it stops when theta_max moves over four steps by at most a
    quarter of the shift c = `_certificate_shift(gram, theta_max)`, finer
    than the bracket width 2 c that the Cholesky test proves anyway, or when
    the Krylov space becomes invariant.  A stop too early leaves theta_max
    more than c below lambda_max, so the Cholesky test fails and the sector
    takes eigvalsh.  theta_min and theta_max are Rayleigh quotients, so
    lambda_min <= theta_min and theta_max <= lambda_max up to rounding.
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
            if ritz[-1] - top <= 0.25 * _certificate_shift(gram, ritz[-1]) or beta[k] == 0.0:
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


def _sector_extremes(space: FockSpace, X, n: int, certify: bool) -> tuple[float, float, float]:
    """(lambda_min, top, width) of Q_n* Q_n, Q = dGamma(X), from the Gram of the
    sector block q that `fock.ladder_matrix` builds.

    The Gram is formed in real arithmetic, at half the multiplies of the
    complex product q* q: with P = [Re q; Im q], the real stack of q's k
    rows, and K = (Re q)^T Im q, G = P^T P + i (K - K^T).  numpy evaluates
    P^T P as one symmetric rank-2k product (syrk) and mirrors its triangle,
    so the real part is symmetric and the imaginary part antisymmetric bit
    for bit: G is exactly Hermitian by construction, as `_certificate_shift`
    needs, and a self-adjointness test on it would have nothing to find.
    Only a NaN or inf can still reach it, and only from the block: every
    caller holds X to `require_representable`, which keeps the diagonal of
    Q_n* Q_n, the squared column norms of q, below max / 8, and by
    Cauchy-Schwarz every entry of P^T P and of K too.  So a finite block
    gives a finite Gram, and the finiteness test runs on P, before the two
    products, in which an inf times 0 would raise numpy's invalid-value
    warning instead of this ValueError.

    With `certify`, the Ritz values (theta_min, theta_max) of `_lanczos` are
    kept, however wide the bracket, if Cholesky succeeds on
    (theta_max + c_n) I - G: that proves lambda_max <= top + width,
    width = 2 c_n (`_certificate_shift`).  Otherwise a dense eigvalsh gives
    the exact ends and width 0.
    """
    q = fock.ladder_matrix(space, "dGamma", X, sector=n)
    rows = len(q)
    stacked = np.concatenate((q.real, q.imag))
    del q  # so no complex n x n array is held beside the real products
    if not np.isfinite(stacked).all():
        raise ValueError(f"lhs is not finite: the block of sector {n} has a NaN or inf entry")
    skew = stacked[:rows].T @ stacked[rows:]
    gram = stacked.T @ stacked
    del stacked
    gram = gram.astype(complex)
    np.subtract(skew, skew.T, out=gram.imag)
    del skew
    if certify:
        low, top = _lanczos(gram)
        shift = _certificate_shift(gram, top)
        if _cholesky_certifies(gram, top, shift):
            return low, top, 2.0 * shift
    eigs = np.linalg.eigvalsh(gram)
    return eigs[0], eigs[-1], 0.0


_PAIR_BUDGET = 2**30  # bytes of the largest stack of pair blocks, Grams and eigenvalues


def _pair_stack_bytes(pairs: int) -> int:
    """Bytes of the largest stack `_pair_extremes` holds on `pairs` pairs: C(pairs, f)
    blocks of C(f, q - 1) x C(f, q), their Grams of order d = the smaller side, and
    d eigenvalues each, 8 bytes a number."""
    return max((8 * math.comb(pairs, f) * (r * c + min(r, c) * (min(r, c) + 1))
                for f in range(pairs + 1) for q in range(1, f + 1)
                for r, c in [(math.comb(f, q - 1), math.comb(f, q))]), default=0)


def _require_pair_budget(m: int) -> None:
    """Raise ResourceError, before anything is allocated, if a stack of `_pair_extremes`
    on m modes would pass _PAIR_BUDGET.  Stacks grow with the pairs, so they are
    counted up and the check stops at the first count past it, however large m is."""
    for pairs in range(m // 2 + 1):
        if (need := _pair_stack_bytes(pairs)) > _PAIR_BUDGET:
            raise ResourceError(f"pair blocks on {m} modes pass the {_PAIR_BUDGET / 2**30:g} "
                                f"GiB budget: at {2 * pairs} modes a stack takes "
                                f"{need / 2**30:.3g} GiB")


def _pair_extremes(m: int, weights) -> np.ndarray:
    """(lambda_min, lambda_max, 0) of Delta_n* Delta_n for every sector n, Delta
    of the Youla form C0 on m modes with pair weights `weights` (C0[2k, 2k + 1]
    = w_k = -C0[2k + 1, 2k]), from m and the weights alone; only the first
    K = m // 2 weights are read.  DeltaPlus reads these rows in mirror order
    (`_gram_extremes`).

    Delta empties each of the K pairs with weight 2 w_k and a Jordan-Wigner
    sign that does not depend on the state; a singly filled pair and an odd
    m's unpaired mode are spectators.  So Delta_n* Delta_n is the direct sum,
    over the set F of pairs not singly filled and the number q of them full,
    n = (K - |F|) + u + 2q with u the unpaired mode's filling, of the Grams of
    the hard-core boson lowering L from the q-subsets of F, with entries
    2 |w_k| (a diagonal phase similarity removes the phases).  The lowerings
    of one shape (|F|, q) are stacked into one eigvalsh on the smaller side.
    A sector with a wide block (fewer rows than columns) or an empty one
    (q = 0) has lambda_min = 0 exactly.  The ends are exact to rounding, width 0.
    """
    _require_pair_budget(m)
    pairs, spare = divmod(m, 2)
    x = 2.0 * np.abs(np.asarray(weights)[:pairs])
    extremes = np.zeros((m + 1, 3))
    extremes[:, 0] = math.inf
    kernel = np.zeros(m + 1, dtype=bool)  # sectors with a wide or empty block
    for free in range(pairs + 1):
        n = pairs - free  # q = 0: Delta moves no pair
        kernel[n:n + spare + 1] = True  # u = 0 and, at odd m, u = 1
        stack = x[np.array(list(combinations(range(pairs), free)), dtype=np.intp)]
        for q in range(1, free + 1):
            # column j of L removes each pair of the j-th q-subset, onto the row of the rest
            below = {s: i for i, s in enumerate(combinations(range(free), q - 1))}
            subsets = list(combinations(range(free), q))
            rows = [[below[s[:i] + s[i + 1:]] for i in range(q)] for s in subsets]
            lower = np.zeros((len(stack), len(below), len(subsets)))
            lower[:, rows, np.arange(len(subsets))[:, None]] = stack[:, subsets]
            r, c = lower.shape[1:]
            eigs = np.linalg.eigvalsh(lower @ lower.transpose(0, 2, 1) if r < c
                                      else lower.transpose(0, 2, 1) @ lower)
            n = pairs - free + 2 * q
            ends = extremes[n:n + spare + 1]
            ends[:, 1] = np.maximum(ends[:, 1], eigs[:, -1].max())
            if r < c:
                kernel[n:n + spare + 1] = True
            else:
                ends[:, 0] = np.minimum(ends[:, 0], eigs[:, 0].min())
    extremes[kernel, 0] = 0.0
    return extremes


def bound_space(m: int, operator: str) -> FockSpace:
    """The space of a bound check on `operator`: `make_space(m)` for dGamma, whose
    blocks need the occupation basis; for the pair operators, which read m alone,
    a space that builds none, held to the pair budget before X is drawn."""
    if not LADDERS[operator][1]:
        return make_space(m)
    m = mode_count(m)
    _require_pair_budget(m)
    return FockSpace(m)


def _gram_extremes(space: FockSpace, operator: str, arg) -> np.ndarray:
    """(lambda_min, top, width) of Q_n* Q_n for every sector n: the left side of
    every bound on Q*Q, in a fresh table the caller may write into.

    No exponent r, right-hand side or tolerance enters it; the caller
    validates the argument: the pair weights for Delta and DeltaPlus, and X
    itself for dGamma.  The particle-hole map a_j -> +-a_j* carries DeltaPlus
    on sector n into Delta on sector m - n with the same weights, so here,
    and only here, DeltaPlus reads `_pair_extremes`' rows in reverse order.
    dGamma takes `_sector_extremes` of each sector, and a Gram larger than
    _LANCZOS_STEPS tries the certificate.  Dense sectors come first, in
    order of n, then the Lanczos sectors from the largest down, so their
    largest temporaries come while the heap is smallest (a lower peak RSS).
    """
    if LADDERS[operator][1]:
        extremes = _pair_extremes(space.m, arg)
        return extremes[::-1].copy() if LADDERS[operator][1] > 0 else extremes
    dims = [math.comb(space.m, n) for n in range(space.m + 1)]
    lanczos = [dim > _LANCZOS_STEPS for dim in dims]
    extremes = np.zeros((space.m + 1, 3))
    for n in sorted(range(space.m + 1), key=lambda n: (lanczos[n], -dims[n] * lanczos[n])):
        extremes[n] = _sector_extremes(space, arg, n, lanczos[n])
    return extremes


def _sector_verdict(rhs: np.ndarray, extremes: np.ndarray,
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
    For Delta and DeltaPlus the same SVD gives the pair weights w =
    pair_weights(mu): a skew A is U^T C0 U with C0 the Youla form of w, and
    Gamma(U) Q(A) Gamma(U)* = Q(C0), where Gamma(U) keeps every sector.  So
    the sector extremes are read from w alone: Delta's rows, which DeltaPlus
    reads in mirror order, n from m - n (`_gram_extremes`).

    A row's tolerance is `tol`, else `_loewner_tolerance` over both ends of
    every sector.  A certified sector (only dGamma has any) where some row's
    slack at the upper end, rhs(n) - top - width, is below -tolerance is
    solved again by eigvalsh into the table, until the recomputed tolerances
    leave none.  So every certified sector passes every row at its upper
    end, and a row fails only on an exact lambda_max.  A reported slack, read
    from the upper end, is below the exact one by at most the width 2 c_n,
    and never above it.
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
    extremes = _gram_extremes(space, operator,
                              pair_weights(mu) if LADDERS[operator][1] else X)
    while True:
        tols = [tol if tol is not None else _loewner_tolerance(row[:, None] - extremes[:, :2])
                for row in rhs]
        fails = rhs - extremes[:, 1] - extremes[:, 2] < -np.array(tols)[:, None]
        unproved = np.flatnonzero((extremes[:, 2] > 0.0) & fails.any(axis=0))
        if not unproved.size:
            break
        for n in unproved:
            extremes[n] = _sector_extremes(space, X, n, certify=False)
    return [_sector_verdict(row, extremes, row_tol) for row, row_tol in zip(rhs, tols)]


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
        space = bound_space(m, spec.operator)
        skew = LADDERS[spec.operator][1] != 0
        for t in range(trials):
            rng = trial_rng(seed, m, t)
            X = skew_matrix(rng, m) if skew else complex_matrix(rng, m)
            [(verdict, ratio)] = _sector_verdicts(space, [spec], X, None)
            rows.append(SweepRow(m=m, r=spec.r, trial=t,
                                 slack_min=verdict.slack_min, max_ratio=ratio))
    return rows
