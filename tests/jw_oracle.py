"""Dense Jordan-Wigner reference construction of the Fock operators.

Each a+_j is a dense 2^m x 2^m matrix with the Jordan-Wigner sign
(-1)^{#occupied modes below j}; a_j is its adjoint; the smeared and quadratic
operators are sums of scaled copies and dense products of these.  This is the
construction the package used before its bitmask builder, kept unchanged as
the oracle the builder is compared against at small m.  The package has no
single-mode constructor of its own (a_j is op_a of the basis vector e_j), so
creation, annihilation and the matrix anticommutator live only here.
slater_state (the vacuum is slater_state(space, [])) and number_operator
are the whole-space vectors and the number operator that no command builds;
they share _check_mode, the mode-index check, with creation and
annihilation.

basic_estimate_bruteforce, sector_norm_diagonal and psd_matrix are oracles
and draws that only tests call, kept as the package wrote them: the least
slack of the basic estimate over all 2^m occupation patterns, against the
subset sums of bounds.basic_estimate_check; the n-sector norm of
d_gamma(diag lam) as the sum of the n largest lam_j; and a random PSD X* X.

verify_car and check_commutator are the whole-space versions of the CAR suite
and the commutator identity that the package used before it checked them
sector by sector, with the dense operators of this module, on inputs brought
to unit scale and with the divisors of the package's versions; they return
what those return, except that the norm row is the residual of the dense
spectral norm (an SVD), which the package's certified bound lies above, to
rounding.  car_failures holds such a residual dict to
CAR_TOL, the rule of the car/ report rows.

sector_block builds one sector's block from walked_entries, the bitmask
walk over the nonzero coefficients with no cache, and sector_blocks that
block for every key of sector_keys, with the keys written out rather than
read from the package's layout.  The tests compare them with
fock.ladder_matrix and patch sector_block in place of that name, where fock,
quadratics and cli read it.

run_verify_algebra, pair_coefficients, gaussian_state and slater_expectation
are the package's whole-space versions from before those too read sector
blocks: they apply the package's own whole-space operators (d_gamma, delta,
delta_plus and check_grading) to whole-space vectors.  The package keeps no
gaussian_state or slater_expectation; the tests compare these two against
its sector blocks directly.

sector_extremes is the whole-sector path that bounds._gram_extremes took for
Delta and DeltaPlus before it solved the small blocks of their pair form:
the full block Q_n of any skew A and a dense eigvalsh of its Gram.
kept_extremes is the path that came next, before the pair Grams were read
from the weights alone: from the bitmask walk of Q(C0), with C0 =
pair_form(w, m) the Youla form as a matrix, the block that keeps one copy of
each distinct pair block (kept_block) and a dense eigvalsh of its Gram.
gram_argument gives, for a test, the argument bounds._gram_extremes takes,
gram_dims the Gram dimensions of dGamma's sectors and of the kept blocks,
and kept_sizes the sector sizes of the kept blocks.

exact_r2_decision decides a bound at r = 2 with no rounding at all, for a
Gaussian-integer X (skew for the pair operators) at m <= 6: every Q_n* Q_n
is then an integer matrix (integer_grams), and each row of EXACT_R2 has an
integer rhs(n), so rhs(n) I - Q_n* Q_n >= 0 is decided by symmetric
elimination over fractions.Fraction (psd_exactly).
"""

from __future__ import annotations

import argparse
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from fockbound import quadratics
from fockbound.bounds import BOUNDS
from fockbound.cli import _check
from fockbound.fock import (CAR_TOL, LADDERS, FockOperator, FockSpace,
                            FockVector, _check_vector, _gather, ladder_matrix,
                            make_space, residual_ratio, unit_scaled)
from fockbound.quadratics import _as_one_body, pair_weights, require_skew
from fockbound.rng import complex_matrix, complex_vector, skew_matrix, trial_rng
from fockbound.tolerances import IDENTITY_TOL, NORM_TOL


@lru_cache(maxsize=None)
def _creation_matrix(m: int, j: int) -> np.ndarray:
    space = make_space(m)
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


def _check_mode(space: FockSpace, j: int) -> None:
    if not 1 <= j <= space.m:
        raise ValueError(f"mode index {j} out of range [1, {space.m}]")


def creation(space: FockSpace, j: int) -> FockOperator:
    _check_mode(space, j)
    return FockOperator(space, _creation_matrix(space.m, j), grading_shift=+1)


def annihilation(space: FockSpace, j: int) -> FockOperator:
    _check_mode(space, j)
    return FockOperator(space, _annihilation_matrix(space.m, j), grading_shift=-1)


def anticommutator(x: FockOperator, y: FockOperator) -> np.ndarray:
    """The matrix of {x, y} = xy + yx."""
    return x.matrix @ y.matrix + y.matrix @ x.matrix


def slater_state(space: FockSpace, modes) -> FockVector:
    """Occupation basis vector for the mode set `modes`, coefficient +1.

    Equals the product of creators applied in decreasing mode order to the
    vacuum, which is sign-free under the Jordan-Wigner convention used here.
    """
    modes = list(modes)
    if len(set(modes)) != len(modes):
        raise ValueError(f"duplicate mode indices in {modes}")
    mask = 0
    for j in modes:
        _check_mode(space, j)
        mask |= 1 << (j - 1)
    amp = np.zeros(space.dim, dtype=complex)
    amp[space.index_of[mask]] = 1.0
    return FockVector(space, amp)


def number_operator(space: FockSpace) -> FockOperator:
    """N = dGamma(Id): diagonal, eigenvalue |S| on basis state S."""
    return FockOperator(space, np.diag(space.occupations.astype(complex)),
                        grading_shift=0)


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


def _quadratic(space: FockSpace, X, outer, inner, shift: int) -> FockOperator:
    """sum_{k,j} X[k,j] outer_k inner_j from the dense single-mode matrices."""
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for k in range(space.m):
        acc = np.zeros_like(mat)
        for j in range(space.m):
            if X[k, j] != 0:
                acc += X[k, j] * inner(space.m, j + 1)
        if acc.any():
            mat += outer(space.m, k + 1) @ acc
    return FockOperator(space, mat, grading_shift=shift)


def d_gamma(space: FockSpace, B) -> FockOperator:
    B = _as_one_body(space, B, "B")
    return _quadratic(space, B, _creation_matrix, _annihilation_matrix, 0)


def delta(space: FockSpace, A) -> FockOperator:
    A = require_skew(_as_one_body(space, A, "A"), "A")
    return _quadratic(space, A, _annihilation_matrix, _annihilation_matrix, -2)


def delta_plus(space: FockSpace, C) -> FockOperator:
    C = require_skew(_as_one_body(space, C, "C"), "C")
    return _quadratic(space, C, _creation_matrix, _creation_matrix, 2)


def verify_car(space: FockSpace, trials: int = 50, seed: int = 0) -> dict:
    worst = dict.fromkeys(CAR_TOL, 0.0)
    eye = np.eye(space.dim)
    for t in range(trials):
        rng = trial_rng(seed, t)
        f = unit_scaled(complex_vector(rng, space.m))[0]
        g = unit_scaled(complex_vector(rng, space.m))[0]
        af, ag = op_a(space, f), op_a(space, g)
        adf, adg = op_adag(space, f), op_adag(space, g)
        pairing = complex(np.sum(f * g))  # (fbar, g) with the antilinear-first inner product
        proj = adf @ op_a(space, f.conj())
        norm_f, norm_g = float(np.linalg.norm(f)), float(np.linalg.norm(g))
        res = {
            "anticommutator_aa": np.abs(anticommutator(af, ag)).max(),
            "anticommutator_adad": np.abs(anticommutator(adf, adg)).max(),
            "anticommutator_mixed": np.abs(anticommutator(af, adg) - pairing * eye).max(),
            "adjoint_relation": np.abs(
                af.matrix.conj().T - op_adag(space, f.conj()).matrix).max(),
            "projection_identity": np.abs(
                (proj @ proj).matrix - norm_f**2 * proj.matrix).max(),
            "norm_identity": abs(np.linalg.norm(af.matrix, 2) - norm_f),
        }
        scale = {"adjoint_relation": norm_f, "projection_identity": norm_f**4,
                 "norm_identity": norm_f}
        for key, val in res.items():
            worst[key] = max(worst[key], residual_ratio(val, scale.get(key, norm_f * norm_g)))
    return worst


def car_failures(residuals: dict) -> list[str]:
    """The CAR_TOL keys whose residual is not within its tolerance: the failing car/ rows."""
    return [key for key, tol in CAR_TOL.items() if not residuals[key] <= tol]


def check_commutator(space: FockSpace, A, C) -> float:
    # skew as given, and then brought to unit scale, as the package checks them
    A = unit_scaled(require_skew(_as_one_body(space, A, "A"), "A"))[0]
    C = unit_scaled(require_skew(_as_one_body(space, C, "C"), "C"))[0]
    da = _quadratic(space, A, _annihilation_matrix, _annihilation_matrix, -2)
    dpc = _quadratic(space, C, _creation_matrix, _creation_matrix, 2)
    comm = (da @ dpc).matrix - (dpc @ da).matrix
    target = -4.0 * d_gamma(space, C @ A).matrix \
        + 2.0 * np.trace(A @ C) * np.eye(space.dim)
    residual = float(np.abs(comm - target).max(initial=0.0))
    scale = float(np.abs(comm).max(initial=0.0) + np.abs(target).max(initial=0.0))
    return residual_ratio(residual, scale)


def run_verify_algebra(cfg: argparse.Namespace) -> list[dict]:
    space = make_space(cfg.m)
    worst = {"commutator": 0.0, "adjoint_dgamma": 0.0, "adjoint_delta": 0.0}
    grading_failures = 0
    for t in range(cfg.trials):
        rng = trial_rng(cfg.seed, t)
        B = complex_matrix(rng, cfg.m)
        A = skew_matrix(rng, cfg.m)
        C = skew_matrix(rng, cfg.m)
        worst["commutator"] = max(worst["commutator"], quadratics.check_commutator(space, A, C))
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
    tols = {"commutator": NORM_TOL, "adjoint_dgamma": 0.0, "adjoint_delta": 0.0}
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
    v = slater_state(space, []).amplitudes
    coeffs = [1.0]
    for _ in range(space.m // 2):
        v = dp @ v
        coeffs.append(float(np.real(np.vdot(v, v))))
    return np.array(coeffs)


def gaussian_state(space: FockSpace, C, z: complex) -> FockVector:
    dp = quadratics.delta_plus(space, C).matrix
    term = slater_state(space, []).amplitudes
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


def sector_keys(name: str, m: int) -> list[tuple[str, int]]:
    """(name, n) for every n from -|shift| to m + |shift|: the keys of fock's layout."""
    shift = abs(LADDERS[name][1])
    return [(name, n) for n in range(-shift, m + shift + 1)]


def walked_entries(space: FockSpace, name: str, coeffs, sector: int | None = None):
    """The bitmask walk over the nonzero coefficients alone, with no cache: the
    reference that a sector's `_gather`, its positions split into rows and
    columns, must equal entry for entry."""
    kinds, shift = LADDERS[name]
    coeffs = np.asarray(coeffs, dtype=complex)
    terms = np.nonzero(coeffs)
    if sector is None:
        cols, row0, nrows = space.masks, 0, space.dim
    else:
        c0, c1, row0, r1 = np.searchsorted(
            space.occupations, [sector, sector + 1, sector + shift, sector + shift + 1])
        cols, nrows = space.masks[c0:c1], r1 - row0
    masks = np.repeat(cols[None, :], terms[0].size, axis=0)
    alive = np.ones(masks.shape, dtype=bool)
    parity = np.zeros(masks.shape, dtype=np.int64)
    for kind, modes in zip(kinds[::-1], terms[::-1]):
        bit = (np.int64(1) << modes.astype(np.int64))[:, None]
        occupied = (masks & bit) != 0
        alive &= occupied if kind == "-" else ~occupied
        parity += np.bitwise_count(masks & (bit - 1))
        masks ^= bit
    term, col = np.nonzero(alive)
    return ((space.index_of[masks[term, col]] - row0, col),
            coeffs[terms][term] * (1 - 2 * (parity[term, col] & 1)), (nrows, cols.size))


def sector_block(space: FockSpace, name: str, coeffs, sector: int) -> np.ndarray:
    """The block of `name` from sector n = `sector`: the entries of walked_entries,
    the uncached walk, summed into a zero block in term order."""
    places, values, shape = walked_entries(space, name, coeffs, sector)
    block = np.zeros(shape, dtype=complex)
    np.add.at(block, places, values)
    return block


def sector_blocks(space: FockSpace, name: str, coeffs) -> dict[int, np.ndarray]:
    """sector_block of every key n of sector_keys, keyed by n."""
    return {n: sector_block(space, name, coeffs, n) for _, n in sector_keys(name, space.m)}


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


def pair_form(weights, m: int) -> np.ndarray:
    """The Youla normal form C0 on m modes: C0[2k, 2k + 1] = w_k = -C0[2k + 1, 2k].

    The first K = m // 2 weights fill the pairs (2k, 2k + 1); every other
    entry is 0.  At odd m the last mode is unpaired, so the unpaired value
    that `pair_weights` gives last is not read.
    """
    C0 = np.zeros((m, m), dtype=complex)
    k = np.arange(m // 2)
    C0[2 * k, 2 * k + 1] = np.asarray(weights)[: m // 2]
    C0[2 * k + 1, 2 * k] = -C0[2 * k, 2 * k + 1]
    return C0


# bits 0, 2, 4, ...: the first mode of every canonical pair (2k, 2k + 1)
_FIRST_OF_PAIR = np.int64(0x5555555555555555)


def kept(space: FockSpace, operator: str, n: int) -> np.ndarray:
    """Which states of sector n the kept blocks of `operator` keep, in basis order.

    dGamma keeps every state.  Delta and DeltaPlus keep the states where no
    pair (2k, 2k + 1) holds only its second mode; see kept_block.
    """
    lo, hi = np.searchsorted(space.occupations, [n, n + 1])
    masks = space.masks[lo:hi]
    if LADDERS[operator][1] == 0:
        return np.ones(masks.size, dtype=bool)
    return ((masks >> 1) & ~masks & _FIRST_OF_PAIR) == 0


def kept_block(space: FockSpace, operator: str, X, n: int) -> np.ndarray:
    """The block of sector n, from the bitmask walk of Q(X), whose Gram has the
    extremes of Q_n* Q_n.

    Delta and DeltaPlus take X in pair form, so Q(X) = sum_k 2 w_k times the
    removal (Delta) or creation (DeltaPlus) of both modes of pair k.  It
    leaves each singly occupied pair as it is, so Q_n splits into blocks, one
    for each set of singly occupied pairs and choice of the mode filled in
    each; blocks that differ only in the modes filled are equal entry for
    entry.  The block returned keeps the `kept` rows and columns, one copy of
    each distinct block: its Gram is block diagonal with the eigenvalues of
    Q_n* Q_n without their multiplicities, at dimension at most 51 at m = 10
    and 393 at m = 14.  dGamma keeps every state, so its block is
    ladder_matrix's.
    """
    shift = LADDERS[operator][1]
    positions, values, (_, width) = _gather(space, operator, X, n)
    rows, cols = np.divmod(positions, width)
    kept_rows, kept_cols = (kept(space, operator, k) for k in (n + shift, n))
    keep = kept_cols[cols]
    block = np.zeros((kept_rows.sum(), kept_cols.sum()), dtype=complex)
    np.add.at(block, ((np.cumsum(kept_rows) - 1)[rows[keep]],
                      (np.cumsum(kept_cols) - 1)[cols[keep]]), values[keep])
    return block


def kept_extremes(space: FockSpace, operator: str, X) -> np.ndarray:
    """(lambda_min, lambda_max, 0) of Q_n* Q_n for every sector n from the Gram of
    kept_block on its smaller side, by a dense eigvalsh.  A wide block has
    lambda_min = 0 exactly; an empty one gives zeros."""
    extremes = np.zeros((space.m + 1, 3))
    for n in range(space.m + 1):
        q = kept_block(space, operator, X, n)
        if q.size:
            wide = q.shape[0] < q.shape[1]
            gram = q @ q.conj().T if wide else q.conj().T @ q
            eigs = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
            extremes[n, :2] = (0.0 if wide else eigs[0]), eigs[-1]
    return extremes


def gram_argument(operator: str, X) -> np.ndarray:
    """The argument bounds._gram_extremes takes for X: X for dGamma, and for Delta
    and DeltaPlus the pair weights of X's singular values, as verify_bounds forms them."""
    if LADDERS[operator][1] == 0:
        return X
    return pair_weights(np.linalg.svd(X, compute_uv=False))


def kept_sizes(m: int) -> list[int]:
    """The number of states of each sector n = 0..m that a pair operator's kept
    block keeps: those where no pair (2k, 2k + 1) holds only its second mode.
    Each pair holds 0, 1 or 2 particles, and an odd m's last mode 0 or 1, so
    sector n keeps the coefficient of x^n in (1 + x + x^2)^(m // 2) (1 + x)^(m % 2)."""
    sizes = np.array([1])
    for factor in [[1, 1, 1]] * (m // 2) + [[1, 1]] * (m % 2):
        sizes = np.convolve(sizes, factor)
    return [int(size) for size in sizes]


def gram_dims(m: int, operator: str) -> list[int]:
    """The dimension of the Gram on the smaller side of each sector's block: the
    one dGamma's eigensolve runs on, and for a pair operator kept_block's.
    dGamma's block is C(m, n + shift) x C(m, n); a pair operator's kept block
    is kept_sizes(m)[n + shift] x kept_sizes(m)[n]."""
    shift = LADDERS[operator][1]
    sizes = [math.comb(m, n) for n in range(m + 1)] if shift == 0 else kept_sizes(m)
    return [min(sizes[n], sizes[n + shift]) if 0 <= n + shift <= m else 0
            for n in range(m + 1)]


# the rows of bounds.BOUNDS whose rhs(n) at r = 2 is |X|_2^2 times an integer
# polynomial in n, an integer for a Gaussian-integer X
EXACT_R2 = {
    "dGamma": lambda n: n,
    "Delta": lambda n: n + 1,
    "DeltaPlus": lambda n: n + 3,
    "improved_r2": lambda n: n + 2,
    "literature_Delta": lambda n: n * n,
    "literature_DeltaPlus": lambda n: (n + 2) ** 2,
}
_QUADRATICS = {"dGamma": d_gamma, "Delta": delta, "DeltaPlus": delta_plus}


def gaussian_integers(X) -> tuple[np.ndarray, np.ndarray]:
    """(Re X, Im X) as int64 arrays; X must have Gaussian-integer entries."""
    X = np.asarray(X)
    re, im = X.real.astype(np.int64), X.imag.astype(np.int64)
    if not np.array_equal(re + 1j * im, X):
        raise ValueError("entries are not all Gaussian integers")
    return re, im


def integer_grams(space: FockSpace, operator: str, X) -> list[tuple[np.ndarray, np.ndarray]]:
    """(Re, Im) of Q_n* Q_n for n = 0..m, as int64 arrays, Q = `operator` of the
    Gaussian-integer X built by this module's dense products.  Each entry of Q
    is a sum of at most m^2 entries of X with signs, exact in binary64, and the
    Gram Q_n* Q_n = R^T R + I^T I + i (R^T I - I^T R) of Q_n = R + i I is formed
    in integers."""
    re, im = gaussian_integers(_QUADRATICS[operator](space, X).matrix)
    grams = []
    for n in range(space.m + 1):
        cols = space.occupations == n
        r, i = re[:, cols], im[:, cols]
        grams.append((r.T @ r + i.T @ i, r.T @ i - i.T @ r))
    return grams


def psd_exactly(re: np.ndarray, im: np.ndarray) -> tuple[bool, bool]:
    """(psd, zero_pivot) of the Hermitian integer matrix re + i im, decided exactly.

    Symmetric elimination over fractions.Fraction on the real embedding
    [[re, -im], [im, re]], which is PSD iff the matrix is.  Each step pivots
    on the largest diagonal entry d of what is left: d < 0 is not PSD; d = 0
    is PSD only if all that is left is 0 (a zero pivot: the matrix is PSD and
    singular); d > 0 leaves its Schur complement, which is PSD iff what was
    left is.  A matrix that is not PSD reports no zero pivot."""
    a = np.array([[Fraction(int(v)) for v in row]
                  for row in np.block([[re, -im], [im, re]])], dtype=object)
    while a.size:
        k = max(range(len(a)), key=lambda j: a[j, j])
        pivot = a[k, k]
        if pivot <= 0:
            psd = pivot == 0 and all(v == 0 for v in a.flat)
            return psd, psd
        rest = np.arange(len(a)) != k
        a = a[np.ix_(rest, rest)] - np.outer(a[rest, k], a[k, rest]) / pivot
    return True, False


def exact_r2_decision(space: FockSpace, which: str, X,
                      lowered: int) -> list[tuple[bool, bool]]:
    """psd_exactly of rhs(n) I - Q_n* Q_n for every sector n, Q the operator of the
    bound `which` at r = 2 (a key of EXACT_R2) and rhs(n) = |X|_2^2
    EXACT_R2[which](n) - `lowered`, all in integers."""
    re, im = gaussian_integers(X)
    square = int((re * re + im * im).sum())
    decisions = []
    for n, (g_re, g_im) in enumerate(integer_grams(space, BOUNDS[which][0], X)):
        rhs = square * EXACT_R2[which](n) - lowered
        decisions.append(psd_exactly(rhs * np.eye(len(g_re), dtype=np.int64) - g_re, -g_im))
    return decisions


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


def sector_norm_diagonal(lam, n: int) -> float:
    """Sum of the n largest lam_j: the exact n-sector norm of d_gamma(diag lam)."""
    lam = np.asarray(lam, dtype=float)
    if not 0 <= n <= lam.size:
        raise ValueError(f"need 0 <= n <= {lam.size}, got {n}")
    if n == 0:
        return 0.0
    return float(np.sort(lam)[::-1][:n].sum())


def psd_matrix(rng: np.random.Generator, m: int) -> np.ndarray:
    a = complex_matrix(rng, m)
    return a.conj().T @ a
