"""Occupation-number representation of fermionic modes on a finite Fock space.

Modes are labelled 1..m.  Basis states are subsets S of {1..m}, encoded as
bitmasks (bit j-1 set iff mode j occupied) and ordered canonically by
(particle number, bitmask ascending).  a+_j and a_j carry the Jordan-Wigner
sign (-1)^{#occupied modes below j}, which makes the anticommutation
relations hold exactly.  Every operator is built straight from the bitmasks,
in particle-number sector blocks.  Which basis state a term sends where, and
with which sign, depends only on (m, operator), so `_ladder_pattern` walks
the bitmasks of every sector once per (m, operator) and process, checks the
walked rows against their blocks, and caches that coefficient-free layout
sector by sector.  A block (`ladder_matrix`) is one coefficient gather onto
its sector's layout (`_gather`) and one `np.add.at`; the identity checks
build their blocks link by link, holding only the links a later sector reads.
A whole-space operator (`ladder_operator`: `op_a`, `op_adag` and the
quadratics) is its sector blocks put in place, and a single mode's a_j is
`op_a` of the basis vector e_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .rng import complex_vector, trial_rng
from .tolerances import IDENTITY_TOL, NORM_TOL

MAX_MODES = 14


class ResourceError(Exception):
    """Requested problem size exceeds the desk-scale guard."""


class GradingError(AssertionError):
    """A built entry maps sector n somewhere other than n + the operator's shift."""


@dataclass(frozen=True, eq=False)
class FockSpace:
    """Fock space over C^m with the canonical (particle number, bitmask) basis.

    Only m is held; the basis arrays are built on first use, once per m and
    process, and only for m <= MAX_MODES (`_basis`).  The pair-operator bounds
    read m alone, so their spaces go past that guard (`bounds.bound_space`).
    """

    m: int

    @property
    def dim(self) -> int:
        return 2**self.m

    @property
    def masks(self) -> np.ndarray:  # basis index -> occupation bitmask
        return _basis(self.m)[0]

    @property
    def index_of(self) -> np.ndarray:  # occupation bitmask -> basis index
        return _basis(self.m)[1]

    @property
    def occupations(self) -> np.ndarray:  # basis index -> particle number
        return _basis(self.m)[2]


@dataclass(frozen=True, eq=False)
class FockOperator:
    """Dense operator on a Fock space, optionally tagged with a sector shift.

    `grading_shift = d` declares that the operator maps the n-particle sector
    into the (n+d)-particle sector; `None` means no declared grading.
    """

    space: FockSpace
    matrix: np.ndarray
    grading_shift: int | None = None

    def __matmul__(self, other):
        if isinstance(other, FockOperator):
            shift = None
            if self.grading_shift is not None and other.grading_shift is not None:
                shift = self.grading_shift + other.grading_shift
            return FockOperator(self.space, self.matrix @ other.matrix, shift)
        if isinstance(other, FockVector):
            return FockVector(self.space, self.matrix @ other.amplitudes)
        return NotImplemented


@dataclass(frozen=True, eq=False)
class FockVector:
    space: FockSpace
    amplitudes: np.ndarray


@lru_cache(maxsize=None)
def _basis(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(masks, index_of, occupations) of the canonical basis on m modes, read-only."""
    if m > MAX_MODES:
        raise ResourceError(f"the occupation basis on {m} modes has 2^{m} states; "
                            f"it is built for at most {MAX_MODES} modes")
    all_masks = np.arange(2**m, dtype=np.int64)
    order = np.lexsort((all_masks, np.bitwise_count(all_masks)))
    masks = all_masks[order]
    index_of = np.empty(2**m, dtype=np.int64)
    index_of[masks] = np.arange(2**m)
    occupations = np.bitwise_count(masks).astype(np.int64)
    for a in (masks, index_of, occupations):
        a.setflags(write=False)
    return masks, index_of, occupations


def mode_count(m) -> int:
    """m as an int; ValueError unless it is an integer >= 1.  `make_space` and
    `bounds.bound_space` check their m here."""
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"number of modes must be an integer >= 1, got {m!r}")
    return int(m)


def make_space(m: int) -> FockSpace:
    """Fock space over m modes; guarded to m <= MAX_MODES, as its basis is."""
    m = mode_count(m)
    if m > MAX_MODES:
        raise ResourceError(f"number of modes must be an integer in [1, {MAX_MODES}], got {m!r}")
    return FockSpace(m)


# name -> (factor kinds of each term, leftmost first, '+' for a+ and '-' for a;
#          particle-number shift)
LADDERS = {"creation": ("+", 1), "annihilation": ("-", -1), "dGamma": ("+-", 0),
           "Delta": ("--", -2), "DeltaPlus": ("++", 2)}


def _walk(m: int, name: str, sector: int):
    """The coefficient-free entries of `name` from sector n: (rows, cols, term, sign, shape).

    The bitmask walk of every one of the m^k index tuples, in term order
    (row-major over the coefficient array), as if every coefficient were 1,
    on the block from the n-particle to the (n + shift)-particle sector.
    Each term is applied to every bitmask of sector n at once, rightmost
    factor first; `term` is an entry's flat coefficient index and `sign` its
    Jordan-Wigner sign.
    """
    space = FockSpace(m)
    kinds, shift = LADDERS[name]
    # sectors are contiguous in the canonical order; out of range ones are empty
    c0, c1, row0, r1 = np.searchsorted(
        space.occupations, [sector, sector + 1, sector + shift, sector + shift + 1])
    shape = (int(r1 - row0), int(c1 - c0))
    if 0 in shape:  # an empty side has no entries
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, empty, shape
    terms = np.unravel_index(np.arange(m ** len(kinds)), (m,) * len(kinds))
    cols = space.masks[c0:c1]
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
    return space.index_of[masks[term, col]] - row0, col, term, 1 - 2 * (parity[term, col] & 1), shape


_NO_ENTRIES = (np.empty(0, np.int64), np.empty(0, np.int16), np.empty(0, np.int8), (0, 0))


@lru_cache(maxsize=None)
def _ladder_pattern(m: int, name: str) -> dict:
    """The coefficient-free layout of `name` on m modes: for every sector key n,
    (positions, terms, signs, shape) of its `_walk`.

    The keys run |shift| past 0..m on both sides.  Blocks there have an empty
    side, so a product of two blocks next to an edge sector is an exact zero
    block of the right shape instead of a wrapped-around index.  An entry's
    position is its flat place in its row-major block (int64), beside its
    flat term index (int16) and its sign (int8): 11 bytes per entry.  Each
    walked row is checked against its block once, here, before its position
    is formed: a target whose particle number is not n + shift raises
    GradingError, where a row of -1 would otherwise wrap into the block's
    last row.  Walked once per (m, name) and process, and shared by every
    caller, so the arrays are read-only.
    """
    shift = LADDERS[name][1]
    layout = {}
    for n in range(-abs(shift), m + abs(shift) + 1):
        rows, cols, terms, signs, shape = _walk(m, name, n)
        if rows.min(initial=0) < 0 or rows.max(initial=-1) >= shape[0]:
            raise GradingError(f"{name} entries leave the sector shift {shift}")
        # cast here, once the walk's temporaries are freed, so the cached
        # arrays do not pin the heap pages those leave
        arrays = rows * shape[1] + cols, terms.astype(np.int16), signs.astype(np.int8)
        for a in arrays:
            a.setflags(write=False)
        layout[n] = *arrays, shape
    return layout


def _gather(space: FockSpace, name: str, coeffs, sector: int):
    """(positions, values, shape) of sum_idx coeffs[idx] op_idx[0] ... op_idx[k-1]
    on the block from sector n = `sector` to n + shift: every entry of that
    sector's layout, valued coefficient * sign, so no operator matrix is ever
    multiplied; a sector outside the keys has an empty (0, 0) block.
    `positions` is the layout's read-only array.  Zero coefficients stay: each
    adds +-0 to a sum that starts at +0.0 and so is never -0.0, which leaves
    the sum bit for bit as it is, NaN and inf included.
    """
    kinds, _ = LADDERS[name]
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (space.m,) * len(kinds):
        raise ValueError(f"{name} needs {len(kinds)}-index coefficients over {space.m} modes")
    positions, terms, signs, shape = _ladder_pattern(space.m, name).get(sector, _NO_ENTRIES)
    values = coeffs.ravel()[terms]
    values *= signs
    return positions, values, shape


def ladder_matrix(space: FockSpace, name: str, coeffs, sector: int) -> np.ndarray:
    """The block of `name` with `coeffs` from the n-particle sector, n = `sector`,
    to the (n + shift)-particle sector: its `_gather` summed into a dense block
    in term order, as the sum is written."""
    if not isinstance(sector, (int, np.integer)):
        raise ValueError(f"sector must be an integer, got {sector!r}")
    positions, values, shape = _gather(space, name, coeffs, int(sector))
    out = np.zeros(shape, dtype=complex)
    np.add.at(out.reshape(-1), positions, values)
    return out


def ladder_operator(space: FockSpace, name: str, coeffs) -> FockOperator:
    """Every `ladder_matrix(..., sector=n)` block put in its place on the whole space,
    tagged with the shift of LADDERS[name].  Every other entry is exactly 0."""
    shift = LADDERS[name][1]
    starts = np.searchsorted(space.occupations, np.arange(space.m + 2))
    out = np.zeros((space.dim, space.dim), dtype=complex)
    for n in range(max(0, -shift), min(space.m, space.m - shift) + 1):
        out[starts[n + shift]:starts[n + shift + 1], starts[n]:starts[n + 1]] = \
            ladder_matrix(space, name, coeffs, sector=n)
    return FockOperator(space, out, shift)


def _check_vector(space: FockSpace, f) -> np.ndarray:
    f = np.asarray(f, dtype=complex)
    if f.shape != (space.m,):
        raise ValueError(f"one-body vector must have shape ({space.m},), got {f.shape}")
    return f


def op_a(space: FockSpace, f) -> FockOperator:
    """a(f) = sum_j f_j a_j; linear (not antilinear) in f."""
    return ladder_operator(space, "annihilation", _check_vector(space, f))


def op_adag(space: FockSpace, f) -> FockOperator:
    """a^dagger(f) = sum_j f_j a^dagger_j; its matrix is op_a(conj(f)).matrix.conj().T."""
    return ladder_operator(space, "creation", _check_vector(space, f))


def unit_scaled(x) -> tuple[np.ndarray, int]:
    """(2^-e x as a complex array, e) for the power of two that brings the largest
    real or imaginary part of x into [1/2, 1); (x, 0) if that part is 0 or not
    finite.  The scaling is exact unless an entry leaves the normal range, and
    the result is the same for x and for any 2^k x that is exact: the
    identity checks form every residual of unit-scale inputs, where nothing
    under- or overflows, and divide it by the same power of their sizes."""
    parts = np.ascontiguousarray(x, dtype=complex).view(np.float64)
    exponent = math.frexp(float(np.abs(parts).max(initial=0.0)))[1]
    return np.ldexp(parts, -exponent).view(complex), exponent


def residual_ratio(residual, scale) -> float:
    """residual / scale for a residual and a scale >= 0.  0/0 reads as 0 (zero
    inputs have a zero residual) and x/0 as inf; a NaN on either side, or an
    infinite scale, which would hide any residual, gives NaN."""
    if scale == 0.0:
        return math.inf if residual > 0.0 else float(residual)
    return float(residual / scale) if scale < math.inf else math.nan


# CAR residual -> base tolerance; verify_car divides each residual by its scale.
# The adjoint residual is exactly 0: each entry of a(f)[n] and of a+(fbar)[n - 1]
# is one coefficient times the same Jordan-Wigner sign, and conjugation is exact.
CAR_TOL = {"anticommutator_aa": IDENTITY_TOL, "anticommutator_adad": IDENTITY_TOL,
           "anticommutator_mixed": IDENTITY_TOL, "adjoint_relation": 0.0,
           "projection_identity": IDENTITY_TOL, "norm_identity": NORM_TOL}


def _norm_bound(rho, c: float, phi: float) -> float:
    """A bound on | |a(f)|_2 - phi | from rho = max_n |R_n|_F and c = |a(f)[m]|,
    with no eigensolve; NaN if either is not finite.

    R_n = b b* b - phi^2 b is U (S^3 - phi^2 S) V* for each block b = a(f)[n]
    = U S V*, so each singular value s of a(f) obeys |s^3 - phi^2 s| <= rho.
    |a(f)|_2 is the largest s, and c, the norm of a(f) on the filled state, is
    at most |a(f)|_2.  If c > 0, s (s - phi)(s + phi) <= rho at s >= c gives
    |s - phi| <= rho / (c (c + phi)); if c = 0, then s <= phi or (s - phi)^3 <=
    rho, and the bound is max(rho^(1/3), phi).  Exact for the blocks as built,
    up to the rounding of the products and norms that form rho and c.
    """
    if not math.isfinite(rho + c):
        return math.nan
    return float(rho / (c * (c + phi))) if c > 0.0 else max(float(rho) ** (1 / 3), phi)


def _link_residuals(prev, link, pairing: complex, phi: float):
    """(CAR_TOL key, value) of each CAR residual on links k - 1 (`prev`) and k (`link`),
    reduced as it is formed: to its largest entry, or to |R_k|_F (`_norm_bound`)."""
    (af0, ag0, _), (adf0, adg0, _) = prev
    (af, ag, afbar), (adf, adg, adfbar) = link
    yield "anticommutator_aa", np.abs(af0 @ ag + ag0 @ af).max(initial=0.0)  # sector k
    yield "anticommutator_adad", np.abs(adf @ adg0 + adg @ adf0).max(initial=0.0)  # k - 2
    yield "adjoint_relation", np.abs(af.conj().T - adfbar).max(initial=0.0)  # k
    r = af @ adg  # {a(f), a+(g)} on sector k - 1
    r += adg0 @ af0
    r.reshape(-1)[::len(r) + 1] -= pairing  # on the diagonal
    yield "anticommutator_mixed", np.abs(r).max(initial=0.0)
    r = adf @ afbar  # the projection a+(f) a(fbar) on sector k
    yield "projection_identity", np.abs(r @ r - phi**2 * r).max(initial=0.0)
    r = (af @ af.conj().T) @ af if af.shape[0] <= af.shape[1] else af @ (af.conj().T @ af)
    yield "norm_identity", np.linalg.norm(r - phi**2 * af)


def verify_car(space: FockSpace, trials: int = 50, seed: int = 0) -> dict:
    """Worst scaled CAR residuals, by CAR_TOL key, on seeded random pairs (f, g), by sector.

    Residuals: {a(f),a(g)}, {a+(f),a+(g)}, {a(f),a+(g)} - (fbar,g)Id,
    a(f)* - a+(fbar), the projection identity for a+(f)a(fbar), and the
    spectral-norm identity |a(f)| = |f|.  Each residual is homogeneous in f
    and g, and is divided by the same power of their sizes: |f||g| for the
    three anticommutators, |f| for the adjoint relation and the norm
    identity, |f|^4 for the projection identity, whose terms are of size
    |f|^4.  So the ratio is free of the scale of f and g.  f and g are first
    brought to unit scale by powers of two (`unit_scaled`), which changes no
    ratio, so each row is bit for bit the same under (f, g) -> 2^k (f, g),
    and no product under- or overflows.  0/0 reads as 0, so f = 0 passes,
    and x/0 as inf (`residual_ratio`).

    A product maps sector n through n +- 1, and all other entries of the
    whole-space residual vanish exactly, so the blocks are built upward and
    two links are held at a time, link k being a(h) from sector k and a+(h)
    from k - 1.  The norm row is `_norm_bound` over |f|, from the blocks with
    no SVD: at least the residual of the computed spectral norm, to rounding.
    """
    if trials < 1:
        raise ValueError(f"verify_car needs trials >= 1, got {trials!r}")
    worst = dict.fromkeys(CAR_TOL, 0.0)
    for t in range(trials):
        rng = trial_rng(seed, t)
        f = unit_scaled(complex_vector(rng, space.m))[0]
        g = unit_scaled(complex_vector(rng, space.m))[0]
        pairing = complex(np.sum(f * g))  # (fbar, g) with the antilinear-first inner product
        norm_f, norm_g = float(np.linalg.norm(f)), float(np.linalg.norm(g))
        res = dict.fromkeys(CAR_TOL, 0.0)
        cur = [[np.zeros((0, 0), dtype=complex)] * 3] * 2  # link -1: every block is empty
        for k in range(space.m + 2):
            prev = cur  # drops link k - 2
            cur = [[ladder_matrix(space, name, h, k - d) for h in (f, g, f.conj())]
                   for name, d in (("annihilation", 0), ("creation", 1))]
            for key, value in _link_residuals(prev, cur, pairing, norm_f):
                # np.maximum keeps a NaN that the builtin max would drop
                res[key] = np.maximum(res[key], value)
        c = float(np.linalg.norm(prev[0][0]))  # prev is link m, and this a(f)[m]
        res["norm_identity"] = _norm_bound(res["norm_identity"], c, norm_f)
        scale = {"adjoint_relation": norm_f, "projection_identity": norm_f**4,
                 "norm_identity": norm_f}
        for key, val in res.items():
            ratio = residual_ratio(val, scale.get(key, norm_f * norm_g))
            worst[key] = float(np.maximum(worst[key], ratio))
    return worst
