"""Occupation-number representation of fermionic modes on a finite Fock space.

Modes are labelled 1..m.  Basis states are subsets S of {1..m}, encoded as
bitmasks (bit j-1 set iff mode j occupied) and ordered canonically by
(particle number, bitmask ascending).  a+_j and a_j carry the Jordan-Wigner
sign (-1)^{#occupied modes below j}, which makes the anticommutation
relations hold exactly.  `ladder_matrix` builds every operator straight from
the bitmasks, one particle-number sector block at a time; a whole-space
operator (`ladder_operator`: `op_a`, `op_adag` and the quadratics) is its
sector blocks put in place, and a single mode's a_j is `op_a` of the basis
vector e_j.  Which basis state a term sends where, and with which sign,
depends only on (m, operator, sector), so `_ladder_pattern` walks the
bitmasks once per key and process and caches that coefficient-free pattern;
`ladder_entries`, its one reader, checks the walked rows and gathers each
build's coefficients onto it.
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
    """Fock space over C^m with the canonical (particle number, bitmask) basis."""

    m: int
    dim: int
    masks: np.ndarray        # basis index -> occupation bitmask
    index_of: np.ndarray     # occupation bitmask -> basis index
    occupations: np.ndarray  # basis index -> particle number


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
def _space(m: int) -> FockSpace:
    all_masks = np.arange(2**m, dtype=np.int64)
    order = np.lexsort((all_masks, np.bitwise_count(all_masks)))
    masks = all_masks[order]
    index_of = np.empty(2**m, dtype=np.int64)
    index_of[masks] = np.arange(2**m)
    occupations = np.bitwise_count(masks).astype(np.int64)
    for a in (masks, index_of, occupations):
        a.setflags(write=False)
    return FockSpace(m=m, dim=2**m, masks=masks, index_of=index_of,
                     occupations=occupations)


def make_space(m: int) -> FockSpace:
    """Fock space over m modes; guarded to m <= 14."""
    if not isinstance(m, (int, np.integer)) or not 1 <= m <= MAX_MODES:
        raise ResourceError(f"number of modes must be an integer in [1, {MAX_MODES}], got {m!r}")
    return _space(int(m))


def _check_mode(space: FockSpace, j: int) -> None:
    if not 1 <= j <= space.m:
        raise ValueError(f"mode index {j} out of range [1, {space.m}]")


# name -> (factor kinds of each term, leftmost first, '+' for a+ and '-' for a;
#          particle-number shift)
LADDERS = {"creation": ("+", 1), "annihilation": ("-", -1), "dGamma": ("+-", 0),
           "Delta": ("--", -2), "DeltaPlus": ("++", 2)}


@lru_cache(maxsize=None)
def _ladder_pattern(m: int, name: str, sector: int):
    """The coefficient-free entries of `name` from sector n: (rows, cols, term, sign, shape).

    The bitmask walk of every one of the m^k index tuples, in term order
    (row-major over the coefficient array), as if every coefficient were 1,
    on the block from the n-particle to the (n + shift)-particle sector.
    Each term is applied to every bitmask of sector n at once, rightmost
    factor first; `term` is an entry's flat coefficient index and `sign` its
    Jordan-Wigner sign.  The arrays are read-only and take 11 bytes per entry
    (int32 rows and cols, int16 term, int8 sign), as every caller in the
    process shares them.
    """
    space = _space(m)
    kinds, shift = LADDERS[name]
    terms = np.unravel_index(np.arange(m ** len(kinds)), (m,) * len(kinds))
    # sectors are contiguous in the canonical order; out of range ones are empty
    c0, c1, row0, r1 = np.searchsorted(
        space.occupations, [sector, sector + 1, sector + shift, sector + shift + 1])
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
    pattern = ((space.index_of[masks[term, col]] - row0).astype(np.int32),
               col.astype(np.int32), term.astype(np.int16),
               (1 - 2 * (parity[term, col] & 1)).astype(np.int8))
    for a in pattern:
        a.setflags(write=False)
    return *pattern, (r1 - row0, cols.size)


def ladder_entries(space: FockSpace, name: str, coeffs, sector: int):
    """Entries ((rows, cols), values, shape) of sum_idx coeffs[idx] op_idx[0] ... op_idx[k-1]
    from the n-particle sector, n = `sector`, to the (n + shift)-particle sector.

    The entries of `_ladder_pattern(space.m, name, sector)` whose coefficient
    is nonzero, each with value coefficient * sign, so no operator matrix is
    ever multiplied.  A position recurs once for each term that reaches it,
    in term order.  A walked row outside the block (a target whose particle
    number is not n + shift, which `np.add.at` would wrap) raises
    GradingError.  The returned arrays are fresh; the cached pattern is never
    handed out.
    """
    kinds, shift = LADDERS[name]
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (space.m,) * len(kinds):
        raise ValueError(f"{name} needs {len(kinds)}-index coefficients over {space.m} modes")
    if not isinstance(sector, (int, np.integer)):
        raise ValueError(f"sector must be an integer, got {sector!r}")
    rows, cols, term, sign, shape = _ladder_pattern(space.m, name, int(sector))
    if rows.min(initial=0) < 0 or rows.max(initial=-1) >= shape[0]:
        raise GradingError(f"{name} entries leave the sector shift {shift}")
    c = coeffs.ravel()[term]
    keep = c != 0  # as np.nonzero(coeffs): drops -0.0, keeps NaN
    c = c[keep]
    c *= sign[keep]
    return (rows[keep], cols[keep]), c, shape


def ladder_matrix(space: FockSpace, name: str, coeffs, sector: int) -> np.ndarray:
    """The `ladder_entries` summed into a dense block in term order, as the sum is written."""
    (rows, cols), values, shape = ladder_entries(space, name, coeffs, sector)
    out = np.zeros(shape, dtype=complex)
    np.add.at(out, (rows, cols), values)
    return out


def sector_blocks(space: FockSpace, name: str, coeffs) -> dict[int, np.ndarray]:
    """`ladder_matrix(space, name, coeffs, sector=n)` keyed by the sector n it maps from.

    The keys run |shift| past 0..m on both sides.  Blocks there have an empty
    side, so a product of two blocks next to an edge sector is an exact zero
    block of the right shape instead of a wrapped-around index.  Every block
    is held at once; the checks that need one sector at a time build it
    themselves: the bound checks from `ladder_entries` (`bounds._sector_block`),
    the Gaussian pair powers with `ladder_matrix(..., sector=n)`.
    """
    shift = abs(LADDERS[name][1])
    return {n: ladder_matrix(space, name, coeffs, sector=n)
            for n in range(-shift, space.m + shift + 1)}


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


def vacuum(space: FockSpace) -> FockVector:
    amp = np.zeros(space.dim, dtype=complex)
    amp[0] = 1.0
    return FockVector(space, amp)


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


# CAR residual -> base tolerance; verify_car divides each residual by its scale
CAR_TOL = {"anticommutator_aa": IDENTITY_TOL, "anticommutator_adad": IDENTITY_TOL,
           "anticommutator_mixed": IDENTITY_TOL, "adjoint_relation": IDENTITY_TOL,
           "projection_identity": IDENTITY_TOL, "norm_identity": NORM_TOL}


@dataclass(frozen=True)
class CarReport:
    """Worst scaled residuals of the anticommutation-relation suite over all trials."""

    residuals: dict
    passed: bool  # every residual within its CAR_TOL


def verify_car(space: FockSpace, trials: int = 50, seed: int = 0) -> CarReport:
    """Check the CAR identities on seeded random pairs (f, g), sector by sector.

    Residuals: {a(f),a(g)}, {a+(f),a+(g)}, {a(f),a+(g)} - (fbar,g)Id,
    a(f)* - a+(fbar), the projection identity for a+(f)a(fbar), and the
    spectral-norm identity |a(f)| = |f|.  Each is divided by its scale, 1 + |f||g|
    (1 + |f| for the norm identity), and its worst over trials kept.

    Every operator is used as its `sector_blocks`; a product maps sector n
    through n +- 1, and all other entries of the whole-space residual vanish
    exactly.  |a(f)| is the largest block norm, since the singular values of
    an operator that shifts particle number are those of its blocks together.
    """
    if trials < 1:
        raise ValueError(f"verify_car needs trials >= 1, got {trials!r}")
    worst = dict.fromkeys(CAR_TOL, 0.0)
    for t in range(trials):
        rng = trial_rng(seed, t)
        f = complex_vector(rng, space.m)
        g = complex_vector(rng, space.m)
        af, ag, afbar = (sector_blocks(space, "annihilation", h) for h in (f, g, f.conj()))
        adf, adg, adfbar = (sector_blocks(space, "creation", h) for h in (f, g, f.conj()))
        pairing = complex(np.sum(f * g))  # (fbar, g) with the antilinear-first inner product
        norm_f, norm_g = np.linalg.norm(f), np.linalg.norm(g)
        res = dict.fromkeys(CAR_TOL, 0.0)
        for n in range(space.m + 1):
            proj = adf[n - 1] @ afbar[n]
            sector = {
                "anticommutator_aa": af[n - 1] @ ag[n] + ag[n - 1] @ af[n],
                "anticommutator_adad": adf[n + 1] @ adg[n] + adg[n + 1] @ adf[n],
                "anticommutator_mixed":
                    af[n + 1] @ adg[n] + adg[n - 1] @ af[n] - pairing * np.eye(len(proj)),
                "adjoint_relation": af[n].conj().T - adfbar[n - 1],
                "projection_identity": proj @ proj - float(norm_f)**2 * proj,
            }
            for key, block in sector.items():
                # np.maximum keeps a NaN that the builtin max would drop
                res[key] = np.maximum(res[key], np.abs(block).max(initial=0.0))
        # a non-finite block has no SVD; its norm is NaN, which fails the row
        res["norm_identity"] = abs(np.max([
            np.linalg.norm(af[n], 2) if np.isfinite(af[n]).all() else math.nan
            for n in range(1, space.m + 1)]) - norm_f)
        scale = 1.0 + norm_f * norm_g
        for key, val in res.items():
            key_scale = 1.0 + norm_f if key == "norm_identity" else scale
            # an infinite scale would hide any residual, so the ratio is unknown
            ratio = val / key_scale if key_scale < math.inf else math.nan
            worst[key] = float(np.maximum(worst[key], ratio))
    return CarReport(residuals=worst,
                     passed=all(worst[key] <= tol for key, tol in CAR_TOL.items()))
