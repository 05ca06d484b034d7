"""Occupation-number representation of fermionic modes on a finite Fock space.

Modes are labelled 1..m.  Basis states are subsets S of {1..m}, encoded as
bitmasks (bit j-1 set iff mode j occupied) and ordered canonically by
(particle number, bitmask ascending).  a+_j and a_j carry the Jordan-Wigner
sign (-1)^{#occupied modes below j}, which makes the anticommutation
relations hold exactly.  `ladder_matrix` builds every operator straight from
the bitmasks, in full or one particle-number sector block at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .rng import complex_vector, trial_rng
from .tolerances import IDENTITY_TOL, NORM_TOL

MAX_MODES = 14


class ResourceError(Exception):
    """Requested problem size exceeds the desk-scale guard."""


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

    def dagger(self) -> "FockOperator":
        shift = None if self.grading_shift is None else -self.grading_shift
        return FockOperator(self.space, self.matrix.conj().T, shift)

    def __matmul__(self, other):
        if isinstance(other, FockOperator):
            shift = None
            if self.grading_shift is not None and other.grading_shift is not None:
                shift = self.grading_shift + other.grading_shift
            return FockOperator(self.space, self.matrix @ other.matrix, shift)
        if isinstance(other, FockVector):
            return FockVector(self.space, self.matrix @ other.amplitudes)
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, FockOperator):
            return NotImplemented
        shift = self.grading_shift if self.grading_shift == other.grading_shift else None
        return FockOperator(self.space, self.matrix + other.matrix, shift)

    def __sub__(self, other):
        if not isinstance(other, FockOperator):
            return NotImplemented
        shift = self.grading_shift if self.grading_shift == other.grading_shift else None
        return FockOperator(self.space, self.matrix - other.matrix, shift)

    def __mul__(self, scalar):
        return FockOperator(self.space, scalar * self.matrix, self.grading_shift)

    __rmul__ = __mul__

    def __neg__(self):
        return FockOperator(self.space, -self.matrix, self.grading_shift)


@dataclass(frozen=True, eq=False)
class FockVector:
    space: FockSpace
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def inner(self, other: "FockVector") -> complex:
        """(self, other), antilinear in self."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def anticommutator(x: FockOperator, y: FockOperator) -> FockOperator:
    return x @ y + y @ x


def commutator(x: FockOperator, y: FockOperator) -> FockOperator:
    return x @ y - y @ x


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


def ladder_entries(space: FockSpace, name: str, coeffs, sector: int | None = None):
    """Entries ((rows, cols), values, shape) of sum_idx coeffs[idx] op_idx[0] ... op_idx[k-1].

    Each term is applied to every basis bitmask at once, rightmost factor
    first, so no operator matrix is ever multiplied.  With `sector=n` only
    the block from the n-particle sector to the (n + shift)-particle sector
    is built.  A position recurs once for each term that reaches it.
    """
    kinds, shift = LADDERS[name]
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (space.m,) * len(kinds):
        raise ValueError(f"{name} needs {len(kinds)}-index coefficients over {space.m} modes")
    terms = np.nonzero(coeffs)
    if sector is None:
        cols, row0, nrows = space.masks, 0, space.dim
    else:  # sectors are contiguous in the canonical order; out of range ones empty
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


def ladder_matrix(space: FockSpace, name: str, coeffs,
                  sector: int | None = None) -> np.ndarray:
    """The `ladder_entries` summed into a dense matrix in term order, as the sum is written."""
    positions, values, shape = ladder_entries(space, name, coeffs, sector)
    out = np.zeros(shape, dtype=complex)
    np.add.at(out, positions, values)
    return out


def sector_blocks(space: FockSpace, name: str, coeffs) -> dict[int, np.ndarray]:
    """`ladder_matrix(space, name, coeffs, sector=n)` keyed by the sector n it maps from.

    The keys run |shift| past 0..m on both sides.  Blocks there have an empty
    side, so a product of two blocks next to an edge sector is an exact zero
    block of the right shape instead of a wrapped-around index.
    """
    pad = abs(LADDERS[name][1])
    return {n: ladder_matrix(space, name, coeffs, sector=n)
            for n in range(-pad, space.m + pad + 1)}


def ladder_operator(space: FockSpace, name: str, coeffs) -> FockOperator:
    """`ladder_matrix` on the whole space, tagged with the shift of LADDERS[name]."""
    return FockOperator(space, ladder_matrix(space, name, coeffs), LADDERS[name][1])


def creation(space: FockSpace, j: int) -> FockOperator:
    """a^dagger_j on the occupation basis, Jordan-Wigner signs over modes below j."""
    _check_mode(space, j)
    return ladder_operator(space, "creation", np.eye(space.m)[j - 1])


def annihilation(space: FockSpace, j: int) -> FockOperator:
    """a_j, the adjoint of creation(space, j)."""
    _check_mode(space, j)
    return ladder_operator(space, "annihilation", np.eye(space.m)[j - 1])


def _check_vector(space: FockSpace, f) -> np.ndarray:
    f = np.asarray(f, dtype=complex)
    if f.shape != (space.m,):
        raise ValueError(f"one-body vector must have shape ({space.m},), got {f.shape}")
    return f


def op_a(space: FockSpace, f) -> FockOperator:
    """a(f) = sum_j f_j a_j; linear (not antilinear) in f."""
    return ladder_operator(space, "annihilation", _check_vector(space, f))


def op_adag(space: FockSpace, f) -> FockOperator:
    """a^dagger(f) = sum_j f_j a^dagger_j; satisfies op_a(f).dagger() == op_adag(conj(f))."""
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

    m: int
    trials: int
    seed: int
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
                res[key] = max(res[key], np.abs(block).max(initial=0.0))
        res["norm_identity"] = abs(
            max(np.linalg.norm(af[n], 2) for n in range(1, space.m + 1)) - norm_f)
        scale = 1.0 + norm_f * norm_g
        for key, val in res.items():
            key_scale = 1.0 + norm_f if key == "norm_identity" else scale
            worst[key] = max(worst[key], float(val / key_scale))
    return CarReport(m=space.m, trials=trials, seed=seed, residuals=worst,
                     passed=all(worst[key] <= tol for key, tol in CAR_TOL.items()))
