"""The Lanczos-and-Cholesky sector extremes of bounds._gram_extremes, at the
mode counts where the whole-space oracle in jw_oracle.py cannot go: closed
forms, covariance, the dense fallback and the tolerance."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fockbound as fb
import jw_oracle as jw
from fockbound import bounds, fock
from fockbound.bounds import _LANCZOS_STEPS, _gram_extremes
from fockbound.rng import complex_matrix, skew_matrix, trial_rng, unitary_matrix
from fockbound.tolerances import UNIT_ROUNDOFF

SPECS = {
    "dGamma": [fb.BoundSpec("dGamma", r) for r in (1, 4 / 3, 2, math.inf)]
    + [fb.BoundSpec("literature_dGamma", math.inf)],
    "Delta": [fb.BoundSpec("Delta", r) for r in (1, 1.5, 2)]
    + [fb.BoundSpec("literature_Delta", 2)],
    "DeltaPlus": [fb.BoundSpec("DeltaPlus", r) for r in (1, 1.5, 2)]
    + [fb.BoundSpec("literature_DeltaPlus", 2), fb.BoundSpec("improved_r2", 2)],
}


def rhs_table(specs, X, m):
    """rhs[i, n]: specs[i]'s right-hand side on sector n, from the norms of X."""
    norms = {"2": fb.schatten_norm(X, 2), "inf": fb.schatten_norm(X, math.inf)}
    return np.array([bounds._profile(spec, {**norms, "r": fb.schatten_norm(X, spec.r)},
                                     np.arange(m + 1)) for spec in specs])


def draw(operator, rng, m):
    return complex_matrix(rng, m) if operator == "dGamma" else skew_matrix(rng, m)


@pytest.fixture
def dense(monkeypatch):
    """The extremes with every sector on the dense eigvalsh, as before the Lanczos path."""
    def extremes(space, operator, X):
        with monkeypatch.context() as patch:
            patch.setattr(bounds, "_LANCZOS_STEPS", math.inf)
            return _gram_extremes(space, operator, X)
    return extremes


@pytest.fixture
def large_eigensolves(monkeypatch):
    """Shapes of the eigvalsh calls on a Gram above the Lanczos step cap (fallbacks)."""
    shapes, solve = [], np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        if a.shape[0] > _LANCZOS_STEPS:
            shapes.append(a.shape)
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return shapes


@pytest.fixture
def lanczos_steps(monkeypatch):
    """(steps, steps at 4u) of every bounds._lanczos call: the order of its last
    tridiagonal, under its own stop and under a stop when theta_max moves by
    at most 4u theta_max, which is c / 4 for a shift c = 16 u |theta_max|."""
    found, lanczos, solve = [], bounds._lanczos, np.linalg.eigvalsh

    def run(gram, shift):
        sizes = []

        def counting(a, *args, **kwargs):
            sizes.append(len(a))
            return solve(a, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", counting)
            patch.setattr(bounds, "_certificate_shift", shift)
            return lanczos(gram), sizes[-1]

    def recording(gram):
        ritz, steps = run(gram, bounds._certificate_shift)
        found.append((steps, run(gram, lambda g, theta: 16.0 * UNIT_ROUNDOFF * abs(theta))[1]))
        return ritz

    monkeypatch.setattr(bounds, "_lanczos", recording)
    return found


def assert_tops(extremes, expected):
    np.testing.assert_allclose(extremes[:, 1], expected, rtol=1e-12, atol=0.0)


def real_gram(q):
    """q* q as the sector Grams form it: S + i (K - K^T), S = P^T P with
    P = [Re q; Im q] and K = (Re q)^T Im q."""
    stacked = np.concatenate((q.real, q.imag))
    skew = stacked[:len(q)].T @ stacked[len(q):]
    gram = (stacked.T @ stacked).astype(complex)
    gram.imag = skew - skew.T
    return gram


@pytest.mark.parametrize("m", range(1, 9))
def test_dgamma_sector_block_is_the_ladder_matrix_bit_for_bit(m, monkeypatch):
    # each dGamma sector solves the Gram of the whole sector block that
    # fock.ladder_matrix builds, read once through the module: its extremes are
    # those of that block's real-arithmetic Gram bit for bit
    space, ladder_matrix, built = fb.make_space(m), fock.ladder_matrix, []

    def recording(*args, **kwargs):
        built.append((args, kwargs))
        return ladder_matrix(*args, **kwargs)

    monkeypatch.setattr(fock, "ladder_matrix", recording)
    for seed in (0, 1, 2):
        B = complex_matrix(trial_rng(97, seed, m), m)
        for n in range(m + 1):
            built.clear()
            extremes = bounds._sector_extremes(space, B, n, certify=False)
            assert built == [((space, "dGamma", B), {"sector": n})]
            eigs = np.linalg.eigvalsh(real_gram(ladder_matrix(space, "dGamma", B, sector=n)))
            assert np.array(extremes).tobytes() == np.array([eigs[0], eigs[-1], 0.0]).tobytes()


@pytest.mark.parametrize("m", range(1, 11))
def test_dgamma_gram_is_exactly_hermitian(m, monkeypatch):
    # the Gram that each sector solves equals its conjugate transpose exactly,
    # as the Cholesky certificate assumes, and lies within 1e-15 max|G| of the
    # symmetrised complex product (q* q + (q* q)^H) / 2
    space, solve, grams = fb.make_space(m), np.linalg.eigvalsh, []

    def recording(a, *args, **kwargs):
        grams.append(a.copy())
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    for seed in (0, 1):
        B = complex_matrix(trial_rng(98, seed, m), m)
        for n in range(m + 1):
            grams.clear()
            bounds._sector_extremes(space, B, n, certify=False)
            [gram] = grams
            assert gram.real.tobytes() == gram.real.T.copy().tobytes()
            assert np.array_equal(gram, gram.conj().T)
            q = fock.ladder_matrix(space, "dGamma", B, sector=n)
            product = q.conj().T @ q
            old = (product + product.conj().T) * 0.5
            assert np.abs(gram - old).max() <= 1e-15 * np.abs(gram).max()


def assert_block_entry_rejected(monkeypatch, value):
    """A dGamma sector block with `value` in one entry raises ValueError, with
    certify on and off, before any eigensolve; under the suite's
    warnings-as-errors a RuntimeWarning from the Gram products fails it too."""
    m, n = 9, 4
    space, B = fb.make_space(m), complex_matrix(trial_rng(99, m), m)
    block = fock.ladder_matrix(space, "dGamma", B, sector=n)
    block[3, 5] = value

    def must_not_solve(*args, **kwargs):
        raise AssertionError("an eigensolve ran on a non-finite Gram")

    monkeypatch.setattr(fock, "ladder_matrix", lambda *args, **kwargs: block.copy())
    for name in ("eigvalsh", "cholesky"):
        monkeypatch.setattr(np.linalg, name, must_not_solve)
    monkeypatch.setattr(bounds, "_lanczos", must_not_solve)
    for certify in (False, True):
        with pytest.raises(ValueError, match="not finite"):
            bounds._sector_extremes(space, B, n, certify)


def test_nan_sector_block_raises_before_any_eigensolve(monkeypatch):
    # the Gram takes no self-adjointness test, as it is Hermitian by
    # construction; a NaN in the block still stops at the finiteness test
    assert_block_entry_rejected(monkeypatch, math.nan)


def test_inf_sector_block_raises_before_the_gram_products(monkeypatch):
    # an inf times a 0 in the real products would warn before a test on the
    # Gram could raise, so the test runs on the block's real stack; an inf in
    # the real part and one in the imaginary part each stop there
    for value in (math.inf, complex(0.0, -math.inf)):
        with monkeypatch.context() as patch:
            assert_block_entry_rejected(patch, value)


@pytest.mark.parametrize("m", [10, 11, 12])
def test_hermitian_dgamma_top_is_the_subset_sum_square(m, large_eigensolves):
    # dGamma(B) on sector n has the n-subset sums of B's eigenvalues as its
    # eigenvalues, so lambda_max(Q_n* Q_n) = max(top-n sum, |bottom-n sum|)^2
    x = complex_matrix(trial_rng(71, m), m)
    B = (x + x.conj().T) / 2
    eigs = np.sort(np.linalg.eigvalsh(B))
    top = np.concatenate(([0.0], np.cumsum(eigs[::-1])))
    bottom = np.concatenate(([0.0], np.cumsum(eigs)))
    expected = np.maximum(top, np.abs(bottom))**2
    assert_tops(_gram_extremes(fb.make_space(m), "dGamma", B), expected)
    assert large_eigensolves == []


def flat_pairs(m, weight):
    """weight on each canonical pair (2p, 2p + 1); an odd m leaves its last mode unpaired."""
    return jw.pair_form(np.full(m // 2, weight), m)


def flat_pair_tops(m, weight, operator):
    """lambda_max(Q_n* Q_n) for flat canonical pairs, from the Johnson-graph spectrum.

    Q is 2 weight times the pair lowering (Delta) or raising (DeltaPlus)
    operator over L = m // 2 pair levels.  On k pairs and v singly filled
    levels, Delta* Delta is 4 |weight|^2 k (L - v - k + 1) and
    DeltaPlus* DeltaPlus is 4 |weight|^2 (k + 1)(L - v - k); both grow with k
    at fixed n, so the top takes k = n'//2, v = n' % 2, where n' = n or
    n - 1 is the filling of the pair levels (an odd m's spare mode holds
    the rest).
    """
    levels, tops = m // 2, []
    for n in range(m + 1):
        best = 0.0
        for filled in {n, n - m % 2} if m % 2 else {n}:
            if not 0 <= filled <= 2 * levels:
                continue
            k, v = filled // 2, filled % 2
            value = k * (levels - v - k + 1) if operator == "Delta" else \
                (k + 1) * (levels - v - k)
            best = max(best, value)
        tops.append(4 * abs(weight)**2 * best)
    return np.array(tops, dtype=float)


@pytest.mark.parametrize("operator", ["Delta", "DeltaPlus"])
@pytest.mark.parametrize("m", [10, 11, 12, 13, 14, 16, 18, 20])
def test_flat_pairs_top_is_the_johnson_graph_formula(m, operator):
    # past m = 14 too, where the space of a pair bound builds no basis; every
    # sector's ends are exact, with width 0
    weight = 0.8 - 0.6j
    extremes = _gram_extremes(bounds.bound_space(m, operator), operator,
                              np.full(m // 2, weight))
    assert_tops(extremes, flat_pair_tops(m, weight, operator))
    assert not extremes[:, 2].any()


def test_flat_pairs_formula_at_small_m_against_dense():
    # the closed form itself, against the dense eigvalsh of every whole sector
    # block of Q(C0)
    for m, operator in itertools.product(range(2, 9), ["Delta", "DeltaPlus"]):
        extremes = jw.sector_extremes(fb.make_space(m), operator, flat_pairs(m, 1.3))
        np.testing.assert_allclose(extremes[:, 1], flat_pair_tops(m, 1.3, operator),
                                   rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("operator", ["dGamma", "Delta", "DeltaPlus"])
@pytest.mark.parametrize("m", [9, 10, 11, 12])
def test_extremes_are_covariant(m, operator):
    # U acts on the one-body space and Gamma(U) on Fock space, so the sector
    # Grams of B -> U B U* (dGamma) and A -> U^T A U (pair operators) are
    # unitarily equivalent.  The top value must agree; the bottom Ritz value
    # of a Lanczos sector depends on the start vector and only bounds
    # lambda_min from above, so the bottom is compared where it is exact.
    # A pair operator's extremes are read from the pair weights of its singular
    # values, so there the covariance is that of the SVD and its pairing
    rng = trial_rng(72, m)
    X, U = draw(operator, rng, m), unitary_matrix(rng, m)
    moved = U @ X @ U.conj().T if operator == "dGamma" else U.T @ X @ U
    space = fb.make_space(m)
    before = _gram_extremes(space, operator, jw.gram_argument(operator, X))
    after = _gram_extremes(space, operator, jw.gram_argument(operator, moved))
    np.testing.assert_allclose(after[:, 1], before[:, 1], rtol=1e-12, atol=0.0)
    exact = np.array(jw.gram_dims(m, operator)) <= _LANCZOS_STEPS
    np.testing.assert_allclose(after[exact, 0], before[exact, 0],
                               rtol=0.0, atol=1e-12 * before[:, 1].max())


def test_failed_certificate_falls_back_to_eigvalsh(monkeypatch, dense):
    # a Ritz value below lambda_max by far more than c_n leaves
    # (theta + c_n) I - G indefinite, so the Cholesky test fails and the
    # sector takes the dense eigvalsh.  The factorisation consumed the Gram
    # in its own buffer, so the Gram is rebuilt, not restored: the failing
    # sector's block is built twice, every other sector's once
    m, operator = 10, "dGamma"
    space, X = fb.make_space(m), complex_matrix(trial_rng(73, m), m)
    lanczos, certify, outcomes = bounds._lanczos, bounds._cholesky_certifies, []
    build, built = fock.ladder_matrix, []

    def recording(*args):
        outcomes.append(certify(*args))
        return outcomes[-1]

    def low_ritz(gram):
        bottom, top = lanczos(gram)
        return bottom, top * (1 - 1e-6)

    def building(space, operator, X, sector):
        built.append(sector)
        return build(space, operator, X, sector=sector)

    monkeypatch.setattr(bounds, "_lanczos", low_ritz)
    monkeypatch.setattr(bounds, "_cholesky_certifies", recording)
    monkeypatch.setattr(fock, "ladder_matrix", building)
    extremes = _gram_extremes(space, operator, X)
    dims = jw.gram_dims(m, operator)
    assert outcomes == [False] * sum(d > _LANCZOS_STEPS for d in dims)
    assert sorted(built) == sorted([n for n, d in enumerate(dims)
                                    for _ in range(2 if d > _LANCZOS_STEPS else 1)])
    monkeypatch.setattr(fock, "ladder_matrix", build)
    assert np.array_equal(extremes, dense(space, operator, X))


BLOCK = bounds._CHOLESKY_BLOCK


@pytest.mark.parametrize("dim", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_blocked_cholesky_matches_lapack(dim):
    # on a Hermitian matrix with eigenvalues in [1, 2] both factorisations
    # succeed and the lower triangles agree to 1e-14 relative; with one
    # eigenvalue moved to -1 both fail
    U = unitary_matrix(trial_rng(79, dim), dim)
    spectrum = np.linspace(1.0, 2.0, dim)
    for definite in (True, False):
        if not definite:
            spectrum[-1] = -1.0
        a = (U * spectrum) @ U.conj().T
        a = (a + a.conj().T) / 2
        try:
            reference = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            reference = None
        assert (reference is not None) == definite
        factor = a.copy()
        assert bounds._cholesky_in_place(factor) == definite
        if definite:
            error = np.abs(np.tril(factor) - reference).max()
            assert error <= 1e-14 * np.abs(reference).max()


def test_certificate_holds_one_gram():
    # the middle sector at m = 12 (dimension 924) is certified in the Gram's
    # own buffer: beyond it, at most one strip product of n x b and two
    # b x b blocks, b = _CHOLESKY_BLOCK, where a factor held beside the Gram
    # alone would take n^2 numbers
    m, n = 12, 6
    gram = bounds._sector_gram(fb.make_space(m), complex_matrix(trial_rng(29, 0), m), n)
    dim = len(gram)
    assert dim == 924
    _, top = bounds._lanczos(gram)
    shift = bounds._certificate_shift(gram, top)
    tracemalloc.start()
    try:
        certified = bounds._cholesky_certifies(gram, top, shift)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert certified
    assert peak <= (dim * BLOCK + 2 * BLOCK * BLOCK) * 16


# the case named Delta ran on Delta's kept blocks at m = 14; pair rows now take
# exact ends with no bracket, so it keeps its name and runs dGamma at m = 11
@pytest.mark.parametrize("m", [pytest.param(10, id="dGamma"), pytest.param(11, id="Delta")])
def test_bracket_that_straddles_a_row_is_solved_again(m, monkeypatch):
    # a width of 20 theta on the Grams above dimension 200 puts their upper
    # ends above rows that pass at theta, so exactly those certified sectors
    # are solved again by eigvalsh; they hold every row's least slack, so the
    # verdicts are those of the all-dense path bit for bit.  Those are the
    # middle one (252) at m = 10 and the four middle ones (330 to 462) at m = 11
    operator = "dGamma"
    space, specs = fb.make_space(m), SPECS[operator]
    X = draw(operator, trial_rng(74, m), m)
    with monkeypatch.context() as patch:
        patch.setattr(bounds, "_LANCZOS_STEPS", math.inf)
        reference = fb.verify_bounds(space, specs, X)
    shift = bounds._certificate_shift
    monkeypatch.setattr(bounds, "_certificate_shift", lambda gram, theta:
                        10 * theta if len(gram) > 200 else shift(gram, theta))
    certified = _gram_extremes(space, operator, X)
    tols = np.array([verdict.tolerance for verdict in reference])[:, None]
    rhs = rhs_table(specs, X, m)
    fails = (rhs - certified[:, 1] - certified[:, 2] < -tols).any(axis=0)
    dims = jw.gram_dims(m, operator)
    straddled = [n for n, dim in enumerate(dims) if dim > _LANCZOS_STEPS and fails[n]]
    assert straddled == [n for n, dim in enumerate(dims) if dim > 200]
    assert all(verdict.passed for verdict in reference)

    sectors, solved = [], []
    build, solve = fock.ladder_matrix, np.linalg.eigvalsh

    def building(space, operator, X, sector):
        sectors.append(sector)
        return build(space, operator, X, sector=sector)

    def recording(a, *args, **kwargs):
        if a.shape[0] > _LANCZOS_STEPS:
            solved.append(sectors[-1])
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(fock, "ladder_matrix", building)
    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    verdicts = fb.verify_bounds(space, specs, X)
    assert sorted(solved) == straddled
    assert verdicts == reference


def test_slack_and_ratio_read_the_upper_end_of_a_bracket():
    # sector 1 is certified, lambda_max in [3, 3 + 1]; sectors 0 and 2 are exact.
    # Read from top, sector 1 would give slack 1.5 and ratio 3 / 4.5, both
    # overstating how far the bound is from binding
    rhs = np.array([1.0, 4.5, 6.0])
    extremes = np.array([[0.0, 0.0, 0.0], [1.0, 3.0, 1.0], [2.0, 5.0, 0.0]])
    verdict, ratio = bounds._sector_verdict(rhs, extremes, 0.0)
    assert verdict.slack_min == 4.5 - 4.0 and verdict.passed
    assert ratio == 4.0 / 4.5


def test_certificate_proves_the_dense_top(dense):
    # lambda_max from eigvalsh lies in the bracket [theta, theta + 2 c_n]; only
    # the upper end is proved.  dGamma's Grams pass the Lanczos cap from m = 9
    # on; the pair operators take exact ends, so their cases run dGamma at m = 11
    operator = "dGamma"
    for m in (10, 11):
        space = fb.make_space(m)
        X = draw(operator, trial_rng(75, m), m)
        certified = _gram_extremes(space, operator, X)
        reference = dense(space, operator, X)
        for n, dim in enumerate(jw.gram_dims(m, operator)):
            if dim <= _LANCZOS_STEPS:
                assert np.array_equal(certified[n], reference[n])
                continue
            top, width = certified[n, 1:]
            # theta <= lambda_max holds up to the rounding of both eigensolvers
            assert 0 < width and top * (1 - 1e-13) <= reference[n, 1] <= top + width
            assert certified[n, 0] >= reference[n, 0] - 1e-12 * reference[n, 1]


@pytest.mark.parametrize("m", [8, 9, 10, 11, 12])
def test_tolerance_never_exceeds_the_dense_one(m, monkeypatch, widest_bracket):
    for operator, specs in SPECS.items():
        for seed in range(1 if m == 12 else 3):
            X = draw(operator, trial_rng(76, m, seed), m)
            space = fb.make_space(m)
            certified = fb.verify_bounds(space, specs, X)
            with monkeypatch.context() as patch:
                patch.setattr(bounds, "_LANCZOS_STEPS", math.inf)
                reference = fb.verify_bounds(space, specs, X)
            for new, old in zip(certified, reference, strict=True):
                assert new.tolerance <= old.tolerance
                assert new.passed == old.passed
                # the slack reads the upper end, never above the exact one
                rounding = 1e-6 * old.tolerance
                assert (-widest_bracket() - rounding <= new.slack_min - old.slack_min
                        <= rounding)


# the verify-bounds invocations of the bounds-m10 benchmark workload
BENCHMARK_ROWS = [("dGamma", (1, 4 / 3, 2, math.inf)), ("Delta", (1, 1.5, 2)),
                  ("DeltaPlus", (1, 2)), ("improved_r2", (2,)), ("literature_DeltaPlus", (2,))]


def assert_benchmark_inputs_pass(m, seed):
    space = fb.make_space(m)
    for which, rs in BENCHMARK_ROWS:
        specs = [fb.BoundSpec(which, r) for r in rs]
        X = draw(specs[0].operator, trial_rng(seed, 0), m)
        assert all(v.passed for v in fb.verify_bounds(space, specs, X))


@pytest.mark.parametrize("seed", [29, 31])
def test_benchmark_inputs_are_certified_without_fallback(seed, large_eigensolves, lanczos_steps):
    # and no certified sector takes more Lanczos steps than under a stop at 4u theta_max
    assert_benchmark_inputs_pass(10, seed)
    assert large_eigensolves == []
    assert lanczos_steps and all(steps <= at_4u for steps, at_4u in lanczos_steps)


def test_m12_benchmark_inputs_are_certified_without_fallback(large_eigensolves, lanczos_steps):
    # the widths 2 c_n reach a few thousandths of the row tolerance here, and
    # every bracket still decides its rows
    assert_benchmark_inputs_pass(12, 29)
    assert large_eigensolves == []
    assert lanczos_steps and all(steps <= at_4u for steps, at_4u in lanczos_steps)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(m=st.sampled_from([9, 10]), k=st.integers(-20, 20),
       operator=st.sampled_from(sorted(SPECS)), seed=st.integers(0, 2**32 - 1))
def test_power_of_two_scaling_scales_every_slack_exactly(m, k, operator, seed):
    # X -> 2^k X scales every block entry, Gram, norm and extreme exactly, so
    # every slack scales by 4^k bit for bit; the tolerance's absolute 1 + term
    # does not scale, and no verdict may move with it
    space, specs = fb.make_space(m), SPECS[operator]
    X = draw(operator, trial_rng(77, m, seed), m)
    before = fb.verify_bounds(space, specs, X)
    after = fb.verify_bounds(space, specs, 2.0**k * X)
    assert [v.slack_min * 4.0**k for v in before] == [v.slack_min for v in after]
    assert [v.passed for v in before] == [v.passed for v in after]
