"""Delta and DeltaPlus bounds decided from the pair weights of their argument:
against the whole-sector and kept-block paths of jw_oracle.py up to m = 14,
and by relations that need no oracle (covariance, adjoint duality, the
pairing rule's error) up to m = 20; and the memory that an m = 14 check takes."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fockbound as fb
import jw_oracle as jw
from fockbound import bounds, fock
from fockbound.quadratics import is_skew, pair_weights
from fockbound.rng import complex_matrix, skew_matrix, trial_rng, unitary_matrix
from fockbound.tolerances import ENTRY_TOL

# the five BOUNDS rows on a pair operator, each at every admissible exponent the
# benchmark reads
PAIR_SPECS = {
    "Delta": [fb.BoundSpec("Delta", r) for r in (1, 1.5, 2)]
    + [fb.BoundSpec("literature_Delta", 2)],
    "DeltaPlus": [fb.BoundSpec("DeltaPlus", r) for r in (1, 1.5, 2)]
    + [fb.BoundSpec("literature_DeltaPlus", 2), fb.BoundSpec("improved_r2", 2)],
}
SEEDS = st.integers(0, 2**32 - 1)


def oracle_verdicts(space, specs, A, monkeypatch):
    """verify_bounds with every sector's extremes from the whole block of Q(A)."""
    with monkeypatch.context() as patch:
        patch.setattr(bounds, "_gram_extremes",
                      lambda space, operator, X: jw.sector_extremes(space, operator, A))
        return fb.verify_bounds(space, specs, A)


@pytest.mark.parametrize("operator", sorted(PAIR_SPECS))
@pytest.mark.parametrize("m", range(1, 13))
@settings(max_examples=3, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=SEEDS)
def test_pair_form_verdicts_equal_the_whole_sector_path(m, operator, seed, monkeypatch,
                                                        widest_bracket):
    space, specs = fb.make_space(m), PAIR_SPECS[operator]
    A = skew_matrix(trial_rng(91, m, seed), m)
    new = fb.verify_bounds(space, specs, A)
    for verdict, exact in zip(new, oracle_verdicts(space, specs, A, monkeypatch),
                              strict=True):
        assert verdict.passed == exact.passed
        # read from a certified upper end, a slack lies below the exact one by
        # at most the bracket width, and above it by rounding only
        rounding = 1e-6 * exact.tolerance
        assert -widest_bracket() - rounding <= verdict.slack_min - exact.slack_min <= rounding
        assert verdict.tolerance == pytest.approx(exact.tolerance, rel=1e-9)


@settings(max_examples=12, deadline=None, database=None, derandomize=True)
@given(m=st.integers(9, 20), operator=st.sampled_from(sorted(PAIR_SPECS)), seed=SEEDS)
def test_verdicts_are_covariant(m, operator, seed):
    # Gamma(U) carries Q(U^T A U) into Q(A) and keeps every sector, so the
    # verdicts agree to rounding: 1e-4 of a tolerance is 1e-12 of the largest
    # |rhs(n) - lambda| over the sectors
    space, specs = bounds.bound_space(m, operator), PAIR_SPECS[operator]
    rng = trial_rng(92, m, seed)
    A, U = skew_matrix(rng, m), unitary_matrix(rng, m)
    before = fb.verify_bounds(space, specs, A)
    after = fb.verify_bounds(space, specs, U.T @ A @ U)
    for old, new in zip(before, after, strict=True):
        assert new.passed == old.passed
        assert abs(new.slack_min - old.slack_min) <= 1e-4 * old.tolerance
        assert new.tolerance == pytest.approx(old.tolerance, rel=1e-9)


@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(m=st.integers(1, 20), seed=SEEDS)
def test_delta_and_delta_plus_of_the_adjoint_share_their_tops(m, seed):
    # Delta(A)* = DeltaPlus(A^H), so Delta(A) on sector n and DeltaPlus(A^H) on
    # sector n - 2 are adjoint blocks with one nonzero spectrum of the Gram
    space = bounds.bound_space(m, "Delta")
    A = skew_matrix(trial_rng(93, m, seed), m)
    delta = bounds._gram_extremes(space, "Delta", jw.gram_argument("Delta", A))
    plus = bounds._gram_extremes(space, "DeltaPlus", jw.gram_argument("DeltaPlus", A.conj().T))
    np.testing.assert_allclose(delta[2:, 1], plus[:-2, 1], rtol=1e-12, atol=0.0)
    assert not delta[:2, 1].any() and not plus[-2:, 1].any()


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(m=st.integers(2, 14), seed=SEEDS)
def test_pairing_rule_moves_the_weights_by_at_most_half_the_asymmetry(m, seed):
    # A = S + H with S skew and H symmetric passes is_skew; its singular values
    # are within |H|_2 = |A + A^T|_2 / 2 of the exactly paired ones of S, up to
    # the rounding of the two SVDs
    rng = trial_rng(94, m, seed)
    S, H = skew_matrix(rng, m), complex_matrix(rng, m)
    H = (H + H.T) * (ENTRY_TOL / 8 / np.abs(H + H.T).max())
    A = S + H
    assert is_skew(A)
    weights = pair_weights(np.linalg.svd(A, compute_uv=False))
    exact = pair_weights(np.linalg.svd(S, compute_uv=False))
    rounding = 4 * m * np.finfo(float).eps * np.linalg.norm(S, 2)
    assert np.abs(weights - exact).max() <= np.linalg.norm(A + A.T, 2) / 2 + rounding


def test_pair_operator_blocks_are_built_only_from_the_pair_form(monkeypatch):
    # a Delta or DeltaPlus check reads only m and the pair weights of its
    # argument's singular values, as the SVD gives them: it walks no entries
    # and builds no occupation basis.  Both operators solve Delta's pair
    # Grams once, and DeltaPlus reads that table in reverse sector order
    def must_not_walk(*args, **kwargs):
        raise AssertionError("a pair bound walked the ladder entries")

    pair_extremes, seen = bounds._pair_extremes, []

    def recording(m, weights):
        seen.append((m, np.array(weights), pair_extremes(m, weights)))
        return seen[-1][2]

    monkeypatch.setattr(fock, "_gather", must_not_walk)
    monkeypatch.setattr(bounds, "_pair_extremes", recording)
    m = 7
    fock._basis.cache_clear()
    for operator, specs in PAIR_SPECS.items():
        A = skew_matrix(trial_rng(95, m), m)
        assert all(v.passed for v in fb.verify_bounds(fb.make_space(m), specs, A))
        weights = pair_weights(np.linalg.svd(A, compute_uv=False))
        [(called_m, called_weights, _)] = seen
        assert called_m == m
        np.testing.assert_array_equal(called_weights, weights)
        solved = bounds._gram_extremes(fb.FockSpace(m), operator, weights)
        table = seen[-1][2]
        if operator == "DeltaPlus":  # the mirror is a fresh table, not a view
            assert not np.shares_memory(solved, table)
            table = table[::-1]
        assert solved.tobytes() == table.tobytes()
        seen.clear()
    assert fock._basis.cache_info().currsize == 0


WEIGHT_KINDS = ("random", "flat", "tied", "zero")


def draw_weights(kind, rng, pairs):
    """Complex pair weights: random; all equal; drawn from two values; or random
    with about half of them 0."""
    if kind == "flat":
        return np.full(pairs, 0.8 - 0.6j)
    if kind == "tied":
        return np.where(rng.random(pairs) < 0.5, 1.3, 0.4j)
    w = rng.standard_normal(pairs) + 1j * rng.standard_normal(pairs)
    return w * (rng.random(pairs) < 0.5) if kind == "zero" else w


@pytest.mark.parametrize("kind", WEIGHT_KINDS)
@pytest.mark.parametrize("m", range(1, 15))
@settings(max_examples=3, deadline=None, database=None, derandomize=True)
@given(operator=st.sampled_from(sorted(PAIR_SPECS)), seed=SEEDS)
def test_pair_grams_equal_the_kept_block_oracle(m, kind, operator, seed):
    # the direct sum of boson Grams of the weights against the kept block of
    # Q(C0) walked from the bitmasks: the same ends to rounding, lambda_min = 0
    # exactly wherever the kept block is wide, and width 0 throughout
    space = fb.make_space(m)
    weights = draw_weights(kind, trial_rng(98, m, seed), m // 2)
    extremes = bounds._gram_extremes(space, operator, weights)
    oracle = jw.kept_extremes(space, operator, jw.pair_form(weights, m))
    atol = 1e-12 * (1.0 + oracle[:, 1].max())
    np.testing.assert_allclose(extremes[:, :2], oracle[:, :2], rtol=1e-12, atol=atol)
    kept = [jw.kept(space, operator, n).sum() for n in range(m + 1)]
    shift = fock.LADDERS[operator][1]
    wide = [0 <= n + shift <= m and kept[n + shift] < kept[n] for n in range(m + 1)]
    assert not extremes[wide, 0].any()
    assert not extremes[:, 2].any()


@pytest.mark.parametrize("operator", sorted(PAIR_SPECS))
def test_kept_block_is_wide_exactly_where_the_sector_block_is(operator):
    # so lambda_min = 0 exactly on the same sectors as the whole-block Gram;
    # the kept sizes are the trinomial coefficients of jw.gram_dims
    shift = fock.LADDERS[operator][1]
    for m in range(1, fock.MAX_MODES + 1):
        space = fb.make_space(m)
        kept = [int(jw.kept(space, operator, n).sum()) for n in range(m + 1)]
        sides = [(n, n + shift) for n in range(m + 1) if 0 <= n + shift <= m]
        assert [min(kept[a], kept[b]) for a, b in sides] == \
            [d for n, d in enumerate(jw.gram_dims(m, operator)) if 0 <= n + shift <= m]
        assert [kept[b] < kept[a] for a, b in sides] == \
            [math.comb(m, b) < math.comb(m, a) for a, b in sides]


@pytest.mark.parametrize("m", range(15, 25))
def test_pair_kernel_is_exact_past_the_walkable_range(m, monkeypatch):
    # past m = 14 no kept block can be walked, so the sectors whose block is
    # wide or empty are read from the trinomial kept sizes alone: there, and
    # in mirror order for DeltaPlus, lambda_min is exactly 0, and the width is
    # 0 everywhere.  With every weight nonzero no other sector has a kernel.
    # DeltaPlus reads the Delta table of the same weights, so it is solved once
    solved, pair_extremes = {}, bounds._pair_extremes

    def once(m, weights):
        key = np.asarray(weights).tobytes()
        if key not in solved:
            solved[key] = pair_extremes(m, weights)
        return solved[key].copy()

    monkeypatch.setattr(bounds, "_pair_extremes", once)
    space, sizes = bounds.bound_space(m, "Delta"), jw.kept_sizes(m)
    for kind in WEIGHT_KINDS:
        weights = draw_weights(kind, trial_rng(99, m), m // 2)
        for operator in sorted(PAIR_SPECS):
            shift = fock.LADDERS[operator][1]
            wide = np.array([not 0 <= n + shift <= m or sizes[n + shift] < sizes[n]
                             for n in range(m + 1)])
            extremes = bounds._gram_extremes(space, operator, weights)
            assert not extremes[wide, 0].any(), (kind, operator)
            assert not extremes[:, 2].any()
            if kind != "zero":
                assert (extremes[~wide, 0] > 0).all(), (kind, operator)
    assert len(solved) == len(WEIGHT_KINDS)


@pytest.mark.parametrize("operator", sorted(PAIR_SPECS))
def test_m14_pair_bound_peaks_below_64_mib(operator):
    # the whole middle sector block alone took 165 MB; a pair-form check
    # holds stacks of pair Grams of at most 35 rows and walks no bitmasks.
    # The walk is cleared first, so a peak would count one
    fock._ladder_pattern.cache_clear()
    space = fb.make_space(14)
    A = skew_matrix(trial_rng(97, 14), 14)
    tracemalloc.start()
    try:
        verdicts = fb.verify_bounds(space, PAIR_SPECS[operator], A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(v.passed for v in verdicts)
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"
