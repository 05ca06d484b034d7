"""Delta and DeltaPlus bounds decided from the pair form C0 of their argument:
against the whole-sector path of jw_oracle.py, and by relations that need no
oracle (covariance, adjoint duality, the pairing rule's error), at every m up
to the guard; and the memory that an m = 14 check takes."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fockbound as fb
import jw_oracle as jw
from fockbound import bounds, fock
from fockbound.quadratics import is_skew, pair_form, pair_weights
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
@given(m=st.integers(9, 14), operator=st.sampled_from(sorted(PAIR_SPECS)), seed=SEEDS)
def test_verdicts_are_covariant(m, operator, seed):
    # Gamma(U) carries Q(U^T A U) into Q(A) and keeps every sector, so the
    # verdicts agree to rounding: 1e-4 of a tolerance is 1e-12 of the largest
    # |rhs(n) - lambda| over the sectors
    space, specs = fb.make_space(m), PAIR_SPECS[operator]
    rng = trial_rng(92, m, seed)
    A, U = skew_matrix(rng, m), unitary_matrix(rng, m)
    before = fb.verify_bounds(space, specs, A)
    after = fb.verify_bounds(space, specs, U.T @ A @ U)
    for old, new in zip(before, after, strict=True):
        assert new.passed == old.passed
        assert abs(new.slack_min - old.slack_min) <= 1e-4 * old.tolerance
        assert new.tolerance == pytest.approx(old.tolerance, rel=1e-9)


@settings(max_examples=14, deadline=None, database=None, derandomize=True)
@given(m=st.integers(1, 14), seed=SEEDS)
def test_delta_and_delta_plus_of_the_adjoint_share_their_tops(m, seed):
    # Delta(A)* = DeltaPlus(A^H), so Delta(A) on sector n and DeltaPlus(A^H) on
    # sector n - 2 are adjoint blocks with one nonzero spectrum of the Gram
    space = fb.make_space(m)
    A = skew_matrix(trial_rng(93, m, seed), m)
    delta = bounds._gram_extremes(space, "Delta", jw.pair_form_of("Delta", A))
    plus = bounds._gram_extremes(space, "DeltaPlus", jw.pair_form_of("DeltaPlus", A.conj().T))
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
    # every build of a Delta or DeltaPlus check reads the coefficients of C0
    entries, seen = fock.ladder_entries, []

    def recording(space, name, coeffs, sector=None):
        seen.append(np.asarray(coeffs))
        return entries(space, name, coeffs, sector)

    monkeypatch.setattr(fock, "ladder_entries", recording)
    m = 7
    for operator, specs in PAIR_SPECS.items():
        A = skew_matrix(trial_rng(95, m), m)
        assert all(v.passed for v in fb.verify_bounds(fb.make_space(m), specs, A))
    assert len(seen) > 0
    assert all(np.array_equal(c, pair_form(c.diagonal(1)[::2], m)) for c in seen)


@pytest.mark.parametrize("operator", sorted(PAIR_SPECS))
def test_kept_block_is_wide_exactly_where_the_sector_block_is(operator):
    # so lambda_min = 0 exactly on the same sectors as the whole-block Gram;
    # the kept sizes are the trinomial coefficients of jw.gram_dims
    shift = fock.LADDERS[operator][1]
    for m in range(1, fock.MAX_MODES + 1):
        space = fb.make_space(m)
        kept = [int(bounds._kept(space, operator, n).sum()) for n in range(m + 1)]
        sides = [(n, n + shift) for n in range(m + 1) if 0 <= n + shift <= m]
        assert [min(kept[a], kept[b]) for a, b in sides] == \
            [d for n, d in enumerate(jw.gram_dims(m, operator)) if 0 <= n + shift <= m]
        assert [kept[b] < kept[a] for a, b in sides] == \
            [math.comb(m, b) < math.comb(m, a) for a, b in sides]


def test_gram_extremes_reject_a_pair_argument_not_in_pair_form():
    space, A = fb.make_space(4), skew_matrix(trial_rng(96, 4), 4)
    with pytest.raises(ValueError, match="pair form"):
        bounds._gram_extremes(space, "Delta", A)


@pytest.mark.parametrize("operator", sorted(PAIR_SPECS))
def test_m14_pair_bound_peaks_below_64_mib(operator):
    # the whole middle sector block alone took 165 MB; a pair-form check
    # holds the bitmask walk of one sector and Grams of at most 393 rows.
    # The walk is cleared first, so the peak counts it.  About 0.4 s each
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
