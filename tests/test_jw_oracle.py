"""The bitmask builder and the sector-by-sector bound verdict against the
dense Jordan-Wigner construction in jw_oracle.py."""

import math

import numpy as np
import pytest

import fockbound as fb
import jw_oracle as jw
from fockbound.bounds import _norms_for
from fockbound.rng import complex_matrix, complex_vector, skew_matrix, trial_rng

MODES = range(1, 9)
R_VALUES = {
    "dGamma": (1, 4 / 3, 2, math.inf),
    "Delta": (1, 1.5, 2),
    "DeltaPlus": (1, 1.5, 2),
    "literature_dGamma": (math.inf,),
    "literature_Delta": (2,),
    "literature_DeltaPlus": (2,),
    "improved_r2": (2,),
}


def assert_same(new, old):
    assert new.grading_shift == old.grading_shift
    assert np.array_equal(new.matrix, old.matrix)


@pytest.mark.parametrize("m", MODES)
def test_mode_operators_equal_oracle(m):
    sp = fb.make_space(m)
    for j in range(1, m + 1):
        assert_same(fb.creation(sp, j), jw.creation(sp, j))
        assert_same(fb.annihilation(sp, j), jw.annihilation(sp, j))
    rng = trial_rng(31, m)
    f = complex_vector(rng, m)
    f[::2] = 0  # zero coefficients are skipped by the oracle
    for g in (f, complex_vector(rng, m)):
        assert_same(fb.op_a(sp, g), jw.op_a(sp, g))
        assert_same(fb.op_adag(sp, g), jw.op_adag(sp, g))


@pytest.mark.parametrize("m", MODES)
def test_quadratics_equal_oracle(m):
    sp = fb.make_space(m)
    rng = trial_rng(32, m)
    B = complex_matrix(rng, m)
    for X in (B, np.diag(np.diag(B)), np.eye(m)):
        assert_same(fb.d_gamma(sp, X), jw.d_gamma(sp, X))
    A, C = skew_matrix(rng, m), skew_matrix(rng, m)
    assert_same(fb.delta(sp, A), jw.delta(sp, A))
    assert_same(fb.delta_plus(sp, C), jw.delta_plus(sp, C))


def test_ladder_matrix_rejects_wrong_coefficient_shape():
    sp = fb.make_space(3)
    for name, coeffs in (("dGamma", np.ones(3)), ("creation", np.eye(3)),
                         ("Delta", np.zeros((2, 2)))):
        with pytest.raises(ValueError):
            fb.fock.ladder_matrix(sp, name, coeffs)


def dense_verdict(sp, spec, X):
    build = {"dGamma": jw.d_gamma, "Delta": jw.delta, "DeltaPlus": jw.delta_plus}
    q = build[spec.operator](sp, X)
    lhs = (q.dagger() @ q).matrix
    rhs = fb.rhs_operator(sp, spec, _norms_for(spec, X)).matrix
    return lhs, rhs, fb.loewner_leq(lhs, rhs)


@pytest.mark.parametrize("which", sorted(R_VALUES))
@pytest.mark.parametrize("m", MODES)
def test_sector_verdict_equals_dense(m, which):
    sp = fb.make_space(m)
    specs = [fb.BoundSpec(which, r) for r in R_VALUES[which]]
    for t in range(2):
        rng = trial_rng(33, m, t)
        X = complex_matrix(rng, m) if specs[0].operator == "dGamma" else skew_matrix(rng, m)
        shared = fb.verify_bounds(sp, specs, X)
        for spec, one_r in zip(specs, shared):
            _, _, dense = dense_verdict(sp, spec, X)
            for sector in (fb.verify_bound(sp, spec, X), one_r):
                assert sector.passed == dense.passed
                assert abs(sector.slack_min - dense.slack_min) <= 1e-6 * dense.tolerance
                assert sector.tolerance == pytest.approx(dense.tolerance, rel=1e-9)


@pytest.mark.parametrize("operator", ["dGamma", "Delta", "DeltaPlus"])
@pytest.mark.parametrize("m", MODES)
def test_shared_gram_verdicts_equal_dense(m, operator):
    # every bound on one Q in one call, so the sector spectra serve several
    # bounds and several exponents at once
    sp = fb.make_space(m)
    specs = [fb.BoundSpec(which, r) for which, rs in sorted(R_VALUES.items())
             for r in rs if fb.BoundSpec(which, r).operator == operator]
    rng = trial_rng(36, m)
    X = complex_matrix(rng, m) if operator == "dGamma" else skew_matrix(rng, m)
    for spec, verdict in zip(specs, fb.verify_bounds(sp, specs, X), strict=True):
        _, _, dense = dense_verdict(sp, spec, X)
        assert verdict.passed == dense.passed
        assert abs(verdict.slack_min - dense.slack_min) <= 1e-6 * dense.tolerance
        assert verdict.tolerance == pytest.approx(dense.tolerance, rel=1e-9)


@pytest.mark.parametrize("which", ["dGamma", "DeltaPlus", "literature_Delta"])
@pytest.mark.parametrize("m", MODES)
def test_sweep_ratio_equals_dense(m, which):
    spec = fb.BoundSpec(which, 2 if which != "dGamma" else 4 / 3)
    rows = fb.bound_sweep([m], spec, trials=2, seed=34)
    sp = fb.make_space(m)
    for row in rows:
        rng = trial_rng(34, m, row.trial)
        X = complex_matrix(rng, m) if spec.operator == "dGamma" else skew_matrix(rng, m)
        lhs, rhs, dense = dense_verdict(sp, spec, X)
        ratio = 0.0
        for n in range(m + 1):
            idx = np.nonzero(sp.occupations == n)[0]
            lmax = np.linalg.eigvalsh(lhs[np.ix_(idx, idx)]).max()
            rhs_n = rhs[idx[0], idx[0]].real
            if rhs_n > 0:
                ratio = max(ratio, lmax / rhs_n)
        assert row.max_ratio == pytest.approx(ratio, rel=1e-9, abs=1e-12)
        assert abs(row.slack_min - dense.slack_min) <= 1e-6 * dense.tolerance


def test_verify_bound_m12():
    # the dense operator alone would take 256 MiB here, and its
    # Jordan-Wigner factors 6 GiB
    sp = fb.make_space(12)
    C = skew_matrix(trial_rng(35, 0), 12)
    verdict = fb.verify_bound(sp, fb.BoundSpec("DeltaPlus", 2), C)
    assert verdict.passed
    assert verdict.slack_min > 0
