"""The bitmask builder, the sector-by-sector bound verdict, and the
sector-blocked CAR suite, commutator identity, verify-algebra rows, pair
powers and Slater expectation against the whole-space construction in
jw_oracle.py."""

import argparse
import itertools
import math

import numpy as np
import pytest

import fockbound as fb
import jw_oracle as jw
from fockbound import cli, gaussian
from fockbound.bounds import _gram_extremes
from fockbound.fock import ladder_matrix
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
        e = np.eye(m)[j - 1]
        assert_same(fb.op_adag(sp, e), jw.creation(sp, j))
        assert_same(fb.op_a(sp, e), jw.annihilation(sp, j))
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
            fb.fock.ladder_matrix(sp, name, coeffs, sector=0)


def dense_verdict(sp, spec, X):
    build = {"dGamma": jw.d_gamma, "Delta": jw.delta, "DeltaPlus": jw.delta_plus}
    q = build[spec.operator](sp, X)
    lhs = q.matrix.conj().T @ q.matrix
    norms = {"r": fb.schatten_norm(X, spec.r), "2": fb.schatten_norm(X, 2),
             "inf": fb.schatten_norm(X, math.inf)}
    rhs = fb.rhs_operator(sp, spec, norms).matrix
    return lhs, rhs, fb.loewner_leq(lhs, rhs)


def assert_slack_never_overstated(verdict, exact, width):
    """A slack read from a certified upper end is below the exact one by at most
    the bracket width, and above it by rounding only."""
    rounding = 1e-6 * exact.tolerance
    assert -width - rounding <= verdict.slack_min - exact.slack_min <= rounding


@pytest.mark.parametrize("which", sorted(R_VALUES))
@pytest.mark.parametrize("m", MODES)
def test_sector_verdict_equals_dense(m, which, widest_bracket):
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
                assert_slack_never_overstated(sector, dense, widest_bracket())
                assert sector.tolerance == pytest.approx(dense.tolerance, rel=1e-9)


@pytest.mark.parametrize("operator", ["dGamma", "Delta", "DeltaPlus"])
@pytest.mark.parametrize("m", MODES)
def test_shared_gram_verdicts_equal_dense(m, operator, widest_bracket):
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
        assert_slack_never_overstated(verdict, dense, widest_bracket())
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


@pytest.mark.parametrize("operator", ["dGamma", "Delta", "DeltaPlus"])
@pytest.mark.parametrize("m", [1, 2, 5, 6])
def test_gram_extremes_equal_dense(m, operator):
    # wide blocks read lambda_max from Q_n Q_n* and report lambda_min = 0
    # exactly; square and tall blocks keep the eigenvalues of Q_n* Q_n
    sp = fb.make_space(m)
    shift = fb.fock.LADDERS[operator][1]
    build = {"dGamma": jw.d_gamma, "Delta": jw.delta, "DeltaPlus": jw.delta_plus}
    for t in range(2):
        rng = trial_rng(38, m, t)
        X = complex_matrix(rng, m) if operator == "dGamma" else skew_matrix(rng, m)
        q = build[operator](sp, X)
        gram = q.matrix.conj().T @ q.matrix
        extremes = _gram_extremes(sp, operator, jw.pair_form_of(operator, X))
        for n in range(m + 1):
            idx = np.nonzero(sp.occupations == n)[0]
            block = gram[np.ix_(idx, idx)]
            lo, hi = np.linalg.eigvalsh(block)[[0, -1]]
            scale = 1e-12 * (1.0 + np.linalg.norm(block, 2))
            rows = math.comb(m, n + shift) if n + shift >= 0 else 0
            if rows < idx.size:
                assert extremes[n, 0] == 0.0
            else:
                assert abs(extremes[n, 0] - lo) <= scale
            assert abs(extremes[n, 1] - hi) <= scale


EDGE_R = {**R_VALUES, "dGamma": (1, 4 / 3, 2, 4, math.inf)}


def edge_operator(case, operator, m):
    rng = trial_rng(39, m)
    X = complex_matrix(rng, m) if operator == "dGamma" else skew_matrix(rng, m)
    if case == "zero":
        return np.zeros((m, m), complex)
    if case == "rank_two":  # rank 2: one canonical pair of Youla's normal form
        return rank_two_skew(rng, m)
    return {"random": 1.0, "tiny": 1e-150, "huge": 1e150}[case] * X


@pytest.mark.parametrize("case", ["random", "zero", "rank_two", "tiny", "huge"])
@pytest.mark.parametrize("m", [1, 2, 4])
def test_edge_case_verdicts_equal_dense(m, case):
    # at m = 1 and 2 every pair block is empty or 1x1; the scaled draws sit
    # 150 decades from 1 on either side and must neither overflow nor flip
    sp = fb.make_space(m)
    for which, rs in sorted(EDGE_R.items()):
        specs = [fb.BoundSpec(which, r) for r in rs]
        X = edge_operator(case, specs[0].operator, m)
        for spec, verdict in zip(specs, fb.verify_bounds(sp, specs, X), strict=True):
            _, _, dense = dense_verdict(sp, spec, X)
            assert verdict.passed == dense.passed
            assert abs(verdict.slack_min - dense.slack_min) <= 1e-6 * dense.tolerance
            assert verdict.tolerance == pytest.approx(dense.tolerance, rel=1e-9)


def test_verify_bound_m12():
    # the dense operator alone would take 256 MiB here, and its
    # Jordan-Wigner factors 6 GiB
    sp = fb.make_space(12)
    C = skew_matrix(trial_rng(35, 0), 12)
    verdict = fb.verify_bound(sp, fb.BoundSpec("DeltaPlus", 2), C)
    assert verdict.passed
    assert verdict.slack_min > 0


def assert_same_car(new, old):
    assert new.passed == old.passed
    assert new.residuals.keys() == old.residuals.keys()
    for key, value in old.residuals.items():
        assert abs(new.residuals[key] - value) <= 1e-13, key


def assert_same_commutator(new, old):
    assert new.passed == old.passed
    assert abs(new.residual - old.residual) <= 1e-13
    assert new.scale == pytest.approx(old.scale, rel=1e-13)


@pytest.mark.parametrize("m", MODES)
def test_blocked_car_suite_equals_dense(m):
    sp = fb.make_space(m)
    for seed in (0, 7, 2024):
        assert_same_car(fb.verify_car(sp, trials=3, seed=seed),
                        jw.verify_car(sp, trials=3, seed=seed))


@pytest.mark.parametrize("zeroed", ["f", "f and g"])
@pytest.mark.parametrize("m", [1, 2, 5])
def test_blocked_car_suite_equals_dense_for_zero_f(m, zeroed, monkeypatch):
    # f is the first draw of each trial and g the second
    for module in (fb.fock, jw):
        draws = itertools.count()

        def vector(rng, n, draws=draws):
            v = complex_vector(rng, n)
            return 0 * v if zeroed == "f and g" or next(draws) % 2 == 0 else v

        monkeypatch.setattr(module, "complex_vector", vector)
    sp = fb.make_space(m)
    new, old = fb.verify_car(sp, trials=2, seed=3), jw.verify_car(sp, trials=2, seed=3)
    assert_same_car(new, old)
    assert new.passed


@pytest.mark.parametrize("m", [1, 4, 6])
def test_blocked_car_suite_equals_dense_at_tiny_scale(m, monkeypatch):
    # residuals near the subnormal range; the running maxima must still agree
    for module in (fb.fock, jw):
        monkeypatch.setattr(module, "complex_vector",
                            lambda rng, n: 1e-150 * complex_vector(rng, n))
    sp = fb.make_space(m)
    new, old = fb.verify_car(sp, trials=2, seed=3), jw.verify_car(sp, trials=2, seed=3)
    assert_same_car(new, old)
    assert new.passed


def rank_two_skew(rng, m):
    u, v = complex_vector(rng, m), complex_vector(rng, m)
    return np.outer(u, v) - np.outer(v, u)


@pytest.mark.parametrize("m", MODES)
def test_blocked_commutator_equals_dense(m):
    sp = fb.make_space(m)
    zero = np.zeros((m, m))
    for seed in (0, 7, 2024):
        rng = trial_rng(37, seed, m)
        A, C = skew_matrix(rng, m), skew_matrix(rng, m)
        for a, c in ((A, C), (zero, C), (A, zero), (zero, zero),
                     (A, rank_two_skew(rng, m)), (1e-150 * A, 1e-150 * C)):
            assert_same_commutator(fb.check_commutator(sp, a, c),
                                   jw.check_commutator(sp, a, c))


# B is each verify-algebra trial's complex_matrix draw; A and C are its two
# skew_matrix draws, in that order
ALGEBRA_CASES = {"random": (), "zero B": ("B",), "zero A": ("A",), "zero C": ("C",),
                 "all zero": ("B", "A", "C"), "rank-2 C": ("rank-2 C",)}


@pytest.mark.parametrize("case", sorted(ALGEBRA_CASES))
@pytest.mark.parametrize("m", MODES)
def test_blocked_algebra_rows_equal_dense(m, case, monkeypatch):
    zeroed = ALGEBRA_CASES[case]
    for module in (cli, jw):
        skews = itertools.count()

        def complex_draw(rng, n):
            B = complex_matrix(rng, n)
            return 0 * B if "B" in zeroed else B

        def skew_draw(rng, n, skews=skews):
            X, name = skew_matrix(rng, n), "AC"[next(skews) % 2]
            if name == "C" and "rank-2 C" in zeroed:
                return rank_two_skew(rng, n)
            return 0 * X if name in zeroed else X

        monkeypatch.setattr(module, "complex_matrix", complex_draw)
        monkeypatch.setattr(module, "skew_matrix", skew_draw)
    for seed in (0, 7, 2024):
        cfg = argparse.Namespace(m=m, trials=2, seed=seed)
        new, old = cli.run_verify_algebra(cfg), jw.run_verify_algebra(cfg)
        assert [row["check_id"] for row in new] == [row["check_id"] for row in old]
        for a, b in zip(new, old):
            assert a["pass"] == b["pass"] and a["tolerance"] == b["tolerance"]
            if a["check_id"].endswith("/grading"):
                assert a["metric"] == b["metric"] == 0  # failed trials
            else:
                assert abs(a["metric"] - b["metric"]) <= 1e-13, a["check_id"]


@pytest.mark.parametrize("m", MODES)
def test_blocked_pair_powers_equal_dense(m):
    sp = fb.make_space(m)
    for seed in (0, 7, 2024):
        rng = trial_rng(38, seed, m)
        for C in (skew_matrix(rng, m), np.zeros((m, m)), rank_two_skew(rng, m)):
            new, old = fb.pair_coefficients(sp, C), jw.pair_coefficients(sp, C)
            assert new.shape == old.shape == (m // 2 + 1,)
            # a coefficient that vanishes exactly (n >= 2 for a rank-2 C) is
            # rounding noise on both sides
            noise = np.finfo(float).eps * old.max()
            assert np.all((np.abs(new - old) <= 1e-13 * old) | (np.maximum(new, old) <= noise))
            powers = gaussian._pair_powers(sp, C)
            for z in (0.0, 0.7, 1.1 - 0.4j):
                old_state = jw.gaussian_state(sp, C, z).amplitudes
                new_state = np.zeros_like(old_state)
                for n, v in enumerate(powers):  # exp(z Dp) Omega, sector 2n by sector
                    new_state[sp.occupations == 2 * n] = z**n / math.factorial(n) * v
                assert np.abs(new_state - old_state).max() \
                    <= 1e-13 * (1.0 + np.abs(old_state).max())


@pytest.mark.parametrize("m", MODES)
def test_blocked_slater_expectation_equals_dense(m):
    sp = fb.make_space(m)
    B = complex_matrix(trial_rng(39, m), m)
    for n in range(m + 1):
        subsets = list(itertools.combinations(range(1, m + 1), n))
        for modes in {subsets[0], subsets[-1], subsets[len(subsets) // 2][::-1]}:
            phi = fb.slater_state(sp, modes).amplitudes[sp.occupations == n]
            new = np.vdot(phi, ladder_matrix(sp, "dGamma", B, sector=n) @ phi)
            assert abs(new - jw.slater_expectation(sp, B, list(modes))) <= 1e-13
