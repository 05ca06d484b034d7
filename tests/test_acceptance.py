"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import json
import math
import time

import numpy as np
import pytest

import fockbound as fb
import jw_oracle as jw
from fockbound import cli
from fockbound.gaussian import default_z_grid
from fockbound.rng import complex_matrix, skew_matrix, trial_rng
from fockbound.tolerances import NORM_TOL

SEED = 20240817


def report(num, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_1_car_suite():
    start = time.monotonic()
    ok = True
    for m in range(1, 9):
        residuals = fb.verify_car(fb.make_space(m), trials=50, seed=SEED)
        ok = ok and jw.car_failures(residuals) == []
    elapsed = time.monotonic() - start
    report(1, f"CAR suite m=1..8, 50 trials each, residuals within tolerance "
              f"({elapsed:.1f}s < 30s)", ok and elapsed < 30)


def test_criterion_2_d_gamma_bound():
    start = time.monotonic()
    ok = True
    for r in (1, 4 / 3, 3 / 2, 2, 3, 4, math.inf):
        spec = fb.BoundSpec("dGamma", r)
        for m in range(2, 8):
            space = fb.make_space(m)
            for t in range(25):
                B = complex_matrix(trial_rng(SEED, m, t), m)
                verdict = fb.verify_bound(space, spec, B)
                ok = ok and verdict.slack_min >= -1e-8 * (1 + _rhs_norm(space, spec, B))
    saturation = fb.verify_bound(fb.make_space(3),
                                 fb.BoundSpec("dGamma", math.inf), np.eye(3))
    ok = ok and saturation.slack_min == 0.0
    elapsed = time.monotonic() - start
    report(2, f"dGamma bound: 7 exponents x m=2..7 x 25 random B, slack within "
              f"-1e-8*(1+|RHS|); exact saturation at B=Id ({elapsed:.1f}s < 120s)",
           ok and elapsed < 120)


def _rhs_norm(space, spec, X):
    norms = {"r": fb.schatten_norm(X, spec.r), "2": fb.schatten_norm(X, 2),
             "inf": fb.schatten_norm(X, math.inf)}
    return float(np.abs(fb.rhs_operator(space, spec, norms).matrix).max())


def test_criterion_3_pair_operator_bounds():
    ok = True
    for which in ("Delta", "DeltaPlus"):
        for r in (1, 3 / 2, 2):
            spec = fb.BoundSpec(which, r)
            for m in range(2, 8):
                space = fb.make_space(m)
                for t in range(25):
                    A = skew_matrix(trial_rng(SEED, m, t), m)
                    verdict = fb.verify_bound(space, spec, A)
                    ok = ok and verdict.slack_min >= -1e-8 * (1 + _rhs_norm(space, spec, A))
    improved = fb.BoundSpec("improved_r2", 2)
    for m in range(2, 8):
        space = fb.make_space(m)
        for t in range(25):
            A = skew_matrix(trial_rng(SEED, m, t), m)
            ok = ok and fb.verify_bound(space, improved, A).passed
    report(3, "Delta and DeltaPlus bounds at r in {1, 3/2, 2}, plus the "
              "improved |C|_2^2 (N + 2 Id) bound at r=2", ok)


def test_criterion_4_basic_estimate():
    ok = True
    ps = (1, 3 / 2, 2, 3, math.inf)
    space12 = fb.make_space(12)
    for t in range(100):
        lam = np.abs(trial_rng(SEED, 4, t).standard_normal(12))
        for p in ps:
            verdict = fb.basic_estimate_check(space12, lam, p)
            ok = ok and verdict.passed
            brute = jw.basic_estimate_bruteforce(space12, lam, p)
            ok = ok and abs(verdict.slack_min - brute) <= 1e-12 * (1 + abs(brute))
    report(4, "basic estimate: subset-sum verdicts equal full 2^12 enumeration "
              "and pass for 100 random lambda x 5 exponents", ok)


def test_criterion_5_cauchy_schwarz_identity():
    ok = True
    for t in range(100):
        rng = trial_rng(SEED, 5, t)
        M = int(rng.integers(1, 5))
        size = int(rng.integers(2, 6))
        a_ops = [complex_matrix(rng, size) for _ in range(M)]
        b_ops = [complex_matrix(rng, size) for _ in range(M)]
        for sigma in (-1, 1):
            res = fb.cauchy_schwarz_check(a_ops, b_ops, sigma)
            ok = ok and res.identity_passed and res.verdict.passed
    report(5, "Cauchy-Schwarz closed-form identity residual <= 1e-12*scale on "
              "100 random instances, both signs", ok)


def test_criterion_6_commutator_identity():
    ok = True
    for t in range(50):
        rng = trial_rng(SEED, 6, t)
        m = int(rng.integers(2, 7))
        space = fb.make_space(m)
        residual = fb.check_commutator(space, skew_matrix(rng, m), skew_matrix(rng, m))
        ok = ok and residual <= NORM_TOL
    sp = fb.make_space(2)
    C = np.array([[0, -1], [1, 0]], dtype=complex)
    da, dp = fb.delta(sp, -C), fb.delta_plus(sp, C)
    comm = (da @ dp).matrix - (dp @ da).matrix
    exact = np.abs(comm - (-4 * jw.number_operator(sp).matrix + 4 * np.eye(4))).max() == 0
    report(6, "commutator identity residual <= 1e-10*scale on 50 skew pairs; "
              "hand case m=2 gives exactly -4N + 4 Id", ok and exact)


def test_criterion_7_gaussian_calibration():
    ok = True
    grid = default_z_grid()
    assert grid.size == 25
    for t in range(20):
        m = 2 + (t % 7)
        rep = fb.gaussian_report(fb.make_space(m), skew_matrix(trial_rng(SEED, 7, t), m))
        series = rep.series_values
        ok = ok and np.array_equal(rep.z_grid, grid) and rep.convention == 0.5
        ok = ok and bool(np.all(np.abs(series - rep.determinant_values)
                                <= 1e-10 * (1 + np.abs(series))))
        ok = ok and rep.zeros_matched
    hand = fb.gaussian_report(fb.make_space(2),
                              0.5 * np.array([[0, -1], [1, 0]], dtype=complex))
    ok = ok and hand.series_values[list(grid).index(1.0)] == pytest.approx(2.0)
    ok = ok and hand.convention == 0.5
    report(7, "overlap series equals sqrt-determinant on 20 skew C x 25-point "
              "z grid; calibration case gives 2 and selects exponent 1/2; "
              "series coefficients match those of the formula zeros", ok)


def test_criterion_8_converse_sweep():
    start = time.monotonic()
    sweep = fb.sharpness_sweep(1.0, n_max=100_000)
    ok = abs(sweep.slope - 0.5) <= 0.02
    harmonic = jw.sector_norm_diagonal(fb.decay_values("harmonic", 100_000), 100_000)
    ok = ok and harmonic >= 12.0
    recovery = fb.schatten_recovery_check(1.0, [0.0, 0.05])
    ok = ok and not recovery.certificates[0.0].converges
    ok = ok and recovery.certificates[0.05].converges
    elapsed = time.monotonic() - start
    report(8, f"power_decay(1) slope {sweep.slope:.3f} within 0.50 +- 0.02; "
              f"harmonic sector norm {harmonic:.2f} >= 12; integral-test "
              f"certificates ({elapsed:.1f}s < 60s)", ok and elapsed < 60)


def test_criterion_9_order_estimator():
    ok = True
    lgammas = np.array([math.lgamma(k + 1) for k in range(200)])
    for r in (1.0, 1.5, 2.0):
        est = fb.exp_order_estimate(np.exp(-(2.0 / r) * lgammas), degree_step=2)
        ok = ok and abs(est.order - r) <= 0.05
    report(9, "growth-order estimator returns r +- 0.05 on 1/(n!)^(2/r) "
              "coefficients, r in {1, 1.5, 2}", ok)


def test_criterion_10_cli_determinism(tmp_path):
    bodies = []
    for name in ("one.json", "two.json"):
        path = tmp_path / name
        code = cli.main(["verify-bounds", "--which", "dGamma", "--r", "2", "inf",
                         "--m", "4", "--trials", "5", "--seed", "99",
                         "--output", str(path)])
        assert code == 0
        body = json.loads(path.read_text())
        body["header"].pop("timestamp")
        bodies.append(body)
    ok = bodies[0] == bodies[1]
    report(10, "repeated CLI runs with the same configuration emit identical "
               "report bodies", ok)
