import math

import numpy as np
import pytest

import fockbound as fb
from fockbound.rng import complex_matrix, complex_vector, trial_rng, unitary_matrix
from jw_oracle import psd_matrix


def test_schatten_345():
    B = np.diag([3.0, 4.0])
    assert fb.schatten_norm(B, 1) == pytest.approx(7.0)
    assert fb.schatten_norm(B, 2) == pytest.approx(5.0)
    assert fb.schatten_norm(B, math.inf) == pytest.approx(4.0)


def test_schatten_hs_dominated_below_two():
    B = complex_matrix(trial_rng(0, 1), 4)
    hs = fb.schatten_norm(B, 2)
    for r in (1.0, 1.25, 1.5, 2.0):
        assert hs <= fb.schatten_norm(B, r) + 1e-12


def test_schatten_monotone_in_r():
    B = complex_matrix(trial_rng(0, 2), 5)
    rs = [1.0, 1.5, 2.0, 3.0, 10.0, math.inf]
    values = [fb.schatten_norm(B, r) for r in rs]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_schatten_unitary():
    U = unitary_matrix(trial_rng(0, 3), 5)
    assert fb.schatten_norm(U, math.inf) == pytest.approx(1.0)
    assert fb.schatten_norm(U, 1) == pytest.approx(5.0)


def test_schatten_unitary_invariance():
    rng = trial_rng(0, 4)
    B = complex_matrix(rng, 5)
    U, V = unitary_matrix(rng, 5), unitary_matrix(rng, 5)
    for r in (1.0, 1.7, 2.0, math.inf):
        assert abs(fb.schatten_norm(U @ B @ V, r)
                   - fb.schatten_norm(B, r)) <= 1e-10


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_schatten_norm_neither_overflows_nor_underflows(scale):
    # mu_j^r leaves the float range at r = 4 on either scale; the norm does not
    B = complex_matrix(trial_rng(0, 5), 4)
    for r in (1.0, 1.5, 2.0, 4.0, 10.0, math.inf):
        assert fb.schatten_norm(scale * B, r) == pytest.approx(
            scale * fb.schatten_norm(B, r), rel=1e-12)
    assert fb.schatten_norm(np.zeros((3, 3)), 4.0) == 0.0


def test_schatten_rejects_small_r():
    with pytest.raises(ValueError):
        fb.schatten_norm(np.eye(2), 0.5)


def test_loewner_basic():
    v = fb.loewner_leq(np.eye(3), 2 * np.eye(3))
    assert v.passed and v.slack_min == pytest.approx(1.0)
    v = fb.loewner_leq(np.diag([1.0, 3.0]), np.diag([2.0, 2.0]))
    assert not v.passed and v.slack_min == pytest.approx(-1.0)


def test_loewner_projection_boundedness():
    sp = fb.make_space(4)
    f = complex_vector(trial_rng(1, 0), 4)
    af = fb.op_a(sp, f).matrix
    v = fb.loewner_leq(af.conj().T @ af,
                       float(np.linalg.norm(f))**2 * np.eye(sp.dim))
    assert v.passed


def test_loewner_rejects_non_self_adjoint():
    with pytest.raises(ValueError):
        fb.loewner_leq(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))


@pytest.mark.parametrize("bad", [np.diag([math.nan, 1.0]),
                                 np.array([[0.0, math.nan], [math.nan, 0.0]]),
                                 np.diag([math.inf, 1.0]),
                                 np.array([[0.0, math.inf], [math.inf, 0.0]]),
                                 np.array([[0.0, math.inf], [-math.inf, 0.0]])],
                         ids=["nan on diagonal", "nan off diagonal", "inf on diagonal",
                              "inf off diagonal", "inf against -inf"])
def test_loewner_rejects_non_finite_operands(bad):
    # eigvalsh gives [0, -0] for a NaN on the diagonal, which would pass
    for lhs, rhs in ((bad, np.eye(2)), (np.eye(2), bad)):
        with pytest.raises(ValueError, match="not finite and self-adjoint"):
            fb.loewner_leq(lhs, rhs)


def test_loewner_rejects_operands_whose_difference_overflows():
    # each operand is finite, but Y - X is not: a NaN slack and tolerance before
    with pytest.raises(ValueError, match="not finite"):
        fb.loewner_leq(np.diag([-1.7e308, 1.0]), np.diag([1.7e308, 1.0]))
    # a finite difference near the float maximum gives a finite verdict
    verdict = fb.loewner_leq(np.diag([-0.9e308, 1.0]), np.diag([0.8e308, 1.0]))
    assert verdict.slack_min == 0.0 and math.isfinite(verdict.tolerance) and verdict.passed


def test_loewner_reflexive_and_transitive():
    X = psd_matrix(trial_rng(1, 1), 4)
    assert fb.loewner_leq(X, X).passed
    Y = X + psd_matrix(trial_rng(1, 2), 4)
    Z = Y + psd_matrix(trial_rng(1, 3), 4)
    assert fb.loewner_leq(X, Y).passed
    assert fb.loewner_leq(Y, Z).passed
    assert fb.loewner_leq(X, Z).passed


def test_psd_power():
    X = psd_matrix(trial_rng(2, 0), 4)
    half = fb.psd_power(X, 0.5)
    assert np.abs(half @ half - X).max() <= 1e-10 * (1 + np.abs(X).max())
    with pytest.raises(ValueError):
        fb.psd_power(-np.eye(2), 0.5)


def test_jensen_single_operator_equality():
    c = psd_matrix(trial_rng(3, 0), 3)
    v = fb.jensen_check([1.0], [c], p=2, q=3)
    assert v.passed and abs(v.slack_min) <= 1e-8 * (1 + np.linalg.norm(c, 2))


def test_jensen_scalar_case():
    # 1x1 operators: 5 <= sqrt(2) * sqrt(17) = sqrt(34)
    c = [np.array([[1.0]]), np.array([[4.0]])]
    v = fb.jensen_check([1.0, 1.0], c, p=1, q=2)
    assert v.passed
    assert v.slack_min == pytest.approx(math.sqrt(34) - 5.0)


def test_jensen_commuting_pair():
    rng = trial_rng(3, 1)
    U = unitary_matrix(rng, 4)
    c1 = U @ np.diag(np.abs(rng.standard_normal(4))) @ U.conj().T
    c2 = U @ np.diag(np.abs(rng.standard_normal(4))) @ U.conj().T
    assert fb.jensen_check([0.4, 1.7], [c1, c2], p=1, q=3).passed


def test_jensen_validation():
    with pytest.raises(ValueError):
        fb.jensen_check([1.0], [np.eye(2)], p=2, q=1)
    with pytest.raises(ValueError):
        fb.jensen_check([-1.0], [np.eye(2)], p=1, q=2)


def test_hoelder_equality_at_uniform_data():
    v = fb.hoelder_check([1.0, 1.0], [np.eye(3), np.eye(3)], p=2, q=2)
    assert v.passed and abs(v.slack_min) <= 1e-8


def test_hoelder_orthogonal_projections():
    # projections summing to the identity: the engine behind the diagonal
    # number-operator bound
    mu = [0.9, 0.5, 0.1]
    projections = [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])]
    v = fb.hoelder_check(mu, projections, p=2, q=2)
    assert v.passed


def test_hoelder_random_triple():
    rng = trial_rng(4, 0)
    ops = [psd_matrix(rng, 4) for _ in range(3)]
    v = fb.hoelder_check([1.1, 0.3, 2.0], ops, p=1.5, q=3)
    assert v.passed


def test_hoelder_large_coefficients():
    # each mu_j**2 overflows, the 2-norm sqrt(2) 1e200 does not; both sides are 2e200 Id
    v = fb.hoelder_check([1e200, 1e200], [np.eye(2), np.eye(2)], p=2, q=2)
    assert v.passed


def test_hoelder_validation():
    with pytest.raises(ValueError):
        fb.hoelder_check([1.0], [np.eye(2)], p=2, q=3)


@pytest.mark.parametrize("sigma", [-1, 1])
def test_cauchy_schwarz_single(sigma):
    rng = trial_rng(5, 0)
    a, b = complex_matrix(rng, 3), complex_matrix(rng, 3)
    res = fb.cauchy_schwarz_check([a], [b], sigma)
    assert res.verdict.passed and res.identity_passed
    if sigma == 1:
        assert abs(res.verdict.slack_min) <= res.verdict.tolerance


@pytest.mark.parametrize("sigma", [-1, 1])
def test_cauchy_schwarz_random(sigma):
    for t in range(10):
        rng = trial_rng(5, 1, t)
        a_ops = [complex_matrix(rng, 3) for _ in range(2)]
        b_ops = [complex_matrix(rng, 3) for _ in range(2)]
        res = fb.cauchy_schwarz_check(a_ops, b_ops, sigma)
        assert res.verdict.passed
        assert res.identity_passed, res.identity_residual


def test_cauchy_schwarz_validation():
    with pytest.raises(ValueError):
        fb.cauchy_schwarz_check([np.eye(2)], [np.eye(2), np.eye(2)], 1)
    with pytest.raises(ValueError):
        fb.cauchy_schwarz_check([np.eye(2)], [np.eye(3)], 1)
    with pytest.raises(ValueError):
        fb.cauchy_schwarz_check([np.eye(2)], [np.eye(2)], 0)


def test_bound_verdict_invariant():
    v = fb.BoundVerdict(slack_min=-1e-9, tolerance=1e-8)
    assert v.passed
    v = fb.BoundVerdict(slack_min=-1e-7, tolerance=1e-8)
    assert not v.passed


def test_schatten_rejects_nan_exponent():
    with pytest.raises(ValueError, match="r >= 1"):
        fb.schatten_norm(np.eye(2), math.nan)
