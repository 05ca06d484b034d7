import math

import numpy as np
import pytest

import fockbound as fb
import jw_oracle as jw
from fockbound import quadratics
from fockbound.rng import complex_matrix, skew_matrix, trial_rng, unitary_matrix
from fockbound.tolerances import NORM_TOL


def test_d_gamma_identity_is_number_operator():
    sp = fb.make_space(4)
    dg = fb.d_gamma(sp, np.eye(4))
    assert np.abs(dg.matrix - jw.number_operator(sp).matrix).max() == 0


def test_d_gamma_rank_one_projector():
    sp = fb.make_space(3)
    proj = np.zeros((3, 3), complex)
    proj[0, 0] = 1.0
    dg = fb.d_gamma(sp, proj)
    e1 = np.eye(3)[0]
    target = (fb.op_adag(sp, e1) @ fb.op_a(sp, e1)).matrix
    assert np.abs(dg.matrix - target).max() == 0
    eigs = np.linalg.eigvalsh(dg.matrix)
    assert set(np.round(eigs).astype(int)) == {0, 1}


def test_d_gamma_adjoint_relation():
    sp = fb.make_space(5)
    B = complex_matrix(trial_rng(1, 0), 5)
    lhs = fb.d_gamma(sp, B).matrix.conj().T
    rhs = fb.d_gamma(sp, B.conj().T).matrix
    assert np.abs(lhs - rhs).max() <= 1e-13 * (1 + np.abs(lhs).max())


def test_d_gamma_ons_independence():
    # the basis-sum definition over any orthonormal system agrees with the
    # matrix-coefficient expansion in the standard basis
    sp = fb.make_space(4)
    rng = trial_rng(2, 0)
    B = complex_matrix(rng, 4)
    U = unitary_matrix(rng, 4)
    total = np.zeros((sp.dim, sp.dim), complex)
    for j in range(4):
        u = U[:, j]
        total += (fb.op_adag(sp, B @ u) @ fb.op_a(sp, u.conj())).matrix
    ref = fb.d_gamma(sp, B).matrix
    assert np.abs(total - ref).max() <= 1e-12 * (1 + np.abs(ref).max())


def test_delta_ons_independence():
    sp = fb.make_space(4)
    rng = trial_rng(2, 1)
    A = skew_matrix(rng, 4)
    U = unitary_matrix(rng, 4)
    total = np.zeros((sp.dim, sp.dim), complex)
    for j in range(4):
        u = U[:, j]
        total += (fb.op_a(sp, A @ u) @ fb.op_a(sp, u.conj())).matrix
    ref = fb.delta(sp, A).matrix
    assert np.abs(total - ref).max() <= 1e-12 * (1 + np.abs(ref).max())


def test_delta_plus_hand_case():
    # C = [[0,-1],[1,0]] gives delta_plus = 2 a+_2 a+_1; on the vacuum that is
    # -2 times the {1,2} basis state under the JW sign convention here
    sp = fb.make_space(2)
    C = np.array([[0, -1], [1, 0]], dtype=complex)
    dp = fb.delta_plus(sp, C)
    assert dp.grading_shift == 2
    e = np.eye(2)
    two_creators = 2.0 * (fb.op_adag(sp, e[1]) @ fb.op_adag(sp, e[0])).matrix
    assert np.abs(dp.matrix - two_creators).max() == 0
    on_vacuum = dp.matrix @ jw.slater_state(sp, []).amplitudes
    expected = -2.0 * jw.slater_state(sp, [1, 2]).amplitudes
    assert np.array_equal(on_vacuum, expected)


def test_delta_kills_vacuum():
    sp = fb.make_space(5)
    A = skew_matrix(trial_rng(3, 0), 5)
    assert np.abs(fb.delta(sp, A).matrix @ jw.slater_state(sp, []).amplitudes).max() == 0


def test_delta_adjoint_relation():
    sp = fb.make_space(5)
    A = skew_matrix(trial_rng(3, 1), 5)
    lhs = fb.delta(sp, A).matrix.conj().T
    rhs = fb.delta_plus(sp, A.conj().T).matrix
    assert np.abs(lhs - rhs).max() <= 1e-13 * (1 + np.abs(lhs).max())


def test_non_skew_rejected():
    sp = fb.make_space(3)
    with pytest.raises(ValueError, match="skew"):
        fb.delta(sp, np.eye(3))
    with pytest.raises(ValueError, match="skew"):
        fb.delta_plus(sp, np.ones((3, 3)))


def test_skew_part_projection():
    rng = trial_rng(4, 0)
    A = complex_matrix(rng, 4)
    S = (A - A.T) / 2
    assert fb.is_skew(S)
    assert np.abs(S + S.T).max() < 1e-15


def test_commutator_hand_case():
    # A = -C with C = [[0,-1],[1,0]]: CA = Id, tr(AC) = 2, so the commutator
    # is exactly -4N + 4 Id
    sp = fb.make_space(2)
    C = np.array([[0, -1], [1, 0]], dtype=complex)
    A = -C
    da, dp = fb.delta(sp, A), fb.delta_plus(sp, C)
    comm = (da @ dp).matrix - (dp @ da).matrix
    target = -4.0 * jw.number_operator(sp).matrix + 4.0 * np.eye(4)
    assert np.abs(comm - target).max() == 0
    assert fb.check_commutator(sp, A, C) <= NORM_TOL


def test_commutator_zero_case():
    sp = fb.make_space(3)
    Z = np.zeros((3, 3))
    assert fb.check_commutator(sp, Z, Z) == 0


@pytest.mark.parametrize("m", [3, 4, 6])
def test_commutator_random(m):
    sp = fb.make_space(m)
    for t in range(5):
        rng = trial_rng(100 + m, t)
        residual = fb.check_commutator(sp, skew_matrix(rng, m), skew_matrix(rng, m))
        assert residual <= NORM_TOL, residual


@pytest.mark.parametrize("name, edge", [("Delta", "lowest"), ("Delta", "highest"),
                                        ("dGamma", "highest")])
@pytest.mark.parametrize("m", [2, 4])
def test_check_commutator_sees_one_corrupt_block(m, name, edge, corrupt_block):
    # Delta maps sector n to n - 2: its lowest block reaches the vacuum and
    # its highest one leaves the filled sector n = m.  The dGamma(CA) block of
    # sector m enters the residual of that sector alone.  At m = 1 every pair
    # operator vanishes, so m = 2 is the smallest case with a block to corrupt.
    flips = corrupt_block(name, 2 if edge == "lowest" else m)
    rng = trial_rng(9, m)
    residual = fb.check_commutator(fb.make_space(m), skew_matrix(rng, m), skew_matrix(rng, m))
    assert flips
    assert not residual <= NORM_TOL


def test_check_grading():
    sp = fb.make_space(4)
    rng = trial_rng(5, 0)
    assert fb.check_grading(fb.d_gamma(sp, complex_matrix(rng, 4)))
    assert fb.check_grading(fb.delta_plus(sp, skew_matrix(rng, 4)))
    assert fb.check_grading(fb.delta(sp, skew_matrix(rng, 4)))
    creator = fb.op_adag(sp, np.eye(4)[1])
    assert fb.check_grading(creator)
    # mislabeled shift must be caught
    bad = fb.FockOperator(sp, creator.matrix, grading_shift=0)
    assert not fb.check_grading(bad)


def test_check_grading_requires_declared_shift():
    sp = fb.make_space(2)
    op = fb.FockOperator(sp, np.eye(4, dtype=complex))
    with pytest.raises(ValueError):
        fb.check_grading(op)


def test_slater_expectation_harmonic_diagonal():
    sp = fb.make_space(3)
    B = np.diag([1.0, 0.5, 1 / 3]).astype(complex)
    value = jw.slater_expectation(sp, B, [1, 2, 3])
    assert value == pytest.approx(11 / 6)


def test_slater_expectation_vacuum_and_identity():
    sp = fb.make_space(4)
    assert jw.slater_expectation(sp, np.eye(4), []) == 0
    assert jw.slater_expectation(sp, np.eye(4), [2, 4]) == pytest.approx(2.0)


def test_slater_expectation_random():
    sp = fb.make_space(5)
    B = complex_matrix(trial_rng(6, 0), 5)
    value = jw.slater_expectation(sp, B, [1, 3, 4])
    assert value == pytest.approx(B[0, 0] + B[2, 2] + B[3, 3])


def test_linearity():
    sp = fb.make_space(4)
    rng = trial_rng(7, 0)
    B1, B2 = complex_matrix(rng, 4), complex_matrix(rng, 4)
    a, b = 1.3 - 0.2j, -0.7j
    combo = fb.d_gamma(sp, a * B1 + b * B2).matrix
    split = a * fb.d_gamma(sp, B1).matrix + b * fb.d_gamma(sp, B2).matrix
    scale = 1 + np.abs(split).max()
    assert np.abs(combo - split).max() <= 1e-12 * scale
    A1, A2 = skew_matrix(rng, 4), skew_matrix(rng, 4)
    combo = fb.delta(sp, a * A1 + b * A2).matrix
    split = a * fb.delta(sp, A1).matrix + b * fb.delta(sp, A2).matrix
    assert np.abs(combo - split).max() <= 1e-12 * (1 + np.abs(split).max())


def test_positivity_transfer():
    sp = fb.make_space(5)
    rng = trial_rng(8, 0)
    g = complex_matrix(rng, 5)
    dg = fb.d_gamma(sp, g.conj().T @ g)
    assert np.linalg.eigvalsh(dg.matrix).min() >= -1e-10


def test_dimension_mismatch():
    sp = fb.make_space(3)
    with pytest.raises(ValueError):
        fb.d_gamma(sp, np.eye(4))


def test_is_skew_near_the_float_maximum():
    # A + A^T would overflow here; the comparison runs on A scaled by its largest entry
    S = np.zeros((3, 3), dtype=complex)
    S[1, 2] = S[2, 1] = 1e308
    assert not fb.is_skew(S)
    S[2, 1] = -1e308
    assert fb.is_skew(S)
    assert not fb.is_skew(np.full((2, 2), np.nan)) and fb.is_skew(np.zeros((2, 2)))


@pytest.mark.parametrize("scale", [1.0, 1e-20, 2.0**-1000, 2.0**1000])
def test_is_skew_verdict_is_free_of_scale(scale):
    # the test is relative to max |A| alone, with no absolute floor: a draw
    # that is not skew stays rejected at 1e-20, and exactly skew draws pass
    # 1000 binades from 1 on either side
    assert not fb.is_skew(scale * complex_matrix(trial_rng(3, 0), 4))
    for t in range(5):
        assert fb.is_skew(scale * skew_matrix(trial_rng(3, t), 4))


@pytest.mark.parametrize("scale", [1e160, 1e200])
def test_overflowing_commutator_rejected_before_any_block(scale, monkeypatch):
    # unchecked, these products overflow to a NaN residual and an infinite scale
    def must_not_build(*args, **kwargs):
        raise AssertionError("sector block built from an operator that overflows")

    monkeypatch.setattr(fb.fock, "_gather", must_not_build)
    rng = trial_rng(3, 0)
    A, C = skew_matrix(rng, 4), skew_matrix(rng, 4)
    with pytest.raises(ValueError, match="would overflow"):
        fb.check_commutator(fb.make_space(4), scale * A, C)
    with pytest.raises(ValueError, match="would overflow"):
        fb.check_commutator(fb.make_space(4), scale * A, scale * C)


def test_unguarded_commutator_at_1e160_passes_and_sees_a_corrupt_block(monkeypatch,
                                                                        corrupt_block):
    # with the guard off, A and C of entries near 1e160 are still brought to
    # unit scale before any block is built: no product overflows, the ratio
    # stays at rounding size, and a corrupt Delta block fails the identity
    monkeypatch.setattr(quadratics, "require_representable", lambda *args: None)
    rng = trial_rng(3, 0)
    A, C = 1e160 * skew_matrix(rng, 4), 1e160 * skew_matrix(rng, 4)
    with np.errstate(all="raise"):
        assert fb.check_commutator(fb.make_space(4), A, C) < 1e-14
        flips = corrupt_block("Delta", 2)
        residual = fb.check_commutator(fb.make_space(4), A, C)
    assert flips
    assert not residual <= NORM_TOL


@pytest.mark.parametrize("k", [490, -490])
@pytest.mark.parametrize("m", [2, 4, 6])
def test_commutator_residual_is_exact_under_opposite_power_of_two_scalings(m, k):
    # 2^k A and 2^-k C are brought to the unit scale of A and C, so every
    # product, residual and scale is the unscaled one bit for bit.  Entries
    # near 1e+-147 pass require_representable.
    rng = trial_rng(41, m)
    A, C = skew_matrix(rng, m), skew_matrix(rng, m)
    scaled_A, scaled_C = A * 2.0**k, C * 2.0**-k
    assert 1e145 < np.abs(scaled_A if k > 0 else scaled_C).max() < 1e149
    sp = fb.make_space(m)
    residual = fb.check_commutator(sp, scaled_A, scaled_C)
    assert residual.hex() == fb.check_commutator(sp, A, C).hex()


@pytest.mark.parametrize("j, k", [(-300, -300), (300, 300), (-1, 2), (250, -7)])
def test_commutator_ratio_is_exact_under_power_of_two_scalings(j, k):
    # the identity is bilinear in (A, C), and its scale is the size of its
    # two sides, so no power of two on either argument moves the ratio
    rng = trial_rng(43, 0)
    A, C = skew_matrix(rng, 4), skew_matrix(rng, 4)
    sp = fb.make_space(4)
    assert fb.check_commutator(sp, A * 2.0**j, C * 2.0**k).hex() == \
        fb.check_commutator(sp, A, C).hex()


def test_check_commutator_fails_on_a_nan_in_one_block(corrupt_block):
    flips = corrupt_block("dGamma", 2, factor=math.nan)
    rng = trial_rng(9, 3)
    with np.errstate(all="ignore"):
        residual = fb.check_commutator(fb.make_space(3), skew_matrix(rng, 3),
                                       skew_matrix(rng, 3))
    assert flips
    assert not residual <= NORM_TOL and math.isnan(residual)
