import math

import numpy as np
import pytest

import fockbound as fb
import jw_oracle as jw
from fockbound import gaussian, quadratics
from fockbound.gaussian import (_rounding_floors, calibrate_convention, default_z_grid,
                                zeros_match)
from fockbound.quadratics import pair_form, pair_weights
from fockbound.rng import skew_matrix, trial_rng, unitary_matrix

ROTATION = np.array([[0, -1], [1, 0]], dtype=complex)


def test_gaussian_state_at_zero_is_vacuum():
    sp = fb.make_space(4)
    C = skew_matrix(trial_rng(0, 0), 4)
    state = jw.gaussian_state(sp, C, 0.0)
    assert np.array_equal(state.amplitudes, fb.vacuum(sp).amplitudes)


def test_gaussian_state_m2_hand_case():
    # C = mu * rotation: the state is Omega + z*delta_plus(C)Omega with
    # squared norm 1 + 4 mu^2 z^2 for real z
    sp = fb.make_space(2)
    mu, z = 0.5, 0.8
    state = jw.gaussian_state(sp, mu * ROTATION, z)
    pair_amp = state.amplitudes[sp.index_of[0b11]]
    assert pair_amp == pytest.approx(-2 * mu * z)
    assert np.linalg.norm(state.amplitudes)**2 == pytest.approx(1 + 4 * mu**2 * z**2)


def test_gaussian_state_even_sectors_only():
    sp = fb.make_space(4)
    C = skew_matrix(trial_rng(0, 1), 4)
    state = jw.gaussian_state(sp, C, 1.3)
    odd = state.amplitudes[sp.occupations % 2 == 1]
    assert np.abs(odd).max() == 0


def test_pair_coefficients_terminate():
    sp = fb.make_space(5)
    C = skew_matrix(trial_rng(0, 2), 5)
    coeffs = fb.pair_coefficients(sp, C)
    assert coeffs.shape == (3,)
    assert coeffs[0] == 1.0
    assert np.all(coeffs >= 0)
    # one more application of the pair creator annihilates the top state
    dp = fb.delta_plus(sp, C).matrix
    v = fb.vacuum(sp).amplitudes
    for _ in range(3):
        v = dp @ v
    assert np.abs(v).max() == 0


def test_pair_coefficients_reject_a_row_outside_its_sector_block(misplace_row):
    # np.add.at would wrap the row of -1 into the block's last row
    moved = misplace_row(past_end=False)
    with pytest.raises(fb.fock.GradingError, match="sector shift"):
        fb.pair_coefficients(fb.make_space(4), skew_matrix(trial_rng(8, 4), 4))
    assert moved == ["DeltaPlus"]


def test_omega_series_values():
    sp = fb.make_space(2)
    assert fb.omega_series(sp, 0.5 * ROTATION, 0.0) == 1.0
    assert fb.omega_series(sp, 0.5 * ROTATION, 1.0) == pytest.approx(2.0)


def test_omega_series_matches_state_pairing():
    sp = fb.make_space(6)
    C = skew_matrix(trial_rng(1, 0), 6)
    for z in (0.3, 1.0 + 0.5j, -0.2 + 1.1j):
        left = jw.gaussian_state(sp, C, np.conj(z))
        right = jw.gaussian_state(sp, C, z)
        paired = np.vdot(left.amplitudes, right.amplitudes)
        assert fb.omega_series(sp, C, z) == pytest.approx(paired, abs=1e-10)


def test_omega_determinant_conventions():
    C = 0.5 * ROTATION
    assert fb.omega_determinant(C, 0.0, 1.0) == 1.0
    assert fb.omega_determinant(C, 0.0, 0.5) == 1.0
    assert fb.omega_determinant(C, 1.0, 1.0) == pytest.approx(4.0)
    assert fb.omega_determinant(C, 1.0, 0.5) == pytest.approx(2.0)
    zero = np.zeros((3, 3))
    assert fb.omega_determinant(zero, 2.0, 0.5) == 1.0
    with pytest.raises(ValueError):
        fb.omega_determinant(C, 1.0, 0.25)


def test_calibration_selects_square_root():
    sp = fb.make_space(2)
    assert calibrate_convention(sp, 0.5 * ROTATION, [1.0]) == 0.5
    for t in range(20):
        m = 2 + (t % 4) * 2
        spm = fb.make_space(m)
        C = skew_matrix(trial_rng(2, t), m)
        assert calibrate_convention(spm, C, [0.7, 1.0 + 0.3j]) == 0.5


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_series_equals_calibrated_determinant_on_grid(m):
    sp = fb.make_space(m)
    C = skew_matrix(trial_rng(3, m), m)
    for z in default_z_grid():
        series = fb.omega_series(sp, C, z)
        det = fb.omega_determinant(C, z, 0.5)
        assert abs(series - det) <= 1e-10 * (1 + abs(series))


def test_omega_even_in_z():
    sp = fb.make_space(6)
    C = skew_matrix(trial_rng(4, 0), 6)
    for z in (0.4, 1.2 + 0.7j, -1.5j):
        assert abs(fb.omega_series(sp, C, z)
                   - fb.omega_series(sp, C, -z)) <= 1e-12


def test_omega_zeros_hand_case():
    zeros = fb.omega_zeros(0.5 * ROTATION)
    assert sorted(zeros, key=lambda z: z.imag) == [-1j, 1j]


def test_omega_zeros_empty_for_zero_operator():
    assert fb.omega_zeros(np.zeros((4, 4))).size == 0


@pytest.mark.parametrize("m", [4, 6])
def test_omega_zeros_match_polynomial_roots(m):
    sp = fb.make_space(m)
    for t in range(5):
        C = skew_matrix(trial_rng(5, m, t), m)
        formula = fb.omega_zeros(C)
        roots = fb.omega_polynomial_roots(sp, C)
        assert zeros_match(formula, roots, tol=1e-8)


def test_zero_scaling():
    # scaling C by t scales every zero by 1/t
    sp = fb.make_space(6)
    C = skew_matrix(trial_rng(6, 0), 6)
    base = np.sort_complex(fb.omega_zeros(C))
    for t in (0.5, 2.0):
        scaled = np.sort_complex(fb.omega_zeros(t * C))
        assert np.allclose(scaled, base / t)


def test_coefficient_growth_chain():
    # once the pair-creation bound holds, successive coefficients obey
    # c_{n+1} <= gamma ((2n)^s + 1) c_n with the constants folded into gamma
    for m in (6, 8):
        sp = fb.make_space(m)
        C = skew_matrix(trial_rng(7, m), m)
        r = 2.0
        spec = fb.BoundSpec("DeltaPlus", r)
        assert fb.verify_bound(sp, spec, C).passed
        gamma_r = fb.schatten_norm(C, r)**2
        delta_r = 3 * fb.schatten_norm(C, 2)**2
        gamma = max(gamma_r, delta_r)
        coeffs = fb.pair_coefficients(sp, C)
        for n in range(len(coeffs) - 1):
            bound = gamma * ((2 * n)**spec.s + 1) * coeffs[n]
            assert coeffs[n + 1] <= bound * (1 + 1e-10)


def test_exp_order_estimator_families():
    lgammas = np.array([math.lgamma(k + 1) for k in range(200)])
    assert fb.exp_order_estimate(np.exp(-lgammas)).order == pytest.approx(1.0, abs=0.05)
    assert fb.exp_order_estimate(np.exp(-2 * lgammas)).order == pytest.approx(0.5, abs=0.05)
    coeffs = np.exp(-(2 / 1.5) * lgammas)
    est = fb.exp_order_estimate(coeffs, degree_step=2)
    assert est.order == pytest.approx(1.5, abs=0.05)
    # window ends at the last coefficient that survives float underflow
    assert est.fit_window[1] == np.nonzero(coeffs)[0].max()


def test_exp_order_estimator_validation():
    with pytest.raises(ValueError):
        fb.exp_order_estimate(np.ones(10) / 2)
    with pytest.raises(ValueError):
        fb.exp_order_estimate(np.ones(50))


def test_gaussian_report():
    sp = fb.make_space(6)
    C = skew_matrix(trial_rng(8, 0), 6)
    rep = fb.gaussian_report(sp, C)
    assert rep.passed
    assert rep.convention == 0.5
    assert rep.zeros_matched
    assert rep.max_abs_diff <= 1e-10 * (1 + np.abs(rep.series_values).max())


@pytest.mark.parametrize("m", range(1, 9))
def test_determinant_convention_one_is_the_determinant(m):
    # convention 1 squares the product over one eigenvalue per skew pair of C*C
    C = skew_matrix(trial_rng(4, m), m)
    for z in (0.7, -1.3, 0.4 + 0.9j, 1.1j):
        det = np.linalg.det(np.eye(m) + 4 * z**2 * (C.conj().T @ C))
        assert abs(fb.omega_determinant(C, z, 1.0) - det) <= 1e-12 * (1 + abs(det))


def test_gaussian_report_solves_c_star_c_once(monkeypatch):
    # the singular values of C are the square roots of C*C's eigenvalues: one SVD
    calls = {"eigvalsh": 0, "svd": 0, "is_skew": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
    monkeypatch.setattr(quadratics, "is_skew", counting("is_skew", quadratics.is_skew))
    assert fb.gaussian_report(fb.make_space(6), skew_matrix(trial_rng(8, 0), 6)).passed
    assert calls["svd"] == 1 and calls["eigvalsh"] == 0 and calls["is_skew"] <= 2


@pytest.mark.parametrize("m", [1, 4, 7, 10])
def test_pointwise_wrappers_equal_the_report_arrays(m):
    sp = fb.make_space(m)
    C = skew_matrix(trial_rng(9, m), m)
    rep = fb.gaussian_report(sp, C)
    weights = pair_weights(np.linalg.svd(C, compute_uv=False))[: m // 2]
    pairs = weights * weights  # the eigenvalues of C*C, one per pair
    for z, series, det in zip(rep.z_grid, rep.series_values, rep.determinant_values):
        # the per-point loops that the arrays replace; the square of convention 1
        # was a Python complex product, which may differ from numpy's in the last bits
        loop_series = sum(c * z ** (2 * n) / math.factorial(n) ** 2
                          for n, c in enumerate(rep.coefficients))
        loop_half = complex(np.prod(1.0 + 4.0 * z**2 * pairs))
        assert fb.omega_series(sp, C, z) == series == loop_series
        assert fb.omega_determinant(C, z, 0.5) == det == loop_half
        assert abs(fb.omega_determinant(C, z, 1.0) - loop_half**2) <= 1e-15 * abs(loop_half)**2
    assert calibrate_convention(sp, C, rep.z_grid[:5]) == rep.convention
    assert np.array_equal(fb.omega_zeros(C, rep.convention), rep.zeros)


@pytest.mark.parametrize("scale", [1e-8, 1e-6, 1e-4])
@pytest.mark.parametrize("m", [4, 6])
def test_gaussian_report_keeps_the_zeros_of_a_small_c(m, scale):
    # the pair count compares relative errors, so it holds at every scale; an
    # absolute floor of NORM_TOL once dropped every zero of C below about 1e-5
    rep = fb.gaussian_report(fb.make_space(m), scale * skew_matrix(trial_rng(1, 0), m))
    assert rep.zeros.size == m
    assert rep.passed


def test_gaussian_report_edge_cases():
    one = fb.gaussian_report(fb.make_space(1), np.zeros((1, 1)))
    assert one.passed and one.zeros.size == 0 and np.array_equal(one.coefficients, [1.0])
    zero = fb.gaussian_report(fb.make_space(4), np.zeros((4, 4)))
    assert zero.passed and zero.zeros.size == 0
    assert np.all(zero.series_values == 1) and np.all(zero.determinant_values == 1)
    pair = np.zeros((4, 4), dtype=complex)
    pair[:2, :2] = 0.5 * ROTATION
    canonical = fb.gaussian_report(fb.make_space(4), pair)
    assert canonical.passed
    assert sorted(canonical.zeros, key=lambda z: z.imag) == [-1j, 1j]



@pytest.mark.parametrize("m", range(4, 11))
def test_rotated_rank_two_c_keeps_only_its_two_zeros(m):
    # Q^T C0 Q has one canonical pair, so |Dp^n Omega|^2 = 0 for n >= 2; the
    # block products leave about 1e-32 there, which used to add spurious
    # companion-matrix roots
    rng = trial_rng(61, m)
    C0 = np.zeros((m, m), dtype=complex)
    C0[:2, :2] = 0.7 * ROTATION
    Q = unitary_matrix(rng, m)
    C = Q.T @ C0 @ Q
    rep = fb.gaussian_report(fb.make_space(m), C)
    assert rep.zeros.size == 2 and rep.zeros_matched and rep.passed
    floors = _rounding_floors(rep.coefficients, C)
    assert np.all(rep.coefficients[2:] <= floors[2:])
    assert fb.omega_polynomial_roots(fb.make_space(m), C).size == 2


@pytest.mark.parametrize("m", range(2, 11))
def test_rounding_floor_keeps_every_coefficient_of_a_full_rank_c(m):
    for t in range(3):
        C = skew_matrix(trial_rng(62, m, t), m)
        coeffs = fb.pair_coefficients(fb.make_space(m), C)
        assert np.all(coeffs > _rounding_floors(coeffs, C))


def rotated_pair_forms(weights, m):
    """pair_form(weights, m) and five unitary rotations U^T C0 U of it."""
    C0 = pair_form(weights, m)
    rotations = (unitary_matrix(trial_rng(5 + k, m), m) for k in range(5))
    return [C0] + [U.T @ C0 @ U for U in rotations]


@pytest.mark.parametrize("eps", [1e-5, 1e-6, 1e-7, 1e-8, 1e-9])
@pytest.mark.parametrize("m", [4, 5])
def test_a_small_pair_weight_counts_on_both_sides_or_neither(m, eps):
    # the eigenvalues of C*C put eps^2 under a NORM_TOL cut-off that the series
    # coefficient 64 eps^2 passed, and rounded it to about 1e-6 relative: 2
    # formula zeros against 4 roots, or 4 zeros that missed the roots
    for C in rotated_pair_forms([1.0, eps], m):
        rep = fb.gaussian_report(fb.make_space(m), C)
        assert rep.zeros_matched and rep.passed, (m, eps)
        if eps >= 1e-5:  # both sides resolve the small pair
            assert rep.zeros.size == 4
        if eps <= 1e-8:  # the SVD's error bound alone is above EIGEN_TOL eps
            assert rep.zeros.size == 2


@pytest.mark.parametrize("m", [4, 5])
def test_formula_zeros_and_series_roots_count_the_same_pairs(m):
    # one decision for both sides, also at the edge of the rule
    sp = fb.make_space(m)
    for eps in np.geomspace(1e-5, 1e-8, 31):
        for C in rotated_pair_forms([1.0, eps], m):
            zeros, roots = fb.omega_zeros(C), fb.omega_polynomial_roots(sp, C)
            assert zeros.size == roots.size and zeros_match(zeros, roots), (m, eps)


@pytest.mark.parametrize("weights", [[1.0, 1e-4, 1e-5], [1.0, 1e-5, 1e-7]])
@pytest.mark.parametrize("m", [6, 7])
def test_a_left_out_pair_does_not_move_the_counted_zeros(m, weights):
    # the series roots of the counted pairs come from the whole polynomial; a
    # polynomial cut after them would move the root of 1e-4 by about 1e-2
    for C in rotated_pair_forms(weights, m):
        rep = fb.gaussian_report(fb.make_space(m), C)
        assert rep.zeros.size == 4 and rep.zeros_matched and rep.passed, (m, weights)


def test_a_dropped_series_tail_must_be_what_the_left_out_pairs_give():
    C = pair_form([1.0, 1e-9], 4)
    coeffs, weights = fb.pair_coefficients(fb.make_space(4), C), gaussian._pair_weights(C)
    assert gaussian._polynomial_roots(coeffs, C, weights, 1).size == 2
    coeffs[2] = 1e-6  # a pair of weight about 1.2e-4, which the weights do not show
    assert gaussian._polynomial_roots(coeffs, C, weights, 1).size == 4


@pytest.mark.xfail(strict=True, reason="zeros are matched root by root, and rounding "
                   "moves a cluster of k roots apart by about u^(1/k)")
@pytest.mark.parametrize("weights, m, k", [
    ([1.0, 1.0, 1.0], 6, None), ([1.0, 1.0, 1.0, 1.0], 8, None),
    ([0.7, 0.7, 0.7, 0.3], 8, None),
    *(([1.0, 3e-6, 1e-6], 6, k) for k in (1, 2, 4, 5))])
def test_repeated_pair_weights_match_their_zeros(weights, m, k):
    # the flat weights, and a counted weight 3e-6 next to a left-out 1e-6,
    # rotated by U^T C0 U; the series equals the determinant in every case
    C = pair_form(weights, m)
    if k is not None:
        U = unitary_matrix(trial_rng(40 + k, m), m)
        C = U.T @ C @ U
    assert fb.gaussian_report(fb.make_space(m), C).zeros_matched
