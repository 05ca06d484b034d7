import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fockbound as fb
import jw_oracle as jw
from fockbound.converse import _BLOCK, _loglog_slope, power_sum_certificate
from fockbound.rng import trial_rng
from fockbound.tolerances import SLOPE_TOL


def test_decay_values_harmonic():
    assert np.allclose(fb.decay_values("harmonic", 3), [1.0, 0.5, 1 / 3])


def test_decay_values_power():
    vals = fb.decay_values("power_decay", 4, s=1.0)
    assert np.allclose(vals, [1.0, 2**-0.5, 3**-0.5, 4**-0.5])
    assert np.all(np.diff(fb.decay_values("power_decay", 50, s=0.5)) < 0)


def test_decay_family_matrix():
    B = np.diag(fb.decay_values("harmonic", 3).astype(complex))
    assert np.allclose(np.diag(B).real, [1.0, 0.5, 1 / 3])


def test_decay_validation():
    with pytest.raises(ValueError):
        fb.decay_values("power_decay", 5, s=2.0)
    with pytest.raises(ValueError):
        fb.decay_values("power_decay", 5)
    with pytest.raises(ValueError):
        fb.decay_values("exponential", 5)


def test_sector_norm_diagonal_values():
    lam = fb.decay_values("harmonic", 10)
    assert jw.sector_norm_diagonal(lam, 3) == pytest.approx(11 / 6)
    assert jw.sector_norm_diagonal(lam, 0) == 0.0
    with pytest.raises(ValueError):
        jw.sector_norm_diagonal(lam, 11)


@pytest.mark.parametrize("m", [4, 8, 10])
def test_sector_norm_agrees_with_fock_eigenvalues(m):
    sp = fb.make_space(m)
    lam = np.abs(trial_rng(30, m).standard_normal(m))
    dg = fb.d_gamma(sp, np.diag(lam).astype(complex)).matrix
    for n in range(m + 1):
        idx = np.nonzero(sp.occupations == n)[0]
        block_norm = float(np.linalg.eigvalsh(dg[np.ix_(idx, idx)]).max()) \
            if idx.size else 0.0
        assert jw.sector_norm_diagonal(lam, n) == pytest.approx(block_norm,
                                                                abs=1e-12)


def test_sector_norm_permutation_invariant():
    rng = trial_rng(31, 0)
    lam = np.abs(rng.standard_normal(12))
    for _ in range(5):
        perm = rng.permutation(12)
        for n in (0, 3, 7, 12):
            assert jw.sector_norm_diagonal(lam[perm], n) == pytest.approx(
                jw.sector_norm_diagonal(lam, n))


def test_sharpness_sweep_s1():
    sweep = fb.sharpness_sweep(1.0, n_max=100_000)
    assert abs(sweep.slope - sweep.slope_target) <= SLOPE_TOL
    assert sweep.slope == pytest.approx(0.5, abs=0.02)
    assert np.all(np.diff(sweep.partial_sums) > 0)


def test_sharpness_sweep_near_boundary():
    sweep = fb.sharpness_sweep(1.8, n_max=100_000)
    assert sweep.slope == pytest.approx(0.9, abs=0.02)


@pytest.mark.parametrize("s", [0.5, 1.0, 1.8])
@pytest.mark.parametrize("n_max", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 100_000])
def test_streamed_sweep_sums_equal_one_cumsum(s, n_max):
    sweep = fb.sharpness_sweep(s, n_max=n_max)
    cumulative = np.cumsum(fb.decay_values("power_decay", n_max, s))
    assert np.array_equal(sweep.partial_sums, cumulative[sweep.n - 1])


@pytest.mark.parametrize("n_max", [0, -3, 5, 10, 11])
def test_sweep_rejects_a_fit_window_below_two_points(n_max):
    # the grid is even, so n_max = 11 holds only n = 10
    with pytest.raises(ValueError, match="n_max >= 12"):
        fb.sharpness_sweep(1.0, n_max=n_max)
    assert fb.sharpness_sweep(1.0, n_max=12).fit_window == (10, 12)


@pytest.mark.parametrize("n_max", [12, 13, 50, 10**5, 10**9])
def test_sweep_grid_equals_np_unique(n_max, monkeypatch):
    # the grid alone is under test, so no sum is taken
    monkeypatch.setattr(fb.converse, "_power_sums", lambda p, ends: np.asarray(ends, float))
    grid = 2 * np.unique(np.geomspace(5, n_max / 2, 60).astype(int))
    assert np.array_equal(fb.sharpness_sweep(1.0, n_max=n_max).n, grid)


SWEEP_S = [0.01, 0.05, 0.1, 0.2, 0.5, 1.0, 1.5, 1.9, 1.99]


@pytest.mark.parametrize("n_max", [11, 12, 13, 20, 28, 50, 100, 100_000])
def test_sweep_slope_at_small_n_max(n_max):
    # n // 2 for odd n and the uncancelled end term n^(s/2-1) / 2 put the slope
    # off by up to 1.13 at n_max = 11 and above SLOPE_TOL for some s at every
    # n_max up to 26; at the default the end term was the 1e-5 left over
    if n_max < 12:
        with pytest.raises(ValueError, match="n_max >= 12"):
            fb.sharpness_sweep(1.0, n_max=n_max)
        return
    for s in SWEEP_S:
        sweep = fb.sharpness_sweep(s, n_max=n_max)
        error = abs(sweep.slope - s / 2)
        assert error <= SLOPE_TOL and error <= (1e-7 if n_max == 100_000 else 0.006), (s, error)


def test_sweep_sharpness_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma, an import every fresh sweep process would pay for
    code = ("import sys\nfrom fockbound import cli\n"
            "code = cli.main(['sweep-sharpness', '--s', '1.0'])\n"
            "print(code, 'numpy.ma' in sys.modules, file=sys.stderr)")
    env = dict(os.environ, PYTHONPATH=str(Path(fb.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.stderr.split() == ["0", "False"]


@pytest.mark.parametrize("n_max", [2**53 + 1, 10**20])
def test_sweep_rejects_n_max_past_exact_float64_integers(n_max):
    with pytest.raises(ValueError, match=r"n_max <= 2\*\*53"):
        fb.sharpness_sweep(1.0, n_max=n_max)


@pytest.mark.parametrize("call", [lambda: fb.sharpness_sweep(1.0, n_max=10**7),
                                  lambda: power_sum_certificate(0.0, j_max=10**7)],
                         ids=["sharpness_sweep", "power_sum_certificate"])
def test_power_sums_take_memory_independent_of_n(call):
    # one array over all j would take 80 MB per array at n = 1e7
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_sweep_windows_converge_outward():
    # the fitted slope approaches s/2 as the fit window moves to larger n
    lam = fb.decay_values("power_decay", 100_000, s=1.0)
    sums = np.cumsum(lam)
    grid = np.unique(np.geomspace(10, 100_000, 80).astype(int))
    errors = []
    for lo, hi in ((10, 1000), (1000, 10_000), (10_000, 100_000)):
        window = (grid >= lo) & (grid <= hi)
        slope = _loglog_slope(grid[window], sums[grid[window] - 1])
        errors.append(abs(slope - 0.5))
    assert errors[0] > errors[1] > errors[2]


def test_harmonic_sector_norm_growth():
    lam = fb.decay_values("harmonic", 100_000)
    h = jw.sector_norm_diagonal(lam, 100_000)
    assert h >= 12.0
    assert h == pytest.approx(math.log(100_000) + 0.5772, abs=0.01)


def test_trace_bound_harmonic():
    m = 6
    sp = fb.make_space(m)
    B = np.diag(fb.decay_values("harmonic", m).astype(complex))
    res = fb.trace_bound_check(sp, B, n_max=m, r=2.0)
    assert res.passed
    # B + B* doubles the harmonic diagonal; the imaginary part vanishes
    harmonic = np.cumsum(fb.decay_values("harmonic", m))
    assert np.allclose(res.trace_sums, 2 * harmonic)


def test_trace_bound_zero_operator():
    sp = fb.make_space(4)
    res = fb.trace_bound_check(sp, np.zeros((4, 4)), n_max=4, r=2.0)
    assert res.passed
    assert np.all(res.trace_sums == 0) and np.all(res.sv_sums == 0)


def test_trace_bound_identity_s2():
    sp = fb.make_space(4)
    res = fb.trace_bound_check(sp, np.eye(4, dtype=complex), n_max=4, r=math.inf)
    assert res.passed


def test_trace_bound_validation():
    sp = fb.make_space(3)
    with pytest.raises(ValueError):
        fb.trace_bound_check(sp, np.zeros((3, 3)), n_max=5, r=2.0)


def test_power_sum_certificates():
    # each takes the excess of the exponent over 1: sum j^-1 and sum j^-1.05
    div = power_sum_certificate(0.0, j_max=10**5)
    assert not div.converges
    assert div.lower_bound == pytest.approx(math.log(10**5 + 1))
    conv = power_sum_certificate(0.05, j_max=10**5)
    assert conv.converges
    assert conv.tail_bound == pytest.approx((10**5)**(-0.05) / 0.05, rel=1e-10)


def recovery_holds(rep) -> bool:
    """The sweep/recovery row rule: divergent at eps = 0, convergent at every eps > 0."""
    return all(cert.converges == (eps > 0) for eps, cert in rep.certificates.items())


def test_schatten_recovery_s1():
    rep = fb.schatten_recovery_check(1.0, [0.0, 0.1])
    assert recovery_holds(rep) and rep.r == pytest.approx(2.0)
    assert not rep.certificates[0.0].converges
    assert rep.certificates[0.1].converges


def test_schatten_recovery_s_half():
    rep = fb.schatten_recovery_check(0.5, [0.0, 0.2])
    assert recovery_holds(rep) and rep.r == pytest.approx(4 / 3)


@pytest.mark.parametrize("s", [1.9999999999999998, 1.9999999999999996, 1.99999999999999])
def test_schatten_recovery_near_s_2(s):
    # r = 2 / (2 - s) is about 1e16 and absorbs eps, so the exponent
    # (1 - s/2)(r + eps) rounded to exactly 1 and called the convergent sum divergent
    rep = fb.schatten_recovery_check(s, [0.0, 0.1])
    assert recovery_holds(rep)
    assert rep.certificates[0.1].excess == 0.1 * (1 - s / 2) > 0
    assert math.isfinite(rep.certificates[0.1].tail_bound)


def test_schatten_recovery_validation():
    with pytest.raises(ValueError):
        fb.schatten_recovery_check(2.0, [0.1])


def test_slater_expectation_on_decay_families():
    for m in (4, 8, 10):
        sp = fb.make_space(m)
        for kind, s in (("harmonic", None), ("power_decay", 1.0)):
            B = np.diag(fb.decay_values(kind, m, s).astype(complex))
            modes = list(range(1, m + 1, 2))
            value = jw.slater_expectation(sp, B, modes)
            assert value == pytest.approx(sum(B[j - 1, j - 1].real for j in modes))
