import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fockbound as fb
import jw_oracle as jw
from fockbound.bounds import WHICH, basic_estimate_bruteforce
from fockbound.rng import complex_matrix, skew_matrix, trial_rng


@pytest.mark.parametrize("r,s", [(1, 0.0), (4 / 3, 0.5), (1.5, 2 / 3),
                                 (2, 1.0), (4, 1.5), (math.inf, 2.0)])
def test_bound_spec_exponent(r, s):
    assert fb.BoundSpec("dGamma", r).s == pytest.approx(s)


def test_bound_spec_validation():
    with pytest.raises(ValueError):
        fb.BoundSpec("dGamma", 0.5)
    with pytest.raises(ValueError):
        fb.BoundSpec("Delta", 3)
    with pytest.raises(ValueError):
        fb.BoundSpec("improved_r2", 1.5)
    with pytest.raises(ValueError):
        fb.BoundSpec("nope", 2)


def test_rhs_operator_infinity_is_n_squared():
    sp = fb.make_space(3)
    rhs = fb.rhs_operator(sp, fb.BoundSpec("dGamma", math.inf), {"r": 1.0})
    n = sp.occupations.astype(float)
    assert np.array_equal(np.diag(rhs.matrix).real, n**2)


def test_rhs_operator_trace_class_is_constant():
    sp = fb.make_space(3)
    rhs = fb.rhs_operator(sp, fb.BoundSpec("dGamma", 1), {"r": 2.5})
    assert np.allclose(np.diag(rhs.matrix).real, 2.5**2)


def test_rhs_operator_intermediate_case():
    sp = fb.make_space(3)
    spec = fb.BoundSpec("dGamma", 1.5)
    rhs = fb.rhs_operator(sp, spec, {"r": 2.0, "2": 3.0})
    n = sp.occupations.astype(float)
    assert np.allclose(np.diag(rhs.matrix).real, 4.0 * n**(2 / 3) + 9.0)


def test_rhs_operator_norm_mismatch():
    sp = fb.make_space(2)
    with pytest.raises(ValueError):
        fb.rhs_operator(sp, fb.BoundSpec("dGamma", 1.5), {"r": 1.0})


def test_saturation_at_identity():
    sp = fb.make_space(4)
    v = fb.verify_bound(sp, fb.BoundSpec("dGamma", math.inf), np.eye(4))
    assert v.passed and v.slack_min == 0.0


def test_rank_one_trace_class():
    sp = fb.make_space(3)
    B = np.zeros((3, 3), complex)
    B[0, 1] = 1.0
    assert fb.verify_bound(sp, fb.BoundSpec("dGamma", 1), B).passed


@pytest.mark.parametrize("r", [1, 4 / 3, 1.5, 2, 3, 4, math.inf])
def test_d_gamma_bound_random(r):
    sp = fb.make_space(6)
    for t in range(5):
        B = complex_matrix(trial_rng(20, t), 6)
        v = fb.verify_bound(sp, fb.BoundSpec("dGamma", r), B)
        assert v.passed, (r, v.slack_min)


@pytest.mark.parametrize("which", ["Delta", "DeltaPlus"])
@pytest.mark.parametrize("r", [1, 1.5, 2])
def test_pair_operator_bounds_random(which, r):
    sp = fb.make_space(6)
    for t in range(5):
        A = skew_matrix(trial_rng(21, t), 6)
        assert fb.verify_bound(sp, fb.BoundSpec(which, r), A).passed


def test_improved_and_literature_bounds():
    sp = fb.make_space(5)
    rng = trial_rng(22, 0)
    A = skew_matrix(rng, 5)
    B = complex_matrix(rng, 5)
    assert fb.verify_bound(sp, fb.BoundSpec("improved_r2", 2), A).passed
    assert fb.verify_bound(sp, fb.BoundSpec("literature_Delta", 2), A).passed
    assert fb.verify_bound(sp, fb.BoundSpec("literature_DeltaPlus", 2), A).passed
    assert fb.verify_bound(sp, fb.BoundSpec("literature_dGamma", math.inf), B).passed


def test_verify_bound_rejects_basic():
    sp = fb.make_space(2)
    with pytest.raises(ValueError):
        fb.verify_bound(sp, fb.BoundSpec("basic", 2), np.eye(2))


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
def test_verify_bounds_rejects_bad_tolerance(tol):
    sp = fb.make_space(3)
    spec = fb.BoundSpec("dGamma", 2)
    with pytest.raises(ValueError, match="tolerance"):
        fb.verify_bound(sp, spec, np.diag([1.0, 2.0, 3.0]), tol=tol)
    with pytest.raises(ValueError, match="tolerance"):
        fb.verify_bounds(sp, [spec], np.diag([1.0, 2.0, 3.0]), tol=tol)


def test_verify_bounds_keeps_a_valid_tolerance():
    sp = fb.make_space(3)
    verdicts = fb.verify_bounds(sp, [fb.BoundSpec("dGamma", r) for r in (1, 2)],
                                np.diag([1.0, 2.0, 3.0]), tol=0.0)
    assert [v.tolerance for v in verdicts] == [0.0, 0.0]


@pytest.mark.parametrize("m, specs", [
    (3, [fb.BoundSpec("dGamma", 2)]),
    (10, [fb.BoundSpec("dGamma", r) for r in (1, 4 / 3, 2, math.inf)]
     + [fb.BoundSpec("literature_dGamma", math.inf)]),
    (10, [fb.BoundSpec("DeltaPlus", r) for r in (1, 1.5, 2)]
     + [fb.BoundSpec("improved_r2", 2), fb.BoundSpec("literature_DeltaPlus", 2)]),
])
def test_one_svd_per_verify_bounds_call(m, specs, monkeypatch):
    # every right-hand side reads X through its singular values alone, also
    # where the Lanczos sectors of m = 10 read them for their certificate width
    calls, svd = [], np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    rng = trial_rng(23, m)
    X = complex_matrix(rng, m) if specs[0].operator == "dGamma" else skew_matrix(rng, m)
    assert all(v.passed for v in fb.verify_bounds(fb.make_space(m), specs, X))
    assert calls == [(m, m)]


def _valid_specs():
    specs = {}
    for which in WHICH:
        for r in (1, 4 / 3, 1.5, 2, 3, math.inf):
            try:
                spec = fb.BoundSpec(which, r)
                specs.setdefault(spec.operator, []).append(spec)
            except ValueError:  # r out of range for this bound, or `basic`
                pass
    return specs


SPECS_BY_OPERATOR = _valid_specs()


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(m=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_verify_bounds_equals_verify_bound_per_spec(m, seed, data):
    operator = data.draw(st.sampled_from(sorted(SPECS_BY_OPERATOR)))
    specs = data.draw(st.lists(st.sampled_from(SPECS_BY_OPERATOR[operator]),
                               min_size=1, max_size=5))
    tol = data.draw(st.none() | st.floats(0.0, 1.0))
    rng = trial_rng(seed, m)
    X = complex_matrix(rng, m) if operator == "dGamma" else skew_matrix(rng, m)
    sp = fb.make_space(m)
    assert fb.verify_bounds(sp, specs, X, tol) == [
        fb.verify_bound(sp, spec, X, tol) for spec in specs]


def test_verify_bounds_rejects_a_row_outside_its_sector_block(misplace_row):
    # np.add.at would wrap the row of -1 into the block's last row
    moved = misplace_row(past_end=False)
    with pytest.raises(fb.fock.GradingError, match="sector shift"):
        fb.verify_bounds(fb.make_space(4), [fb.BoundSpec("dGamma", 2)],
                         complex_matrix(trial_rng(8, 4), 4))
    assert moved == ["dGamma"]


def test_verify_bounds_needs_one_operator():
    sp = fb.make_space(3)
    A = skew_matrix(trial_rng(5, 3), 3)
    with pytest.raises(ValueError, match="one operator"):
        fb.verify_bounds(sp, [], A)
    with pytest.raises(ValueError, match="one operator"):
        fb.verify_bounds(sp, [fb.BoundSpec("Delta", 2), fb.BoundSpec("DeltaPlus", 2)], A)


def test_basic_estimate_saturation():
    sp = fb.make_space(4)
    v = fb.basic_estimate_check(sp, np.ones(4), math.inf)
    assert v.passed and v.slack_min == 0.0


def test_basic_estimate_p1():
    sp = fb.make_space(2)
    v = fb.basic_estimate_check(sp, [1.0, 1.0], 1)
    assert v.passed and v.slack_min == 0.0


def test_basic_estimate_p2_hand_case():
    # lam = (1, 1/2), p = q = 2: top-2 sum 1.5 against sqrt(5/4)*sqrt(2)
    sp = fb.make_space(2)
    v = fb.basic_estimate_check(sp, [1.0, 0.5], 2)
    assert v.passed
    brute = basic_estimate_bruteforce(sp, np.array([1.0, 0.5]), 2)
    assert v.slack_min == pytest.approx(brute)
    assert math.sqrt(1.25) * math.sqrt(2) - 1.5 == pytest.approx(0.0811388, abs=1e-6)


def test_basic_estimate_rejects_negative():
    sp = fb.make_space(2)
    with pytest.raises(ValueError):
        fb.basic_estimate_check(sp, [1.0, -0.1], 2)


@pytest.mark.parametrize("p", [1, 1.5, 2, 3, math.inf])
def test_basic_estimate_matches_bruteforce(p):
    for m in (4, 8, 12):
        sp = fb.make_space(m)
        for t in range(5):
            lam = np.abs(trial_rng(23, m, t).standard_normal(m))
            fast = fb.basic_estimate_check(sp, lam, p).slack_min
            assert fast == pytest.approx(basic_estimate_bruteforce(sp, lam, p),
                                         abs=1e-12)


def test_basic_estimate_fast_path_diagonal_vs_fock():
    # the subset-sum verdict agrees with an explicit Fock-space eigensolve
    m = 6
    sp = fb.make_space(m)
    lam = np.abs(trial_rng(24, 0).standard_normal(m))
    lhs = fb.d_gamma(sp, np.diag(lam).astype(complex)).matrix
    p = 1.5
    big = float(np.sum(lam**p)**(1 / p))
    rhs = big * sp.occupations.astype(float)**(1 - 1 / p)
    slack_fock = float(np.min(rhs - np.diag(lhs).real))
    assert fb.basic_estimate_check(sp, lam, p).slack_min == pytest.approx(
        slack_fock, abs=1e-12)


def test_basic_estimate_large_lambda():
    # each lam_j**2 overflows, the 2-norm sqrt(3) 1e160 does not; lam = c (1, 1, 1)
    # saturates the bound at n = 3, where both sides are 3e160 to rounding
    v = fb.basic_estimate_check(fb.make_space(3), [1e160] * 3, 2)
    assert math.isfinite(v.tolerance) and v.passed
    assert abs(v.slack_min) <= 1e-15 * 3e160


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(lam=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=1, max_size=6),
       p=st.one_of(st.floats(1.0, 50.0), st.just(math.inf)), k=st.integers(-300, 300))
def test_basic_estimate_slack_scales_exactly_by_powers_of_two(lam, p, k):
    # the p-norm is formed relative to the largest lam_j, so 2^k lam scales every
    # step by exactly 2^k, with no lam_j**p to overflow or underflow
    lam = np.array(lam)
    space = fb.make_space(lam.size)
    slack = fb.basic_estimate_check(space, lam, p).slack_min
    assert fb.basic_estimate_check(space, np.ldexp(lam, k), p).slack_min == \
        math.ldexp(slack, k)


def test_sector_monotonicity_against_literature_bound():
    # whenever the r = inf bound applies, each sector obeys it individually
    sp = fb.make_space(5)
    B = complex_matrix(trial_rng(25, 0), 5)
    q = fb.d_gamma(sp, B)
    lhs = q.matrix.conj().T @ q.matrix
    op_norm = fb.schatten_norm(B, math.inf)
    for n in range(6):
        idx = np.nonzero(sp.occupations == n)[0]
        block = lhs[np.ix_(idx, idx)]
        lmax = np.linalg.eigvalsh(block).max()
        assert lmax <= op_norm**2 * n**2 + 1e-8 * (1 + op_norm**2 * n**2)


def test_bound_sweep_deterministic():
    spec = fb.BoundSpec("dGamma", 2)
    rows1 = fb.bound_sweep([3, 4], spec, trials=3, seed=77)
    rows2 = fb.bound_sweep([3, 4], spec, trials=3, seed=77)
    assert rows1 == rows2
    assert len(rows1) == 6
    for row in rows1:
        assert row.max_ratio <= 1.0 + 1e-8
        assert row.slack_min >= -1e-8


def test_bound_sweep_empty_family():
    assert fb.bound_sweep([], fb.BoundSpec("dGamma", 2), trials=3, seed=0) == []


@pytest.mark.parametrize("operator", ["dGamma", "Delta", "DeltaPlus"])
def test_each_sector_solves_the_smaller_gram(operator, monkeypatch):
    # dGamma's Q_n* Q_n is C(m, n) square and Q_n Q_n* is C(m, n + shift)
    # square; a pair operator's block keeps one copy of each distinct block of
    # its pair form, 3 of the 6 states of sector 1 at m = 6.  The eigensolve
    # takes the smaller side, and an empty block takes none
    m = 6
    shapes, solve = [], np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        shapes.append(a.shape)
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    specs = [spec for spec in SPECS_BY_OPERATOR[operator] if spec.r in (1, 2)]
    rng = trial_rng(26, 0)
    X = complex_matrix(rng, m) if operator == "dGamma" else skew_matrix(rng, m)
    assert all(v.passed for v in fb.verify_bounds(fb.make_space(m), specs, X))
    assert shapes == [(d, d) for d in jw.gram_dims(m, operator) if d]


@pytest.mark.parametrize("which,entry", [("dGamma", 1e160), ("dGamma", 1e200),
                                         ("DeltaPlus", 1e160), ("Delta", 1e200),
                                         ("dGamma", math.inf), ("dGamma", math.nan)])
def test_unrepresentable_operator_rejected_before_any_product(which, entry, monkeypatch):
    def must_not_build(*args, **kwargs):
        raise AssertionError("sector block built from an operator that overflows")

    monkeypatch.setattr(fb.fock, "ladder_entries", must_not_build)
    X = np.eye(3, dtype=complex)
    X[0, 1] = entry
    if which != "dGamma":
        X = X - X.T
    with pytest.raises(ValueError, match="would overflow"):
        fb.verify_bound(fb.make_space(3), fb.BoundSpec(which, 2), X)


# the admissible exponents of each bound, written out from the paper
R_RANGES = {"dGamma": (1, math.inf), "Delta": (1, 2), "DeltaPlus": (1, 2),
            "literature_dGamma": (1, math.inf), "literature_Delta": (1, math.inf),
            "literature_DeltaPlus": (1, math.inf), "improved_r2": (2, 2)}
# s = 2(r - 1)/r at each exponent the pins use
EXPONENT_S = {1: 0.0, 4 / 3: 0.5, 1.5: 2 / 3, 2: 1.0, 3: 4 / 3, math.inf: 2.0}


def paper_rhs(which, r, n):
    """rhs(n) at |X|_r = 2, |X|_2 = 3 and |X|_inf = 5."""
    s = EXPONENT_S[r]
    if which == "dGamma":
        return 4 * n**s + (9 if 1 < r < 2 else 0)
    if which == "Delta":
        return 4 * n**s + (9 if r > 1 else 0)
    if which == "DeltaPlus":
        return 4 * n**s + (27 if r > 1 else 0)
    return {"literature_dGamma": 25 * n**2, "literature_Delta": 9 * n**2,
            "literature_DeltaPlus": 9 * (n + 2)**2, "improved_r2": 9 * (n + 2)}[which]


def test_ranges_cover_every_bound():
    assert set(R_RANGES) == set(WHICH)


@pytest.mark.parametrize("which,r", [(which, r) for which, (lo, hi) in R_RANGES.items()
                                     for r in EXPONENT_S if lo <= r <= hi])
def test_rhs_operator_is_the_paper_formula(which, r):
    sp = fb.make_space(4)
    rhs = fb.rhs_operator(sp, fb.BoundSpec(which, r), {"r": 2, "2": 3, "inf": 5})
    n = sp.occupations.astype(float)
    np.testing.assert_allclose(np.diag(rhs.matrix).real, paper_rhs(which, r, n), rtol=1e-14)


@pytest.mark.parametrize("which", sorted(R_RANGES))
def test_bound_spec_accepts_exactly_its_r_range(which):
    # nan fails every comparison, so it is outside every range
    lo, hi = R_RANGES[which]
    assert fb.BoundSpec(which, lo).r == lo and fb.BoundSpec(which, hi).r == hi
    outside = [math.nan, np.nextafter(lo, 0.0)]
    for r in outside + ([np.nextafter(hi, math.inf)] if hi < math.inf else []):
        with pytest.raises(ValueError, match="r <= "):
            fb.BoundSpec(which, float(r))


def test_readme_bound_table_lists_every_bound():
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| `--which` | `Q` | admissible `r` | `rhs(n)` |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append(line.split("|")[1].strip().strip("`"))
    assert rows == list(WHICH)
