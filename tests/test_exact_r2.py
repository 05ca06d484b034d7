"""The six bounds with an integer right-hand side at r = 2, decided with no
rounding by jw_oracle.exact_r2_decision on Gaussian-integer draws, against
the floating-point verdicts of verify_bounds and of the verify-bounds
command at m <= 6."""

import json
from functools import lru_cache

import numpy as np
import pytest

import fockbound as fb
import jw_oracle as jw
from fockbound import bounds, cli
from fockbound.rng import trial_rng

MODES = range(1, 7)
OPERATORS = ("dGamma", "Delta", "DeltaPlus")


@lru_cache(maxsize=None)
def draws(m: int, operator: str) -> tuple[np.ndarray, ...]:
    """Gaussian-integer X for `operator` on m modes: a random draw, and one
    shaped to meet its bounds with equality somewhere: a rank-one B for
    dGamma, whose one-particle block B* B has top |B|_2^2 = rhs(1), and
    flat pairs for Delta and DeltaPlus.  Skew for the pair operators."""
    rng = trial_rng(67, m, OPERATORS.index(operator))

    def draw_integers(*shape):
        return rng.integers(-3, 4, shape) + 1j * rng.integers(-3, 4, shape)

    if operator == "dGamma":
        return draw_integers(m, m), np.outer(draw_integers(m), draw_integers(m))
    X = draw_integers(m, m)
    return X - X.T, jw.pair_form(np.full(m // 2, 1 - 2j), m)


def rows(operator: str) -> list[str]:
    return [which for which in jw.EXACT_R2 if bounds.BOUNDS[which][0] == operator]


@lru_cache(maxsize=None)
def exact(m: int, which: str, draw: int, lowered: int) -> tuple[tuple[bool, bool], ...]:
    X = draws(m, bounds.BOUNDS[which][0])[draw]
    return tuple(jw.exact_r2_decision(fb.make_space(m), which, X, lowered))


def verdict(m, which, X, monkeypatch, lowered_by=0.0):
    """verify_bounds at r = 2 with the row's rhs(n) lowered by `lowered_by` |X|_2^2."""
    with monkeypatch.context() as patch:
        if lowered_by:
            operator, r_min, r_max, rhs = bounds.BOUNDS[which]
            patch.setitem(bounds.BOUNDS, which, (operator, r_min, r_max, lambda sq, r, s, n:
                                                 rhs(sq, r, s, n) - sq["2"] * lowered_by))
        [result] = fb.verify_bounds(fb.make_space(m), [fb.BoundSpec(which, 2.0)], X)
    return result


@pytest.mark.parametrize("lowered", [0, 1])
@pytest.mark.parametrize("operator", OPERATORS)
@pytest.mark.parametrize("m", MODES)
def test_r2_verdicts_equal_the_exact_decision(m, operator, lowered, monkeypatch):
    # every row passes exactly as written, and lowered by 1 (in units of the
    # unscaled draw) it fails wherever some sector's top is above rhs(n) - 1,
    # improved_r2 on sector 0 always; X -> 2^k X scales rhs(n) and the Gram by
    # 4^k and keeps the exact decision.  The default tolerance holds an
    # absolute 1e-8, so a lowered row is decided at k >= 0 only
    scales = (0, 1, 300) if lowered else (-300, -1, 0, 1, 300)
    for draw, X in enumerate(draws(m, operator)):
        square = float((np.abs(X)**2).sum())
        if lowered and not square:
            continue  # X = 0 (m = 1): rhs(n) = 0 cannot be lowered in units of |X|_2^2
        lowered_by = lowered / square if lowered else 0.0
        for which in rows(operator):
            decision = exact(m, which, draw, lowered)
            expected = all(psd for psd, _ in decision)
            if which == "improved_r2" and lowered:
                assert not decision[0][0]
            for k in scales:
                result = verdict(m, which, X * 2.0**k, monkeypatch, lowered_by)
                assert result.passed == expected, (which, draw, k, decision)


@pytest.mark.parametrize("m", MODES)
def test_zero_pivot_sectors_pass_under_the_default_tolerance(m, monkeypatch):
    # an exact zero pivot marks a sector where rhs(n) is an eigenvalue of
    # Q_n* Q_n: the bound is met with equality, and the slack is rounding.
    # improved_r2 meets sector 0 so for every skew C, since
    # Q_0* Q_0 = 4 sum_{j<k} |C_jk|^2 = 2 |C|_2^2 = rhs(0); the rank-one B
    # meets dGamma on sector 1
    met = set()
    for operator in OPERATORS:
        for draw, X in enumerate(draws(m, operator)):
            for which in rows(operator):
                zero_pivots = [n for n, (_, zero) in enumerate(exact(m, which, draw, 0)) if zero]
                met.update((which, draw, n) for n in zero_pivots)
                if zero_pivots:
                    for k in (-300, 0, 300):
                        assert verdict(m, which, X * 2.0**k, monkeypatch).passed, (which, draw, k)
    if m >= 2:
        assert {("improved_r2", 0, 0), ("improved_r2", 1, 0), ("dGamma", 1, 1)} <= met


@pytest.mark.parametrize("m", MODES)
def test_exact_decision_fails_an_rhs_lowered_by_one(m):
    # a self-test of the oracle: a sector met with equality fails exactly once
    # rhs(n) drops by 1, and on every sector the decision at rhs(n) - 1 agrees
    # with the eigenvalues wherever they are not within rounding of it
    space = fb.make_space(m)
    for operator in OPERATORS:
        for draw, X in enumerate(draws(m, operator)):
            square = int((np.abs(X)**2).sum().round())
            grams = jw.integer_grams(space, operator, X)
            for which in rows(operator):
                met, lowered = exact(m, which, draw, 0), exact(m, which, draw, 1)
                for n, (re, im) in enumerate(grams):
                    if met[n][1]:
                        assert lowered[n] == (False, False), (which, draw, n)
                    top = np.linalg.eigvalsh(re + 1j * im)[-1]
                    rhs = square * jw.EXACT_R2[which](n) - 1
                    if abs(top - rhs) > 1e-9 * (1 + abs(rhs)):
                        assert lowered[n][0] == (top < rhs), (which, draw, n)


@pytest.mark.parametrize("m", MODES)
def test_cli_rows_at_r2_equal_the_exact_decision(m, tmp_path, capsys):
    # the same draws through `verify-bounds --matrix-file`: the JSON holds each
    # entry of 2^k X exactly, and the row passes iff every sector is PSD
    path = tmp_path / "x.json"
    for operator in OPERATORS:
        for draw, X in enumerate(draws(m, operator)):
            for k in (-8, 0, 8):
                scaled = X * 2.0**k
                path.write_text(json.dumps(np.stack([scaled.real, scaled.imag], -1).tolist()))
                assert np.array_equal(cli._load_matrix(str(path)), scaled)
                for which in rows(operator):
                    expected = all(psd for psd, _ in exact(m, which, draw, 0))
                    code = cli.main(["verify-bounds", "--which", which, "--r", "2",
                                     "--m", str(m), "--matrix-file", str(path)])
                    [row] = json.loads(capsys.readouterr().out)["checks"]
                    assert row["pass"] == expected, (which, draw, k)
                    assert code == (cli.EXIT_OK if expected else cli.EXIT_VERIFICATION_FAILURE)
