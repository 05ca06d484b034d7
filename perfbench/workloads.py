"""The benchmark's workloads: fixed batches of `fockbound` CLI invocations.

Each workload is a list of invocations.  An invocation is the argv passed to
`fockbound.cli.main` together with the check_ids its report must contain;
every one of those rows is expected to pass.  The expected ids are written
out here from the CLI's documented row naming, not read back from the
program, so a missing or renamed row counts as a failure.

`tiny=True` gives the same mix at m <= 4 with a few trials, for the self-test.
Why each workload exists is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

CAR_RESIDUALS = ("adjoint_relation", "anticommutator_aa", "anticommutator_adad",
                 "anticommutator_mixed", "norm_identity", "projection_identity")
ALGEBRA_IDENTITIES = ("adjoint_delta", "adjoint_dgamma", "commutator", "grading")


@dataclass(frozen=True)
class Invocation:
    argv: tuple
    expected: tuple  # check_ids whose rows must be present and pass

    @property
    def subcommand(self) -> str:
        return self.argv[0]


def _r_label(text: str) -> str:
    """The exponent as the CLI prints it in a check_id (str of a float)."""
    return "inf" if text == "inf" else str(float(Fraction(text)))


def verify_bounds(which: str, rs: tuple, m: int, trials: int, seed: int) -> Invocation:
    argv = ("verify-bounds", "--which", which, "--r", *rs, "--m", str(m),
            "--trials", str(trials), "--seed", str(seed))
    expected = tuple(f"bounds/{which}/m={m}/r={_r_label(r)}/trial={t:03d}"
                     for r in rs for t in range(trials))
    return Invocation(argv, expected)


def verify_car(m: int, trials: int, seed: int) -> Invocation:
    argv = ("verify-car", "--m", str(m), "--trials", str(trials), "--seed", str(seed))
    return Invocation(argv, tuple(f"car/m={m}/{key}" for key in CAR_RESIDUALS))


def verify_algebra(m: int, trials: int, seed: int) -> Invocation:
    argv = ("verify-algebra", "--m", str(m), "--trials", str(trials), "--seed", str(seed))
    return Invocation(argv, tuple(f"algebra/m={m}/{key}" for key in ALGEBRA_IDENTITIES))


def gaussian_check(m: int, trials: int, seed: int) -> Invocation:
    argv = ("gaussian-check", "--m", str(m), "--trials", str(trials), "--seed", str(seed))
    expected = tuple(f"gaussian/m={m}/{key}"
                     for key in ("convention", "series_vs_determinant", "zeros"))
    expected += tuple(f"gaussian/order/r={r}" for r in (1.0, 1.5, 2.0))
    return Invocation(argv, expected)


def sweep_sharpness(s: str) -> Invocation:
    s_label = str(float(s))
    expected = (f"sweep/power_decay/s={s_label}",
                f"sweep/recovery/s={s_label}/eps=0.0",
                f"sweep/recovery/s={s_label}/eps=0.1")
    return Invocation(("sweep-sharpness", "--s", s), expected)


def _bounds_m10(seed: int, tiny: bool) -> list[Invocation]:
    m = 4 if tiny else 10
    return [
        verify_bounds("dGamma", ("1", "4/3", "2", "inf"), m, 1, seed),
        verify_bounds("Delta", ("1", "3/2", "2"), m, 1, seed),
        verify_bounds("DeltaPlus", ("1", "2"), m, 1, seed),
        verify_bounds("improved_r2", ("2",), m, 1, seed),
        verify_bounds("literature_DeltaPlus", ("2",), m, 1, seed),
    ]


def _identities_m8(seed: int, tiny: bool) -> list[Invocation]:
    m, m_bounds = (4, 3) if tiny else (8, 6)
    car, algebra, bounds = (3, 2, 2) if tiny else (15, 6, 8)
    return [
        verify_car(m, car, seed),
        verify_algebra(m, algebra, seed),
        verify_bounds("dGamma", ("1", "4/3", "2", "inf"), m_bounds, bounds, seed),
        verify_bounds("DeltaPlus", ("1", "2"), m_bounds, bounds, seed),
        sweep_sharpness("1.0"),
    ]


def _gaussian_m8(seed: int, tiny: bool) -> list[Invocation]:
    if tiny:
        return [gaussian_check(4, 2, seed), gaussian_check(3, 2, seed)]
    return [gaussian_check(8, 3, seed), gaussian_check(6, 7, seed)]


BATCHES = {
    "bounds-m10": _bounds_m10,
    "identities-m8": _identities_m8,
    "gaussian-m8": _gaussian_m8,
}


def batch(workload: str, seed: int, tiny: bool = False) -> list[Invocation]:
    return BATCHES[workload](seed, tiny)
