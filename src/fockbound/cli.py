"""Command-line front end: seeded batch verification and report emission.

Reports are deterministic for a fixed configuration: the seed fixes every
random draw (counter-based Philox streams, one per trial), checks are sorted
by check_id, and the timestamp lives only in the report header.

Exit codes: 0 all checks passed, 1 verification failure, 2 validation error,
3 resource error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import os
import sys
import time
from fractions import Fraction

import numpy as np

from . import bounds, converse, gaussian, quadratics
from .fock import (CAR_TOL, LADDERS, GradingError, ResourceError, ladder_matrix,
                   make_space, verify_car)
from .rng import complex_matrix, skew_matrix, trial_rng
from .tolerances import NORM_TOL, ORDER_TOL, SLOPE_TOL

OUTPUT_DIR_ENV = "FOCKBOUND_OUTPUT_DIR"

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_VALIDATION_ERROR = 2
EXIT_RESOURCE_ERROR = 3


def parse_r(text: str) -> float:
    if text.lower() in ("inf", "infinity"):
        return math.inf
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"cannot parse exponent {text!r}") from exc


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _check(check_id: str, statement: str, inputs, metric: float,
           tolerance: float) -> dict:
    """One report row; it passes iff metric <= tolerance."""
    return {
        "check_id": check_id,
        "statement": statement,
        "inputs_digest": _digest(inputs),
        "metric": float(metric),
        "tolerance": float(tolerance),
        "pass": bool(metric <= tolerance),
    }


def _load_matrix(path: str) -> np.ndarray:
    """Square complex matrix from JSON: rows of [re, im] pairs of numbers, row-major.

    Integers are read as floats, so a JSON number is exactly a float entry;
    true, "2" or an object is not one.
    """
    with open(path) as fh:
        raw = np.asarray(json.load(fh, parse_int=float), dtype=object)
    if raw.ndim != 3 or raw.shape[0] != raw.shape[1] or raw.shape[2] != 2 \
            or any(type(x) is not float for x in raw.flat):
        raise ValueError(f"matrix file {path} must hold an n x n array of [re, im] pairs")
    arr = raw.astype(float)
    if not np.isfinite(arr).all():
        raise ValueError(f"matrix file {path} has non-finite entries")
    return arr[..., 0] + 1j * arr[..., 1]


def _resolve_operator(cfg: argparse.Namespace, skew: bool, rng) -> np.ndarray:
    if cfg.diag is not None:
        mat = np.diag(np.asarray(cfg.diag, dtype=complex))
    elif cfg.matrix_file is not None:
        mat = _load_matrix(cfg.matrix_file)
    elif skew:
        return skew_matrix(rng, cfg.m)
    else:
        return complex_matrix(rng, cfg.m)
    if mat.shape != (cfg.m, cfg.m):
        raise ValueError(f"operator is {mat.shape[0]}x{mat.shape[1]} but --m is {cfg.m}")
    return mat


def run_verify_car(cfg: argparse.Namespace) -> list[dict]:
    space = make_space(cfg.m)
    residuals = verify_car(space, trials=cfg.trials, seed=cfg.seed)
    inputs = {"m": cfg.m, "trials": cfg.trials, "seed": cfg.seed}
    checks = []
    for key, residual in sorted(residuals.items()):
        checks.append(_check(
            f"car/m={cfg.m}/{key}",
            f"anticommutation-relation residual over its scale: {key}",
            {**inputs, "residual": key}, residual, CAR_TOL[key]))
    return checks


def run_verify_bounds(cfg: argparse.Namespace) -> list[dict]:
    which = cfg.which
    specs = [bounds.BoundSpec(which, r) for r in cfg.r]
    if len(specs) > 1 and not bounds.reads_r_norm(which):
        raise ValueError(f"{which} reads no r-norm, so every --r gives the same "
                         f"verdict; pass one --r, got {len(specs)}")
    space = bounds.bound_space(cfg.m, specs[0].operator)
    skew = LADDERS[specs[0].operator][1] != 0
    explicit = cfg.diag is not None or cfg.matrix_file is not None
    checks = []
    for t in range(1 if explicit else cfg.trials):
        rng = trial_rng(cfg.seed, t)
        X = _resolve_operator(cfg, skew, rng)
        verdicts = bounds.verify_bounds(space, specs, X, tol=cfg.tolerance)
        for spec, verdict in zip(specs, verdicts):
            checks.append(_check(
                f"bounds/{which}/m={cfg.m}/r={spec.r}/trial={t:03d}",
                f"{which} bound at r={spec.r}: lambda_max of Q*Q - RHS",
                {"which": which, "m": cfg.m, "r": str(spec.r), "trial": t,
                 "seed": cfg.seed, "explicit": explicit},
                0.0 - verdict.slack_min, verdict.tolerance))
    return checks


def run_verify_algebra(cfg: argparse.Namespace) -> list[dict]:
    space = make_space(cfg.m)
    worst = {"commutator": 0.0, "adjoint_dgamma": 0.0, "adjoint_delta": 0.0}
    grading_failures = 0
    for t in range(cfg.trials):
        rng = trial_rng(cfg.seed, t)
        B = complex_matrix(rng, cfg.m)
        A = skew_matrix(rng, cfg.m)
        C = skew_matrix(rng, cfg.m)
        try:  # every block build checks its entries' sector shift
            # np.maximum and np.max keep a NaN that the builtin max would drop
            worst["commutator"] = np.maximum(worst["commutator"],
                                             quadratics.check_commutator(space, A, C))
            # Q(X)[n]^H and Q'(X^H)[n + shift] map sector n + shift to n; all else is 0
            for key, name, X, adjoint in (("adjoint_dgamma", "dGamma", B, "dGamma"),
                                          ("adjoint_delta", "Delta", A, "DeltaPlus")):
                worst[key] = np.max([worst[key], *(np.abs(
                    ladder_matrix(space, name, X, n).conj().T - ladder_matrix(
                        space, adjoint, X.conj().T, n + LADDERS[name][1])).max(initial=0.0)
                    for n in range(cfg.m + 1))])
        except GradingError:
            grading_failures += 1
    inputs = {"m": cfg.m, "trials": cfg.trials, "seed": cfg.seed}
    # An adjoint residual is exactly 0: each entry of Q(X)[n] and of Q'(X*)[n + shift]
    # is one product, or a sum that both builds form in the same order (the
    # diagonal for dGamma, two terms for Delta), and conjugation is exact.
    tols = {"commutator": NORM_TOL, "adjoint_dgamma": 0.0, "adjoint_delta": 0.0}
    checks = [
        _check(f"algebra/m={cfg.m}/{key}", f"quadratic-operator identity: {key}",
               {**inputs, "identity": key}, val, tols[key])
        for key, val in sorted(worst.items())
    ]
    checks.append(_check(
        f"algebra/m={cfg.m}/grading", "trials whose declared sector shifts fail entrywise",
        {**inputs, "identity": "grading"}, grading_failures, 0))
    return checks


def run_gaussian_check(cfg: argparse.Namespace) -> list[dict]:
    space = make_space(cfg.m)
    worst_diff = 0.0
    zeros_failures = convention_failures = 0
    for t in range(cfg.trials):
        rng = trial_rng(cfg.seed, t)
        C = skew_matrix(rng, cfg.m)
        rep = gaussian.gaussian_report(space, C)
        worst_diff = np.maximum(worst_diff, rep.max_rel_diff)
        zeros_failures += not rep.zeros_matched
        convention_failures += rep.convention != gaussian.DEFAULT_CONVENTION
    inputs = {"m": cfg.m, "trials": cfg.trials, "seed": cfg.seed}
    checks = [
        _check(f"gaussian/m={cfg.m}/series_vs_determinant",
               "overlap series equals calibrated determinant formula",
               inputs, worst_diff, NORM_TOL),
        _check(f"gaussian/m={cfg.m}/zeros",
               "trials whose series coefficients miss those of the formula zeros",
               inputs, zeros_failures, 0),
        _check(f"gaussian/m={cfg.m}/convention",
               "trials whose calibration misses the square-root determinant convention",
               inputs, convention_failures, 0),
    ]
    for r in (1.0, 1.5, 2.0):
        n = np.arange(200)
        coeffs = np.exp(-(2.0 / r) * np.array([math.lgamma(k + 1) for k in n]))
        est = gaussian.exp_order_estimate(coeffs, degree_step=2)
        err = abs(est.order - r)
        checks.append(_check(
            f"gaussian/order/r={r}",
            "growth-order estimator recovers r on factorial-power coefficients",
            {"r": r, "terms": 200}, err, ORDER_TOL))
    return checks


def run_sweep_sharpness(cfg: argparse.Namespace) -> list[dict]:
    s, n_max = cfg.s, cfg.n_max
    sweep = converse.sharpness_sweep(s, n_max=n_max)
    checks = [_check(
        f"sweep/power_decay/s={s}",
        f"|sector-norm growth exponent - s/2| on n in {sweep.fit_window}",
        {"s": s, "n_max": n_max}, abs(sweep.slope - sweep.slope_target), SLOPE_TOL)]
    recovery = converse.schatten_recovery_check(s, [0.0, 0.1])
    for eps, cert in sorted(recovery.certificates.items()):
        checks.append(_check(
            f"sweep/recovery/s={s}/eps={eps}",
            "integral-test certificate disagrees: divergent at eps=0, convergent beyond",
            {"s": s, "eps": eps, "j_max": cert.j_max},
            cert.converges != (eps > 0), 0))
    return checks


def _finite_number(value) -> bool:
    """True for a finite JSON number (json reads true and false as bools, not ints)."""
    return type(value) is int or (type(value) is float and math.isfinite(value))


def run_report_merge(cfg: argparse.Namespace) -> list[dict]:
    """Every row of every input, each held to the row rule pass <=> metric <= tolerance."""
    checks, seen = [], set()
    for path in cfg.inputs:
        with open(path) as fh:
            body = json.load(fh)
        rows = body.get("checks") if isinstance(body, dict) else None
        if not isinstance(rows, list) or not rows:
            raise ValueError(f"report {path} has no nonempty list of checks at its top level")
        for row in rows:
            if not isinstance(row, dict) or not isinstance(row.get("check_id"), str) \
                    or not isinstance(row.get("pass"), bool):
                raise ValueError(f"report {path} has a check that is not an object "
                                 "with a string check_id and a boolean pass")
            metric, tolerance = row.get("metric"), row.get("tolerance")
            if not (_finite_number(metric) and _finite_number(tolerance)) \
                    or row["pass"] != (metric <= tolerance):
                raise ValueError(f"report {path}: check {row['check_id']!r} needs a finite "
                                 "numeric metric and tolerance, and pass iff "
                                 "metric <= tolerance")
            if row["check_id"] in seen:
                raise ValueError(f"duplicate check_id {row['check_id']!r} in {path}")
            seen.add(row["check_id"])
        checks.extend(rows)
    return checks


def build_report(cfg: argparse.Namespace) -> dict:
    """Rows sorted by check_id; the header's config is the command's parsed options."""
    checks = sorted(cfg.run(cfg), key=lambda c: c["check_id"])
    config = {k: v for k, v in vars(cfg).items()
              if k not in ("command", "run", "output", "inputs")}
    if "r" in config:
        config["r"] = [str(r) for r in config["r"]]
    return {
        "header": {
            "command": cfg.command,
            "config": config,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["check_id", "statement", "inputs_digest", "metric",
                     "tolerance", "pass"])
    for c in report["checks"]:
        writer.writerow([c["check_id"], c["statement"], c["inputs_digest"],
                         repr(c["metric"]), repr(c["tolerance"]), c["pass"]])
    return buf.getvalue()


def _resolve_output(path: str | None) -> str | None:
    if path is None:
        return None
    if not os.path.isabs(path):
        base = os.environ.get(OUTPUT_DIR_ENV)
        if base:
            return os.path.join(base, path)
    return path


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every `main` call in this process, built at the first; parsing
    writes only to the Namespace it returns.  It binds the run_* functions and
    bounds.WHICH at that build, so a later patch of cli.run_* does not reach `main`."""
    parser = argparse.ArgumentParser(
        prog="fockbound",
        description="Verify operator identities and number-operator bounds "
                    "on a finite fermionic Fock space.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--output", default=None, help="report file (stdout if omitted)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        return p

    def common(p, trials_default=25):
        p.add_argument("--m", type=int, required=True, help="number of modes")
        p.add_argument("--trials", type=int, default=trials_default)
        p.add_argument("--seed", type=int, default=0)

    common(command("verify-car", run_verify_car, "anticommutation-relation suite"),
           trials_default=50)

    p = command("verify-bounds", run_verify_bounds, "number-operator bound suite")
    common(p)
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--which", required=True, choices=bounds.WHICH)
    p.add_argument("--r", nargs="+", required=True,
                   help="Schatten exponents, e.g. 1 4/3 2 inf")
    explicit = p.add_mutually_exclusive_group()
    explicit.add_argument("--diag", nargs="+", type=float, default=None,
                          help="use this diagonal one-body operator instead of random draws")
    explicit.add_argument("--matrix-file", default=None,
                          help="JSON file with rows of [re, im] pairs")

    common(command("verify-algebra", run_verify_algebra,
                   "commutator, adjoint, and grading identities"))

    common(command("gaussian-check", run_gaussian_check,
                   "overlap series vs determinant, zeros, growth order"),
           trials_default=20)

    p = command("sweep-sharpness", run_sweep_sharpness,
                "growth-exponent sweep for decay families")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--n-max", type=int, default=100_000)

    p = command("report", run_report_merge, "merge previously emitted JSON reports")
    p.add_argument("inputs", nargs="+")
    return parser


def validate_args(args: argparse.Namespace) -> None:
    """Reject what argparse cannot, and parse each --r into its exponent."""
    if getattr(args, "m", 1) < 1:
        raise ValueError(f"--m must be >= 1, got {args.m}")
    if getattr(args, "trials", 1) <= 0:
        raise ValueError(f"--trials must be positive, got {args.trials}")
    if getattr(args, "seed", 0) < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    if not np.isfinite(getattr(args, "diag", None) or []).all():
        raise ValueError(f"--diag entries must be finite, got {args.diag}")
    if not 0.0 <= (getattr(args, "tolerance", None) or 0.0) < math.inf:
        raise ValueError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    if hasattr(args, "r"):
        r_list = [parse_r(r) for r in args.r]
        if len(set(r_list)) != len(r_list):
            raise ValueError(f"--r values must be distinct, got {args.r}")
        args.r = r_list


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        validate_args(args)
        report = build_report(args)
        text = render(report, args.format)
    except GradingError as exc:  # a build left its sector: the operator is wrong
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILURE
    except (ResourceError, MemoryError) as exc:
        print(f"resource error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE_ERROR
    except (ValueError, OSError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION_ERROR
    out_path = _resolve_output(args.output)
    if out_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"validation error: cannot write {out_path}: {exc}", file=sys.stderr)
            return EXIT_VALIDATION_ERROR
    return EXIT_OK if report["all_pass"] else EXIT_VERIFICATION_FAILURE


if __name__ == "__main__":
    sys.exit(main())
