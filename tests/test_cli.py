import argparse
import dataclasses
import json
import math
from collections import Counter

import numpy as np
import pytest

from fockbound import cli, fock, gaussian


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def strip_timestamp(report):
    body = json.loads(report) if isinstance(report, str) else report
    body["header"].pop("timestamp")
    return body


def test_verify_car_passes(capsys):
    code, out = run(["verify-car", "--m", "4", "--trials", "10", "--seed", "42"], capsys)
    assert code == 0
    body = json.loads(out)
    assert body["all_pass"]
    ids = [c["check_id"] for c in body["checks"]]
    assert ids == sorted(ids)
    for c in body["checks"]:
        assert set(c) == {"check_id", "statement", "inputs_digest", "metric",
                          "tolerance", "pass"}


def test_verify_bounds_saturation(capsys):
    code, out = run(["verify-bounds", "--which", "dGamma", "--r", "inf",
                     "--m", "1", "--trials", "1", "--diag", "1"], capsys)
    assert code == 0
    body = json.loads(out)
    assert body["checks"][0]["metric"] == 0.0


def test_saturated_sector_passes_with_default_tolerance(capsys):
    # the one-particle block of dGamma(B) is B itself, so at r = inf sector
    # n = 1 meets |B|_inf^2 n^2 exactly and its slack is rounding noise; the
    # default tolerance absorbs it, where --tolerance 0 leaves it to chance
    code, out = run(["verify-bounds", "--which", "dGamma", "--r", "inf", "2",
                     "--m", "5", "--trials", "2"], capsys)
    assert code == 0
    rows = json.loads(out)["checks"]
    assert len(rows) == 4 and all(row["pass"] for row in rows)
    assert all(row["tolerance"] > 0 for row in rows)


def test_verify_bounds_r_parsing(capsys):
    code, out = run(["verify-bounds", "--which", "dGamma", "--r", "4/3", "2",
                     "--m", "3", "--trials", "2", "--seed", "7"], capsys)
    assert code == 0
    assert len(json.loads(out)["checks"]) == 4


def test_determinism(capsys):
    argv = ["verify-bounds", "--which", "DeltaPlus", "--r", "2", "--m", "4",
            "--trials", "3", "--seed", "11"]
    _, out1 = run(argv, capsys)
    _, out2 = run(argv, capsys)
    assert strip_timestamp(out1) == strip_timestamp(out2)


def test_csv_format(capsys):
    code, out = run(["verify-algebra", "--m", "3", "--trials", "2",
                     "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("check_id,")
    assert len(lines) == 5  # three identities + grading


def test_gaussian_check(capsys):
    code, out = run(["gaussian-check", "--m", "4", "--trials", "3",
                     "--seed", "5"], capsys)
    assert code == 0
    body = json.loads(out)
    order_checks = [c for c in body["checks"] if c["check_id"].startswith("gaussian/order")]
    assert len(order_checks) == 3 and all(c["pass"] for c in order_checks)


def test_sweep_sharpness(capsys):
    code, out = run(["sweep-sharpness", "--s", "1.0", "--n-max", "100000"], capsys)
    assert code == 0
    body = json.loads(out)
    slope = next(c for c in body["checks"] if c["check_id"].startswith("sweep/power"))
    assert slope["metric"] <= 0.02 and slope["pass"]


@pytest.mark.parametrize("s", ["0.05", "0.1", "0.2", "0.3", "0.4"])
def test_sweep_sharpness_passes_at_small_s(s, capsys):
    # the partial sums carry a constant zeta(1 - s/2) that bends a log-log fit
    # at small s; the fit reads increments, in which it cancels
    code, out = run(["sweep-sharpness", "--s", s], capsys)
    row = json.loads(out)["checks"][0]
    assert row["check_id"] == f"sweep/power_decay/s={float(s)}"
    assert row["metric"] <= 1e-4 and row["pass"] and code == cli.EXIT_OK


def test_matrix_file_input(tmp_path, capsys):
    mat = np.array([[0, -0.5], [0.5, 0]])
    payload = [[[float(mat[i, j]), 0.0] for j in range(2)] for i in range(2)]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(payload))
    code, out = run(["verify-bounds", "--which", "DeltaPlus", "--r", "2",
                     "--m", "2", "--matrix-file", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["all_pass"]


def test_output_file_and_env_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    code, _ = run(["verify-car", "--m", "2", "--trials", "2",
                   "--output", "car.json"], capsys)
    assert code == 0
    assert json.loads((tmp_path / "car.json").read_text())["all_pass"]


def test_report_merge(tmp_path, capsys):
    for name, argv in [("a.json", ["verify-car", "--m", "2", "--trials", "2"]),
                       ("b.json", ["verify-algebra", "--m", "2", "--trials", "2"])]:
        cli.main(argv + ["--output", str(tmp_path / name)])
    code, out = run(["report", str(tmp_path / "a.json"), str(tmp_path / "b.json")],
                    capsys)
    assert code == 0
    body = json.loads(out)
    assert any(c["check_id"].startswith("car/") for c in body["checks"])
    assert any(c["check_id"].startswith("algebra/") for c in body["checks"])
    ids = [c["check_id"] for c in body["checks"]]
    assert ids == sorted(ids)


def test_validation_error_exit_code(capsys):
    # Delta bound outside its admissible exponent range
    code = cli.main(["verify-bounds", "--which", "Delta", "--r", "3", "--m", "3"])
    assert code == cli.EXIT_VALIDATION_ERROR


def test_diag_length_mismatch(capsys):
    code = cli.main(["verify-bounds", "--which", "dGamma", "--r", "1",
                     "--m", "3", "--diag", "1", "2"])
    assert code == cli.EXIT_VALIDATION_ERROR


def test_resource_error_exit_code(capsys):
    assert cli.main(["verify-car", "--m", "20"]) == cli.EXIT_RESOURCE_ERROR


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as err:
        cli.main(["frobnicate"])
    assert err.value.code == 2


def test_parse_r():
    import math
    assert cli.parse_r("inf") == math.inf
    assert cli.parse_r("4/3") == pytest.approx(4 / 3)
    with pytest.raises(ValueError):
        cli.parse_r("abc")


def test_exponent_past_float_range_is_a_validation_error(capsys):
    # Fraction("1e400") is exact, and only its conversion to float overflows
    code = cli.main(["verify-bounds", "--which", "dGamma", "--r", "1e400", "--m", "2"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_VALIDATION_ERROR
    assert captured.out == "" and "cannot parse exponent '1e400'" in captured.err
    assert "Traceback" not in captured.err


def test_diag_and_matrix_file_together_are_rejected(tmp_path, capsys, monkeypatch):
    # the file need not exist: the pair is refused before either is read
    monkeypatch.setattr(cli, "_load_matrix", lambda path: pytest.fail("file opened"))
    with pytest.raises(SystemExit) as err:
        cli.main(["verify-bounds", "--which", "dGamma", "--r", "2", "--m", "2",
                  "--diag", "1", "2", "--matrix-file", str(tmp_path / "missing.json")])
    assert err.value.code == cli.EXIT_VALIDATION_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "not allowed with argument" in captured.err


@pytest.mark.parametrize("argv", [
    ["verify-car", "--m", "3", "--trials", "0"],
    ["verify-car", "--m", "3", "--trials", "-5"],
    ["verify-bounds", "--which", "dGamma", "--r", "2", "--m", "3", "--trials", "0"],
    ["verify-algebra", "--m", "3", "--trials", "0"],
    ["gaussian-check", "--m", "3", "--trials", "0"],
])
def test_nonpositive_trials_rejected(argv, capsys):
    assert cli.main(argv) == cli.EXIT_VALIDATION_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "--trials" in captured.err


@pytest.mark.parametrize("diag", [["nan", "1"], ["inf", "1"], ["1", "nan"]])
def test_nonfinite_diag_rejected(diag, capsys, monkeypatch):
    def must_not_build(*args, **kwargs):
        raise AssertionError("operator built from non-finite input")

    monkeypatch.setattr(cli.bounds, "verify_bounds", must_not_build)
    code = cli.main(["verify-bounds", "--which", "dGamma", "--r", "2",
                     "--m", "2", "--diag", *diag])
    assert code == cli.EXIT_VALIDATION_ERROR
    assert "finite" in capsys.readouterr().err


def test_duplicate_r_rejected(capsys, monkeypatch):
    def must_not_build(*args, **kwargs):
        raise AssertionError("space built for duplicate exponents")

    monkeypatch.setattr(cli, "make_space", must_not_build)
    code = cli.main(["verify-bounds", "--which", "dGamma", "--r", "2", "2.0", "4/2",
                     "--m", "3"])
    assert code == cli.EXIT_VALIDATION_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "distinct" in captured.err


def test_every_exponent_validated_before_building(capsys, monkeypatch):
    def must_not_build(*args, **kwargs):
        raise AssertionError("operator built before every exponent was validated")

    monkeypatch.setattr(fock, "ladder_entries", must_not_build)
    code = cli.main(["verify-bounds", "--which", "Delta", "--r", "1", "3", "--m", "4"])
    assert code == cli.EXIT_VALIDATION_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "r <= 2" in captured.err


@pytest.mark.parametrize("entry", [1.0, 1e308])
def test_non_skew_matrix_file_rejected_before_building(entry, tmp_path, capsys, monkeypatch):
    # the library's skewness check is the only one; at 1e308, A + A^T would overflow
    def must_not_build(*args, **kwargs):
        raise AssertionError("pair operator built from a non-skew matrix")

    monkeypatch.setattr(fock, "ladder_entries", must_not_build)
    C = np.zeros((3, 3))
    C[1, 2] = C[2, 1] = entry
    path = tmp_path / "c.json"
    path.write_text(json.dumps(np.stack([C, 0 * C], axis=-1).tolist()))
    code = cli.main(["verify-bounds", "--which", "DeltaPlus", "--r", "2", "--m", "3",
                     "--matrix-file", str(path)])
    assert code == cli.EXIT_VALIDATION_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "skew-symmetric" in captured.err
    assert "Warning" not in captured.err


@pytest.mark.parametrize("rs", [["2"], ["1", "4/3", "2", "inf"]])
def test_one_sector_build_per_trial_for_every_r(rs, capsys, monkeypatch):
    calls = []
    build = fock.ladder_entries

    def counting(space, name, coeffs, sector):
        calls.append(sector)
        return build(space, name, coeffs, sector)

    monkeypatch.setattr(fock, "ladder_entries", counting)
    code, out = run(["verify-bounds", "--which", "dGamma", "--r", *rs, "--m", "3",
                     "--trials", "2"], capsys)
    assert code == cli.EXIT_OK
    assert len(json.loads(out)["checks"]) == 2 * len(rs)
    assert calls == [0, 1, 2, 3] * 2


@pytest.mark.parametrize("payload", [
    {"a": 1},
    [[[{"a": 1}, 0.0], [-0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]],
    [[[0, 0], [-1, 0]], [[True, 0], [0, 0]]],
    [[[0, 0], ["-2", 0]], [[2, 0], [0, 0]]],
], ids=["object", "nested-object", "boolean", "string"])
def test_matrix_file_entries_must_be_json_numbers(payload, tmp_path, capsys):
    # read as numbers, the boolean and string files would hold skew matrices
    path = tmp_path / "c.json"
    path.write_text(json.dumps(payload))
    code = cli.main(["verify-bounds", "--which", "DeltaPlus", "--r", "2",
                     "--m", "2", "--matrix-file", str(path)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_VALIDATION_ERROR
    assert captured.out == "" and "n x n array of [re, im] pairs" in captured.err


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_nonfinite_matrix_file_rejected(bad, tmp_path, capsys):
    payload = [[[0.0, 0.0], [-0.5, 0.0]], [[0.5, bad], [0.0, 0.0]]]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(payload))
    code = cli.main(["verify-bounds", "--which", "DeltaPlus", "--r", "2",
                     "--m", "2", "--matrix-file", str(path)])
    assert code == cli.EXIT_VALIDATION_ERROR
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("body", [
    [],
    {"header": {}},
    {"checks": {"car": True}},
    {"checks": ["car"]},
    {"checks": [{"statement": "no id", "pass": True}]},
    {"checks": [{"check_id": "x", "pass": "yes"}]},
    {"checks": []},
    {"checks": [{"check_id": "y", "pass": True, "metric": 5, "tolerance": 1}]},
    {"checks": [{"check_id": "y", "pass": False, "metric": math.nan, "tolerance": 1}]},
    {"checks": [{"check_id": "y", "pass": True, "metric": 0, "tolerance": math.inf}]},
    {"checks": [{"check_id": "y", "pass": True, "tolerance": 1}]},
    {"checks": [{"check_id": "y", "pass": True, "metric": "0", "tolerance": 1}]},
    {"checks": [{"check_id": "y", "pass": True, "metric": False, "tolerance": 1}]},
])
def test_report_merge_rejects_malformed(body, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(body))
    assert cli.main(["report", str(path)]) == cli.EXIT_VALIDATION_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "bad.json" in captured.err


def test_report_merge_rejects_duplicate_check_id(tmp_path, capsys):
    path = tmp_path / "a.json"
    cli.main(["verify-car", "--m", "2", "--trials", "2", "--output", str(path)])
    assert cli.main(["report", str(path), str(path)]) == cli.EXIT_VALIDATION_ERROR
    assert "duplicate check_id" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["verify-car", "verify-algebra", "gaussian-check"])
def test_tolerance_only_on_verify_bounds(subcommand, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main([subcommand, "--m", "2", "--trials", "1", "--tolerance", "-1"])
    assert err.value.code == 2
    assert "--tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
def test_verify_bounds_rejects_bad_tolerance(tolerance, capsys):
    code = cli.main(["verify-bounds", "--which", "dGamma", "--r", "2", "--m", "2",
                     "--tolerance", tolerance])
    assert code == cli.EXIT_VALIDATION_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "--tolerance" in captured.err


def test_verify_bounds_does_not_offer_basic(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["verify-bounds", "--which", "basic", "--r", "2", "--m", "2"])
    assert err.value.code == 2
    assert "invalid choice: 'basic'" in capsys.readouterr().err


def strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")
    return json.loads(text, parse_constant=reject)


CAR_ARGV = ["verify-car", "--m", "3", "--trials", "3"]
# the fewest grid points a sweep fits, n = 10 and 12
SMALL_SWEEP_ARGV = ["sweep-sharpness", "--s", "1.0", "--n-max", "12"]
ROW_RULE_CASES = [
    CAR_ARGV,
    *(["verify-bounds", "--which", which, "--r", "2", "--m", "4", "--trials", "2"]
      for which in cli.bounds.WHICH if which != "basic"),
    ["verify-bounds", "--which", "dGamma", "--r", "inf", "--m", "1", "--diag", "1",
     "--tolerance", "0"],
    ["verify-algebra", "--m", "3", "--trials", "2"],
    ["gaussian-check", "--m", "4", "--trials", "2"],
    ["sweep-sharpness", "--s", "1.0", "--n-max", "20000"],
    ["sweep-sharpness", "--s", "0.5", "--n-max", "5000"],
    SMALL_SWEEP_ARGV,
    ["report"],
]


@pytest.mark.parametrize("argv", ROW_RULE_CASES, ids=lambda argv: " ".join(argv[:5]))
def test_every_row_passes_iff_metric_within_tolerance(argv, tmp_path, capsys):
    if argv == ["report"]:
        parts = [tmp_path / "car.json", tmp_path / "sweep.json"]
        for part, part_argv in zip(parts, [CAR_ARGV, SMALL_SWEEP_ARGV]):
            cli.main(part_argv + ["--output", str(part)])
        argv = ["report", *map(str, parts)]
    code, out = run(argv, capsys)
    body = strict_json(out)
    assert body["checks"]
    for row in body["checks"]:
        assert math.isfinite(row["metric"]) and math.isfinite(row["tolerance"]), row
        assert row["pass"] == (row["metric"] <= row["tolerance"]), row
    assert code == (cli.EXIT_OK if body["all_pass"] else cli.EXIT_VERIFICATION_FAILURE)


def test_report_with_a_failing_part_exits_1(tmp_path, capsys, corrupt_block):
    # a valid sweep no longer fails, so the failing part is a corrupted CAR run
    flips = corrupt_block("creation", 1)
    parts = [tmp_path / "car.json", tmp_path / "sweep.json"]
    for part, part_argv in zip(parts, [CAR_ARGV, SMALL_SWEEP_ARGV]):
        cli.main(part_argv + ["--output", str(part)])
    code, out = run(["report", *map(str, parts)], capsys)
    body = strict_json(out)
    assert flips and code == cli.EXIT_VERIFICATION_FAILURE and not body["all_pass"]
    assert all(row["pass"] == (row["metric"] <= row["tolerance"]) for row in body["checks"])
    assert {row["check_id"] for row in body["checks"] if not row["pass"]} <= \
        {f"car/m=3/{key}" for key in fock.CAR_TOL}


def algebra_rows(m, trials=1, seed=9):
    rows = cli.run_verify_algebra(argparse.Namespace(m=m, trials=trials, seed=seed))
    return {row["check_id"].rsplit("/", 1)[1]: row for row in rows}


@pytest.mark.parametrize("m, name, target", [
    (1, "dGamma", 1), (2, "dGamma", 1), (2, "dGamma", 2), (4, "dGamma", 1), (4, "dGamma", 4),
    (2, "Delta", 2), (4, "Delta", 2), (4, "Delta", 4)])
def test_algebra_adjoint_row_sees_one_corrupt_block(m, name, target, corrupt_block):
    # the lowest sector with an entry and the top sector; dGamma(B) and
    # dGamma(B*) are both corrupted, so a phase is used in place of a sign
    flips = corrupt_block(name, target, factor=1j if name == "dGamma" else -1)
    row = algebra_rows(m)["adjoint_dgamma" if name == "dGamma" else "adjoint_delta"]
    assert flips
    assert not row["pass"] and row["metric"] > 1e-3


@pytest.mark.parametrize("name", ["dGamma", "Delta", "DeltaPlus"])
def test_algebra_grading_counts_a_misplaced_entry(name, misplace_row):
    for past_end in (False, True):
        moved = misplace_row(past_end, name)  # the first trial's build only
        row = algebra_rows(3, trials=2)["grading"]
        assert moved == [name]
        assert row["metric"] == 1 and not row["pass"]


def test_verify_algebra_exits_1_on_a_misplaced_entry(misplace_row, capsys):
    for past_end in (False, True):
        moved = misplace_row(past_end)  # the first build of the first trial only
        code, out = run(["verify-algebra", "--m", "3", "--trials", "2"], capsys)
        rows = {row["check_id"]: row for row in json.loads(out)["checks"]}
        assert moved and code == cli.EXIT_VERIFICATION_FAILURE
        assert rows["algebra/m=3/grading"]["metric"] == 1
        assert not rows["algebra/m=3/grading"]["pass"]


@pytest.mark.parametrize("argv, kind", [
    (["verify-bounds", "--which", "dGamma", "--r", "2", "--m", "3", "--trials", "1"], "dGamma"),
    (["verify-bounds", "--which", "Delta", "--r", "2", "--m", "4", "--trials", "1"], "Delta"),
    (["gaussian-check", "--m", "4", "--trials", "1"], "DeltaPlus")])
def test_a_row_outside_its_sector_is_a_verification_failure(argv, kind, misplace_row,
                                                            capsys):
    # Delta's build is on the pair form of its argument, behind the same guard
    moved = misplace_row(past_end=False, kind=kind)
    assert cli.main(argv) == cli.EXIT_VERIFICATION_FAILURE
    captured = capsys.readouterr()
    assert moved == [kind] and captured.out == ""
    assert captured.err.startswith("verification failure: ")
    assert "sector shift" in captured.err and "Traceback" not in captured.err


def test_verify_algebra_builds_each_operator_once_per_trial(monkeypatch, capsys):
    # the commutator's Delta(A), DeltaPlus(C) and dGamma(CA), and the adjoint
    # rows' dGamma(B), dGamma(B*), Delta(A) and DeltaPlus(A*), each one build
    # per sector key; the grading row reads these builds and walks no entries
    # of its own
    assert not hasattr(cli, "ladder_entries")
    entries, calls = fock.ladder_entries, []

    def counting(space, name, coeffs, sector=None):
        calls.append((name, sector))
        return entries(space, name, coeffs, sector)

    monkeypatch.setattr(fock, "ladder_entries", counting)
    code, _ = run(["verify-algebra", "--m", "3", "--trials", "2"], capsys)
    assert code == cli.EXIT_OK
    builds = {"dGamma": 3, "Delta": 2, "DeltaPlus": 2}
    shift = {name: abs(fock.LADDERS[name][1]) for name in builds}
    assert Counter(calls) == {(name, n): 2 * count for name, count in builds.items()
                              for n in range(-shift[name], 3 + shift[name] + 1)}


@pytest.mark.parametrize("argv, keys", [
    (["verify-car", "--m", "3", "--trials", "3"],
     {(3, name, n) for name in ("annihilation", "creation") for n in range(-1, 5)}),
    (["verify-bounds", "--which", "dGamma", "--r", "1", "2", "--m", "3", "--trials", "3"],
     {(3, "dGamma", n) for n in range(4)})])
def test_each_entry_pattern_is_walked_once_per_process(argv, keys, monkeypatch, capsys):
    entries, calls = fock.ladder_entries, []

    def recording(space, name, coeffs, sector=None):
        calls.append((space.m, name, sector))
        return entries(space, name, coeffs, sector)

    monkeypatch.setattr(fock, "ladder_entries", recording)
    fock._ladder_pattern.cache_clear()
    code, _ = run(argv, capsys)
    info = fock._ladder_pattern.cache_info()
    assert code == cli.EXIT_OK
    assert set(calls) == keys and len(calls) > len(keys)
    assert (info.misses, info.hits) == (len(keys), len(calls) - len(keys))


@pytest.mark.parametrize("argv, error", [
    (["verify-car", "--m", "3", "--trials", "1"], MemoryError("Unable to allocate 4 GiB")),
    (["verify-algebra", "--m", "3", "--trials", "1"], MemoryError())])
def test_out_of_memory_is_a_resource_error(argv, error, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr(fock, "ladder_entries", exhausted)
    assert cli.main(argv) == cli.EXIT_RESOURCE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("resource error: ") and "Traceback" not in captured.err
    assert (str(error) or "out of memory") in captured.err


def test_gaussian_row_reports_the_pointwise_worst(monkeypatch):
    # an error of 1e-9 at z = 0, where series = det = 1, is 5e-10 relative to
    # that point but only ~1e-12 relative to the largest |series| on the grid
    determinant = gaussian._determinant

    def outlier(pairs, z, convention):
        return determinant(pairs, z, convention) + np.where(z == 0, 1e-9, 0.0)

    monkeypatch.setattr(gaussian, "_determinant", outlier)
    rows = cli.run_gaussian_check(argparse.Namespace(m=4, trials=1, seed=0))
    row = next(r for r in rows if r["check_id"] == "gaussian/m=4/series_vs_determinant")
    assert row["metric"] == pytest.approx(5e-10, rel=1e-3)
    assert not row["pass"]
    C = cli.skew_matrix(cli.trial_rng(0, 0), 4)
    report = gaussian.gaussian_report(fock.make_space(4), C)
    assert report.max_rel_diff == row["metric"] and not report.passed


MODE_ARGVS = [["verify-car"], ["verify-algebra"], ["gaussian-check"],
              ["verify-bounds", "--which", "Delta", "--r", "2"]]


@pytest.mark.parametrize("m", ["0", "-1"])
@pytest.mark.parametrize("argv", MODE_ARGVS)
def test_nonpositive_modes_are_a_validation_error(argv, m, capsys):
    assert cli.main([*argv, "--m", m, "--trials", "1"]) == cli.EXIT_VALIDATION_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "--m must be >= 1" in captured.err


@pytest.mark.parametrize("argv", MODE_ARGVS)
def test_too_many_modes_stays_a_resource_error(argv, capsys):
    assert cli.main([*argv, "--m", "15", "--trials", "1"]) == cli.EXIT_RESOURCE_ERROR
    assert capsys.readouterr().err.startswith("resource error: ")


# verify-bounds with --diag draws nothing, and its seed is still checked
@pytest.mark.parametrize("argv", MODE_ARGVS + [
    ["verify-bounds", "--which", "dGamma", "--r", "2", "--diag", "1", "2"]])
def test_negative_seed_is_a_validation_error(argv, capsys):
    code = cli.main([*argv, "--m", "2", "--trials", "1", "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_VALIDATION_ERROR
    assert captured.out == "" and "--seed must be >= 0" in captured.err


def operator_args(tmp_path, which, m, scale):
    """--diag of scale * (1..m) for dGamma; else a skew --matrix-file with
    entries of scale * (1..m^2) above the diagonal."""
    if which == "dGamma":
        return ["--diag", *(str(scale * k) for k in range(1, m + 1))]
    C = np.triu(np.arange(1.0, m * m + 1).reshape(m, m), 1)
    C = scale * (C - C.T)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(np.stack([C, 0 * C], axis=-1).tolist()))
    return ["--matrix-file", str(path)]


@pytest.mark.parametrize("which, operator", [
    ("dGamma", ["--diag", "1e200", "1", "1"]),
    ("dGamma", ["--diag", "1e160", "1", "1"]),
    ("DeltaPlus", 1e160),
    ("Delta", 1e200)])
def test_overflowing_operator_is_a_validation_error(which, operator, tmp_path, capsys):
    if not isinstance(operator, list):
        operator = operator_args(tmp_path, which, 3, operator)
    code = cli.main(["verify-bounds", "--which", which, "--r", "2", "--m", "3", *operator])
    assert code == cli.EXIT_VALIDATION_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "would overflow" in captured.err
    assert "Warning" not in captured.err and "did not converge" not in captured.err


@pytest.mark.parametrize("which, rs", [("dGamma", ["1", "4/3", "2", "4", "inf"]),
                                       ("DeltaPlus", ["1", "3/2", "2"]),
                                       ("literature_DeltaPlus", ["2"])])
def test_entries_near_1e150_still_verify(which, rs, tmp_path, capsys):
    operator = operator_args(tmp_path, which, 4, 1e150)
    code, out = run(["verify-bounds", "--which", which, "--r", *rs, "--m", "4", *operator],
                    capsys)
    assert code == cli.EXIT_OK
    rows = json.loads(out)["checks"]
    assert len(rows) == len(rs) and all(row["pass"] for row in rows)


@pytest.mark.parametrize("n_max", ["0", "-3", "5", "10"])
def test_sweep_n_max_below_11_is_a_validation_error(n_max, capsys):
    code = cli.main(["sweep-sharpness", "--s", "1.0", "--n-max", n_max])
    captured = capsys.readouterr()
    assert code == cli.EXIT_VALIDATION_ERROR
    assert captured.out == "" and "n_max >= 12" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("n_max", [str(2**53 + 1), "100000000000000000000"])
def test_sweep_n_max_past_2_to_the_53_is_a_validation_error(n_max, capsys):
    code = cli.main(["sweep-sharpness", "--s", "1.0", "--n-max", n_max])
    captured = capsys.readouterr()
    assert code == cli.EXIT_VALIDATION_ERROR
    assert captured.out == "" and "n_max <= 2**53" in captured.err
    assert "Traceback" not in captured.err


def test_sweep_n_max_past_1e9_is_a_resource_error(monkeypatch, capsys):
    def must_not_sum(*args, **kwargs):
        raise AssertionError("power sums started past the time guard")

    monkeypatch.setattr(cli.converse, "_power_sums", must_not_sum)
    code = cli.main(["sweep-sharpness", "--s", "1.0", "--n-max", "1000000001"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_RESOURCE_ERROR
    assert captured.out == "" and captured.err.startswith("resource error: ")
    assert "1000000000" in captured.err


def test_sweep_n_max_12_runs(capsys):
    code, out = run(["sweep-sharpness", "--s", "1.0", "--n-max", "12"], capsys)
    assert code == cli.EXIT_OK
    assert "n in (10, 12)" in json.loads(out)["checks"][0]["statement"]


def test_sweep_n_max_11_is_a_validation_error(capsys):
    # the grid is even, so n = 10 is the only point of the fit
    code = cli.main(["sweep-sharpness", "--s", "1.0", "--n-max", "11"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_VALIDATION_ERROR
    assert captured.out == "" and "n_max >= 12" in captured.err


@pytest.mark.parametrize("which", ["literature_dGamma", "literature_Delta",
                                   "literature_DeltaPlus"])
def test_second_r_for_a_bound_without_r_norm_is_rejected(which, monkeypatch, capsys):
    monkeypatch.setattr(cli, "make_space", lambda m: pytest.fail("space was built"))
    code = cli.main(["verify-bounds", "--which", which, "--r", "1", "2",
                     "--m", "4", "--trials", "1"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_VALIDATION_ERROR
    assert captured.out == "" and "reads no r-norm" in captured.err


def nan_on_second_call(fn, **fields):
    """fn, whose report on its second call has `fields` replaced."""
    calls = []

    def patched(*args):
        calls.append(args)
        report = fn(*args)
        return dataclasses.replace(report, **fields) if len(calls) == 2 else report

    return patched


def test_algebra_commutator_row_keeps_a_nan(monkeypatch):
    monkeypatch.setattr(cli.quadratics, "check_commutator", nan_on_second_call(
        cli.quadratics.check_commutator, residual=math.nan, passed=False))
    row = algebra_rows(3, trials=2)["commutator"]
    assert math.isnan(row["metric"]) and not row["pass"]


@pytest.mark.parametrize("name", ["dGamma", "Delta"])
def test_algebra_adjoint_row_keeps_a_nan(name, corrupt_block):
    flips = corrupt_block(name, 2, factor=math.nan)
    with np.errstate(all="ignore"):
        row = algebra_rows(4)["adjoint_dgamma" if name == "dGamma" else "adjoint_delta"]
    assert flips
    assert math.isnan(row["metric"]) and not row["pass"]


def test_gaussian_series_row_keeps_a_nan(monkeypatch):
    monkeypatch.setattr(gaussian, "gaussian_report", nan_on_second_call(
        gaussian.gaussian_report, max_rel_diff=math.nan, passed=False))
    rows = cli.run_gaussian_check(argparse.Namespace(m=4, trials=2, seed=0))
    row = next(r for r in rows if r["check_id"] == "gaussian/m=4/series_vs_determinant")
    assert math.isnan(row["metric"]) and not row["pass"]


def test_verify_car_non_finite_block_is_a_verification_failure(corrupt_block, capsys):
    flips = corrupt_block("annihilation", 2, factor=math.nan)
    with np.errstate(all="ignore"):
        code = cli.main(["verify-car", "--m", "3", "--trials", "2"])
    captured = capsys.readouterr()
    assert flips
    assert code == cli.EXIT_VERIFICATION_FAILURE
    assert "validation error" not in captured.err


@pytest.mark.parametrize("argv, options", [
    (["verify-car", "--m", "2", "--trials", "1"], {"m", "trials", "seed", "format"}),
    (["verify-bounds", "--which", "dGamma", "--r", "4/3", "inf", "--m", "2", "--trials", "1"],
     {"m", "trials", "seed", "format", "tolerance", "which", "r", "diag", "matrix_file"}),
    (["verify-algebra", "--m", "2", "--trials", "1"], {"m", "trials", "seed", "format"}),
    (["gaussian-check", "--m", "2", "--trials", "1"], {"m", "trials", "seed", "format"}),
    (["sweep-sharpness", "--s", "1.0", "--n-max", "1000"], {"s", "n_max", "format"}),
    (["report"], {"format"}),
], ids=lambda value: value[0] if isinstance(value, list) else None)
def test_header_config_holds_exactly_the_parsed_options(argv, options, tmp_path, capsys):
    if argv == ["report"]:
        cli.main(CAR_ARGV + ["--output", str(tmp_path / "car.json")])
        argv = ["report", str(tmp_path / "car.json")]
    _, out = run(argv, capsys)
    config = json.loads(out)["header"]["config"]
    assert set(config) == options
    if "r" in config:
        assert config["r"] == ["1.3333333333333333", "inf"]
