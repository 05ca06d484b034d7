import json
import math

import numpy as np
import pytest

from fockbound import cli


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

    monkeypatch.setattr(cli.bounds, "ladder_matrix", must_not_build)
    code = cli.main(["verify-bounds", "--which", "Delta", "--r", "1", "3", "--m", "4"])
    assert code == cli.EXIT_VALIDATION_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "r <= 2" in captured.err


@pytest.mark.parametrize("rs", [["2"], ["1", "4/3", "2", "inf"]])
def test_one_sector_build_per_trial_for_every_r(rs, capsys, monkeypatch):
    calls = []
    build = cli.bounds.ladder_matrix

    def counting(*args, **kwargs):
        calls.append(kwargs["sector"])
        return build(*args, **kwargs)

    monkeypatch.setattr(cli.bounds, "ladder_matrix", counting)
    code, out = run(["verify-bounds", "--which", "dGamma", "--r", *rs, "--m", "3",
                     "--trials", "2"], capsys)
    assert code == cli.EXIT_OK
    assert len(json.loads(out)["checks"]) == 2 * len(rs)
    assert calls == [0, 1, 2, 3] * 2


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
FAILING_SWEEP_ARGV = ["sweep-sharpness", "--s", "0.5", "--n-max", "5000"]
ROW_RULE_CASES = [
    CAR_ARGV,
    *(["verify-bounds", "--which", which, "--r", "2", "--m", "4", "--trials", "2"]
      for which in cli.bounds.WHICH if which != "basic"),
    ["verify-bounds", "--which", "dGamma", "--r", "inf", "--m", "1", "--diag", "1",
     "--tolerance", "0"],
    ["verify-algebra", "--m", "3", "--trials", "2"],
    ["gaussian-check", "--m", "4", "--trials", "2"],
    ["sweep-sharpness", "--s", "1.0", "--n-max", "20000"],
    FAILING_SWEEP_ARGV,
    ["report"],
]


@pytest.mark.parametrize("argv", ROW_RULE_CASES, ids=lambda argv: " ".join(argv[:5]))
def test_every_row_passes_iff_metric_within_tolerance(argv, tmp_path, capsys):
    if argv == ["report"]:
        parts = [tmp_path / "car.json", tmp_path / "sweep.json"]
        for part, part_argv in zip(parts, [CAR_ARGV, FAILING_SWEEP_ARGV]):
            cli.main(part_argv + ["--output", str(part)])
        argv = ["report", *map(str, parts)]
    code, out = run(argv, capsys)
    body = strict_json(out)
    assert body["checks"]
    for row in body["checks"]:
        assert math.isfinite(row["metric"]) and math.isfinite(row["tolerance"]), row
        assert row["pass"] == (row["metric"] <= row["tolerance"]), row
    assert code == (cli.EXIT_OK if body["all_pass"] else cli.EXIT_VERIFICATION_FAILURE)
