"""The benchmark's workloads (perfbench/workloads.py) in their tiny form.

A workload whose rows go missing or fail shows up in the benchmark only as
a rising `failed` count, so each tiny invocation is run here through
`cli.main`, with the expected check_ids that the workload file writes out,
at seeds 1 and 29 and at 67, the seed the benchmark runs."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from fockbound import cli

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()


@pytest.mark.parametrize("seed", [1, 29, 67])
@pytest.mark.parametrize("workload", sorted(WORKLOADS.BATCHES))
def test_every_tiny_invocation_passes_its_expected_rows(workload, seed, capsys):
    invocations = WORKLOADS.batch(workload, seed, tiny=True)
    assert invocations
    for invocation in invocations:
        code = cli.main(list(invocation.argv))
        rows = {row["check_id"]: row["pass"]
                for row in json.loads(capsys.readouterr().out)["checks"]}
        assert code == cli.EXIT_OK, invocation.argv
        assert {check_id: rows.get(check_id) for check_id in invocation.expected} == \
            dict.fromkeys(invocation.expected, True), invocation.argv
