"""The repository's pytest configuration lets a failing property test report itself.

Every warning is an error (`filterwarnings`), and a deprecation warning that
hypothesis' own pytest plugin raises while it reports a failure would turn
the failure into an INTERNALERROR that hides the falsifying example."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_below_five(x):
    assert x < 5
'''


def test_a_failing_given_test_prints_its_falsifying_example(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = run.stdout + run.stderr
    assert "Falsifying example" in output and "1 failed" in output, output
    assert "INTERNALERROR" not in output
