"""The benchmark tracer (perfbench/tracer.py) wraps library functions that it
looks up by name, so renaming or deleting one breaks `run.py --trace 1`
without failing any other test.  Each name it wraps must still resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from fockbound import fock

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYER_NAMES = [(module, name) for module, names in load_tracer().LAYER_FUNCTIONS.items()
               for name in names]


@pytest.mark.parametrize("module, name", LAYER_NAMES,
                         ids=[f"{module}.{name}" for module, name in LAYER_NAMES])
def test_traced_layer_function_resolves(module, name):
    owner = importlib.import_module(f"fockbound.{module}")
    assert callable(getattr(owner, name, None)), f"fockbound.{module}.{name}"


def test_traced_matmul_resolves():
    assert callable(vars(fock.FockOperator).get("__matmul__"))
