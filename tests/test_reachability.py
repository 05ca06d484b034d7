"""Which library functions no command-line path reaches, and which options no call sets.

The tiny invocations of the benchmark's workloads (perfbench/workloads.py)
and a few more that use the options they leave out run through `cli.main`
under `sys.setprofile`.  Every top-level function and method defined in
`src/fockbound` that none of them enters must be named in UNREACHED, and
every name there must still be unreached.  So library code that only tests
call is a listed, deliberate choice, and the list shrinks when a command
starts to use a function or the function is deleted.

The options ratchet reads the source instead: every optional parameter of a
function defined in `src/fockbound` must be passed, by keyword or by
position, by some call of a function of that name in `src/`, `tests/` or
`perfbench/`.  An option that nothing turns on is dead surface."""

import ast
import importlib
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np
from test_perfbench_workloads import WORKLOADS

from fockbound import cli, fock

SRC = Path(fock.__file__).resolve().parent

UNREACHED = sorted([
    "bounds.basic_estimate_bruteforce", "bounds.basic_estimate_check",
    "bounds.bound_sweep", "bounds.rhs_operator", "bounds.verify_bound",
    "converse.decay_family", "converse.decay_values", "converse.sector_norm_diagonal",
    "converse.trace_bound_check",
    "fock.FockOperator.__matmul__", "fock._check_mode", "fock._check_vector",
    "fock.ladder_operator", "fock.number_operator", "fock.op_a", "fock.op_adag",
    "fock.slater_state", "fock.vacuum",
    "gaussian.calibrate_convention", "gaussian.omega_determinant",
    "gaussian.omega_polynomial_roots", "gaussian.omega_series", "gaussian.omega_zeros",
    "quadratics.check_grading", "quadratics.d_gamma", "quadratics.delta",
    "quadratics.delta_plus", "quadratics.skew_part",
    "rng.psd_matrix", "rng.unitary_matrix",
    "spectral.BoundVerdict.passed", "spectral.SingularDecomposition.reconstruct",
    "spectral._conj_exponents", "spectral.cauchy_schwarz_check",
    "spectral.hoelder_check", "spectral.jensen_check", "spectral.loewner_leq",
    "spectral.psd_power", "spectral.schatten_norm", "spectral.svd",
])


def library_functions() -> dict:
    """Code object -> "module.qualname" of every function and method defined in the package."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"fockbound.{path.stem}"
                                         if path.stem != "__init__" else "fockbound")
        for value in vars(module).values():
            members = [value]
            if inspect.isclass(value) and value.__module__ == module.__name__:
                members = [getattr(member, "fget", member) for member in vars(value).values()]
            for member in members:
                code = getattr(inspect.unwrap(member), "__code__", None)
                if code is not None and Path(code.co_filename).resolve() == path.resolve():
                    found[code] = f"{path.stem}.{member.__qualname__}"
    return found


def invocations(tmp_path) -> list[list[str]]:
    argvs = [list(invocation.argv) for name in sorted(WORKLOADS.BATCHES)
             for invocation in WORKLOADS.batch(name, 1, tiny=True)]
    skew = np.zeros((2, 2, 2))
    skew[0, 1, 0], skew[1, 0, 0] = 1.0, -1.0
    (tmp_path / "c.json").write_text(json.dumps(skew.tolist()))
    report = str(tmp_path / "car.json")
    return argvs + [
        # dimension 252 at n = 5: the Lanczos bracket and its Cholesky certificate
        ["verify-bounds", "--which", "dGamma", "--r", "2", "--m", "10", "--trials", "1"],
        ["verify-bounds", "--which", "literature_dGamma", "--r", "inf", "--m", "3",
         "--diag", "1", "0.5", "0.25", "--format", "csv"],
        ["verify-bounds", "--which", "literature_Delta", "--r", "2", "--m", "2",
         "--matrix-file", str(tmp_path / "c.json")],
        ["verify-car", "--m", "2", "--trials", "1", "--output", report],
        ["report", report],
    ]


def test_unreached_library_functions_are_exactly_the_listed_ones(tmp_path, capsys):
    functions = library_functions()
    argvs = invocations(tmp_path)
    fock._space.cache_clear()  # so the cached builders are entered, not only looked up
    fock._ladder_pattern.cache_clear()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in argvs]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [cli.EXIT_OK] * len(argvs)
    assert sorted(name for code, name in functions.items() if code not in entered) == \
        UNREACHED


def calls_by_name() -> dict:
    """Function name -> [(positional count, keyword names)] of every call of that name."""
    calls = {}
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((SRC.parents[1] / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    # a *args or **kwargs in the call may pass any option
                    star = any(isinstance(arg, ast.Starred) for arg in node.args)
                    keywords = {kw.arg for kw in node.keywords}
                    calls.setdefault(name, []).append(
                        (math.inf if star else len(node.args), keywords))
    return calls


def optional_parameters() -> list[tuple[str, str, int | None]]:
    """(module.function, parameter, its index among a call's positional arguments, or
    None if keyword-only) of every parameter with a default in src/fockbound."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            bound = 1 if id(node) in methods else 0  # self, which a call does not pass
            first = len(positional) - len(args.defaults)
            found += [(f"{path.stem}.{node.name}", arg.arg, i - bound)
                      for i, arg in enumerate(positional) if i >= first]
            found += [(f"{path.stem}.{node.name}", arg.arg, None)
                      for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None]
    return found


def test_every_option_is_set_by_some_call():
    calls = calls_by_name()
    unset = [f"{function}({param})" for function, param, index in optional_parameters()
             if not any(param in keywords or None in keywords
                        or (index is not None and count > index)
                        for count, keywords in calls.get(function.split(".")[1], []))]
    assert unset == []
