"""Which library functions no command-line path reaches, and which options no call sets.

The tiny invocations of the benchmark's workloads (perfbench/workloads.py)
and a few more that use the options they leave out run through `cli.main`
under `sys.setprofile`.  Every top-level function and method defined in
`src/fockbound` that none of them enters must be named in UNREACHED, and
every name there must still be unreached.  So library code that only tests
call is a listed, deliberate choice, and the list shrinks when a command
starts to use a function or the function is deleted.  Each name is in one of
three groups that says why it stays: TRACED (the benchmark's tracer wraps it
by name), PLANNED (a ROADMAP item gives it report rows) or HELPERS (only
unreached code calls it, which an ast check holds); an oracle or fixture
that only tests call belongs in tests/jw_oracle.py.

The options ratchet reads the source instead: every optional parameter of a
function defined in `src/fockbound` must be passed, by keyword or by
position, by some call of a function of that name in `src/`, `tests/` or
`perfbench/`, and the calls must not all resolve to one literal value (the
value passed, or the default for a call that passes none).  An option that
nothing turns on, or that every call sets the same, is dead surface.

The dead-code ratchet reads the source too: every parameter of a function
defined in `src/fockbound` must be read by its body (the `bounds.BOUNDS` row
lambdas share one signature and are not functions defined by `def`), and
every module-level import outside `__init__.py` must be used by its module."""

import ast
import importlib
import inspect
import json
import sys
from pathlib import Path

import numpy as np
from test_perfbench_tracer import load_tracer
from test_perfbench_workloads import WORKLOADS

from fockbound import cli, fock

SRC = Path(fock.__file__).resolve().parent

# Wrapped by name in perfbench/tracer.py (LAYER_FUNCTIONS, and the patched
# FockOperator.__matmul__); they go when the benchmark's tracer stops naming them.
TRACED = [
    "bounds.rhs_operator", "bounds.verify_bound",
    "fock.FockOperator.__matmul__", "fock.op_a", "fock.op_adag",
    "gaussian.omega_determinant",
    "quadratics.check_grading", "quadratics.d_gamma", "quadratics.delta",
    "quadratics.delta_plus",
    "spectral.loewner_leq", "spectral.schatten_norm",
]
# Paper statements and inputs that a ROADMAP item gives report rows.
PLANNED = [
    "bounds.basic_estimate_check",  # item 7
    "converse.trace_bound_check",  # item 7
    "spectral.cauchy_schwarz_check",  # item 7
    "spectral.hoelder_check",  # item 7
    "spectral.jensen_check",  # item 7
    "spectral.psd_power",  # item 7
    "spectral.BoundVerdict.passed",  # item 7
    "converse.decay_values",  # item 8
    "bounds.bound_sweep",  # items 9 and 11
    "rng.unitary_matrix",  # item 4
]
# Called only by the names above (test_helpers_serve_only_unreached_code).
HELPERS = [
    "fock.FockSpace.dim", "fock._check_vector", "fock.ladder_operator",
    "spectral._require_self_adjoint", "spectral._conj_exponents",
]
UNREACHED = sorted(TRACED + PLANNED + HELPERS)


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
    fock._basis.cache_clear()  # so the cached builders are entered, not only looked up
    fock._ladder_pattern.cache_clear()
    cli.build_parser.cache_clear()
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
        UNREACHED, ("a src/ function that no command reaches must be named in TRACED, "
                    "PLANNED or HELPERS with its reason, or move to tests/jw_oracle.py; "
                    "one that a command reaches must leave them")


def test_traced_names_are_wrapped_by_the_tracer():
    wrapped = {f"{module}.{name}" for module, names in load_tracer().LAYER_FUNCTIONS.items()
               for name in names}
    assert sorted(set(TRACED) - wrapped) == ["fock.FockOperator.__matmul__"]
    assert len(UNREACHED) == len(set(UNREACHED))  # no name in two groups


def test_helpers_serve_only_unreached_code():
    # every function or method defined in src/ that names a helper must itself
    # be unreached: a module function is named by a bare name or an attribute,
    # a method or property (module.Class.name) by an attribute only
    members = {name.rsplit(".", 1)[1]: name for name in HELPERS if name.count(".") == 2}
    functions = {name.rsplit(".", 1)[1]: name for name in HELPERS if name.count(".") == 1}
    users = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owners = {id(node): f"{cls.name}." for cls in tree.body
                  if isinstance(cls, ast.ClassDef) for node in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef) or \
                    not (id(node) in owners or node in tree.body):
                continue
            name = f"{path.stem}.{owners.get(id(node), '')}{node.name}"
            attrs = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            bare = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            users += [(name, members[a]) for a in attrs & members.keys()]
            users += [(name, functions[f]) for f in (attrs | bare) & functions.keys()]
    assert {helper for _, helper in users} == set(HELPERS)  # each helper has a user
    assert [(name, helper) for name, helper in users if name not in UNREACHED] == []


def calls_by_name() -> dict:
    """Function name -> [(positional arguments, {keyword: argument})] of every call of
    that name; None for a call with *args or **kwargs, which may pass any option."""
    calls = {}
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((SRC.parents[1] / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    star = any(isinstance(arg, ast.Starred) for arg in node.args) \
                        or any(kw.arg is None for kw in node.keywords)
                    calls.setdefault(name, []).append(
                        None if star else (node.args, {kw.arg: kw.value for kw in node.keywords}))
    return calls


def optional_parameters() -> list[tuple[str, str, int | None, object]]:
    """(module.function, parameter, its index among a call's positional arguments or
    None if keyword-only, default) of every parameter with a default in src/fockbound.

    The default is read by inspect.signature; a def nested in another function,
    which no module attribute reaches, gives its default as a literal."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"fockbound.{path.stem}"
                                         if path.stem != "__init__" else "fockbound")
        tree = ast.parse(path.read_text())
        owners = {id(node): cls.name for cls in tree.body if isinstance(cls, ast.ClassDef)
                  for node in cls.body}
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef) \
                    or not (node.args.defaults or any(node.args.kw_defaults)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            bound = 1 if id(node) in owners else 0  # self, which a call does not pass
            first = len(positional) - len(args.defaults)
            if id(node) in owners or id(node) in top:
                owner = getattr(module, owners[id(node)]) if id(node) in owners else module
                parameters = inspect.signature(getattr(owner, node.name)).parameters
                defaults = {name: p.default for name, p in parameters.items()}
            else:
                defaults = {arg.arg: ast.literal_eval(default) for arg, default in
                            zip(positional[first:] + args.kwonlyargs,
                                args.defaults + args.kw_defaults) if default is not None}
            found += [(f"{path.stem}.{node.name}", arg.arg, i - bound, defaults[arg.arg])
                      for i, arg in enumerate(positional) if i >= first]
            found += [(f"{path.stem}.{node.name}", arg.arg, None, defaults[arg.arg])
                      for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None]
    return found


def passed_argument(call, param: str, index: int | None):
    """The argument node a call passes for the option, or None if it passes none."""
    args, keywords = call
    if index is not None and len(args) > index:
        return args[index]
    return keywords.get(param)


def test_every_option_is_set_by_some_call():
    calls = calls_by_name()
    unset = [f"{function}({param})" for function, param, index, _ in optional_parameters()
             if not any(call is None or passed_argument(call, param, index) is not None
                        for call in calls.get(function.split(".")[1], []))]
    assert unset == []


def literal_value(call, param: str, index: int | None, default):
    """The literal a call passes for the option, or the default if it passes none.
    ValueError for a call with *args or **kwargs or a non-literal argument, either
    of which may pass any value."""
    if call is None:
        raise ValueError("a call with *args or **kwargs")
    argument = passed_argument(call, param, index)
    return default if argument is None else ast.literal_eval(argument)


def test_no_option_takes_one_value_in_every_call():
    calls = calls_by_name()
    single = []
    for function, param, index, default in optional_parameters():
        try:
            values = [literal_value(call, param, index, default)
                      for call in calls.get(function.split(".")[1], [])]
        except ValueError:  # some call may pass another value
            continue
        if values and all(value == values[0] for value in values):
            single.append(f"{function}({param})")
    assert single == []


def unread_parameters() -> list[str]:
    """module.function(parameter) of every parameter that its function's body never reads."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
            read = {name.id for statement in node.body for name in ast.walk(statement)
                    if isinstance(name, ast.Name) and not isinstance(name.ctx, ast.Store)}
            found += [f"{path.stem}.{node.name}({arg.arg})" for arg in params
                      if arg.arg not in read]
    return found


def unused_imports() -> list[str]:
    """module: name of every module-level import that its module never uses."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.stem}: {name}" for node in tree.body
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and getattr(node, "module", None) != "__future__"
                  for alias in node.names
                  if (name := (alias.asname or alias.name).split(".")[0]) not in used]
    return found


def test_every_parameter_is_read_and_every_import_used():
    assert unread_parameters() == []
    assert unused_imports() == []
