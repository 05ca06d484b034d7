"""One benchmark process: import fockbound, run one batch, report as JSON.

Run by `run.py` in a fresh interpreter with `src/` on PYTHONPATH, so the
Jordan-Wigner `lru_cache` fill is paid inside the batch, as a CLI user pays
it.  The job arrives as JSON on stdin:

    {"argvs": [[...], ...], "trace": null | "<path for the span file>"}

`{"probe": true}` only imports and reports the set-up time.  The result is
one JSON object on stdout.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _report_summary(text: str) -> tuple:
    """(check_id, pass) rows and the sha256 of the report without its timestamp."""
    report = json.loads(text)
    report["header"].pop("timestamp", None)
    body = json.dumps(report, sort_keys=True).encode()
    rows = [[c["check_id"], c["pass"]] for c in report["checks"]]
    return rows, hashlib.sha256(body).hexdigest()


def _invoke(main, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code, error = exc.code, err.getvalue()
    except Exception as exc:  # noqa: BLE001  a raising invocation is a failed row set
        code, error = None, f"{type(exc).__name__}: {exc}"
    else:
        error = err.getvalue() or None
    return {"argv": list(argv), "exit": code, "error": error,
            "wall_s": time.perf_counter() - start, "text": out.getvalue()}


def _blas_info(np) -> dict:
    import ctypes
    import glob
    import os

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                get_threads = getattr(lib, symbol)
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                threads = get_threads()
                break
    return {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads}


def main() -> None:
    job = json.load(sys.stdin)
    import numpy as np

    from fockbound import cli

    if job.get("probe"):
        json.dump({"setup_s": time.perf_counter() - T0}, sys.stdout)
        return
    tracer = None
    cli_main = cli.main
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        cli_main = tracer.wrap("cli.main", cli.main)
    first = time.perf_counter()
    invocations = [_invoke(cli_main, argv) for argv in job["argvs"]]
    wall_s = time.perf_counter() - first
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.dump(job["trace"])
    for inv in invocations:
        text = inv.pop("text")
        inv["rows"], inv["digest"] = [], None
        if inv["exit"] in (0, 1):
            try:
                inv["rows"], inv["digest"] = _report_summary(text)
            except (ValueError, KeyError, TypeError) as exc:
                inv["error"] = f"unreadable report: {exc}"
    json.dump({
        "setup_s": first - T0,
        "wall_s": wall_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "invocations": invocations,
        "numpy": np.__version__,
        **_blas_info(np),
    }, sys.stdout)


if __name__ == "__main__":
    main()
