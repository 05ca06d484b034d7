"""fockbound benchmark: run one workload, check its verdicts, print metrics.

    python3 perfbench/run.py --workload bounds-m10 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  Every batch runs in a fresh interpreter (`worker.py`), one
invocation after another (a closed loop with one client).

--trace 0  whole batches, each followed by two set-up probes (import only),
           until the next batch would overrun --seconds (at least one batch,
           at least nine probes).  Prints the end-to-end metrics: medians
           over the batches, and over the probes for setup_s.
--trace 1  one untraced batch, then one traced batch; prints the per-layer
           metrics.  Spans are written to .perfbench_out/.

The last line of stdout is the result object; the line before it records
the machine, the seed, every sample, failed_frac and the report digests.
Exit 1 without a result if a worker cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

PROBES_PER_BATCH = 2
MIN_SETUP_PROBES = 9
MAX_BATCHES = 100
TIME_LIMIT_S = 170.0
BLAS_THREADS = 2  # fixed so that machines with more cores stay comparable

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
# sizes left out of every workload; see README.md
NOT_ATTEMPTED = {
    "m=11": "dense path takes 15-19 s and 1.8 GB per bound verdict",
    "m>=12": "dense path does not fit in memory (the a_j cache alone is ~6.4 GB at m=12)",
}

SELF_S = (
    "quadratics.d_gamma", "quadratics.delta", "quadratics.delta_plus",
    "quadratics.check_commutator", "quadratics.check_grading",
    "spectral.loewner_leq", "spectral.schatten_norm",
    "fock.FockOperator.matmul", "fock.op_a", "fock.op_adag", "fock.verify_car",
    "fock.make_space",
    "bounds.verify_bound", "bounds.rhs_operator",
    "gaussian.gaussian_report", "gaussian.pair_coefficients",
    "gaussian.omega_determinant",
    "converse.sharpness_sweep", "converse.schatten_recovery_check",
    "cli.render",
)
CALLS = (
    "quadratics.d_gamma", "quadratics.delta", "quadratics.delta_plus",
    "spectral.loewner_leq", "fock.FockOperator.matmul", "bounds.verify_bound",
    "gaussian.pair_coefficients",
)
SUBCOMMANDS = ("verify-car", "verify-bounds", "verify-algebra", "gaussian-check",
               "sweep-sharpness")
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in SELF_S},
    **{f"{name}.calls": "count" for name in CALLS},
    "quadratics.rss_growth_mb": "MiB",
    "spectral.loewner_leq.norm2_s": "s",
    "spectral.loewner_leq.eigvalsh_s": "s",
    **{f"cli.{sub}.wall_s": "s" for sub in SUBCOMMANDS},
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
    "failed_frac": "ratio",
}


class BenchError(Exception):
    """A worker could not run or returned no result; no metrics are printed."""


class Runner:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
        threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = threads

    def __call__(self, job: dict) -> dict:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("time limit reached before the next worker")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
                capture_output=True, text=True, cwd=ROOT, env=self.env,
                timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker killed after {timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(proc.stdout)


def gate(batch: list, result: dict) -> tuple[int, int, list]:
    """Expected rows, failed rows, and what went wrong.

    A row fails if it is missing, if it does not pass, or if its invocation
    exited nonzero or raised.
    """
    attempted = failed = 0
    problems = []
    for inv, got in zip(batch, result["invocations"], strict=True):
        attempted += len(inv.expected)
        if got["exit"] != 0:
            failed += len(inv.expected)
            problems.append({"argv": got["argv"], "exit": got["exit"],
                             "error": got["error"]})
            continue
        rows = dict(got["rows"])
        bad = [cid for cid in inv.expected if rows.get(cid) is not True]
        failed += len(bad)
        if bad:
            problems.append({"argv": got["argv"], "failed_rows": bad})
    return attempted, failed, problems


def machine(sample: dict, seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "python": platform.python_version(),
        "numpy": sample["numpy"],
        "blas": sample["blas"],
        "blas_version": sample["blas_version"],
        "blas_threads": sample["blas_threads"],
        "seed": seed,
    }


def end_to_end(run, argvs: list, seconds: float) -> tuple[list, dict]:
    start = time.monotonic()
    results, setups, longest = [], [], 0.0
    while len(results) < MAX_BATCHES:
        t = time.monotonic()
        results.append(run({"argvs": argvs}))
        # probes follow a batch so that each one starts with the CPU as busy
        # as a CLI import inside a batch does; cold imports vary twice as much
        setups += [run({"probe": True})["setup_s"] for _ in range(PROBES_PER_BATCH)]
        longest = max(longest, time.monotonic() - t)
        if time.monotonic() - start + longest > seconds:
            break
    while len(setups) < MIN_SETUP_PROBES:
        setups.append(run({"probe": True})["setup_s"])
    samples = {key: [r[key] for r in results] for key in ("wall_s", "peak_rss_mb")}
    samples["setup_s"] = setups
    metrics = {name: statistics.median(samples[name]) for name in END_TO_END}
    return results, {"metrics": metrics, "samples": samples}


def per_layer(run, argvs: list, batch: list, span_path: Path) -> tuple[list, dict]:
    untraced = run({"argvs": argvs})
    traced = run({"argvs": argvs, "trace": str(span_path)})
    with open(span_path) as fh:
        summary = tracer.summarize(json.load(fh), traced["wall_s"])
    self_s, calls, kernel_s = summary["self_s"], summary["calls"], summary["kernel_s"]
    metrics = {f"{name}.self_s": self_s[name] for name in SELF_S}
    metrics.update({f"{name}.calls": calls[name] for name in CALLS})
    metrics["quadratics.rss_growth_mb"] = sum(
        summary["rss_growth_kb"][name] for name in tracer.QUADRATIC_OPERATORS) / 1024.0
    metrics["spectral.loewner_leq.norm2_s"] = kernel_s[
        ("spectral.loewner_leq", "numpy.linalg.norm")]
    metrics["spectral.loewner_leq.eigvalsh_s"] = kernel_s[
        ("spectral.loewner_leq", "numpy.linalg.eigvalsh")]
    sub_wall = defaultdict(float)
    for inv, got in zip(batch, untraced["invocations"], strict=True):
        sub_wall[inv.subcommand] += got["wall_s"]
    metrics.update({f"cli.{sub}.wall_s": sub_wall[sub] for sub in SUBCOMMANDS})
    metrics["trace.coverage"] = summary["coverage"]
    metrics["trace.overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1.0
    return [untraced, traced], {"metrics": metrics, "spans": str(span_path.relative_to(ROOT))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BATCHES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="same mix at m <= 4, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fockbound" / "cli.py").is_file():
        print(f"no fockbound sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    # exit through subprocess.run on SIGTERM, so that it kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    run = Runner(time.monotonic() + TIME_LIMIT_S)
    batch = workloads.batch(args.workload, args.seed, tiny=args.tiny)
    argvs = [list(inv.argv) for inv in batch]
    try:
        if args.trace:
            OUT_DIR.mkdir(exist_ok=True)
            span_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            results, record = per_layer(run, argvs, batch, span_path)
        else:
            results, record = end_to_end(run, argvs, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = failed = 0
    problems = []
    for result in results:
        a, f, p = gate(batch, result)
        attempted, failed = attempted + a, failed + f
        problems.extend(p)
    units = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        record["metrics"]["failed_frac"] = failed / attempted
    digests = {" ".join(inv["argv"]): inv["digest"] for inv in results[0]["invocations"]}
    # informational only: equal seeds should give equal report bodies
    repeat = len({tuple(inv["digest"] for inv in r["invocations"]) for r in results}) == 1
    print(json.dumps({
        "workload": args.workload, "trace": args.trace, "tiny": args.tiny,
        "batches": len(results), "machine": machine(results[0], args.seed),
        "failed_frac": failed / attempted, "problems": problems,
        "report_sha256": digests, "report_sha256_repeat": repeat,
        "not_attempted": NOT_ATTEMPTED,
        **{k: v for k, v in record.items() if k != "metrics"},
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
