"""Self-test of the benchmark at tiny m; exit 0 iff every check holds.

    python3 perfbench/selftest.py

Runs every workload runner through `run.py --tiny` untraced and traced,
checks that each emits exactly the metrics BENCHMARK.json names, with their
units, with all verdicts correct and trace coverage >= 0.95; checks the
correctness gate and the tracer's self-time rule on made-up inputs; and
checks that the benchmark fails without a result when the sources are
missing.  Scratch files go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracer
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
MIN_COVERAGE = 0.95


def _bench(args: list, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_workload(workload: str, trace: int) -> list[str]:
    proc = _bench(["--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace), "--tiny"], run.ROOT)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"{where}: verdicts not all correct: {proc.stdout.splitlines()[-2]}")
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if emitted != declared:
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(declared.keys() - emitted.keys())}, "
                      f"extra {sorted(emitted.keys() - declared.keys())}, "
                      f"units {[n for n in emitted if n in declared and emitted[n] != declared[n]]}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace and not all(values[name] > 0 for name in run.END_TO_END):
        errors.append(f"{where}: an end-to-end metric is not positive: {values}")
    if trace:
        if values["trace.coverage"] < MIN_COVERAGE:
            errors.append(f"{where}: trace.coverage {values['trace.coverage']}")
        if values["failed_frac"] != 0:
            errors.append(f"{where}: failed_frac {values['failed_frac']}")
        # names imported into other modules must be traced there too
        via = {"bounds-m10": "quadratics.d_gamma.calls",
               "gaussian-m8": "quadratics.delta_plus.calls"}.get(workload)
        if via and values[via] <= 0:
            errors.append(f"{where}: {via} not traced")
    return errors


def check_gate() -> list[str]:
    inv = workloads.verify_car(4, 1, 0)
    ok_rows = [[cid, True] for cid in inv.expected]
    cases = {
        "all pass": ({"exit": 0, "rows": ok_rows}, 0),
        "missing row": ({"exit": 0, "rows": ok_rows[1:]}, 1),
        "flag differs": ({"exit": 0, "rows": [[ok_rows[0][0], False]] + ok_rows[1:]}, 1),
        "nonzero exit": ({"exit": 1, "rows": ok_rows}, len(ok_rows)),
        "raised": ({"exit": None, "rows": []}, len(ok_rows)),
    }
    errors = []
    for label, (got, want) in cases.items():
        result = {"invocations": [{"argv": list(inv.argv), "error": None, **got}]}
        attempted, failed, _ = run.gate([inv], result)
        if (attempted, failed) != (len(ok_rows), want):
            errors.append(f"gate, {label}: attempted {attempted}, failed {failed}")
    return errors


def check_self_time() -> list[str]:
    spans = [
        ["cli.main", "layer", -1, 0.0, 10.0, 0, 0],
        ["bounds.verify_bound", "layer", 0, 1.0, 9.0, 0, 0],
        ["quadratics.d_gamma", "layer", 1, 2.0, 5.0, 100, 612],
        ["numpy.linalg.eigvalsh", "kernel", 1, 6.0, 8.0, 0, 0],
    ]
    s = tracer.summarize(spans, 10.0)
    want = {"cli.main": 2.0, "bounds.verify_bound": 5.0, "quadratics.d_gamma": 3.0}
    errors = []
    if dict(s["self_s"]) != want or s["coverage"] != 1.0:
        errors.append(f"self time: got {dict(s['self_s'])}, coverage {s['coverage']}")
    if s["kernel_s"][("bounds.verify_bound", "numpy.linalg.eigvalsh")] != 2.0:
        errors.append(f"kernel time: got {dict(s['kernel_s'])}")
    if s["rss_growth_kb"]["quadratics.d_gamma"] != 512:
        errors.append(f"rss growth: got {dict(s['rss_growth_kb'])}")
    return errors


def check_without_sources() -> list[str]:
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench(["--workload", "gaussian-m8", "--seed", "1", "--seconds", "1",
                       "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout[:200]!r}"]
    return []


def main() -> int:
    errors = check_gate() + check_self_time()
    for workload in workloads.BATCHES:
        for trace in (0, 1):
            errors += check_workload(workload, trace)
    errors += check_without_sources()
    for err in errors:
        print("FAIL", err)
    print("selftest:", "ok" if not errors else f"{len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
