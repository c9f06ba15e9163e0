"""Smoke test of the benchmark harness.  Checks output shape, never timings.

    python3 perfbench/selftest.py

Runs every workload at tiny sizes for a few operations, untraced and
traced, and checks that the last stdout line is the result object, that
every metric BENCHMARK.json names is there with its unit and a finite
value, that the printed table carries failed_frac, and that no operation
failed.  Then checks that the benchmark refuses to run, with a non-zero
exit and no result, in a directory holding only BENCHMARK.json and the
benchmark's own files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

from run import HERE, OUT, ROOT, WORKLOADS

TIMEOUT_S = 300


def _run(cwd, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def check_workload(spec: dict, workload: str, trace: int) -> list[str]:
    where = f"{workload} --trace {trace}"
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--trace", str(trace), "--smoke")
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(expected) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m["unit"] != unit:
            errors.append(f"{where}: {name} unit {m['unit']!r}, expected {unit!r}")
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            errors.append(f"{where}: {name} value {m['value']!r}")
    if not trace and not any(line.split()[:2] == ["failed_frac", "0"] for line in lines):
        errors.append(f"{where}: table has no 'failed_frac 0' line")
    return errors


def check_bare_directory() -> list[str]:
    """Without the package source the benchmark must fail, not fall back."""
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(bare, "--workload", WORKLOADS[0], "--seed", "7", "--trace", "0", "--smoke")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        return [f"bare directory: exit {proc.returncode}, last line {last[0]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            errors += check_workload(spec, workload, trace)
    errors += check_bare_directory()
    for error in errors:
        print(f"FAIL {error}")
    print("selftest: " + ("ok" if not errors else f"{len(errors)} problem(s)"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
