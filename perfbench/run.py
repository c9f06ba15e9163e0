"""Layered benchmark of fracnoether.

    python3 perfbench/run.py --workload run-examples --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1

`--trace 0` prints the end-to-end metrics of one workload; `--trace 1`
runs it traced and prints the per-layer metrics; `--workload all` prints
the end-to-end table of every workload.  The last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}; the full record,
with provenance, goes to perfbench/out/result-<workload>-seed<seed>-trace<t>.json.

Each workload runs in its own process (perfbench/worker.py), started from
this checkout's src/ with the BLAS thread count pinned.  Set-up is
measured SETUPS times per run, as separate processes, and reported as
the median.  See perfbench/NOTES.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("run-examples", "verify-large", "nonlinear-study")
SETUPS = 7            # set-up samples per run; setup_s is their median
BLAS_THREADS = 1      # one client, one thread: steadier on a shared 2-core box
TRACE_SHARE = 0.6     # share of --seconds the traced loop runs for
TAIL_BEYOND = 10      # samples beyond the reported tail percentile
SMOKE_OPS = 3         # operations per process in --smoke mode
WORKER_GRACE_S = 100  # slack beyond the loop for set-up and the last operation


class HarnessError(RuntimeError):
    pass


def blas_threads() -> int:
    return min(BLAS_THREADS, os.cpu_count() or 1)


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def host_provenance() -> dict:
    return {"blas_threads": blas_threads(), "nproc": os.cpu_count(), "git_commit": git_commit()}


def blas_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads())
    return env


def spawn(workload: str, seed: int, extra: list[str], timeout: float) -> dict:
    """Run one worker process to completion; return its result record with
    `setup_s`, the time from before its start to the end of its set-up."""
    OUT.mkdir(exist_ok=True)
    result = OUT / f"worker-{workload}-{seed}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--result", str(result)] + extra
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=blas_env(), stdout=subprocess.DEVNULL)
    try:
        status = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{workload} worker did not finish in {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if status != 0 or not result.is_file():
        raise HarnessError(f"{workload} worker exited {status}")
    record = json.loads(result.read_text())
    result.unlink()
    record["setup_s"] = record["ready_at"] - started
    return record


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples above it,
    and that percentile; the maximum (percentile 100) when there are too
    few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n


def end_to_end(workload: str, seed: int, seconds: float, smoke: bool):
    loop = ["--ops", str(SMOKE_OPS), "--smoke"] if smoke else ["--seconds", str(seconds)]
    setups = [spawn(workload, seed, ["--setup-only"] + loop, WORKER_GRACE_S)["setup_s"]
              for _ in range(SETUPS - 1)]
    main = spawn(workload, seed, loop, seconds + WORKER_GRACE_S)
    setups.append(main["setup_s"])
    lat = main["latencies"]
    tail_s, tail_pct = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail_s, "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "peak_rss_mib": (main["peak_rss_mib"], "MiB"),
    }
    detail = {
        "failed_frac": (len(main["failures"]) / len(lat), "frac"),
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": TAIL_BEYOND if len(lat) > TAIL_BEYOND else 0,
        "setup_samples_s": setups,
        "latencies_s": lat,
    }
    return metrics, detail, len(lat), main["failures"], main["provenance"]


def traced(workload: str, seed: int, seconds: float, smoke: bool):
    loop = ["--ops", str(SMOKE_OPS), "--smoke"] if smoke else ["--seconds", str(seconds * TRACE_SHARE)]
    run = spawn(workload, seed, loop + ["--trace"], seconds + WORKER_GRACE_S)
    ops = len(run["latencies"])
    replay = ["--ops", str(ops)] + (["--smoke"] if smoke else [])
    plain = spawn(workload, seed, replay, seconds + WORKER_GRACE_S)
    metrics = {name: tuple(v) for name, v in run["layers"].items()}
    overhead = sum(run["latencies"]) / sum(plain["latencies"]) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "frac")
    detail = {
        "solve_self_share": run["solve_self_share"],
        "spans": run["spans"],
        "spans_file": run["spans_file"],
        "untraced_replay_s": sum(plain["latencies"]),
        "traced_s": sum(run["latencies"]),
    }
    failures = run["failures"] + plain["failures"]
    return metrics, detail, ops + len(plain["latencies"]), failures, run["provenance"]


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    fn = traced if trace else end_to_end
    metrics, detail, attempted, failures, provenance = fn(workload, seed, seconds, smoke)
    provenance.update(host_provenance())
    provenance.update({
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
    })
    record = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "detail": detail,
        "failures": failures[:20],
        "provenance": provenance,
    }
    path = OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    record["path"] = str(path.relative_to(ROOT))
    return record


def print_table(record: dict) -> None:
    prov = record["provenance"]
    print(f"workload {prov['workload']}  seed {prov['seed']}  "
          f"{record['attempted']} ops, {record['failed']} failed")
    rows = dict(record["metrics"])
    detail = record["detail"]
    if "failed_frac" in detail:
        value, unit = detail["failed_frac"]
        rows["failed_frac"] = {"value": value, "unit": unit}
    for name, m in rows.items():
        note = ""
        if name == "op_tail_s":
            note = (f"  (p{detail['op_tail_percentile']:.1f}, "
                    f"{detail['op_tail_samples_beyond']} samples beyond)")
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}{note}")
    if "solve_self_share" in detail:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in detail["solve_self_share"].items() if v)
        print(f"  solve_extremal self time by layer: {shares}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    print(f"  results: {record['path']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="loop length per workload; default run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and a few operations, to test the harness")
    args = parser.parse_args(argv)

    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [measure(w, args.seed, args.seconds, bool(args.trace), args.smoke) for w in names]
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for record in records:
        print_table(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['provenance']['workload']}.{k}": m for r in records for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
