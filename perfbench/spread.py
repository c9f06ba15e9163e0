"""Run-to-run spread of the end-to-end metrics of one workload.

    python3 perfbench/spread.py --workload run-examples --seeds 10 [--first-seed 1] [--seconds S]

Runs the benchmark once per seed and prints, for every end-to-end metric,
the median over the runs and the spread: the distance between the first
and third quartiles (statistics.quantiles(values, n=4)) as a share of the
median, next to the metric's bound in BENCHMARK.json.  A benchmark is
steady when every spread except setup_s is within its bound; aim for a
third of it.  The values are kept in perfbench/out/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import OUT, ROOT, WORKLOADS


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} operations failed")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + "  ".join(f"{k} {v[-1]:.5g}" for k, v in values.items()), flush=True)

    OUT.mkdir(exist_ok=True)
    (OUT / f"spread-{args.workload}.json").write_text(json.dumps(values, indent=1) + "\n")
    print(f"{'metric':16s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread <= m["bound"] / 3 else "  above bound/3"
        print(f"{m['name']:16s} {med:12.5g} {spread:8.1%} {m['bound']:6.0%}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
