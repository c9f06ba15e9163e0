"""One-off baseline record of the numbers ROADMAP quotes.  Not part of the
gated benchmark and not repeated per run.

    python3 perfbench/baseline.py    # writes perfbench/BENCH_baseline.json; takes a few minutes

It measures, with the same pinned BLAS thread count as the benchmark:

- `solve_extremal` on the four built-in examples at N = 64 ... 1024
  (median of 3 solves below N=512, one solve from 512 up), the share of
  each solve spent in the finite-difference Jacobian, and the growth
  exponent of solve time between N=256 and N=1024;
- at each N, one residual evaluation (`pontryagin_residual` on the
  solved extremal) and one `np.linalg.solve` of the Newton system's size;
- the first (cold-table) left Caputo apply and the first right
  fractional-integral apply at N=8192, each with its tracemalloc peak.
  These build about 1 GiB of tables and peak near 1.6 GiB.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import tracemalloc
from time import perf_counter

from run import HERE, blas_threads, host_provenance

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(blas_threads())

from tracing import Tracer  # noqa: E402
from worker import import_package, provenance  # noqa: E402

SIZES = (64, 128, 256, 512, 1024)
EXAMPLES = ("example-momentum", "example-energy", "example-linear-frac", "example-covform")
LARGE_N = 8192


def _median_time(call, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        call()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def solves(pkg, np) -> dict:
    tracer = Tracer()
    solver = pkg.solver
    tracer.patch(solver, "_fd_jacobian", tracer.wrap("solver.jacobian", solver._fd_jacobian))
    rng = np.random.default_rng(0)
    record = {}
    try:
        for name in EXAMPLES:
            conf = pkg.cli.load_config(name)
            spec = conf.problem
            rows = {}
            for n in SIZES:
                grid = pkg.Grid(spec.a, spec.b, n)
                times, shares = [], []
                for _ in range(3 if n < 512 else 1):
                    first = len(tracer.spans)
                    t0 = perf_counter()
                    out = pkg.solve_extremal(spec, grid, conf.solver)
                    elapsed = perf_counter() - t0
                    jac = sum(s[3] - s[2] for s in tracer.spans[first:])
                    times.append(elapsed)
                    shares.append(jac / elapsed)
                nn = n + 1
                unknowns = sum(nn - 2 + (e is None) for e in spec.q_end) + (spec.m + spec.n) * nn
                a = rng.standard_normal((unknowns, unknowns)) + unknowns * np.eye(unknowns)
                b = rng.standard_normal(unknowns)
                rows[str(n)] = {
                    "solve_s": statistics.median(times),
                    "jacobian_share": statistics.median(shares),
                    "newton_iterations": out.iterations,
                    "converged": out.converged,
                    "unknowns": unknowns,
                    "residual_eval_s": _median_time(lambda: pkg.pontryagin_residual(spec, out.extremal), 3),
                    "linear_solve_s": _median_time(lambda: np.linalg.solve(a, b), 3),
                }
                print(f"{name} N={n}: solve {rows[str(n)]['solve_s']:.3f} s, "
                      f"Jacobian {rows[str(n)]['jacobian_share']:.1%}", flush=True)
            lo, hi = rows["256"]["solve_s"], rows["1024"]["solve_s"]
            record[name] = {"by_n": rows, "growth_exponent_256_1024": math.log(hi / lo) / math.log(4.0)}
    finally:
        tracer.uninstall()
    return record


def large_applies(pkg) -> dict:
    grid = pkg.Grid(0.0, 1.0, LARGE_N)
    path = pkg.sample_path(grid, lambda t: t * t)
    record = {}
    for label, call in (
        ("caputo_left_alpha_0.75", lambda: pkg.caputo_deriv_left(path, 0.75)),
        ("integral_right_beta_0.25", lambda: pkg.rl_integral_right(path, 0.25)),
    ):
        tracemalloc.start()
        t0 = perf_counter()
        call()
        elapsed = perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        record[label] = {"first_apply_s": elapsed, "tracemalloc_peak_mib": peak / 2**20}
        print(f"N={LARGE_N} {label}: {elapsed:.2f} s, peak {peak / 2**20:.0f} MiB", flush=True)
    return record


def main() -> int:
    pkg = import_package()
    import numpy as np

    record = {
        "provenance": {**provenance(), **host_provenance()},
        "solves": solves(pkg, np),
        f"first_applies_n{LARGE_N}": large_applies(pkg),
    }
    path = HERE / "BENCH_baseline.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
