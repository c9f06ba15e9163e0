"""One workload process: set up, note the time set-up ended, run the
closed loop, write the results as JSON.  Started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --result PATH
        [--seconds S | --ops K] [--trace] [--setup-only] [--smoke]

run.py pins the BLAS thread count in this process's environment, so
numpy must not be imported before the environment is in place.  The
set-up end is stamped with time.monotonic(), the system-wide monotonic
clock on Linux, so run.py can subtract its own stamp taken before start.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def import_package():
    """Import fracnoether from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "fracnoether" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {src / 'fracnoether'}")
    sys.path.insert(0, str(src))
    import fracnoether
    from fracnoether import cli, expr  # noqa: F401  (submodules the workloads use)

    if Path(fracnoether.__file__).resolve().parent != (src / "fracnoether").resolve():
        sys.exit(f"error: imported fracnoether from {fracnoether.__file__}, not {src}")
    return fracnoether


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    pkg = import_package()
    from workloads import WORKLOADS

    workdir = OUT / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](pkg, args.seed, workdir, args.smoke)
        result = {"ready_at": time.monotonic()}
        if not args.setup_only:
            result.update(_loop(pkg, workload, args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["provenance"] = provenance()
    Path(args.result).write_text(json.dumps(result))
    return 0


def provenance() -> dict:
    """Interpreter, numpy and BLAS versions of this process."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.26 has no dict mode
        blas = {}
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")},
    }


def _loop(pkg, workload, args) -> dict:
    """The closed loop: until --seconds have passed, or for --ops operations."""
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(pkg)

    latencies: list[float] = []
    failures: list[str] = []
    bytes_written = 0
    deadline = time.perf_counter() + args.seconds if args.seconds is not None else None
    i = 0
    while (i < args.ops) if args.ops is not None else (time.perf_counter() < deadline):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        error = None
        try:
            out = workload.call(i)
        except Exception as exc:  # an operation that raised is a failed operation
            error = exc
        latencies.append(time.perf_counter() - t0)
        if error is None:
            try:
                bytes_written += workload.check(i, out)
            except Exception as exc:  # so is one whose output cannot be checked
                error = exc
        if error is not None:
            failures.append(f"op {i}: {type(error).__name__}: {error}")
        i += 1

    result = {
        "latencies": latencies,
        "failures": failures,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        metrics, solve_share = tracer.layer_metrics(max(len(latencies), 1), bytes_written)
        result["layers"] = metrics
        result["solve_self_share"] = solve_share
        spans_path = OUT / f"spans-{args.workload}.csv.gz"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["spans"] = len(tracer.spans)
    return result


if __name__ == "__main__":
    sys.exit(main())
