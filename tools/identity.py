"""Byte-identity check: run one fixed artifact set on two source trees and
compare every artifact file and every exit code.

    python tools/identity.py --against REV [--smoke] [--expect PATTERN ...]

REV's `src/` is extracted with `git archive REV src | tar -x` into a
temporary directory (nothing is written under `.git`); the other side is
the working tree's `src/`.  Each side runs the whole artifact set in one
fresh Python process with `PYTHONPATH` set to that side's `src` and BLAS
pinned to one thread.  The set:

- `run` on the four built-in examples at N = 128, 256 and 1024;
- `study` on each example over 16,32,64,128;
- four two-state templates, one per alpha in {1, 0.9, 0.8, 0.7}, `run` at
  N = 64 and `study` over 16,32,64.  Their Lagrangian calls all six
  functions of the expression language;
- a config that sets every key the parser reads but out_dir, which
  `--out` overrides (the solver keys, conservation_tolerance, a free end
  written `FREE`, and a symmetry block with tau, xi, sigma and rho), and
  the cubic config (L = q1^2/2 + u1^2/2, phi1 = u1 + u1^3, alpha =
  0.75), which has no minimizer; each `run` at N = 64 and `study` over
  16,32,64;
- a config just inside the expression depth bound: a Lagrangian summing
  97 terms (99 levels deep, one under `expr.MAX_DEPTH`) and a short
  power chain in phi1, `run` at N = 64 and `study` over 16,32,64.

`--smoke` shrinks it to N = 16, `study 8,16`, the first template and the
every-key config.

One line is printed per file (identical, different, or only on one
side); a differing CSV gives its number of differing cells and the
largest absolute and relative difference.  Exit codes are compared per
job.  The exit status is 1 when a difference is not matched by an
`--expect` pattern (fnmatch, against a file's path or a job's name).
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ("example-momentum", "example-energy", "example-linear-frac", "example-covform")

TEMPLATE = """\
alpha = {alpha!r}
t0 = 0
t1 = 1
n = 2
m = 1
lagrangian = u1^2/2 + 0.8*q1^4/4 + 0.7*(1 - cos(q2)) + 0.01*sqrt(1 + q1^2) \
+ 0.01*log(2 + q2^2) + 0.01*exp(q1)*abs(q2 + 3)
phi1 = u1 + 0.4*sin(q2)
phi2 = q1 - 0.35*q2
q1_start = 0
q1_end = 0.9
q2_start = 0.4
q2_end = free
grid_n = 64

[symmetry time]
tau = 1
"""
ALPHAS = (1.0, 0.9, 0.8, 0.7)

EVERY_KEY = """\
alpha = 0.8
t0 = 0
t1 = 1.5
n = 2
m = 2
lagrangian = (q1^2 + q2^2 + u1^2 + u2^2)/2
phi1 = u1
phi2 = u2
q1_start = 1
q1_end = 0.5
q2_start = 0
q2_end = FREE
grid_n = 64
max_iterations = 30
residual_tolerance = 1e-10
conservation_tolerance = 1e-3

[symmetry rotation]
tau = 0.5
xi1 = q2
xi2 = -q1
sigma1 = u2
sigma2 = -u1
rho1 = p2
rho2 = -p1
"""

CUBIC = """\
alpha = 0.75
t0 = 0
t1 = 1
n = 1
m = 1
lagrangian = q1^2/2 + u1^2/2
phi1 = u1 + u1^3
q1_start = 0
q1_end = 1
grid_n = 64
"""

# u1^2/2 + 96 terms of depth at most 3: each '+' adds a level, 99 in all
DEEP = """\
alpha = 0.6
t0 = 0
t1 = 1
n = 1
m = 1
lagrangian = u1^2/2 + {terms}
phi1 = u1 + 0.1*(1 + q1^2)^0.5^2^1
q1_start = 0
q1_end = 1
grid_n = 64
""".format(terms=" + ".join(["0.01*q1^2", "0.02*t*q1", "0.01*cos(q1)"] * 32))

# one fresh process per side: run each job through `cli.main`, quietly,
# and print the exit codes (or the exception that escaped) as JSON
_RUNNER = """\
import contextlib, io, json, sys
import fracnoether
from fracnoether.cli import main
jobs, root, src = json.load(sys.stdin)
if not fracnoether.__file__.startswith(src):
    sys.exit(f"imported {fracnoether.__file__}, not the package under {src}")
codes = {}
for name, argv in jobs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes[name] = main(argv + ["--out", f"{root}/{name}"])
        except Exception as e:
            codes[name] = f"raised {type(e).__name__}"
json.dump(codes, sys.stdout)
"""


def jobs(smoke: bool, config_dir: Path) -> list[tuple[str, list[str]]]:
    """The artifact set as (job name, `fracnoether` argv without --out)."""
    run_sizes, ladder = ((16,), "8,16") if smoke else ((128, 256, 1024), "16,32,64,128")
    out = []
    for name in EXAMPLES:
        out += [(f"run-{name}-N{n}", ["run", name, "--grid-n", str(n)]) for n in run_sizes]
        out.append((f"study-{name}", ["study", name, "--grid-n", ladder]))
    templates = [(f"template-a{alpha}", TEMPLATE.format(alpha=alpha)) for alpha in ALPHAS]
    every_key = ("every-key", EVERY_KEY)
    configs = ([templates[0], every_key] if smoke
               else templates + [every_key, ("cubic", CUBIC), ("deep", DEEP)])
    for name, text in configs:
        cfg = config_dir / f"{name}.cfg"
        cfg.write_text(text, encoding="utf-8")
        out.append((f"run-{name}", ["run", str(cfg), "--grid-n", "16" if smoke else "64"]))
        out.append((f"study-{name}", ["study", str(cfg), "--grid-n", "8,16" if smoke else "16,32,64"]))
    return out


def run_side(src: Path, job_list, out_root: Path) -> dict:
    """Run every job in one fresh process on `src`; return the exit codes."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _RUNNER], input=json.dumps([job_list, str(out_root), str(src)]),
        cwd=out_root.parent, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def describe_csv_difference(old: bytes, new: bytes) -> str:
    """Differing cells of two versions of one CSV file."""
    a = [line.split(",") for line in old.decode().splitlines()]
    b = [line.split(",") for line in new.decode().splitlines()]
    if [len(row) for row in a] != [len(row) for row in b]:
        return "shape differs"
    cells, max_abs, max_rel = 0, 0.0, 0.0
    for x, y in zip((c for row in a for c in row), (c for row in b for c in row)):
        if x == y:
            continue
        cells += 1
        u, v = _number(x), _number(y)
        if u is None or v is None:
            continue
        d = abs(u - v) if math.isfinite(u) and math.isfinite(v) else math.inf
        max_abs = max(max_abs, d)
        max_rel = max(max_rel, d / max(abs(u), abs(v)) if d else 0.0)
    return f"{cells} cells, max abs {max_abs:.3g}, max rel {max_rel:.3g}"


def compare(base_src: Path, change_src: Path, smoke: bool = False, expect=()) -> tuple[list[str], list[str]]:
    """Run the artifact set on both source trees and compare them.

    Returns the report lines and the differences no `expect` pattern
    matches (empty when the check passes)."""
    lines, unexpected = [], []

    def differs(key: str, line: str):
        lines.append(line)
        if not any(fnmatch.fnmatch(key, pattern) for pattern in expect):
            unexpected.append(key)

    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        tmp = Path(tmp)
        job_list = jobs(smoke, tmp)
        roots, codes = [], []
        for side, src in (("base", base_src), ("change", change_src)):
            root = tmp / side
            root.mkdir()
            roots.append(root)
            codes.append(run_side(src, job_list, root))
        files = sorted({p.relative_to(r).as_posix() for r in roots for p in r.rglob("*") if p.is_file()})
        for path in files:
            old, new = (r / path for r in roots)
            if not (old.is_file() and new.is_file()):
                differs(path, f"only in {'base' if old.is_file() else 'change'}  {path}")
            elif old.read_bytes() == new.read_bytes():
                lines.append(f"identical  {path}")
            elif path.endswith(".csv"):
                differs(path, f"different  {path}: "
                        f"{describe_csv_difference(old.read_bytes(), new.read_bytes())}")
            else:
                differs(path, f"different  {path}")
        for name, _ in job_list:
            before, after = codes[0].get(name), codes[1].get(name)
            if before == after:
                lines.append(f"identical  exit {name}: {after}")
            else:
                differs(name, f"different  exit {name}: {before} -> {after}")
    lines.append(f"{len(files)} files, {len(job_list)} exit codes; "
                 f"{len(unexpected)} unexpected difference(s)")
    return lines, unexpected


def extract_src(rev: str, dest: Path) -> Path:
    """REV's `src/` under `dest`, by `git archive` (no worktree, no .git writes)."""
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    parser.add_argument("--smoke", action="store_true", help="the small artifact set")
    parser.add_argument("--expect", action="append", default=[], metavar="PATTERN",
                        help="a file path or job name allowed to differ (fnmatch)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="identity-src-") as tmp:
        base_src = extract_src(args.against, Path(tmp))
        lines, unexpected = compare(base_src, ROOT / "src", args.smoke, args.expect)
    print("\n".join(lines))
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
