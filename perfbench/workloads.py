"""The three benchmark workloads: seeded input generation, the timed call
and the output check of each operation.

Every workload is a closed loop with one client: operation i is issued
only after operation i-1 returned.  Inputs come from `random.Random(seed)`
alone, so one seed always gives the same configs and candidates.  The
package is driven only through its public entry points (`cli.main`,
`pontryagin_residual`, `charge_decomposition`, `verify_conservation`,
`invariance_residual`, `euler_lagrange_residual`; `solve_extremal` runs
inside `cli.main`), always looked up at call time on the module objects,
so the tracer can wrap them.

Operation cost classes are kept fixed across seeds on purpose (a fixed
round robin over examples and orders, seeded values only inside ranges
where the Newton iteration count does not change), so that a seed moves
the inputs but not the shape of the latency distribution.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def _replace_keys(text: str, values: dict) -> str:
    """Rewrite the `key = value` lines of a config for the given keys."""
    out = []
    for line in text.splitlines():
        key = line.split("=", 1)[0].strip()
        if "=" in line and key in values:
            line = f"{key} = {values[key]!r}"
        out.append(line)
    missing = set(values) - {line.split("=", 1)[0].strip() for line in out}
    if missing:
        raise ValueError(f"config has no keys {sorted(missing)}")
    return "\n".join(out) + "\n"


def _report(path: Path) -> dict:
    pairs = (line.split(": ", 1) for line in path.read_text().splitlines())
    return {key: value for key, value in pairs}


def _bytes_in(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


def _quiet_main(cli, argv: list[str]) -> int:
    """`cli.main` with its report lines kept off the worker's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class RunExamples:
    """`fracnoether run` on the four built-in examples at N=256.

    The examples are issued in a fixed round robin; each has four seeded
    variants (perturbed order and boundary values).  example-energy stays
    at alpha = 1 with t1 = T and q1_end = c sinh(T), so its exact
    solution is q = c sinh(t).
    """

    name = "run-examples"
    EXAMPLES = ("example-momentum", "example-energy", "example-linear-frac", "example-covform")
    VARIANTS = 4
    # Measured max |q - c sinh t| / h^2 at the seed commit is 0.035 at
    # most (40 variants, seeds 1-10); the bound leaves a 10x margin.
    ENERGY_C = 0.35

    def __init__(self, pkg, seed: int, workdir: Path, smoke: bool):
        self.cli = pkg.cli
        self.grid_n = 128 if smoke else 256
        rng = random.Random(seed)
        self.items = []
        for variant in range(self.VARIANTS):
            for example in self.EXAMPLES:
                values, oracle = self._perturb(example, rng)
                text = _replace_keys(self.cli.BUILTIN_EXAMPLES[example], values)
                self.cli.parse_config(text, example)
                cfg = workdir / f"{example}-{variant}.cfg"
                cfg.write_text(text)
                out = workdir / f"out-{example}"
                out.mkdir(exist_ok=True)
                self.items.append((example, cfg, out, oracle))

    @staticmethod
    def _perturb(example: str, rng: random.Random):
        if example == "example-energy":
            t1, scale = rng.uniform(0.8, 1.2), rng.uniform(0.8, 1.2)
            return {"t1": t1, "q1_end": scale * math.sinh(t1)}, (t1, scale)
        if example == "example-linear-frac":
            return {"alpha": rng.uniform(0.6, 0.9), "q1_start": rng.uniform(0.8, 1.2)}, None
        if example == "example-covform":
            return {"alpha": rng.uniform(0.4, 0.6), "q1_end": rng.uniform(0.8, 1.2)}, None
        return {"alpha": rng.uniform(0.6, 0.9), "q1_end": rng.uniform(0.8, 1.2)}, None

    def call(self, i: int):
        _, cfg, out, _ = self.items[i % len(self.items)]
        return _quiet_main(self.cli, ["run", str(cfg), "--grid-n", str(self.grid_n), "--out", str(out)])

    def check(self, i: int, status) -> int:
        example, _, out, oracle = self.items[i % len(self.items)]
        if status != 0:
            raise CheckFailed(f"{example}: run exited {status}")
        if _report(out / "report.txt").get("converged") != "true":
            raise CheckFailed(f"{example}: report does not say converged: true")
        if oracle is not None:
            t1, scale = oracle
            with open(out / "trajectory.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            err = max(abs(float(r["q1"]) - scale * math.sinh(float(r["t"]))) for r in rows)
            h = t1 / self.grid_n
            if not err <= self.ENERGY_C * h * h:
                raise CheckFailed(f"{example}: |q - c sinh t| = {err:.3e} > {self.ENERGY_C} h^2")
        return _bytes_in(out)


class NonlinearStudy:
    """`fracnoether study` over N = 16, 32, 64, 128 on seeded nonlinear
    two-state problems (quartic and cosine terms in L, sine coupling in
    the dynamics, q2 free at the right end, time-translation symmetry).

    The coefficient ranges and the order set {1, 0.9, 0.8, 0.7} are a
    region where damped Newton takes exactly 3 iterations on every rung
    at the seed commit (80 sampled configs), so every operation does the
    same amount of work.
    """

    name = "nonlinear-study"
    ALPHAS = (1.0, 0.9, 0.8, 0.7)
    POOL = 8
    TEMPLATE = """\
alpha = {alpha!r}
t0 = 0
t1 = 1
n = 2
m = 1
lagrangian = u1^2/2 + {a!r}*q1^4/4 + {b!r}*(1 - cos(q2))
phi1 = u1 + {c!r}*sin(q2)
phi2 = q1 - {d!r}*q2
q1_start = 0
q1_end = {q1_end!r}
q2_start = {q2_start!r}
q2_end = free
grid_n = 128

[symmetry time]
tau = 1
"""

    def __init__(self, pkg, seed: int, workdir: Path, smoke: bool):
        self.cli = pkg.cli
        self.ladder = "8,16" if smoke else "16,32,64,128"
        rng = random.Random(seed)
        self.items = []
        for j in range(self.POOL):
            text = self.TEMPLATE.format(
                alpha=self.ALPHAS[j % len(self.ALPHAS)],
                a=rng.uniform(0.5, 1.0), b=rng.uniform(0.5, 1.0),
                c=rng.uniform(0.3, 0.5), d=rng.uniform(0.3, 0.5),
                q1_end=rng.uniform(0.8, 1.0), q2_start=rng.uniform(0.3, 0.5),
            )
            self.cli.parse_config(text, f"nonlinear-{j}")
            cfg = workdir / f"nonlinear-{j}.cfg"
            cfg.write_text(text)
            out = workdir / f"out-nonlinear-{j}"
            out.mkdir(exist_ok=True)
            self.items.append((cfg, out))

    def call(self, i: int):
        cfg, out = self.items[i % len(self.items)]
        return _quiet_main(self.cli, ["study", str(cfg), "--grid-n", self.ladder, "--out", str(out)])

    def check(self, i: int, status) -> int:
        cfg, out = self.items[i % len(self.items)]
        if status != 0:
            raise CheckFailed(f"{cfg.name}: study exited {status}")
        with open(out / "study.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != len(self.ladder.split(",")):
            raise CheckFailed(f"{cfg.name}: study.csv has {len(rows)} rows")
        bad = [r["N"] for r in rows if r["status"] != "ok"]
        if bad:
            raise CheckFailed(f"{cfg.name}: rows not ok at N = {','.join(bad)}")
        return _bytes_in(out)


class VerifyLarge:
    """Residual, bracket, invariance and Euler-Lagrange checks on analytic
    power-law candidates at N=4096, no solver.

    Problem: L = u1^2/2 + k q1^2/2, phi1 = u1.  Candidate: q = c t^g,
    u = the exact Caputo derivative of q, p = -u.  The order cycles over
    three values, 1 and two seeded ones, so the first operation at each
    order builds the dense operator tables cold and the rest reuse them;
    three orders keep the retained tables near 0.7 GiB.
    """

    name = "verify-large"
    CANDIDATES_PER_ORDER = 4
    # Measured max |u - discrete Caputo(q)| / max|u| is below h^(2-alpha)
    # (factor 0.97 at most, alpha in (0, 1), g in [2, 3]); bound 3x that.
    CAPUTO_C = 3.0

    def __init__(self, pkg, seed: int, workdir: Path, smoke: bool):
        self.pkg = pkg
        n = 64 if smoke else 4096
        rng = random.Random(seed)
        self.orders = (1.0, rng.uniform(0.3, 0.5), rng.uniform(0.6, 0.9))
        variables = ("t", "q1", "u1", "p1")
        one = pkg.expr.parse("1", variables)
        self.generators = (
            ("momentum", pkg.SymmetryGenerator.create(1, 1, xi=[one])),
            ("time", pkg.SymmetryGenerator.create(1, 1, tau=one)),
        )
        grid = pkg.Grid(0.0, 1.0, n)
        t = grid.nodes()
        self.h = grid.h
        self.items = []
        for j in range(self.CANDIDATES_PER_ORDER):
            for alpha in self.orders:
                g, c, k = rng.uniform(2.0, 3.0), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
                spec = pkg.ProblemSpec(
                    order=pkg.FractionalOrder(alpha), a=0.0, b=1.0, n=1, m=1,
                    lagrangian=pkg.expr.parse(f"u1^2/2 + {k!r}*q1^2/2", variables),
                    dynamics=(pkg.expr.parse("u1", variables),),
                    q_start=(0.0,), q_end=(c,),
                )
                q = c * t ** g
                u = c * math.gamma(g + 1.0) / math.gamma(g + 1.0 - alpha) * t ** (g - alpha)
                cand = pkg.Extremal(
                    q=pkg.SampledPath(grid, q), u=pkg.SampledPath(grid, u), p=pkg.SampledPath(grid, -u),
                )
                self.items.append((spec, cand, k))

    def call(self, i: int):
        pkg = self.pkg
        spec, cand, _ = self.items[i % len(self.items)]
        out = {"residual": pkg.pontryagin_residual(spec, cand)}
        for name, gen in self.generators:
            pairs = pkg.charge_decomposition(spec, cand, gen)
            out[name] = (
                pkg.verify_conservation(pairs, spec.order, 1e-5),
                pkg.invariance_residual(spec, cand, gen),
            )
        out["euler_lagrange"] = pkg.euler_lagrange_residual(spec, cand.q)
        return out

    def check(self, i: int, out) -> int:
        spec, cand, k = self.items[i % len(self.items)]
        tag = f"alpha={spec.alpha:.4f}"
        res = out["residual"]
        u, q, p = cand.u.values[:, 0], cand.q.values[:, 0], cand.p.values[:, 0]
        # state residual = dH/dp - Caputo(q) = u - Caputo(q): the Caputo
        # derivative of c t^g against c G(g+1)/G(g+1-alpha) t^(g-alpha)
        bound = self.CAPUTO_C * self.h ** (2.0 - spec.alpha) * float(np.abs(u).max())
        if not res.state_norm <= bound:
            raise CheckFailed(f"{tag}: Caputo of power law off by {res.state_norm:.3e} > {bound:.3e}")
        if res.stationarity_norm != 0.0:
            raise CheckFailed(f"{tag}: stationarity u + p is {res.stationarity_norm!r}, not 0")
        if not (np.all(np.isfinite(res.transversality_start)) and np.all(np.isfinite(res.transversality_end))):
            raise CheckFailed(f"{tag}: transversality values not finite")
        report, inv = out["momentum"]
        if not np.array_equal(report.charge.values[:, 0], p):
            raise CheckFailed(f"{tag}: momentum charge is not p")
        if not np.allclose(inv.values[:, 0], k * q, rtol=1e-12, atol=0.0):
            raise CheckFailed(f"{tag}: momentum invariance residual is not k q")
        report, inv = out["time"]
        if np.any(inv.values != 0.0):
            raise CheckFailed(f"{tag}: time invariance residual is not 0")
        if not math.isfinite(report.max_bracket_residual):
            raise CheckFailed(f"{tag}: time bracket residual not finite")
        el = out["euler_lagrange"]
        if not np.all(np.isfinite(el.values[~el.singular])):
            raise CheckFailed(f"{tag}: Euler-Lagrange residual not finite")
        return 0


WORKLOADS = {w.name: w for w in (RunExamples, VerifyLarge, NonlinearStudy)}
