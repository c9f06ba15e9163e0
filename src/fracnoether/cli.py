"""Config-driven command line front end.

    fracnoether run <config> [--grid-n N] [--out DIR]
    fracnoether study <config> --grid-n 32,64,128 [--out DIR]
    fracnoether examples list
    fracnoether examples show <name>

<config> is either a path or the name of a built-in example.  Configs are
line oriented `key = value` pairs with `#` comments; symmetry generators
live in repeated `[symmetry <name>]` blocks.  Problem keys: alpha, t0, t1,
n, m, lagrangian, phi1..phin, q1_start.., q1_end = <real>|free.  Run keys:
grid_n, out_dir, conservation_tolerance.  Solver keys: max_iterations,
residual_tolerance.  Symmetry keys: tau, xi1.., sigma1.., rho1..
(anything omitted is zero).

`run` solves the problem, writes trajectory.csv, residuals.csv and
report.txt into the output directory, and exits 0 only when the solver
converged and every symmetry's conservation check passed (1 = config
problem, 2 = numeric problem; the report is still written when the solve
fails).  `study` repeats the solve over a list of grid sizes and writes
study.csv.  Both refuse, as a config problem and before any solve, a grid
size whose solver working set (O(N): Krylov basis, sweep and FFT buffers)
would pass the solver's fixed 4 GiB cap.
Outputs are deterministic: identical configs give byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import expr
from .fracops import FractionalOrder, Grid, caputo_deriv_left, constant_path
from .model import (
    ProblemSpec,
    declared_variables,
    eliminated_extremal,
    euler_lagrange_residual,
    is_cov_form,
    interior_max,
    pontryagin_residual,
)
from .noether import (
    SymmetryGenerator,
    charge_decomposition,
    cov_noether_charge,
    invariance_residual,
    noether_charge,
    validate_generator,
    verify_conservation,
)
from .solver import (
    SolveError,
    SolverOptions,
    check_solve_size,
    convergence_study,
    solve_extremal,
)


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")
        self.line = line


@dataclass
class RunConfig:
    name: str
    problem: ProblemSpec
    grid_n: int
    solver: SolverOptions
    symmetries: dict[str, SymmetryGenerator]
    conservation_tolerance: float
    out_dir: str | None


# ---------------------------------------------------------------------------
# built-in examples
# ---------------------------------------------------------------------------

BUILTIN_EXAMPLES: dict[str, str] = {
    "example-momentum": """\
# Translation-invariant problem: the Lagrangian and the dynamics do not
# depend on the state, so the adjoint p is conserved in the fractional
# bracket sense (charge -p, pair (p, 1)).
alpha = 0.75
t0 = 0
t1 = 1
n = 1
m = 1
lagrangian = u1^2/2
phi1 = u1
q1_start = 0
q1_end = 1
grid_n = 128

[symmetry momentum]
xi1 = 1
""",
    "example-energy": """\
# Autonomous classical problem (order 1) with an analytic solution
# q = sinh(t): time translation conserves the Hamiltonian pointwise,
# so the report's classical drift of the charge must be tiny.
alpha = 1
t0 = 0
t1 = 1
n = 1
m = 1
lagrangian = (q1^2 + u1^2)/2
phi1 = u1
q1_start = 0
q1_end = 1.1752011936438014
grid_n = 128
conservation_tolerance = 1e-5

[symmetry energy]
tau = 1
""",
    "example-linear-frac": """\
# Fractional tracking problem with general dynamics (not in variational
# form) and a free right endpoint, closed by the transversality
# condition on the fractional integral of the adjoint.
alpha = 0.75
t0 = 0
t1 = 1
n = 1
m = 1
lagrangian = (q1^2 + u1^2)/2
phi1 = -q1 + u1
q1_start = 1
q1_end = free
grid_n = 128
""",
    "example-covform": """\
# Variational-form run (dynamics are exactly the controls): the report
# additionally carries the Euler-Lagrange residual norm and the gap
# between the optimal-control charge and the variational charge.
alpha = 0.5
t0 = 0
t1 = 1
n = 1
m = 1
lagrangian = u1^2/2
phi1 = u1
q1_start = 0
q1_end = 1
grid_n = 128

[symmetry momentum]
xi1 = 1
""",
}


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _parse_lines(text: str):
    """Yield (line_number, section, key, value); section None at top level."""
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("unterminated section header", lineno)
            header = line[1:-1].split()
            if len(header) != 2 or header[0] != "symmetry":
                raise ConfigError(
                    f"unknown section {line!r}; expected [symmetry <name>]", lineno
                )
            section = header[1]
            yield lineno, section, None, None
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"expected key = value, got {line!r}", lineno)
        yield lineno, section, key, value


def _to_float(key: str, value: str, lineno: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {value!r}", lineno) from None


def _to_int(key: str, value: str, lineno: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {value!r}", lineno) from None


def _parse_expr(key: str, value: str, variables, lineno: int):
    try:
        return expr.parse(value, variables)
    except expr.ParseError as e:
        raise ConfigError(f"{key}: {e}", lineno) from None


def parse_config(text: str, name: str = "<config>") -> RunConfig:
    scalars: dict[str, tuple[str, int]] = {}
    symmetry_lines: dict[str, dict[str, tuple[str, int]]] = {}
    order: list[str] = []
    for lineno, section, key, value in _parse_lines(text):
        if key is None:
            if section in symmetry_lines:
                raise ConfigError(f"duplicate symmetry block '{section}'", lineno)
            symmetry_lines[section] = {}
            order.append(section)
            continue
        target = scalars if section is None else symmetry_lines[section]
        if key in target:
            raise ConfigError(f"duplicate key '{key}'", lineno)
        target[key] = (value, lineno)

    def take(key: str, required: bool = False):
        if key in scalars:
            return scalars.pop(key)
        if required:
            raise ConfigError(f"missing required key '{key}'")
        return None

    item = take("alpha", required=True)
    alpha = _to_float("alpha", *item)
    try:
        frac_order = FractionalOrder(alpha)
    except ValueError as e:
        raise ConfigError(str(e), item[1]) from None
    t0 = _to_float("t0", *take("t0", required=True))
    t1 = _to_float("t1", *take("t1", required=True))
    n = _to_int("n", *take("n", required=True))
    m = _to_int("m", *take("m", required=True))
    if n < 1 or m < 1:
        raise ConfigError("n and m must be positive")
    variables = declared_variables(n, m)

    lag_item = take("lagrangian", required=True)
    lagrangian = _parse_expr("lagrangian", lag_item[0], variables, lag_item[1])
    dynamics = []
    for i in range(n):
        key = f"phi{i + 1}"
        item = take(key, required=True)
        dynamics.append(_parse_expr(key, item[0], variables, item[1]))
    q_start, q_end = [], []
    for i in range(n):
        key = f"q{i + 1}_start"
        item = take(key, required=True)
        q_start.append(_to_float(key, *item))
        key = f"q{i + 1}_end"
        item = take(key, required=True)
        if item[0].lower() == "free":
            q_end.append(None)
        else:
            q_end.append(_to_float(key, *item))

    grid_n = _to_int("grid_n", *take("grid_n", required=True))
    if grid_n < 2:
        raise ConfigError("grid_n must be at least 2")

    solver_kwargs = {}
    for key, cast in (
        ("max_iterations", _to_int),
        ("residual_tolerance", _to_float),
    ):
        item = take(key)
        if item is not None:
            solver_kwargs[key] = cast(key, *item)
    try:
        solver = SolverOptions(**solver_kwargs)
    except ValueError as e:
        raise ConfigError(str(e)) from None

    item = take("conservation_tolerance")
    conservation_tolerance = 1e-5
    if item is not None:
        conservation_tolerance = _to_float("conservation_tolerance", *item)
        if not 0.0 <= conservation_tolerance < math.inf:
            raise ConfigError("conservation_tolerance must be finite and >= 0", item[1])
    item = take("out_dir")
    out_dir = item[0] if item else None

    if scalars:
        key, (_, lineno) = next(iter(scalars.items()))
        raise ConfigError(f"unknown key '{key}'", lineno)

    try:
        problem = ProblemSpec(
            order=frac_order, a=t0, b=t1, n=n, m=m,
            lagrangian=lagrangian, dynamics=tuple(dynamics),
            q_start=tuple(q_start), q_end=tuple(q_end),
        )
    except ValueError as e:
        raise ConfigError(str(e)) from None

    symmetries: dict[str, SymmetryGenerator] = {}
    for sym_name in order:
        entries = symmetry_lines[sym_name]
        known = {"tau"} | {f"xi{i+1}" for i in range(n)} | \
            {f"sigma{j+1}" for j in range(m)} | {f"rho{i+1}" for i in range(n)}
        for key, (_, lineno) in entries.items():
            if key not in known:
                raise ConfigError(f"unknown symmetry key '{key}'", lineno)

        def block_expr(key: str):
            if key not in entries:
                return expr.ZERO
            value, lineno = entries[key]
            return _parse_expr(key, value, variables, lineno)

        gen = SymmetryGenerator(
            tau=block_expr("tau"),
            xi=tuple(block_expr(f"xi{i+1}") for i in range(n)),
            sigma=tuple(block_expr(f"sigma{j+1}") for j in range(m)),
            rho=tuple(block_expr(f"rho{i+1}") for i in range(n)),
        )
        validate_generator(problem, gen)
        symmetries[sym_name] = gen

    return RunConfig(
        name=name,
        problem=problem,
        grid_n=grid_n,
        solver=solver,
        symmetries=symmetries,
        conservation_tolerance=conservation_tolerance,
        out_dir=out_dir,
    )


def load_config(path_or_name: str) -> RunConfig:
    """Load a config file, or a built-in example by name."""
    if path_or_name in BUILTIN_EXAMPLES:
        return parse_config(BUILTIN_EXAMPLES[path_or_name], name=path_or_name)
    path = Path(path_or_name)
    if not path.is_file():
        raise ConfigError(f"no such config file or built-in example: {path_or_name}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path} is not valid UTF-8: {e}") from None
    return parse_config(text, name=path.stem)


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


Table = tuple[list[str], list[np.ndarray]]   # CSV header and its columns


@dataclass(frozen=True)
class RunResult:
    """What `run` writes: the exit status, the report as ordered (key,
    value) pairs, and the trajectory and residual tables (None when the
    solve failed)."""

    status: int
    report: list[tuple[str, str]]
    trajectory: Table | None = None
    residuals: Table | None = None


def _columns(labels_and_paths, sep: str) -> Table:
    header, cols = [], []
    for label, path in labels_and_paths:
        for i in range(path.dim):
            header.append(f"{label}{sep}{i+1}")
            cols.append(path.values[:, i])
    return header, cols


def analyze(config: RunConfig) -> RunResult:
    """Solve and verify; a numeric failure of the solve becomes a report."""
    spec = config.problem
    grid = Grid(spec.a, spec.b, config.grid_n)
    try:
        outcome = solve_extremal(spec, grid, config.solver)
    except SolveError as e:
        return RunResult(2, [("converged", "false"), ("error", str(e))])

    ext = outcome.extremal
    report = pontryagin_residual(spec, ext)
    nodes = grid.nodes()
    cdq = caputo_deriv_left(ext.q, spec.order)

    pairs = [
        ("problem", config.name),
        ("alpha", _fmt(spec.alpha)),
        ("grid_n", str(grid.num_intervals)),
        ("converged", str(outcome.converged).lower()),
        ("iterations", str(outcome.iterations)),
        ("final_residual", _fmt(outcome.final_residual)),
        ("adjoint_residual_norm", _fmt(report.adjoint_norm)),
        ("state_residual_norm", _fmt(report.state_norm)),
        ("stationarity_residual_norm", _fmt(report.stationarity_norm)),
    ]
    for i in range(spec.n):
        pairs.append((f"transversality_start_{i+1}", _fmt(report.transversality_start[i])))
        pairs.append((f"transversality_end_{i+1}", _fmt(report.transversality_end[i])))

    cov_form = is_cov_form(spec)
    if cov_form:
        el = euler_lagrange_residual(spec, ext.q)
        pairs.append(("euler_lagrange_residual_norm", _fmt(interior_max(el))))

    header, cols = _columns((("q", ext.q), ("u", ext.u), ("p", ext.p), ("caputo_q", cdq)), "")
    trajectory = (["t"] + header, [nodes] + cols)
    header, cols = _columns((
        ("adjoint", report.adjoint_residual),
        ("state", report.state_residual),
        ("stationarity", report.stationarity_residual),
    ), "_")
    res_header, res_cols = ["t"] + header, [nodes] + cols

    verifications_pass = True
    for name, gen in config.symmetries.items():
        charge = noether_charge(spec, ext, gen)
        inv = invariance_residual(spec, ext, gen)
        verdict = verify_conservation(
            charge_decomposition(spec, ext, gen), spec.order, config.conservation_tolerance
        )
        verifications_pass &= verdict.passed
        sym = f"symmetry_{name}_"
        pairs += [
            (sym + "charge_start", _fmt(charge.values[0, 0])),
            (sym + "charge_end", _fmt(charge.values[-1, 0])),
            (sym + "invariance_residual_norm", _fmt(interior_max(inv))),
            (sym + "max_bracket_residual", _fmt(verdict.max_bracket_residual)),
            (sym + "orientations", ",".join(p.orientation for p in verdict.pairs)),
        ]
        if verdict.classical_drift is not None:
            pairs.append((sym + "classical_drift", _fmt(verdict.classical_drift)))
        pairs.append((sym + "conservation_pass", str(verdict.passed).lower()))
        if cov_form:
            # charge consistency along the adjoint-eliminated extremal
            gap = float(np.abs(
                noether_charge(spec, eliminated_extremal(spec, ext.q), gen).values
                - cov_noether_charge(spec, ext.q, gen).values
            ).max())
            pairs.append((sym + "cov_charge_gap", _fmt(gap)))
        bracket_worst = max(verdict.pairs, key=lambda p: p.max_residual)
        res_header += [f"bracket_{name}", f"invariance_{name}"]
        res_cols += [bracket_worst.residual.values[:, 0], inv.values[:, 0]]

    ones = constant_path(grid, 1.0)
    const_check = float(np.abs(caputo_deriv_left(ones, spec.order).values).max())
    pairs.append(("diagnostic_step_h", _fmt(grid.h)))
    pairs.append(("diagnostic_caputo_constant_max", _fmt(const_check)))

    pairs.append(("conservation_tolerance", _fmt(config.conservation_tolerance)))
    status = 0 if (outcome.converged and verifications_pass) else 2
    pairs.append(("exit_status", str(status)))
    return RunResult(status, pairs, trajectory, (res_header, res_cols))


def _write_csv(path: Path, table: Table) -> None:
    header, columns = table
    row = ",".join(["%.17g"] * len(columns))   # the format of `_fmt`
    lines = [",".join(header)]
    lines += [row % tuple(r) for r in np.column_stack(columns).tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_result(result: RunResult, out: Path) -> None:
    """Write the artifacts of `result` into `out` and echo the report, on
    stderr when the solve failed."""
    out.mkdir(parents=True, exist_ok=True)
    if result.trajectory is not None:
        _write_csv(out / "trajectory.csv", result.trajectory)
        _write_csv(out / "residuals.csv", result.residuals)
    lines = [f"{key}: {value}" for key, value in result.report]
    (out / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    stream = sys.stdout if result.trajectory is not None else sys.stderr
    for line in lines:
        print(line, file=stream)


def _default_out_dir(config: RunConfig) -> Path:
    return Path.cwd() / "fracnoether-out" / config.name


def _check_sizes(spec: ProblemSpec, n_list: list[int]) -> None:
    """Refuse, before any solve, a grid size whose solver working set
    would pass the solver's memory cap."""
    for n in n_list:
        try:
            check_solve_size(spec, Grid(spec.a, spec.b, n))
        except ValueError as e:
            raise ConfigError(str(e)) from None


def run(config: RunConfig, out_dir: str | None = None) -> int:
    """Solve, verify, write artifacts; return the process exit status."""
    _check_sizes(config.problem, [config.grid_n])
    result = analyze(config)
    write_result(result, Path(out_dir or config.out_dir or _default_out_dir(config)))
    return result.status


def study(config: RunConfig, n_list: list[int], out_dir: str | None = None) -> int:
    """Convergence study over grid sizes; table on stdout plus study.csv."""
    spec = config.problem
    _check_sizes(spec, n_list)
    grids = [Grid(spec.a, spec.b, n) for n in n_list]
    rows = convergence_study(
        spec, grids, config.solver,
        generators=config.symmetries,
        conservation_tolerance=config.conservation_tolerance,
    )
    out = Path(out_dir or config.out_dir or _default_out_dir(config))
    out.mkdir(parents=True, exist_ok=True)

    sym_names = list(config.symmetries)
    header = ["N", "status", "newton_residual"] + [f"bracket_{s}" for s in sym_names]
    print("  ".join(header))
    csv_lines = [",".join(header)]
    any_failed = False
    for row in rows:
        status = "ok" if row.converged else "FAILED"
        any_failed |= not row.converged
        cells = [str(row.num_intervals), status, _fmt(row.final_residual)]
        cells += [_fmt(row.conservation[s]) for s in sym_names]
        print("  ".join(cells))
        csv_lines.append(",".join(cells))
    (out / "study.csv").write_text("\n".join(csv_lines) + "\n", encoding="utf-8", newline="\n")
    return 2 if any_failed else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_parser: argparse.ArgumentParser | None = None


def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    global _parser
    if _parser is not None:
        return _parser
    parser = argparse.ArgumentParser(
        prog="fracnoether",
        description="Fractional optimal control: solve Pontryagin extremals "
                    "and verify fractional conservation laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one problem and verify its symmetries")
    p_run.add_argument("config", help="config file path or built-in example name")
    p_run.add_argument("--grid-n", type=int, default=None, help="override grid_n")
    p_run.add_argument("--out", default=None, help="output directory")

    p_study = sub.add_parser("study", help="repeat the solve over several grid sizes")
    p_study.add_argument("config", help="config file path or built-in example name")
    p_study.add_argument("--grid-n", required=True,
                         help="comma separated grid sizes, e.g. 32,64,128")
    p_study.add_argument("--out", default=None, help="output directory")

    p_ex = sub.add_parser("examples", help="list or show the built-in examples")
    p_ex.add_argument("action", choices=["list", "show"])
    p_ex.add_argument("name", nargs="?", default=None)
    _parser = parser
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "examples":
            if args.action == "list":
                for name in BUILTIN_EXAMPLES:
                    print(name)
                return 0
            if args.name not in BUILTIN_EXAMPLES:
                print(f"error: unknown example {args.name!r}", file=sys.stderr)
                return 1
            print(BUILTIN_EXAMPLES[args.name], end="")
            return 0

        config = load_config(args.config)
        if args.command == "run":
            if args.grid_n is not None:
                if args.grid_n < 2:
                    raise ConfigError("--grid-n must be at least 2")
                config.grid_n = args.grid_n
            return run(config, out_dir=args.out)

        n_list = []
        for piece in args.grid_n.split(","):
            piece = piece.strip()
            if piece:
                try:
                    n_list.append(int(piece))
                except ValueError:
                    raise ConfigError(f"bad grid size {piece!r}") from None
        if not n_list or any(n < 2 for n in n_list):
            raise ConfigError("--grid-n needs a comma separated list of sizes >= 2")
        return study(config, n_list, out_dir=args.out)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
