"""Config-driven command line front end.

    fracnoether run <config> [--grid-n N] [--out DIR]
    fracnoether study <config> --grid-n 32,64,128 [--out DIR]
    fracnoether examples list
    fracnoether examples show <name>

<config> is either a path or the name of a built-in example.  Configs are
line oriented `key = value` pairs with `#` comments; symmetry generators
live in repeated `[symmetry <name>]` blocks, <name> made of letters,
digits, `_` and `-` (it becomes part of CSV headers and report keys).
Problem keys: alpha, t0, t1, n, m, lagrangian, phi1..phin, q1_start..,
q1_end = <real>|free (in any case).  Run keys: grid_n, out_dir,
conservation_tolerance.  Solver keys: max_iterations, residual_tolerance.
Symmetry keys: tau, xi1.., sigma1.., rho1.. (anything omitted is zero).
`parse_config` reads each key once through `take`, which reports a bad
value at its line; the keys left over, top level or in a block, are unknown.

`analyze` solves one grid, verifies it and names the rung's outcome: the
first failure in analysis order of `solve_error` (the solve raised),
`unconverged`, `elimination_error` (a partial of L left its domain along
the eliminated extremal of a variational-form problem) and
`symmetry_error` (a generator left its domain along the extremal), else
`ok`.  `run` writes trajectory.csv, residuals.csv and report.txt into the
output directory (the report also when the solve fails) and exits 0 only
when the outcome is `ok` and every symmetry's conservation check passed
(1 = config problem, 2 = numeric problem).  `study` analyzes each of a
list of grid sizes, writes study.csv with each rung's outcome in its
`status` cell and exits 2 when some rung is not `ok`; a bracket above
tolerance is trend data and leaves the rung `ok`.  Both refuse, as a
config problem and before any solve, a grid size whose solver working set
(O(N): Krylov basis, sweep and FFT buffers) would pass the solver's fixed
4 GiB cap, and an output directory that cannot be created; n and m whose
working set passes that cap even at N = 2, and n above `expr.MAX_DEPTH`
(H gains a level per state), are refused as they are read.  A usage
error is a config problem too: argparse's message after `error:`, exit 1,
nothing written.
Outputs are deterministic: identical configs give byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import expr
from .fracops import FractionalOrder, Grid, caputo_deriv_left
from .model import (
    ProblemSpec,
    declared_variables,
    euler_lagrange_residual,
    is_cov_form,
    interior_max,
    pontryagin_residual,
)
from .noether import (
    SymmetryGenerator,
    charge_decomposition,
    invariance_residual,
    verify_conservation,
)
from .solver import SolveError, SolverOptions, check_solve_size, check_working_set, solve_extremal


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
# additionally carries the Euler-Lagrange residual norm.
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

Entries = dict[str, tuple[str, int]]   # key -> (value, line number), in file order


def _parse_lines(text: str) -> tuple[Entries, dict[str, Entries]]:
    """The top-level entries and each `[symmetry <name>]` block's entries."""
    scalars: Entries = {}
    blocks: dict[str, Entries] = {}
    target = scalars
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
            if not re.fullmatch(r"[A-Za-z0-9_-]+", section):
                raise ConfigError(
                    f"symmetry name {section!r} may use only letters, digits, '_' and '-'",
                    lineno,
                )
            if section in blocks:
                raise ConfigError(f"duplicate symmetry block '{section}'", lineno)
            target = blocks[section] = {}
            continue
        key, equals, value = (part.strip() for part in line.partition("="))
        if not (key and equals and value):
            raise ConfigError(f"expected key = value, got {line!r}", lineno)
        if key in target:
            raise ConfigError(f"duplicate key '{key}'", lineno)
        target[key] = (value, lineno)
    return scalars, blocks


def _reject_unknown(entries: Entries, what: str) -> None:
    """Refuse the first key left in `entries` once every known key is taken."""
    for key, (_, lineno) in entries.items():
        raise ConfigError(f"{what} '{key}'", lineno)


def _to_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"{key} must be a number, got {value!r}") from None


def _to_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{key} must be an integer, got {value!r}") from None


def _to_end_value(key: str, value: str) -> float | None:
    return None if value.lower() == "free" else _to_float(key, value)


def _to_tolerance(key: str, value: str) -> float:
    tolerance = _to_float(key, value)
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"{key} must be finite and >= 0")
    return tolerance


def parse_config(text: str, name: str = "<config>") -> RunConfig:
    scalars, blocks = _parse_lines(text)
    REQUIRED = object()

    def take(key: str, convert, default=REQUIRED, entries: Entries = scalars):
        """Pop `key` from `entries` and return `convert(key, value)`; the
        converter's ValueError becomes a ConfigError at the key's line."""
        if key not in entries:
            if default is REQUIRED:
                raise ConfigError(f"missing required key '{key}'")
            return default
        value, lineno = entries.pop(key)
        try:
            return convert(key, value)
        except ValueError as e:
            raise ConfigError(str(e), lineno) from None

    def to_expression(key: str, value: str):
        try:
            return expr.parse(value, variables)
        except expr.ParseError as e:
            raise ValueError(f"{key}: {e}") from None

    order = take("alpha", lambda key, value: FractionalOrder(_to_float(key, value)))
    t0, t1 = take("t0", _to_float), take("t1", _to_float)
    n, m = take("n", _to_int), take("m", _to_int)
    if n < 1 or m < 1:
        raise ConfigError("n and m must be positive")
    if n > expr.MAX_DEPTH:   # H's tree chains one level per state (model.hamiltonian)
        raise ConfigError(f"n = {n} is above {expr.MAX_DEPTH}: the Hamiltonian "
                          "L + p1*phi1 + ... + pn*phin nests one level per state")
    try:   # at N = 2, the smallest grid, before any list of n + m names is built
        check_working_set(order, n, m, 2)
    except ValueError as e:
        raise ConfigError(f"n = {n} and m = {m} are too large for any grid: {e}") from None
    variables = declared_variables(n, m)

    lagrangian = take("lagrangian", to_expression)
    dynamics = tuple(take(f"phi{i}", to_expression) for i in range(1, n + 1))
    q_start, q_end = zip(*[
        (take(f"q{i}_start", _to_float), take(f"q{i}_end", _to_end_value))
        for i in range(1, n + 1)
    ])
    grid_n = take("grid_n", _to_int)
    if grid_n < 2:
        raise ConfigError("grid_n must be at least 2")
    max_iterations = take("max_iterations", _to_int, SolverOptions.max_iterations)
    tolerance = take("residual_tolerance", _to_float, SolverOptions.residual_tolerance)
    try:
        solver = SolverOptions(max_iterations=max_iterations, residual_tolerance=tolerance)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    conservation_tolerance = take("conservation_tolerance", _to_tolerance, 1e-5)
    out_dir = take("out_dir", lambda key, value: value, None)
    _reject_unknown(scalars, "unknown key")

    try:
        problem = ProblemSpec(order, t0, t1, n, m, lagrangian, dynamics, q_start, q_end)
    except ValueError as e:
        raise ConfigError(str(e)) from None

    generator_keys = [["tau"]] + [
        [f"{part}{i}" for i in range(1, count + 1)]
        for part, count in (("xi", n), ("sigma", m), ("rho", n))
    ]
    symmetries: dict[str, SymmetryGenerator] = {}
    for sym_name, entries in blocks.items():
        # the keys left once the generator's are set aside are unknown, and
        # are refused before any expression of the block is parsed
        block = {key: entries.pop(key) for keys in generator_keys for key in keys if key in entries}
        _reject_unknown(entries, "unknown symmetry key")
        (tau,), xi, sigma, rho = (
            tuple(take(key, to_expression, expr.ZERO, block) for key in keys)
            for keys in generator_keys
        )
        symmetries[sym_name] = SymmetryGenerator(tau=tau, xi=xi, sigma=sigma, rho=rho)

    return RunConfig(name, problem, grid_n, solver, symmetries, conservation_tolerance, out_dir)


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
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e.strerror}") from None
    return parse_config(text, name=path.stem)


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


Table = tuple[list[str], list[np.ndarray]]   # CSV header and its columns


@dataclass(frozen=True)
class StudyRow:
    """One rung of a convergence study: the solve's outcome, each
    symmetry's max bracket residual (nan on a failed or unconverged solve
    and for a symmetry whose own check errored) and the rung's status as
    `analyze` names it (see the module docstring)."""

    num_intervals: int
    converged: bool
    iterations: int
    final_residual: float
    conservation: dict[str, float] = field(default_factory=dict)
    status: str = "ok"


@dataclass(frozen=True)
class RunResult:
    """What `run` writes: the exit status, the report as ordered (key,
    value) pairs, and the trajectory and residual tables (None when the
    solve failed); and what `study` writes of the rung."""

    status: int
    report: list[tuple[str, str]]
    row: StudyRow
    trajectory: Table | None = None
    residuals: Table | None = None


def _columns(labels_and_paths, sep: str) -> Table:
    header, cols = [], []
    for label, path in labels_and_paths:
        for i in range(path.dim):
            header.append(f"{label}{sep}{i+1}")
            cols.append(path.values[:, i])
    return header, cols


def analyze(config: RunConfig, grid: Grid | None = None) -> RunResult:
    """Solve on `grid` (by default the config's grid_n intervals), verify
    and name the rung's outcome; a failed solve becomes a report."""
    spec = config.problem
    if grid is None:
        grid = Grid(spec.a, spec.b, config.grid_n)
    brackets = dict.fromkeys(config.symmetries, math.nan)
    try:
        outcome = solve_extremal(spec, grid, config.solver)
    except SolveError as e:
        row = StudyRow(grid.num_intervals, False, 0, math.nan, brackets, "solve_error")
        return RunResult(2, [("converged", "false"), ("error", str(e))], row)

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

    failures = [] if outcome.converged else ["unconverged"]   # in analysis order
    conserved = True
    if is_cov_form(spec):
        try:
            el = euler_lagrange_residual(spec, ext.q)
        except ValueError as e:
            # a partial of L left its domain or overflowed along the extremal
            failures.append("elimination_error")
            pairs.append(("euler_lagrange_error", str(e)))
        else:
            pairs.append(("euler_lagrange_residual_norm", _fmt(interior_max(el))))

    header, cols = _columns((("q", ext.q), ("u", ext.u), ("p", ext.p), ("caputo_q", cdq)), "")
    trajectory = (["t"] + header, [nodes] + cols)
    header, cols = _columns((
        ("adjoint", report.adjoint_residual),
        ("state", report.state_residual),
        ("stationarity", report.stationarity_residual),
    ), "_")
    res_header, res_cols = ["t"] + header, [nodes] + cols

    for name, gen in config.symmetries.items():
        sym = f"symmetry_{name}_"
        res_header += [f"bracket_{name}", f"invariance_{name}"]
        try:
            inv = invariance_residual(spec, ext, gen)
            verdict = verify_conservation(
                charge_decomposition(spec, ext, gen), spec.order, config.conservation_tolerance
            )
        except ValueError as e:
            # the generator left its domain or overflowed along the extremal
            failures.append("symmetry_error")
            pairs += [(sym + "error", str(e)), (sym + "conservation_pass", "false")]
            res_cols += [np.full(grid.num_nodes, np.nan)] * 2
            continue
        conserved &= verdict.passed
        if outcome.converged:
            brackets[name] = verdict.max_bracket_residual
        charge = -verdict.charge.values[:, 0]
        pairs += [
            (sym + "charge_start", _fmt(charge[0])),
            (sym + "charge_end", _fmt(charge[-1])),
            (sym + "invariance_residual_norm", _fmt(interior_max(inv))),
            (sym + "max_bracket_residual", _fmt(verdict.max_bracket_residual)),
            (sym + "orientations", ",".join(p.orientation for p in verdict.pairs)),
        ]
        if verdict.classical_drift is not None:
            pairs.append((sym + "classical_drift", _fmt(verdict.classical_drift)))
        pairs.append((sym + "conservation_pass", str(verdict.passed).lower()))
        bracket_worst = max(verdict.pairs, key=lambda p: p.max_residual)
        res_cols += [bracket_worst.residual.values[:, 0], inv.values[:, 0]]

    pairs.append(("conservation_tolerance", _fmt(config.conservation_tolerance)))
    row = StudyRow(grid.num_intervals, outcome.converged, outcome.iterations,
                   outcome.final_residual, brackets, failures[0] if failures else "ok")
    status = 0 if row.status == "ok" and conserved else 2
    pairs.append(("exit_status", str(status)))
    return RunResult(status, pairs, row, trajectory, (res_header, res_cols))


def convergence_study(
    spec: ProblemSpec,
    grids,
    opts: SolverOptions | None = None,
    generators: dict | None = None,
    conservation_tolerance: float = 1e-5,
) -> list[StudyRow]:
    """Solve and verify the named symmetries on each grid with `analyze`
    and return each rung's `StudyRow`.  Rows report the trend data
    without asserting monotonicity; a failed rung is named in its row's
    status and the study continues.
    """
    config = RunConfig(
        name="study", problem=spec,
        grid_n=0,   # unread: every rung is analyzed on its own grid
        solver=opts or SolverOptions(), symmetries=generators or {},
        conservation_tolerance=conservation_tolerance, out_dir=None,
    )
    return [analyze(config, grid).row for grid in grids]


def _write_csv(path: Path, table: Table) -> None:
    header, columns = table
    row = ",".join(["%.17g"] * len(columns))   # the format of `_fmt`
    lines = [",".join(header)]
    lines += [row % tuple(r) for r in np.column_stack(columns).tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_result(result: RunResult, out: Path) -> None:
    """Write the artifacts of `result` into `out` and echo the report, on
    stderr when the solve failed."""
    if result.trajectory is not None:
        _write_csv(out / "trajectory.csv", result.trajectory)
        _write_csv(out / "residuals.csv", result.residuals)
    lines = [f"{key}: {value}" for key, value in result.report]
    (out / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    stream = sys.stdout if result.trajectory is not None else sys.stderr
    for line in lines:
        print(line, file=stream)


def _check_sizes(spec: ProblemSpec, n_list: list[int]) -> None:
    """Refuse, before any solve, a grid size whose solver working set
    would pass the solver's memory cap."""
    for n in n_list:
        try:
            check_solve_size(spec, Grid(spec.a, spec.b, n))
        except ValueError as e:
            raise ConfigError(str(e)) from None


def _out_dir(config: RunConfig, out_dir: str | None) -> Path:
    """Create the output directory before any solve; one that cannot be
    created is a config problem."""
    out = Path(out_dir or config.out_dir or Path.cwd() / "fracnoether-out" / config.name)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {out}: {e.strerror}") from None
    return out


def run(config: RunConfig, out_dir: str | None = None) -> int:
    """Solve, verify, write artifacts; return the process exit status."""
    _check_sizes(config.problem, [config.grid_n])
    out = _out_dir(config, out_dir)
    result = analyze(config)
    write_result(result, out)
    return result.status


def study(config: RunConfig, n_list: list[int], out_dir: str | None = None) -> int:
    """Convergence study over grid sizes; table on stdout plus study.csv."""
    spec = config.problem
    _check_sizes(spec, n_list)
    out = _out_dir(config, out_dir)
    rows = [analyze(config, Grid(spec.a, spec.b, n)).row for n in n_list]

    sym_names = list(config.symmetries)
    header = ["N", "status", "newton_residual"] + [f"bracket_{s}" for s in sym_names]
    print("  ".join(header))
    csv_lines = [",".join(header)]
    for row in rows:
        cells = [str(row.num_intervals), row.status, _fmt(row.final_residual)]
        cells += [_fmt(row.conservation[s]) for s in sym_names]
        print("  ".join(cells))
        csv_lines.append(",".join(cells))
    (out / "study.csv").write_text("\n".join(csv_lines) + "\n", encoding="utf-8", newline="\n")
    return 0 if all(row.status == "ok" for row in rows) else 2


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A usage error is a config problem (exit 1), not argparse's exit 2,
    which this CLI keeps for a numeric failure with a written report.
    Subparsers inherit the class."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def _grid_sizes(text: str) -> list[int]:
    """`study --grid-n`: comma separated sizes, empty pieces skipped."""
    sizes = []
    for piece in filter(None, (piece.strip() for piece in text.split(","))):
        try:
            sizes.append(int(piece))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad grid size {piece!r}") from None
    if not sizes:
        raise argparse.ArgumentTypeError("needs a comma separated list of sizes")
    return sizes


_parser: _Parser | None = None


def _build_parser() -> _Parser:
    """The argument parser, built on first use and kept for the process."""
    global _parser
    if _parser is not None:
        return _parser
    parser = _Parser(
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
    p_study.add_argument("--grid-n", required=True, type=_grid_sizes,
                         help="comma separated grid sizes, e.g. 32,64,128")
    p_study.add_argument("--out", default=None, help="output directory")

    p_ex = sub.add_parser("examples", help="list or show the built-in examples")
    ex_sub = p_ex.add_subparsers(dest="action", required=True)
    ex_sub.add_parser("list", help="print the names of the built-in examples")
    p_show = ex_sub.add_parser("show", help="print one built-in example's config")
    p_show.add_argument("name", choices=BUILTIN_EXAMPLES, metavar="name",
                        help="a name that `examples list` prints")
    _parser = parser
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "examples":
            if args.action == "list":
                print("\n".join(BUILTIN_EXAMPLES))
            else:
                print(BUILTIN_EXAMPLES[args.name], end="")
            return 0

        config = load_config(args.config)
        if args.command == "run":
            if args.grid_n is not None:
                config.grid_n = args.grid_n
            return run(config, out_dir=args.out)
        return study(config, args.grid_n, out_dir=args.out)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
