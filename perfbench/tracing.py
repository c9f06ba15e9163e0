"""Spans around the calls into each layer of the package, recorded from
the benchmark's own files.

A layer is a package module: cli, expr, fracops, model, solver, noether.
A call into a layer is wrapped where the calling module sees it: the
name bound in the caller's module globals (`model._apply_caputo_left`,
`cli.solve_extremal`, ...), the `expr` module object that model, noether
and cli reach through, `np.linalg.solve` as solver reaches it, and the
package attributes the benchmark itself calls.  Calls inside one module
are not wrapped, so a module's internal recursion costs nothing.

Spans stay in memory as (name, parent, start, end, operation) and are
written out when the run ends.  A span's self time is its duration minus
the durations of its direct children; single-threaded nesting means the
children never overlap.
"""

from __future__ import annotations

import gzip
import statistics
import types
from time import perf_counter

LAYERS = ("cli", "expr", "fracops", "model", "solver", "noether")
CALLERS = ("cli", "model", "noether", "solver")
APPLY = {
    "_apply_caputo_left", "_apply_caputo_right", "_apply_rl_right", "_apply_integral_right",
    "caputo_deriv_left", "caputo_deriv_right", "rl_deriv_left", "rl_deriv_right",
    "rl_integral_right",
}
EXPR_WRAPPED = ("evaluate", "differentiate", "parse")


class _Proxy(types.ModuleType):
    """A module as one caller sees it: some attributes replaced, the rest
    looked up on the real module."""

    def __init__(self, target, **overrides):
        super().__init__(target.__name__)
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, attr):
        return getattr(self._target, attr)


def _table(fn_name: str, args) -> tuple[tuple | None, int]:
    """The cached weight table an operator call reads, and the bytes the
    dense apply touches (table plus input and output), from array sizes."""
    if fn_name.startswith("_apply"):
        values, grid, order = args[0], args[1], args[2]
    else:
        values, grid, order = args[0].values, args[0].grid, args[1]
    order = float(getattr(order, "alpha", order))
    n = grid.num_intervals
    io_bytes = 2 * values.nbytes
    if "integral" in fn_name:
        if order == 0.0:
            return None, io_bytes
        return ("integral", n, order), (n + 1) * (n + 1) * 8 + io_bytes
    if order == 1.0:
        return ("stencil", n), (n + 1) * n * 8 + io_bytes
    return ("l1", n, order), n * n * 8 + io_bytes


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self.iterations = 0
        self.applies: dict[int, tuple[bool, int]] = {}   # span -> (cold, bytes)
        self.tables: set = set()
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        is_apply = name.split(".", 1)[1] in APPLY
        is_solve = name == "solver.solve_extremal"

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            if is_apply:
                key, nbytes = _table(fn.__name__, args)
                cold = key is not None and key not in self.tables
                if cold:
                    self.tables.add(key)
                self.applies[idx] = (cold, nbytes)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, parent, t0, t1, self.op)
            if is_solve:
                self.iterations += result.iterations
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, value) -> None:
        """Replace `owner.attr`; uninstall() puts the original back."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, pkg) -> None:
        """Wrap every cross-layer call site of the package `pkg`."""
        modules = {name: getattr(pkg, name) for name in LAYERS}
        for caller in CALLERS:
            mod = modules[caller]
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType):
                    layer = value.__module__.rpartition(".")[2]
                    if layer in LAYERS and layer != caller:
                        self.patch(mod, attr, self.wrap(f"{layer}.{value.__name__}", value))
            expr = modules["expr"]
            if vars(mod).get("expr") is expr:
                wrapped = {a: self.wrap(f"expr.{a}", getattr(expr, a)) for a in EXPR_WRAPPED}
                self.patch(mod, "expr", _Proxy(expr, **wrapped))
        solver, cli = modules["solver"], modules["cli"]
        np = solver.np
        linalg = _Proxy(np.linalg, solve=self.wrap("solver.linear_solve", np.linalg.solve))
        self.patch(solver, "np", _Proxy(np, linalg=linalg))
        # calls inside one module that cross a phase boundary, and the
        # noether functions convergence_study imports at call time
        self.patch(solver, "_fd_jacobian", self.wrap("solver.jacobian", solver._fd_jacobian))
        self.patch(solver, "solve_extremal", self.wrap("solver.solve_extremal", solver.solve_extremal))
        self.patch(cli, "load_config", self.wrap("cli.load_config", cli.load_config))
        noether = modules["noether"]
        for attr in ("charge_decomposition", "verify_conservation"):
            self.patch(noether, attr, self.wrap(f"noether.{attr}", getattr(noether, attr)))
        # the benchmark's own calls: cli.main and the package exports
        self.patch(cli, "main", self.wrap("cli.main", cli.main))
        for attr in pkg.__all__:
            value = getattr(pkg, attr)
            if isinstance(value, types.FunctionType):
                layer = value.__module__.rpartition(".")[2]
                self.patch(pkg, attr, self.wrap(f"{layer}.{value.__name__}", value))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,parent,start_s,end_s,op\n")
            for idx, (name, parent, t0, t1, op) in enumerate(self.spans):
                fh.write(f"{idx},{name},{parent},{t0:.9f},{t1:.9f},{op}\n")

    def layer_metrics(self, ops: int, bytes_written: int) -> tuple[dict, dict]:
        """Per-layer metrics as {name: (value, unit)}, per operation where
        the unit says /op; and the share of solve_extremal time that each
        layer spends as self time."""
        spans = self.spans
        child = [0.0] * len(spans)
        in_solve = [False] * len(spans)
        for idx, (name, parent, t0, t1, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += t1 - t0
                in_solve[idx] = in_solve[parent] or spans[parent][0] == "solver.solve_extremal"
        self_by_layer = dict.fromkeys(LAYERS, 0.0)
        solve_self = dict.fromkeys(LAYERS, 0.0)
        total = {}
        count = {}
        residual_s = []
        for idx, (name, parent, t0, t1, _) in enumerate(spans):
            layer = name.partition(".")[0]
            dur = t1 - t0
            own = dur - child[idx]
            if name != "cli.load_config":
                self_by_layer[layer] += own
            if in_solve[idx] or name == "solver.solve_extremal":
                solve_self[layer] += own
            total[name] = total.get(name, 0.0) + dur
            count[name] = count.get(name, 0) + 1
            if name == "model.collocation_arrays":
                residual_s.append(dur)
        cold = [spans[i][3] - spans[i][2] for i, (c, _) in self.applies.items() if c]
        warm = [spans[i][3] - spans[i][2] for i, (c, _) in self.applies.items() if not c]
        residual_evals = len(residual_s)
        solve_s = total.get("solver.solve_extremal", 0.0)

        def per_op(x):
            return x / ops

        metrics = {
            "solver.newton_iters": (per_op(self.iterations), "count/op"),
            "solver.linear_solves": (per_op(count.get("solver.linear_solve", 0)), "count/op"),
            "solver.linear_solve_s": (per_op(total.get("solver.linear_solve", 0.0)), "s/op"),
            "solver.self_s": (per_op(self_by_layer["solver"]), "s/op"),
            "solver.evals_per_iter": (residual_evals / self.iterations if self.iterations else 0.0, "ratio"),
            "solver.solve_s": (per_op(solve_s), "s/op"),
            "solver.jacobian_share": (total.get("solver.jacobian", 0.0) / solve_s if solve_s else 0.0, "frac"),
            "solver.model_solver_self_share": (
                (solve_self["model"] + solve_self["solver"]) / solve_s if solve_s else 0.0, "frac"),
            "model.residual_evals": (per_op(residual_evals), "count/op"),
            "model.residual_s_p50": (
                statistics.median(residual_s) if residual_s else 0.0, "s"),
            "model.self_s": (per_op(self_by_layer["model"]), "s/op"),
            "fracops.apply_calls": (per_op(len(self.applies)), "count/op"),
            "fracops.apply_s": (per_op(sum(cold) + sum(warm)), "s/op"),
            "fracops.cold_apply_s": (statistics.median(cold) if cold else 0.0, "s"),
            "fracops.warm_apply_s": (statistics.median(warm) if warm else 0.0, "s"),
            "fracops.kernels_distinct": (len(self.tables), "count"),
            "fracops.bytes_computed": (per_op(sum(b for _, b in self.applies.values())), "B/op"),
            "expr.evaluate_calls": (per_op(count.get("expr.evaluate", 0)), "count/op"),
            "expr.evaluate_s": (per_op(total.get("expr.evaluate", 0.0)), "s/op"),
            "expr.differentiate_s": (per_op(total.get("expr.differentiate", 0.0)), "s/op"),
            "noether.calls": (per_op(sum(v for k, v in count.items() if k.startswith("noether."))), "count/op"),
            "noether.self_s": (per_op(self_by_layer["noether"]), "s/op"),
            "cli.parse_s": (per_op(total.get("cli.load_config", 0.0)), "s/op"),
            "cli.self_s": (per_op(self_by_layer["cli"]), "s/op"),
            "cli.bytes_written": (per_op(bytes_written), "B/op"),
        }
        return metrics, {k: v / solve_s if solve_s else 0.0 for k, v in solve_self.items()}
