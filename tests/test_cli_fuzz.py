"""Seeded fuzz of the CLI contract.

`run` and `study` end with exit 0, exit 1 (a config error, before any
solve, with no output directory) or exit 2 (a numeric failure, with its
artifacts written: `report.txt` for `run`, `study.csv` for `study`), and
never let an exception out of `main`.  The configs are random
expressions over t, q, u and p (which L and phi must refuse) with sin,
cos, exp, log, sqrt and + - * / ^, now and then a chain or nest of 50 to
150 levels; the command lines drop the config, give `--grid-n` junk or
empty values, add unknown flags or name unknown commands.  Both are drawn from `random.Random(seed)` at fixed seeds, so
a failure names a config or command line that reproduces it.  A
differential case runs `run` and a one-rung `study` on the same configs
and checks that both read the rung's outcome alike.
"""

import random

import numpy as np
import pytest

from fracnoether.cli import main

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")
OPERATORS = ("+", "-", "*", "/", "^")
CONSTANTS = (0.0, 0.001, 0.5, 1.0, 2.0, 3.0)
ALPHAS = (0.01, 0.3, 0.5, 0.75, 0.999, 1.0)
GRID_NS = (2, 3, 8, 16, 32)


def random_expression(rng: random.Random, names, depth: int = 0) -> str:
    r = rng.random()
    if depth == 0 and r < 0.04:
        # a long sum, run of signs or nest of parentheses, past the parser's
        # depth bound of 100 levels about half the time (a config error)
        k = rng.randint(50, 150)
        leaf = random_expression(rng, names, 3)
        return rng.choice((f"({' + '.join([leaf] * k)})", "-" * k + leaf, "(" * k + leaf + ")" * k))
    if depth >= 3 or r < 0.35:
        if rng.random() < 0.6:
            return rng.choice(names)
        return repr(rng.choice(CONSTANTS))
    if r < 0.5:
        return f"{rng.choice(FUNCTIONS)}({random_expression(rng, names, depth + 1)})"
    left = random_expression(rng, names, depth + 1)
    right = random_expression(rng, names, depth + 1)
    return f"(({left}){rng.choice(OPERATORS)}({right}))"


def random_config(rng: random.Random) -> str:
    n = rng.choice((1, 2))
    m = rng.choice((n, 1, 2))
    names = ["t"] + [f"q{i + 1}" for i in range(n)] + [f"u{j + 1}" for j in range(m)]
    # an adjoint in L or phi is a config error; generators may use it
    some = names + [f"p{i + 1}" for i in range(n)] if rng.random() < 0.05 else names
    everything = names + [f"p{i + 1}" for i in range(n)]
    quadratic = " + ".join(f"u{j + 1}^2/2" for j in range(m))
    lines = [
        f"alpha = {rng.choice(ALPHAS)!r}",
        "t0 = 0",
        "t1 = 1",
        f"n = {n}",
        f"m = {m}",
        f"lagrangian = {quadratic} + {random_expression(rng, some)}",
    ]
    for i in range(n):
        control = f"u{min(i, m - 1) + 1}"
        phi = control if rng.random() < 0.5 else f"{control} + {random_expression(rng, some)}"
        lines.append(f"phi{i + 1} = {phi}")
    for i in range(n):
        lines.append(f"q{i + 1}_start = {rng.uniform(-1.0, 1.0)!r}")
        end = "free" if rng.random() < 0.3 else repr(rng.uniform(-1.0, 1.0))
        lines.append(f"q{i + 1}_end = {end}")
    lines += [
        f"grid_n = {rng.choice(GRID_NS)}",
        f"max_iterations = {rng.choice((5, 20))}",
        "",
        "[symmetry s]",
    ]
    key = rng.choice(["tau"] + [f"xi{i + 1}" for i in range(n)] + [f"rho{i + 1}" for i in range(n)])
    lines.append(f"{key} = {random_expression(rng, everything)}")
    return "\n".join(lines) + "\n"


def _exit_of(argv, out, context: str) -> int:
    try:
        with np.errstate(all="ignore"):
            code = main(argv)
    except BaseException as e:   # the contract: nothing escapes main
        pytest.fail(f"{type(e).__name__}: {e} escaped main({argv}) on\n{context}")
    assert code in (0, 1, 2), context
    if code == 1:
        assert not out.exists(), context
    return code


def _check_contract(tmp_path, k: int, text: str, command) -> int:
    cfg = tmp_path / f"fuzz-{k}.cfg"
    cfg.write_text(text)
    out = tmp_path / f"out-{k}"
    argv = [command[0], str(cfg)] + command[1:] + ["--out", str(out)]
    code = _exit_of(argv, out, text)
    if code != 1:
        written = "report.txt" if command[0] == "run" else "study.csv"
        assert (out / written).is_file(), text
    return code


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_run_keeps_the_cli_contract(tmp_path, capsys, seed):
    rng = random.Random(seed)
    codes = [_check_contract(tmp_path, k, random_config(rng), ["run"]) for k in range(120)]
    # the configs reach every exit, so each branch of the contract is checked
    assert set(codes) == {0, 1, 2}


@pytest.mark.parametrize("seed", [4, 5])
def test_study_keeps_the_cli_contract(tmp_path, capsys, seed):
    rng = random.Random(seed)
    codes = [
        _check_contract(tmp_path, k, random_config(rng), ["study", "--grid-n", "2,8"])
        for k in range(60)
    ]
    assert set(codes) == {0, 1, 2}


@pytest.mark.parametrize("seed", [8, 9])
def test_study_and_run_reach_one_verdict(tmp_path, capsys, seed):
    # `study` at the config's grid_n against `run`: the rung's status, both
    # exits and the bracket are decided once, in `analyze`
    rng = random.Random(seed)
    for k in range(100):
        text = random_config(rng)
        cfg = tmp_path / f"fuzz-{k}.cfg"
        cfg.write_text(text)
        grid_n = text.split("grid_n = ", 1)[1].split("\n", 1)[0]
        run_out, study_out = tmp_path / f"run-{k}", tmp_path / f"study-{k}"
        run_code = _exit_of(["run", str(cfg), "--out", str(run_out)], run_out, text)
        study_code = _exit_of(["study", str(cfg), "--grid-n", grid_n, "--out", str(study_out)],
                              study_out, text)
        if run_code == 1:
            assert study_code == 1, text
            continue
        report = dict(line.split(": ", 1)
                      for line in (run_out / "report.txt").read_text().splitlines())
        header, row = (study_out / "study.csv").read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        status = cells["status"]
        assert status in ("ok", "solve_error", "unconverged", "elimination_error",
                          "symmetry_error"), text
        errors = {"error", "euler_lagrange_error", "symmetry_s_error"} & report.keys()
        assert (status == "ok") == (report["converged"] == "true" and not errors), text
        assert study_code == (0 if status == "ok" else 2), text
        conserved = all(v == "true" for key, v in report.items()
                        if key.endswith("_conservation_pass"))
        assert run_code == (0 if status == "ok" and conserved else 2), text
        bracket = cells["bracket_s"]
        if bracket == "nan":
            assert report["converged"] == "false" or "symmetry_s_error" in report, text
        else:
            assert bracket == report["symmetry_s_max_bracket_residual"], text


SMALL_CONFIG = """\
alpha = 0.5
t0 = 0
t1 = 1
n = 1
m = 1
lagrangian = u1^2/2
phi1 = u1
q1_start = 0
q1_end = 1
grid_n = 8

[symmetry momentum]
xi1 = 1
"""
GOOD_GRIDS = ("8", "2,8", "16")
JUNK_GRIDS = ("", " ", ",", "abc", "1", "0", "-4", "8,x", "1e3", "8,,16")
UNKNOWN_FLAGS = ("--verbose", "-x", "--out-dir", "--grid-n=")
UNKNOWN_COMMANDS = ("solve", "Run", "")


def random_argv(rng: random.Random, configs) -> list[str]:
    """A well-formed `run` or `study` command line, then at most one
    mutation; `--out` is added by the caller."""
    argv = [rng.choice(("run", "study")), rng.choice(configs), "--grid-n", rng.choice(GOOD_GRIDS)]
    mutation = rng.choice(("none", "none", "drop-config", "junk-grid", "no-grid",
                           "unknown-flag", "unknown-command"))
    if mutation == "drop-config":
        del argv[1]
    elif mutation == "junk-grid":
        argv[3] = rng.choice(JUNK_GRIDS)
    elif mutation == "no-grid":
        del argv[2:]
    elif mutation == "unknown-flag":
        argv.insert(rng.randrange(1, len(argv) + 1), rng.choice(UNKNOWN_FLAGS))
    elif mutation == "unknown-command":
        argv[0] = rng.choice(UNKNOWN_COMMANDS)
    return argv


@pytest.mark.parametrize("seed", [6, 7])
def test_malformed_command_lines_keep_the_cli_contract(tmp_path, capsys, seed):
    small = tmp_path / "small.cfg"
    small.write_text(SMALL_CONFIG)
    # a singular Newton matrix at the first iteration: exit 2
    singular = tmp_path / "singular.cfg"
    singular.write_text(SMALL_CONFIG.replace("u1^2/2", "u1^4 + q1^4"))
    configs = (str(small), str(singular), str(tmp_path / "missing.cfg"))
    rng = random.Random(seed)
    codes = []
    for k in range(60):
        out = tmp_path / f"out-{k}"
        argv = random_argv(rng, configs) + ["--out", str(out)]
        codes.append(_exit_of(argv, out, " ".join(argv)))
    assert set(codes) == {0, 1, 2}
