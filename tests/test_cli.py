"""Config loading, run/study artifacts, exit codes and determinism."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fracnoether import expr
from fracnoether.cli import (
    BUILTIN_EXAMPLES,
    ConfigError,
    _build_parser,
    _fmt,
    _write_csv,
    load_config,
    main,
    parse_config,
    run,
    study,
)

GOOD_CONFIG = """\
# comments are stripped
alpha = 0.75
t0 = 0
t1 = 1
n = 1
m = 1
lagrangian = u1^2/2   # trailing comment
phi1 = u1
q1_start = 0
q1_end = 1
grid_n = 32

[symmetry momentum]
xi1 = 1
"""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_good_config():
    cfg = parse_config(GOOD_CONFIG, name="demo")
    assert cfg.problem.alpha == 0.75
    assert cfg.problem.n == 1 and cfg.problem.m == 1
    assert cfg.grid_n == 32
    assert list(cfg.symmetries) == ["momentum"]


def test_builtin_examples_load():
    for name in BUILTIN_EXAMPLES:
        cfg = load_config(name)
        assert cfg.name == name
        assert cfg.grid_n >= 2


def test_builtin_momentum_matches_expected_shape():
    cfg = load_config("example-momentum")
    assert cfg.problem.alpha == 0.75
    assert cfg.problem.n == 1 and cfg.problem.m == 1
    assert "momentum" in cfg.symmetries


def test_missing_alpha_names_key():
    text = GOOD_CONFIG.replace("alpha = 0.75\n", "")
    with pytest.raises(ConfigError, match="alpha"):
        parse_config(text)


def test_alpha_out_of_range():
    text = GOOD_CONFIG.replace("alpha = 0.75", "alpha = 1.5")
    with pytest.raises(ConfigError, match=r"\(0, 1\]"):
        parse_config(text)


def test_unknown_key_reports_line():
    text = GOOD_CONFIG + "bogus = 1\n"
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(text)


def test_bad_expression_reports_line():
    text = GOOD_CONFIG.replace("phi1 = u1", "phi1 = u1 +")
    with pytest.raises(ConfigError, match="line 8"):
        parse_config(text)


def test_undeclared_variable_in_expression():
    text = GOOD_CONFIG.replace("lagrangian = u1^2/2", "lagrangian = u2^2/2")
    with pytest.raises(ConfigError, match="u2"):
        parse_config(text)


def test_free_end_and_solver_keys():
    text = GOOD_CONFIG.replace("q1_end = 1", "q1_end = free").replace(
        "grid_n = 32", "grid_n = 32\nmax_iterations = 10\nresidual_tolerance = 1e-8"
    )
    cfg = parse_config(text)
    assert cfg.problem.q_end == (None,)
    assert cfg.solver.max_iterations == 10
    assert cfg.solver.residual_tolerance == 1e-8


def test_free_end_ignores_case():
    cfg = parse_config(GOOD_CONFIG.replace("q1_end = 1", "q1_end = FREE"))
    assert cfg.problem.q_end == (None,)


@pytest.mark.parametrize("value", ["nan", "-1", "inf", "-inf"])
def test_bad_conservation_tolerance_rejected(value):
    text = GOOD_CONFIG.replace("grid_n = 32", f"grid_n = 32\nconservation_tolerance = {value}")
    with pytest.raises(ConfigError, match="conservation_tolerance must be finite"):
        parse_config(text)


@pytest.mark.parametrize("command", [["run"], ["study", "--grid-n", "16,32"]])
@pytest.mark.parametrize("key, value", [("q1_start", "nan"), ("q1_end", "inf")])
def test_non_finite_boundary_value_is_refused_before_the_solve(tmp_path, capsys, command, key, value):
    path = tmp_path / "bad.cfg"
    path.write_text(GOOD_CONFIG.replace(f"{key} = ", f"{key} = {value}  # "))
    out = tmp_path / "out"
    code = main([command[0], str(path)] + command[1:] + ["--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {key} must be finite")
    assert not out.exists()


@pytest.mark.parametrize("command", [["run"], ["study", "--grid-n", "16,32"]])
@pytest.mark.parametrize("name", ["mo,mentum", "a.b", "é", "x:y"])
def test_symmetry_name_outside_the_csv_alphabet_is_refused(tmp_path, capsys, command, name):
    # the name becomes a CSV header field and a report key, so a comma
    # would add a header field over rows that do not have it
    path = tmp_path / "bad.cfg"
    path.write_text(GOOD_CONFIG.replace("[symmetry momentum]", f"[symmetry {name}]"))
    out = tmp_path / "out"
    code = main([command[0], str(path)] + command[1:] + ["--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: line 13: symmetry name {name!r} may use only")
    assert not out.exists()


def test_symmetry_names_of_letters_digits_underscore_and_dash_parse():
    text = GOOD_CONFIG + "\n[symmetry Time_2-b]\ntau = 1\n"
    assert list(parse_config(text).symmetries) == ["momentum", "Time_2-b"]


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("alpha = 0.5\n" + GOOD_CONFIG)


def test_nonexistent_path_is_config_error():
    with pytest.raises(ConfigError):
        load_config("/no/such/file.cfg")


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _read_csv(path: Path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, data


def test_run_writes_artifacts_and_exits_zero(tmp_path):
    cfg = load_config("example-momentum")
    cfg.grid_n = 48
    status = run(cfg, out_dir=str(tmp_path))
    assert status == 0
    for name in ("trajectory.csv", "residuals.csv", "report.txt"):
        assert (tmp_path / name).is_file()
    header, data = _read_csv(tmp_path / "trajectory.csv")
    assert header == ["t", "q1", "u1", "p1", "caputo_q1"]
    assert data.shape == (49, 5)
    report = (tmp_path / "report.txt").read_text()
    assert "converged: true" in report
    assert "symmetry_momentum_conservation_pass: true" in report


def test_csv_rows_match_cellwise_format(tmp_path):
    # the row-at-once writer against the reference: `_fmt` on every cell
    edge = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2e-308,
            1e308, 1.0 / 3.0, -1e-17, 2.0**53 + 1.0, 123456789.0]
    rng = np.random.default_rng(7)
    columns = [np.array(edge), np.array(edge[::-1]),
               rng.standard_normal(len(edge)) * 10.0 ** rng.integers(-300, 300, len(edge))]
    _write_csv(tmp_path / "t.csv", (["a", "b", "c"], columns))
    want = ["a,b,c"] + [",".join(_fmt(col[r]) for col in columns) for r in range(len(edge))]
    assert (tmp_path / "t.csv").read_text() == "\n".join(want) + "\n"


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_report_norms_recomputable_from_residual_csv(tmp_path):
    cfg = load_config("example-momentum")
    cfg.grid_n = 48
    run(cfg, out_dir=str(tmp_path))
    header, data = _read_csv(tmp_path / "residuals.csv")
    report = dict(
        line.split(": ", 1)
        for line in (tmp_path / "report.txt").read_text().strip().split("\n")
    )
    for label, key in (
        ("adjoint_1", "adjoint_residual_norm"),
        ("state_1", "state_residual_norm"),
        ("stationarity_1", "stationarity_residual_norm"),
    ):
        col = data[:, header.index(label)]
        recomputed = float(np.abs(col[1:-1]).max())
        assert recomputed == float(report[key])


def test_run_deterministic_outputs(tmp_path):
    cfg1 = load_config("example-momentum")
    cfg1.grid_n = 48
    run(cfg1, out_dir=str(tmp_path / "a"))
    cfg2 = load_config("example-momentum")
    cfg2.grid_n = 48
    run(cfg2, out_dir=str(tmp_path / "b"))
    for name in ("trajectory.csv", "residuals.csv", "report.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_numeric_failure_still_writes_report(tmp_path):
    text = GOOD_CONFIG.replace(
        "grid_n = 32", "grid_n = 32\nmax_iterations = 1\nresidual_tolerance = 1e-15"
    )
    cfg = parse_config(text, name="stubborn")
    status = run(cfg, out_dir=str(tmp_path))
    assert status == 2
    report = (tmp_path / "report.txt").read_text()
    assert "converged: false" in report


# sqrt(q1) has an unbounded derivative at q1_start = 0, so evaluating the
# Hamiltonian partials leaves the real domain during the solve
DOMAIN_ERROR_CONFIG = GOOD_CONFIG.replace(
    "lagrangian = u1^2/2", "lagrangian = u1^2/2 + sqrt(q1)"
)


def test_run_domain_error_exits_two_with_report(tmp_path, capsys):
    path = tmp_path / "domain.cfg"
    path.write_text(DOMAIN_ERROR_CONFIG)
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    report = (tmp_path / "out" / "report.txt").read_text()
    assert report.startswith("converged: false\nerror: ")
    assert "error" in capsys.readouterr().err


def test_study_domain_error_marks_rows_failed(tmp_path, capsys):
    path = tmp_path / "domain.cfg"
    path.write_text(DOMAIN_ERROR_CONFIG)
    code = main(["study", str(path), "--grid-n", "8,16", "--out", str(tmp_path / "out")])
    assert code == 2
    lines = (tmp_path / "out" / "study.csv").read_text().strip().split("\n")
    assert lines[1:] == ["8,solve_error,nan,nan", "16,solve_error,nan,nan"]


# the partials of u1/1e200 hold 1e200^2, which overflows a float scalar
POWER_OVERFLOW_CONFIG = GOOD_CONFIG.replace("alpha = 0.75", "alpha = 0.5").replace(
    "phi1 = u1", "phi1 = u1/1e200").replace("grid_n = 32", "grid_n = 8")


def test_run_power_overflow_exits_two_with_report(tmp_path, capsys):
    path = tmp_path / "overflow.cfg"
    path.write_text(POWER_OVERFLOW_CONFIG)
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    report = (tmp_path / "out" / "report.txt").read_text()
    assert report == "converged: false\nerror: power overflows\n"


def test_study_power_overflow_marks_rows_failed(tmp_path, capsys):
    path = tmp_path / "overflow.cfg"
    path.write_text(POWER_OVERFLOW_CONFIG)
    code = main(["study", str(path), "--grid-n", "8,16", "--out", str(tmp_path / "out")])
    assert code == 2
    lines = (tmp_path / "out" / "study.csv").read_text().strip().split("\n")
    assert lines[1:] == ["8,solve_error,nan,nan", "16,solve_error,nan,nan"]


# a line-search trial of this solve leaves the domain of the fractional
# power; it is rejected, so the solve ends unconverged at its best iterate
TRIAL_OUTSIDE_DOMAIN_CONFIG = GOOD_CONFIG.replace("alpha = 0.75", "alpha = 0.3").replace(
    "lagrangian = u1^2/2", "lagrangian = u1^2/2 + exp(((u1)+(0.001))^((0.5)*(0.5)))").replace(
    "q1_start = 0", "q1_start = -1").replace("grid_n = 32", "grid_n = 8")


def test_run_trial_step_outside_the_domain_is_rejected(tmp_path, capsys):
    path = tmp_path / "trial.cfg"
    path.write_text(TRIAL_OUTSIDE_DOMAIN_CONFIG)
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    report = dict(line.split(": ", 1)
                  for line in (tmp_path / "out" / "report.txt").read_text().splitlines())
    assert "error" not in report
    assert report["converged"] == "false"
    assert math.isfinite(float(report["final_residual"]))


# the solve ends unconverged where u = Caputo(q) is below -0.001, so the
# eliminated adjoint -dL/du leaves the domain of the fractional power
ELIMINATION_OUTSIDE_DOMAIN_CONFIG = """\
alpha = 0.3
t0 = 0
t1 = 1
n = 2
m = 2
lagrangian = u1^2/2 + u2^2/2 + ((((0.5)+(2.0)))/(((((0.001)+(u1)))^(t))))
phi1 = u1
phi2 = u2
q1_start = -0.6123297184637502
q1_end = -0.9455085263823737
q2_start = -0.12520867077480036
q2_end = free
grid_n = 16
max_iterations = 20

[symmetry s]
tau = 0.0
"""


def test_run_elimination_outside_the_domain_exits_two_with_report(tmp_path, capsys):
    path = tmp_path / "elimination.cfg"
    path.write_text(ELIMINATION_OUTSIDE_DOMAIN_CONFIG)
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "euler_lagrange_error: fractional power of a negative base\n" in report
    assert report.endswith("exit_status: 2\n")


def test_study_elimination_outside_the_domain_exits_two(tmp_path, capsys):
    path = tmp_path / "elimination.cfg"
    path.write_text(ELIMINATION_OUTSIDE_DOMAIN_CONFIG)
    code = main(["study", str(path), "--grid-n", "16", "--out", str(tmp_path / "out")])
    assert code == 2
    lines = (tmp_path / "out" / "study.csv").read_text().strip().split("\n")
    assert lines[1].split(",")[3] == "nan"


def _fail_elimination(monkeypatch):
    """Make every adjoint elimination leave its domain, as a partial of L
    may along a converged extremal."""
    from fracnoether import expr, model

    def outside(*args):
        raise expr.DomainError("fractional power of a negative base")

    monkeypatch.setattr(model, "eliminated_extremal", outside)


def test_failed_elimination_on_a_converged_rung_reads_elimination_error(
        monkeypatch, tmp_path, capsys):
    # the status cell names the failure, so the rung keeps the bracket
    # `run` reports at that N
    _fail_elimination(monkeypatch)
    path = tmp_path / "good.cfg"
    path.write_text(GOOD_CONFIG)
    assert main(["run", str(path), "--grid-n", "16", "--out", str(tmp_path / "run")]) == 2
    report = (tmp_path / "run" / "report.txt").read_text()
    assert "converged: true\n" in report
    assert "euler_lagrange_error: fractional power of a negative base\n" in report
    code = main(["study", str(path), "--grid-n", "8,16", "--out", str(tmp_path / "study")])
    assert code == 2
    lines = (tmp_path / "study" / "study.csv").read_text().strip().split("\n")
    assert [line.split(",")[1] for line in lines[1:]] == ["elimination_error"] * 2
    bracket = lines[2].split(",")[3]
    assert math.isfinite(float(bracket))
    assert f"symmetry_momentum_max_bracket_residual: {bracket}\n" in report


def test_failed_elimination_without_a_symmetry_fails_the_study(monkeypatch, tmp_path, capsys):
    # no bracket cell to mark: the exit comes from the rungs' status alone
    _fail_elimination(monkeypatch)
    path = tmp_path / "bare.cfg"
    path.write_text(GOOD_CONFIG.replace("[symmetry momentum]\nxi1 = 1\n", ""))
    assert main(["run", str(path), "--grid-n", "16", "--out", str(tmp_path / "run")]) == 2
    code = main(["study", str(path), "--grid-n", "8,16", "--out", str(tmp_path / "study")])
    assert code == 2
    lines = (tmp_path / "study" / "study.csv").read_text().strip().split("\n")
    assert lines[0] == "N,status,newton_residual"
    assert [line.split(",")[1] for line in lines[1:]] == ["elimination_error"] * 2


@pytest.mark.parametrize("key, value", [
    ("jacobian_fd_step", "1e-7"),
    ("step_damping", "0.5"),
    ("diagnostics", "off"),
], ids=["jacobian_fd_step", "step_damping", "diagnostics"])
def test_removed_fd_step_key_is_unknown(tmp_path, capsys, key, value):
    path = tmp_path / "removed.cfg"
    path.write_text(GOOD_CONFIG.replace("grid_n = 32", f"grid_n = 32\n{key} = {value}"))
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert f"unknown key '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_failed_verification_exits_two(tmp_path):
    # the fractional time-translation pair does not satisfy the bracket
    # condition along extremals, so a tight tolerance must fail the run
    text = GOOD_CONFIG.replace(
        "[symmetry momentum]\nxi1 = 1", "[symmetry energy]\ntau = 1"
    )
    cfg = parse_config(text, name="energy-frac")
    status = run(cfg, out_dir=str(tmp_path))
    assert status == 2
    report = (tmp_path / "report.txt").read_text()
    assert "converged: true" in report
    assert "symmetry_energy_conservation_pass: false" in report


# log(q1) leaves the real domain at q1_start = 0; exp(1000*q1) overflows
# to inf past q1 = 0.71; exp(709*q1) stays finite but its products with
# the extremal overflow
@pytest.mark.parametrize("xi", ["log(q1)", "exp(1000*q1)", "exp(709*q1)"])
def test_run_generator_outside_its_domain_exits_two_with_report(tmp_path, capsys, xi):
    path = tmp_path / "gen.cfg"
    path.write_text(GOOD_CONFIG.replace("xi1 = 1", f"xi1 = {xi}"))
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    report = dict(
        line.split(": ", 1)
        for line in (tmp_path / "out" / "report.txt").read_text().splitlines()
    )
    assert report["converged"] == "true"
    assert report["symmetry_momentum_error"]
    assert report["symmetry_momentum_conservation_pass"] == "false"
    assert report["exit_status"] == "2"
    assert (tmp_path / "out" / "trajectory.csv").is_file()
    header, data = _read_csv(tmp_path / "out" / "residuals.csv")
    assert header[-2:] == ["bracket_momentum", "invariance_momentum"]
    assert np.isnan(data[:, -2:]).all()


# `run` reports symmetry_momentum_error for both generators, so `study`
# has no bracket for them either
@pytest.mark.parametrize("block", ["xi1 = log(q1)", "xi1 = 1\nsigma1 = log(q1)"],
                         ids=["xi", "sigma"])
def test_study_generator_outside_its_domain_gives_nan_bracket(tmp_path, capsys, block):
    path = tmp_path / "gen.cfg"
    path.write_text(GOOD_CONFIG.replace("xi1 = 1", block))
    code = main(["study", str(path), "--grid-n", "8,16", "--out", str(tmp_path / "out")])
    assert code == 2
    lines = (tmp_path / "out" / "study.csv").read_text().strip().split("\n")
    assert [line.split(",")[1] for line in lines[1:]] == ["symmetry_error"] * 2
    assert [line.split(",")[3] for line in lines[1:]] == ["nan", "nan"]


TWO_SYMMETRIES = GOOD_CONFIG + "\n[symmetry time]\ntau = 1\n"


@pytest.mark.parametrize("text", [
    TWO_SYMMETRIES,
    TWO_SYMMETRIES.replace("phi1 = u1", "phi1 = -q1 + u1"),
], ids=["variational-form", "general-dynamics"])
def test_analyze_builds_each_decomposition_once(monkeypatch, text):
    # one charge decomposition per symmetry, whatever the problem's form;
    # each decomposition and invariance residual binds the nodes once
    from fracnoether import cli, noether

    bindings = []
    path_bindings = noether.path_bindings

    def counted_bindings(*args):
        bindings.append(1)
        return path_bindings(*args)

    monkeypatch.setattr(noether, "path_bindings", counted_bindings)
    calls = {"charge_decomposition": [], "invariance_residual": []}
    for fn_name, per_call in calls.items():
        def counted(*args, fn=getattr(noether, fn_name), per_call=per_call):
            before = len(bindings)
            result = fn(*args)
            per_call.append(len(bindings) - before)
            return result

        monkeypatch.setattr(noether, fn_name, counted)
        monkeypatch.setattr(cli, fn_name, counted)
    cfg = parse_config(text, name="counted")
    cfg.grid_n = 16
    cli.analyze(cfg)
    assert calls["charge_decomposition"] == [1] * 2
    assert calls["invariance_residual"] == [1] * 2


def test_analyze_eliminates_the_adjoint_once(monkeypatch):
    # the Euler-Lagrange residual is the only check that eliminates it
    from fracnoether import cli, model, noether

    calls = []
    eliminate = model.eliminated_extremal

    def counted(*args):
        calls.append(1)
        return eliminate(*args)

    for module in (model, noether):
        monkeypatch.setattr(module, "eliminated_extremal", counted)
    cfg = parse_config(TWO_SYMMETRIES, name="counted")
    cfg.grid_n = 16
    cli.analyze(cfg)
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["example-momentum", "example-energy", "example-covform"])
def test_report_charge_is_noether_charge(tmp_path, name):
    from fracnoether import Grid, noether_charge, solve_extremal

    cfg = load_config(name)
    cfg.grid_n = 64
    run(cfg, out_dir=str(tmp_path))
    report = dict(line.split(": ", 1) for line in (tmp_path / "report.txt").read_text().splitlines())
    spec = cfg.problem
    ext = solve_extremal(spec, Grid(spec.a, spec.b, 64), cfg.solver).extremal
    (sym, gen), = cfg.symmetries.items()
    charge = noether_charge(spec, ext, gen).values[:, 0]
    assert report[f"symmetry_{sym}_charge_start"] == _fmt(charge[0])
    assert report[f"symmetry_{sym}_charge_end"] == _fmt(charge[64])


def test_cli_main_run_and_examples(tmp_path, capsys):
    assert main(["examples", "list"]) == 0
    out = capsys.readouterr().out
    assert "example-momentum" in out
    assert main(["examples", "show", "example-energy"]) == 0
    out = capsys.readouterr().out
    assert "tau = 1" in out
    assert main(["examples", "show", "nope"]) == 1
    assert main(["examples", "show"]) == 1
    assert "required: name" in capsys.readouterr().err
    code = main(["run", "example-momentum", "--grid-n", "32",
                 "--out", str(tmp_path / "r")])
    assert code == 0
    assert (tmp_path / "r" / "report.txt").is_file()


def test_cli_main_nonexistent_config(tmp_path, capsys):
    code = main(["run", str(tmp_path / "missing.cfg")])
    assert code == 1
    assert not (tmp_path / "missing.cfg").exists()
    err = capsys.readouterr().err
    assert "error" in err


def test_cli_main_config_file(tmp_path):
    path = tmp_path / "problem.cfg"
    path.write_text(GOOD_CONFIG)
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "problem: problem" in report


def _main_without_escape(argv):
    try:
        return main(argv)
    except BaseException as e:   # the contract: nothing escapes main
        pytest.fail(f"{type(e).__name__}: {e} escaped main({argv})")


@pytest.mark.parametrize("argv, err", [
    (["run", "example-momentum", "--grid-n", "abc"], "invalid int value: 'abc'"),
    (["run"], "required: config"),
    (["study", "example-momentum"], "required: --grid-n"),
    (["frobnicate", "example-momentum"], "invalid choice: 'frobnicate'"),
    (["study", "example-momentum", "--grid-n", ",,"],
     "--grid-n: needs a comma separated list of sizes"),
    (["study", "example-momentum", "--grid-n", "8,x"], "--grid-n: bad grid size 'x'"),
    # the appended `--out DIR` leaves DIR to be read as the name
    (["examples", "show"], "examples show: argument name: invalid choice"),
    (["examples", "list", "extra"], "unrecognized arguments: extra"),
    (["examples", "show", "nope"], "invalid choice: 'nope'"),
], ids=["bad-int", "no-config", "study-without-grid-n", "unknown-command",
        "study-empty-grid-n", "study-bad-grid-size", "show-without-name",
        "list-with-name", "show-unknown-name"])
def test_usage_error_exits_one(tmp_path, capsys, argv, err):
    # exit 2 is kept for a numeric failure with a written report
    out = tmp_path / "out"
    assert _main_without_escape(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: fracnoether")
    assert err in captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv, out", [
    (["run", "example-momentum", "--grid-n", "16"], "{file}"),
    (["study", "example-momentum", "--grid-n", "8,16"], "{file}/sub"),
], ids=["run", "study"])
def test_unusable_out_is_refused_before_the_solve(monkeypatch, tmp_path, capsys, argv, out):
    from fracnoether import cli

    monkeypatch.setattr(cli, "analyze", lambda *args: pytest.fail("solved"))
    file = tmp_path / "file"
    file.write_text("kept\n")
    assert _main_without_escape(argv + ["--out", out.format(file=file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot create output directory {file}")
    assert file.read_text() == "kept\n"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert "--grid-n" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["run", "example-momentum", "--grid-n", "1"],
    ["study", "example-momentum", "--grid-n", "1,8"],
    ["run", "{cfg}"],
], ids=["run", "study", "config"])
def test_grid_size_below_two_is_refused(tmp_path, capsys, argv):
    path = tmp_path / "one.cfg"
    path.write_text(GOOD_CONFIG.replace("grid_n = 32", "grid_n = 1"))
    out = tmp_path / "out"
    argv = [arg.format(cfg=path) for arg in argv] + ["--out", str(out)]
    assert _main_without_escape(argv) == 1
    assert "at least 2" in capsys.readouterr().err
    assert not out.exists()


NOT_UTF8 = GOOD_CONFIG.encode().replace(b"# comments", b"# \xff comments")


def _with_lagrangian(extra: str) -> str:
    return GOOD_CONFIG.replace("u1^2/2   # trailing comment", f"u1^2/2 + {extra}")


def _wide_config(n: int) -> str:
    """n states, each phi_i = u1 with q_i from 0 to a free end at grid_n = 2:
    H = L + p1*phi1 + ... + pn*phin chains one level per state."""
    lines = ["alpha = 0.75", "t0 = 0", "t1 = 1", f"n = {n}", "m = 1", "lagrangian = u1^2/2"]
    lines += [f"phi{i} = u1" for i in range(1, n + 1)]
    lines += [f"q{i}_start = 0\nq{i}_end = free" for i in range(1, n + 1)]
    return "\n".join(lines + ["grid_n = 2"]) + "\n"


TOO_DEEP = f"line 7: lagrangian: expression nests deeper than {expr.MAX_DEPTH} levels"


@pytest.mark.parametrize("data, err", [
    (GOOD_CONFIG.replace("[symmetry momentum]", "[symmetry momentum"),
     "line 13: unterminated section header"),
    (GOOD_CONFIG.replace("[symmetry momentum]", "[sym momentum]"), "line 13: unknown section"),
    (GOOD_CONFIG.replace("t1 = 1", "t1 1"), "line 4: expected key = value"),
    (GOOD_CONFIG.replace("t1 = 1", "= 1"), "line 4: expected key = value"),
    (GOOD_CONFIG.replace("t1 = 1", "t1 ="), "line 4: expected key = value"),
    (GOOD_CONFIG.replace("t1 = 1", "t1 = one"), "line 4: t1 must be a number"),
    (GOOD_CONFIG.replace("n = 1", "n = 1.5"), "line 5: n must be an integer"),
    (GOOD_CONFIG + "\n[symmetry momentum]\nxi1 = 2\n",
     "line 16: duplicate symmetry block 'momentum'"),
    (GOOD_CONFIG.replace("n = 1", "n = 0"), "n and m must be positive"),
    (GOOD_CONFIG.replace("grid_n = 32", "grid_n = 32\nmax_iterations = 0"),
     "max_iterations must be positive"),
    (NOT_UTF8, "not valid UTF-8"),
    (GOOD_CONFIG.replace("phi1 = u1\n", ""), "missing required key 'phi1'"),
    (GOOD_CONFIG.replace("xi1 = 1", "xi2 = 1"), "line 14: unknown symmetry key 'xi2'"),
    (GOOD_CONFIG.replace("xi1 = 1", "xi1 = q1 +"),
     "line 14: xi1: expected a number, variable, function call or '(' (at byte 4)"),
    (GOOD_CONFIG.replace("alpha = 0.75", "alpha = x"), "line 2: alpha must be a number, got 'x'"),
    (GOOD_CONFIG.replace("alpha = 0.75", "alpha = 2"),
     "line 2: fractional order must lie in (0, 1], got 2.0"),
    (GOOD_CONFIG.replace("grid_n = 32", "grid_n = 32\nconservation_tolerance = -1"),
     "line 12: conservation_tolerance must be finite and >= 0"),
    (GOOD_CONFIG.replace("grid_n = 32", "grid_n = 32\nresidual_tolerance = 2"),
     "residual_tolerance must lie in (0, 1)"),
    (GOOD_CONFIG.replace("grid_n = 32", "grid_n = 1"), "grid_n must be at least 2"),
    # an unknown key of a block is reported before any of its expressions is parsed
    (GOOD_CONFIG.replace("xi1 = 1", "xi1 = q1 +\nbogus = 1"),
     "line 15: unknown symmetry key 'bogus'"),
    # each ended in a RecursionError traceback: in the parser, or in a walk
    # of the tree it built
    (_with_lagrangian("(" * 3000 + "q1" + ")" * 3000), TOO_DEEP),
    (_with_lagrangian("-" * 2000 + "q1"), TOO_DEEP),
    (_with_lagrangian("^".join(["1"] * 900)), TOO_DEEP),
    (_with_lagrangian(" + ".join(["0.001*q1^2"] * 1000)), TOO_DEEP),
    (_with_lagrangian("*".join(["q1"] * 2000)), TOO_DEEP),
    (_wide_config(1000), f"n = 1000 is above {expr.MAX_DEPTH}"),
], ids=["unterminated-section", "unknown-section", "no-equals", "empty-key",
        "empty-value", "bad-float", "bad-int", "duplicate-symmetry", "zero-states",
        "zero-iterations", "not-utf8", "missing-phi", "unknown-symmetry-key",
        "bad-symmetry-expression", "alpha-not-a-number", "alpha-out-of-range",
        "negative-conservation-tolerance", "residual-tolerance-above-one",
        "grid-n-below-two", "unknown-symmetry-key-before-bad-expression",
        "nested-parentheses", "negations", "power-chain", "sum", "product",
        "wide-hamiltonian"])
def test_config_error_exits_one_before_any_output(tmp_path, capsys, data, err):
    path = tmp_path / "bad.cfg"
    path.write_bytes(data if isinstance(data, bytes) else data.encode())
    out = tmp_path / "out"
    assert _main_without_escape(["run", str(path), "--out", str(out)]) == 1
    message = capsys.readouterr().err
    assert message.startswith("error: ")
    assert err in message
    # an error carries a line number exactly when its case names one
    assert message.startswith("error: line ") == err.startswith("line")
    if err.startswith("line"):
        assert message.startswith(f"error: {err}")
    assert not out.exists()


@pytest.mark.parametrize("factors", [expr.MAX_DEPTH - 1, expr.MAX_DEPTH])
def test_lagrangian_at_the_depth_bound_runs_and_one_level_more_is_refused(
        tmp_path, capsys, factors):
    # u1^2/2 + q1*...*q1 is one level deeper than its product; H's second
    # partial in q1 is about three times as deep, and is evaluated
    path = tmp_path / "deep.cfg"
    path.write_text(_with_lagrangian("*".join(["q1"] * factors)))
    out = tmp_path / "out"
    code = _main_without_escape(["run", str(path), "--grid-n", "8", "--out", str(out)])
    err = capsys.readouterr().err
    if factors < expr.MAX_DEPTH:   # L depends on q1, so momentum need not be conserved
        assert code in (0, 2) and (out / "report.txt").is_file()
    else:
        assert code == 1 and err.startswith(f"error: {TOO_DEEP} (at byte ")
        assert not out.exists()


@pytest.mark.parametrize("n", [expr.MAX_DEPTH, expr.MAX_DEPTH + 1])
def test_wide_hamiltonian_at_the_state_bound_runs_and_one_state_more_is_refused(
        tmp_path, capsys, n):
    path = tmp_path / "wide.cfg"
    path.write_text(_wide_config(n))
    out = tmp_path / "out"
    code = _main_without_escape(["run", str(path), "--out", str(out)])
    if n <= expr.MAX_DEPTH:
        assert code == 0 and (out / "report.txt").is_file()
    else:
        assert code == 1 and f"n = {n} is above" in capsys.readouterr().err
        assert not out.exists()


def test_oversized_dimension_is_refused_before_any_name_list(monkeypatch, tmp_path, capsys):
    # m = 10**9 would build name lists of 10**9 entries before the grid
    # size check; no grid is small enough for it, so it is refused on read
    from fracnoether import cli

    monkeypatch.setattr(cli, "declared_variables", lambda *args: pytest.fail("names built"))
    path = tmp_path / "huge.cfg"
    path.write_text(BUILTIN_EXAMPLES["example-momentum"].replace("m = 1", "m = 1000000000"))
    out = tmp_path / "out"
    assert _main_without_escape(["run", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "4 GiB cap" in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["run"], ["study", "--grid-n", "8,16"]])
def test_unreadable_config_file_exits_one(tmp_path, capsys, monkeypatch, command):
    # patched, since chmod 000 does not stop root from reading the file
    path = tmp_path / "locked.cfg"
    path.write_text(BUILTIN_EXAMPLES["example-momentum"])

    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", refuse)
    out = tmp_path / "out"
    argv = [command[0], str(path), *command[1:], "--out", str(out)]
    assert _main_without_escape(argv) == 1
    assert capsys.readouterr().err == \
        f"error: cannot read config file {path}: Permission denied\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# study
# ---------------------------------------------------------------------------

def test_study_csv_columns(tmp_path, capsys):
    code = main(["study", "example-momentum", "--grid-n", "16,32",
                 "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "study.csv").read_text().strip().split("\n")
    assert lines[0] == "N,status,newton_residual,bracket_momentum"
    assert len(lines) == 3
    assert lines[1].startswith("16,ok,")
    assert lines[2].startswith("32,ok,")
    table = capsys.readouterr().out
    assert "newton_residual" in table
    # each rung's bracket is the one `run` reports at that N
    for line in lines[1:]:
        n, bracket = line.split(",")[0], line.split(",")[3]
        assert main(["run", "example-momentum", "--grid-n", n, "--out", str(tmp_path / n)]) == 0
        report = (tmp_path / n / "report.txt").read_text()
        assert f"symmetry_momentum_max_bracket_residual: {bracket}\n" in report


def test_study_reads_a_bracket_above_tolerance_as_trend_data(tmp_path, capsys):
    # example-energy fails its 1e-5 conservation check at small N, so `run`
    # exits 2 there, while `study` keeps each rung `ok` with `run`'s bracket
    code = main(["study", "example-energy", "--grid-n", "8,16,32", "--out", str(tmp_path / "s")])
    assert code == 0
    lines = (tmp_path / "s" / "study.csv").read_text().strip().split("\n")
    assert [line.split(",")[:2] for line in lines[1:]] == [["8", "ok"], ["16", "ok"], ["32", "ok"]]
    assert lines[1].split(",")[3] == "0.0014447319568118289"
    for line in lines[1:]:
        n, bracket = line.split(",")[0], line.split(",")[3]
        assert main(["run", "example-energy", "--grid-n", n, "--out", str(tmp_path / n)]) == 2
        report = (tmp_path / n / "report.txt").read_text()
        assert f"symmetry_energy_max_bracket_residual: {bracket}\n" in report
        assert "symmetry_energy_conservation_pass: false\n" in report


def test_study_single_n(tmp_path):
    cfg = load_config("example-momentum")
    assert study(cfg, [16], out_dir=str(tmp_path)) == 0
    lines = (tmp_path / "study.csv").read_text().strip().split("\n")
    assert len(lines) == 2


def test_study_failed_row_marked(tmp_path):
    text = GOOD_CONFIG.replace(
        "grid_n = 32", "grid_n = 32\nmax_iterations = 1\nresidual_tolerance = 1e-15"
    )
    cfg = parse_config(text, name="stubborn")
    code = study(cfg, [16, 32], out_dir=str(tmp_path))
    assert code == 2
    lines = (tmp_path / "study.csv").read_text().strip().split("\n")
    assert [line.split(",")[1] for line in lines[1:]] == ["unconverged"] * 2
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# artifact layout
# ---------------------------------------------------------------------------

_REPORT_HEAD = [
    "problem", "alpha", "grid_n", "converged", "iterations", "final_residual",
    "adjoint_residual_norm", "state_residual_norm", "stationarity_residual_norm",
    "transversality_start_1", "transversality_end_1",
]
_REPORT_TAIL = ["conservation_tolerance", "exit_status"]
_MOMENTUM_KEYS = [
    "euler_lagrange_residual_norm",
    "symmetry_momentum_charge_start",
    "symmetry_momentum_charge_end",
    "symmetry_momentum_invariance_residual_norm",
    "symmetry_momentum_max_bracket_residual",
    "symmetry_momentum_orientations",
    "symmetry_momentum_conservation_pass",
]
_RESIDUALS_HEAD = "t,adjoint_1,state_1,stationarity_1"

ARTIFACT_LAYOUT = {
    "example-momentum": (
        _REPORT_HEAD + _MOMENTUM_KEYS + _REPORT_TAIL,
        _RESIDUALS_HEAD + ",bracket_momentum,invariance_momentum",
    ),
    "example-energy": (
        _REPORT_HEAD + [
            "euler_lagrange_residual_norm",
            "symmetry_energy_charge_start",
            "symmetry_energy_charge_end",
            "symmetry_energy_invariance_residual_norm",
            "symmetry_energy_max_bracket_residual",
            "symmetry_energy_orientations",
            "symmetry_energy_classical_drift",
            "symmetry_energy_conservation_pass",
        ] + _REPORT_TAIL,
        _RESIDUALS_HEAD + ",bracket_energy,invariance_energy",
    ),
    "example-linear-frac": (_REPORT_HEAD + _REPORT_TAIL, _RESIDUALS_HEAD),
    "example-covform": (
        _REPORT_HEAD + _MOMENTUM_KEYS + _REPORT_TAIL,
        _RESIDUALS_HEAD + ",bracket_momentum,invariance_momentum",
    ),
}


@pytest.mark.parametrize("name", sorted(ARTIFACT_LAYOUT))
def test_artifact_layout(tmp_path, name):
    report_keys, residuals_header = ARTIFACT_LAYOUT[name]
    cfg = load_config(name)
    cfg.grid_n = 32
    run(cfg, out_dir=str(tmp_path))
    lines = (tmp_path / "report.txt").read_text().splitlines()
    assert [line.split(": ", 1)[0] for line in lines] == report_keys
    trajectory = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert trajectory[0] == "t,q1,u1,p1,caputo_q1"
    residuals = (tmp_path / "residuals.csv").read_text().splitlines()
    assert residuals[0] == residuals_header


# q1^(3/2) differentiates through log(q1) and 1/q1, which leave the real
# domain at q1_start = 0
POWER_DOMAIN_CONFIG = GOOD_CONFIG.replace(
    "lagrangian = u1^2/2", "lagrangian = u1^2/2 + q1^(3/2)"
)


def test_run_power_domain_error_exits_two_with_report(tmp_path, capsys):
    path = tmp_path / "power.cfg"
    path.write_text(POWER_DOMAIN_CONFIG)
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    report = (tmp_path / "out" / "report.txt").read_text()
    assert report.startswith("converged: false\nerror: ")
    assert "error" in capsys.readouterr().err


# the second partial of exp(745 q1^2) overflows at the initial guess while
# the residual stays finite, so the Newton matrix has non-finite entries
OVERFLOW_CONFIG = GOOD_CONFIG.replace(
    "lagrangian = u1^2/2", "lagrangian = u1^2/2 + exp(745*q1^2)"
)


def test_run_non_finite_jacobian_exits_two_with_report(tmp_path, capsys):
    path = tmp_path / "overflow.cfg"
    path.write_text(OVERFLOW_CONFIG)
    with np.errstate(over="ignore"):
        code = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    report = (tmp_path / "out" / "report.txt").read_text()
    assert report.startswith(
        "converged: false\nerror: singular Jacobian at Newton iteration 1\n"
    )
    assert "error" in capsys.readouterr().err


# H_uu = 3 u1^2 vanishes at the initial guess u = 0, so stationarity does
# not determine the control there
SINGULAR_HUU_CONFIG = GOOD_CONFIG.replace(
    "lagrangian = u1^2/2", "lagrangian = u1^4/4 + q1^2/2"
)


def test_run_singular_control_hessian_exits_two_with_report(tmp_path, capsys):
    path = tmp_path / "quartic.cfg"
    path.write_text(SINGULAR_HUU_CONFIG)
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    report = (tmp_path / "out" / "report.txt").read_text()
    assert report.startswith(
        "converged: false\nerror: singular Jacobian at Newton iteration 1\n"
    )
    assert "error: singular Jacobian" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["run", "example-momentum", "--grid-n", "2000000"],
    ["study", "example-momentum", "--grid-n", "16,2000000,32"],
])
def test_oversized_newton_matrix_is_refused_up_front(tmp_path, capsys, command):
    # N=2000000 needs 315 doubles per node of solver working set, 4.7 GiB
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main(command + ["--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert "N=2000000" in err and "4 GiB cap" in err
    assert not out.exists()
    assert peak <= 16 * 2**20


THREADED_RUNS = """\
import sys
from fracnoether.cli import BUILTIN_EXAMPLES, main
for name in BUILTIN_EXAMPLES:
    main(["run", name, "--grid-n", "1024", "--out", f"{sys.argv[1]}/{name}"])
"""


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the four examples at N=1024 in a fresh process per BLAS thread count
    src = str(Path(__file__).resolve().parents[1] / "src")
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", THREADED_RUNS, str(tmp_path / threads)],
                       env=env, check=True, capture_output=True)
    for name in BUILTIN_EXAMPLES:
        for artifact in ("trajectory.csv", "residuals.csv", "report.txt"):
            one = (tmp_path / "1" / name / artifact).read_bytes()
            assert one == (tmp_path / "2" / name / artifact).read_bytes(), f"{name}/{artifact}"
