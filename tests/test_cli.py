"""Config loading, run/study artifacts, exit codes and determinism."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

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
    assert lines[1:] == ["8,FAILED,nan,nan", "16,FAILED,nan,nan"]


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


def test_cli_main_run_and_examples(tmp_path, capsys):
    assert main(["examples", "list"]) == 0
    out = capsys.readouterr().out
    assert "example-momentum" in out
    assert main(["examples", "show", "example-energy"]) == 0
    out = capsys.readouterr().out
    assert "tau = 1" in out
    assert main(["examples", "show", "nope"]) == 1
    capsys.readouterr()
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
    assert all("FAILED" in line for line in lines[1:])
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# artifact layout
# ---------------------------------------------------------------------------

_REPORT_HEAD = [
    "problem", "alpha", "grid_n", "converged", "iterations", "final_residual",
    "adjoint_residual_norm", "state_residual_norm", "stationarity_residual_norm",
    "transversality_start_1", "transversality_end_1",
]
_REPORT_TAIL = [
    "diagnostic_step_h", "diagnostic_caputo_constant_max",
    "conservation_tolerance", "exit_status",
]
_MOMENTUM_KEYS = [
    "euler_lagrange_residual_norm",
    "symmetry_momentum_charge_start",
    "symmetry_momentum_charge_end",
    "symmetry_momentum_invariance_residual_norm",
    "symmetry_momentum_max_bracket_residual",
    "symmetry_momentum_orientations",
    "symmetry_momentum_conservation_pass",
    "symmetry_momentum_cov_charge_gap",
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
            "symmetry_energy_cov_charge_gap",
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
