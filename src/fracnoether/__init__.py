"""Fractional optimal control in the Caputo sense.

Discrete Caputo / Riemann-Liouville operators on sampled paths, a
collocation solver for the fractional Pontryagin system, and numerical
verification of fractional Noether conservation laws along the computed
extremals.
"""

from .fracops import (
    FractionalOrder,
    Grid,
    SampledPath,
    caputo_deriv_left,
    caputo_deriv_right,
    constant_path,
    rl_deriv_left,
    rl_deriv_right,
    rl_integral_right,
    sample_path,
)
from .model import (
    Extremal,
    ProblemSpec,
    ResidualReport,
    euler_lagrange_residual,
    hamiltonian,
    is_cov_form,
    pontryagin_residual,
)
from .noether import (
    ConservationReport,
    SymmetryGenerator,
    charge_decomposition,
    cov_noether_charge,
    frac_bracket,
    invariance_residual,
    noether_charge,
    verify_conservation,
)
from .solver import (
    SingularJacobianError,
    SolveError,
    SolveOutcome,
    SolverOptions,
    solve_extremal,
)

__all__ = [
    "FractionalOrder",
    "Grid",
    "SampledPath",
    "caputo_deriv_left",
    "caputo_deriv_right",
    "constant_path",
    "rl_deriv_left",
    "rl_deriv_right",
    "rl_integral_right",
    "sample_path",
    "Extremal",
    "ProblemSpec",
    "ResidualReport",
    "euler_lagrange_residual",
    "hamiltonian",
    "is_cov_form",
    "pontryagin_residual",
    "ConservationReport",
    "SymmetryGenerator",
    "charge_decomposition",
    "cov_noether_charge",
    "frac_bracket",
    "invariance_residual",
    "noether_charge",
    "verify_conservation",
    "SingularJacobianError",
    "SolveError",
    "SolveOutcome",
    "SolverOptions",
    "StudyRow",
    "convergence_study",
    "solve_extremal",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    # The study driver lives in the front end.  It is imported on first
    # use, so that `python -m fracnoether.cli` does not find cli already
    # imported by the package.
    if name in ("StudyRow", "convergence_study"):
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
