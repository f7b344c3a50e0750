"""Discrete-time simulator and statistical verification harness for
randomized broadcast protocols on partially active complete networks."""

from .core import (
    Algorithm,
    ConfigError,
    ProtocolConfig,
    RngStream,
    sample_active,
)
from .protocols import TraceResult, run, run_coupled
from .theory import (
    ExactLaw,
    constant,
    cyclic_beats_naive,
    exact_naive_law,
    exact_oracle_law,
    lower_bound_tail,
    naive_step_kernel,
)
from .harness import (
    CellSummary,
    CheckResult,
    ExperimentSpec,
    GridCell,
    SummaryStats,
    SweepRow,
    VerifyReport,
    convergence_sweep,
    run_experiment,
    verify_suite,
)

__version__ = "0.1.0"

__all__ = [
    "Algorithm", "ConfigError", "ProtocolConfig", "RngStream",
    "sample_active",
    "TraceResult", "run", "run_coupled",
    "ExactLaw", "constant", "cyclic_beats_naive", "exact_naive_law",
    "exact_oracle_law", "lower_bound_tail", "naive_step_kernel",
    "CellSummary", "CheckResult", "ExperimentSpec", "GridCell",
    "SummaryStats", "SweepRow", "VerifyReport",
    "convergence_sweep", "run_experiment", "verify_suite",
    "__version__",
]
