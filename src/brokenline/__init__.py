"""Globally optimal broken-line (degree-1 spline) approximation of discrete data."""

from .core import (
    BrokenLine,
    DataSet,
    DomainError,
    KnotLabel,
    PNorm,
    PositionKind,
    RegularizationBounds,
    classify_knots,
    evaluate,
    spike_fixture,
)
from .fixed_knot import ChainProblem, ConfigurationError, Line, fit_chain, fit_fixed_knots, fit_line
from .norms import error_norm, residual_norm
from .regularize import divided_difference_bound, regularize
from .solver import (
    FitResult,
    Infeasible,
    Junction,
    KnotConfig,
    best_fit,
    enumerate_configs,
    grid_oracle,
    solve_config,
)
from .structure import CheckStatus, StructureReport, check_structure

__all__ = [
    "BrokenLine",
    "ChainProblem",
    "CheckStatus",
    "ConfigurationError",
    "DataSet",
    "DomainError",
    "FitResult",
    "Infeasible",
    "Junction",
    "KnotConfig",
    "KnotLabel",
    "Line",
    "PNorm",
    "PositionKind",
    "RegularizationBounds",
    "StructureReport",
    "best_fit",
    "check_structure",
    "classify_knots",
    "divided_difference_bound",
    "enumerate_configs",
    "error_norm",
    "evaluate",
    "fit_chain",
    "fit_fixed_knots",
    "fit_line",
    "grid_oracle",
    "regularize",
    "residual_norm",
    "solve_config",
    "spike_fixture",
]

__version__ = "0.1.0"
