"""CHSH maxima under local spin-s measurements on two-qudit states.

The library computes the spin correlation matrix of a bipartite state by two
independent routes, derives the CHSH parameter gamma from its two largest
singular values, certifies the closed form with a direct optimizer over
measurement directions, evaluates pure-state concurrence, and scans random
pure two-qutrit states for violations of the CHSH inequality.
"""

__version__ = "0.1.0"

from .correlations import (ChshAnalysis, CorrelationMatrix, MeasurementSetting,
                           analytic_curves, analytic_gamma, chsh_analysis,
                           chsh_expectation, correlation_from_coefficients,
                           correlation_matrix_coeff, correlation_matrix_trace)
from .entanglement import (ReducedState, analytic_concurrence,
                           concurrence_pure, partial_trace)
from .optimizer import (OptimizationResult, OptimizerConfig, bilinear_reduce,
                        optimize_settings, settings_from_svd)
from .scan import (ScanConfig, ScanReport, run_scan, table_rows,
                   write_histogram_csv, write_sample_rows_csv)
from .spin import (SpinOperators, spin_operators, spin_projection,
                   validate_spin_algebra)
from .states import (Antisym, DensityMatrix, Example1, Example2,
                     GHZ3, Horodecki, Product, PureState, StateInvariantError,
                     Sym, Werner, family_pure, family_state, mix,
                     pure_to_density, sample_pure_state, state_from_json,
                     swap_operator)

__all__ = [
    "__version__",
    "SpinOperators", "spin_operators", "spin_projection", "validate_spin_algebra",
    "PureState", "DensityMatrix", "StateInvariantError", "state_from_json",
    "pure_to_density", "mix", "swap_operator",
    "Antisym", "Sym", "GHZ3", "Werner", "Horodecki", "Example1", "Example2",
    "Product", "family_state", "family_pure", "sample_pure_state",
    "CorrelationMatrix", "ChshAnalysis", "MeasurementSetting",
    "correlation_matrix_trace", "correlation_matrix_coeff",
    "correlation_from_coefficients", "chsh_analysis", "chsh_expectation",
    "analytic_gamma", "analytic_curves",
    "OptimizerConfig", "OptimizationResult", "bilinear_reduce",
    "optimize_settings", "settings_from_svd",
    "ReducedState", "partial_trace", "concurrence_pure", "analytic_concurrence",
    "ScanConfig", "ScanReport", "run_scan", "table_rows",
    "write_histogram_csv", "write_sample_rows_csv",
]
