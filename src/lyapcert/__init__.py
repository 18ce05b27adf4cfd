"""Spectral Lyapunov certificates for two-step momentum methods on quadratics.

The package builds per-coordinate 2x2 iteration matrices for HB, NAG, TMM and
NAG-GS, checks the conjugate-pair condition that makes the three-point
function V_k = |x_{k-1} - x*|^2 - <x_k - x*, x_{k-2} - x*> a certified
Lyapunov function, and ships a trace/scenario harness with CSV and SVG output.
"""

from .lyapunov import (DEFAULT_TOLERANCE, LyapunovSeries, MonotonicityReport,
                       Violation, check_monotone, contraction_factor,
                       per_coordinate_V, scalar_V, vector_V)
from .methods import (HB, KINDS, NAG, NAGGS, TMM, IterationState, MethodSpec,
                      TwoStepCoefficients, coefficient_arrays,
                      optimal_hyperparams, scalar_coefficients, step_general,
                      theoretical_rate)
from .problems import (Objective, QuadraticProblem, cosine_counterexample,
                       exp_norm_objective, generate_quadratic, load_problem,
                       rosenbrock_objective, save_problem)
from .spectral import (ComplexPair, IneligibleError, SchurFactors,
                       SpectralCertificate, analyze, certificate_csv_text,
                       certificate_report_text, companion_matrix,
                       eigenvalues_2x2, is_conjugate_pair, schur_2x2)
from .svgplot import Panel, Series, render_svg
from .scenarios import (SCENARIOS, SUITABLE, ScenarioConfig, ScenarioResult,
                        find_cosine_witness, find_tmm_witness,
                        parse_config_file, run_scenario)
from .trace import (DIVERGENCE_THRESHOLD, Trace, export_csv, read_trace_csv,
                    run_trace, series_from_csv)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOLERANCE", "DIVERGENCE_THRESHOLD", "HB", "KINDS", "NAG",
    "NAGGS", "TMM", "ComplexPair", "IneligibleError",
    "IterationState", "LyapunovSeries", "MethodSpec", "MonotonicityReport",
    "Objective", "Panel", "QuadraticProblem", "SCENARIOS", "SUITABLE",
    "ScenarioConfig",
    "ScenarioResult", "SchurFactors", "Series", "SpectralCertificate",
    "Trace", "TwoStepCoefficients", "Violation", "analyze",
    "certificate_csv_text", "certificate_report_text", "check_monotone",
    "coefficient_arrays", "companion_matrix", "contraction_factor",
    "cosine_counterexample", "eigenvalues_2x2", "exp_norm_objective",
    "export_csv", "find_cosine_witness", "find_tmm_witness",
    "generate_quadratic", "is_conjugate_pair", "load_problem",
    "optimal_hyperparams", "parse_config_file", "per_coordinate_V",
    "read_trace_csv", "render_svg", "rosenbrock_objective", "run_scenario",
    "run_trace", "save_problem", "scalar_V", "scalar_coefficients",
    "schur_2x2", "series_from_csv", "step_general", "theoretical_rate",
    "vector_V", "__version__",
]
