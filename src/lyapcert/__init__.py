"""Spectral Lyapunov certificates for two-step momentum methods on quadratics.

The package computes the recurrence coefficients (a, b) of HB, NAG, TMM and
NAG-GS on every eigen-coordinate at once, checks on those columns the
conjugate-pair condition that makes the three-point function
V_k = |x_{k-1} - x*|^2 - <x_k - x*, x_{k-2} - x*> a certified Lyapunov
function, and ships a trace/scenario harness with CSV and SVG output.
"""

from .lyapunov import MonotonicityReport
from .methods import (HB, KINDS, NAG, NAGGS, TMM, MethodSpec,
                      coefficient_arrays, optimal_hyperparams)
from .problems import (Objective, QuadraticProblem, cosine_counterexample,
                       exp_norm_objective, generate_quadratic, load_problem,
                       rosenbrock_objective, save_problem)
from .spectral import (SpectralCertificate, analyze, certificate_csv_text,
                       certificate_report_text)
from .svgplot import Panel, Series, render_svg
from .scenarios import (SCENARIOS, SUITABLE, ScenarioConfig, ScenarioResult,
                        find_cosine_witness, find_tmm_witness,
                        parse_config_file, run_scenario)
from .trace import DIVERGENCE_THRESHOLD, Trace, export_csv, run_trace

__version__ = "0.1.0"

__all__ = [
    "DIVERGENCE_THRESHOLD", "HB", "KINDS", "NAG", "NAGGS", "TMM",
    "MethodSpec", "MonotonicityReport",
    "Objective", "Panel", "QuadraticProblem", "SCENARIOS", "SUITABLE",
    "ScenarioConfig", "ScenarioResult", "Series", "SpectralCertificate",
    "Trace", "analyze", "certificate_csv_text",
    "certificate_report_text", "coefficient_arrays",
    "cosine_counterexample", "exp_norm_objective", "export_csv",
    "find_cosine_witness", "find_tmm_witness", "generate_quadratic",
    "load_problem", "optimal_hyperparams", "parse_config_file",
    "render_svg", "rosenbrock_objective", "run_scenario",
    "run_trace", "save_problem", "__version__",
]
