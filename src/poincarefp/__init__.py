"""Fixed-point machinery for Poincare-type ordinary differential equations.

The package reduces y^(n) + sum (a_i + r_i(t)) y^(i) = 0 around a simple
characteristic root, builds the piecewise-exponential Green kernel of the
reduced linear operator, solves the resulting nonlinear integral
equation by Picard iteration, and verifies the asymptotic structure of
the reconstructed fundamental system against an independent integrator.
"""

from .errors import (
    ComplexRoots,
    ConfigError,
    DivergenceDetected,
    EvalDomainError,
    ExpressionError,
    IntegrationFailure,
    InvarianceViolated,
    MaxIterations,
    PoincarefpError,
    QuadratureFailure,
    RepeatedRoots,
)
from .exprparse import evaluate_expression, parse_expression
from .green import GreenKernel, build_kernel, upsilon
from .hypotheses import (
    HypothesisReport,
    compute_L,
    compute_R,
    compute_phi1,
    estimate_sigma,
    evaluate_hypotheses,
)
from .problem import Equation, ProblemSpec
from .reduction import (
    OmegaTable,
    build_derivative_polynomials,
    build_reduced_rhs,
)
from .solver import (
    ContractionCertificate,
    FixedPointOperator,
    IterateGrid,
    ode_residual,
    picard_solve,
    solve_problem,
)
from .spectral import (
    Spectrum,
    ShiftedSpectrum,
    find_roots,
    reduced_linear_coefficients,
    shift_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "ComplexRoots",
    "ConfigError",
    "ContractionCertificate",
    "DivergenceDetected",
    "Equation",
    "EvalDomainError",
    "ExpressionError",
    "FixedPointOperator",
    "GreenKernel",
    "HypothesisReport",
    "IntegrationFailure",
    "InvarianceViolated",
    "IterateGrid",
    "MaxIterations",
    "OmegaTable",
    "PoincarefpError",
    "ProblemSpec",
    "QuadratureFailure",
    "RepeatedRoots",
    "ShiftedSpectrum",
    "Spectrum",
    "build_derivative_polynomials",
    "build_kernel",
    "build_reduced_rhs",
    "compute_L",
    "compute_R",
    "compute_phi1",
    "estimate_sigma",
    "evaluate_expression",
    "evaluate_hypotheses",
    "find_roots",
    "ode_residual",
    "parse_expression",
    "picard_solve",
    "reduced_linear_coefficients",
    "shift_spectrum",
    "solve_problem",
    "upsilon",
]
