"""Picard iteration for the reduced integral equation.

The fixed-point operator is ``(T z)(t) = int g(t, s) P(s, z-jet(s)) ds``
with the piecewise-exponential kernel g and the forcing
``P = -F(mu, r(s), z-jet(s))``.  Because g is a signed sum of pure
exponentials, every kernel integral obeys a one-panel recurrence

    I_gamma(t_{k+1}) = e^{gamma dt_k} I_gamma(t_k)
                       + int_{t_k}^{t_{k+1}} e^{gamma (t_{k+1} - s)} P(s) ds

(and its mirror for the anticausal terms), so one pass over the grid
yields every iterate derivative z^(j) = sum_l sign_l c_l gamma_l^j I_l
simultaneously; the recurrence and its weights come from ``kernelquad``.
The z-independent Omega_alpha(mu, r(s)) in P are evaluated once per
operator.  The panel integrals need the z-jet between the Chebyshev
nodes.  The quadrature points of ``chebgrid.AnglePanels`` sit at the same
angle offsets in every panel, so each application of T interpolates the
jet onto all of them with one real FFT and one batched inverse FFT:
O(N log N) work and O(N) memory per iteration, and no interpolation
matrix.  A solved iterate keeps its cosine coefficients; the error
estimate, z^(j) and int z at any t, and the top derivative of
``ode_residual`` are all read off them.  Beyond the window the iterate
is modelled as zero and the anticausal integrals get an explicit
constant tail computed from the independent forcing term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import chebgrid, kernelquad
from .errors import DivergenceDetected, InvarianceViolated, MaxIterations
from .green import GreenKernel, build_kernel
from .problem import ProblemSpec
from .reduction import OmegaTable, build_reduced_rhs
from .spectral import (
    find_roots,
    reduced_linear_coefficients,
    shift_spectrum,
)

DIVERGENCE_STRIKES = 3
RETRY_ETA = 0.9
TAIL_FRACTION = 16  # the error estimate sums the last 1/16 of coefficients


@dataclass(frozen=True)
class IterateGrid:
    """A z-iterate and its derivatives sampled on the Chebyshev grid.

    ``values[j]`` holds z^(j) at the nodes for j = 0..n-2, ``coeffs[j]``
    its cosine coefficients.  Beyond t_max the iterate is extended by zero
    (the tail model of the operator).
    """

    nodes: np.ndarray
    values: np.ndarray
    coeffs: np.ndarray
    mu: float

    @property
    def t0(self) -> float:
        return float(self.nodes[0])

    @property
    def t_max(self) -> float:
        return float(self.nodes[-1])

    def _series(self, coeffs: np.ndarray, t) -> np.ndarray:
        """Rows of ``coeffs`` at scalar or array t clipped to [t0, t_max],
        shape coeffs.shape[:-1] + shape(t)."""
        t = np.asarray(t, dtype=float)
        if np.any(t < self.t0 - 1e-12):
            raise ValueError("evaluation point below t0")
        out = chebgrid.series_at(coeffs, self.t0, self.t_max, t.ravel())
        return out.reshape(coeffs.shape[:-1] + t.shape)

    def jet(self, t) -> np.ndarray:
        """All derivatives z^(0..n-2) at scalar t, or one row per order
        at array t."""
        return np.where(np.asarray(t) > self.t_max, 0.0,
                        self._series(self.coeffs, t))

    def evaluate(self, t, j: int = 0):
        """z^(j) at scalar or array t inside [t0, inf)."""
        return self.jet(t)[j]

    def integral(self, t):
        """int_{t0}^t z(s) ds at scalar or array t; constant beyond t_max."""
        return self._series(chebgrid.antiderivative(
            self.coeffs[0], self.t0, self.t_max), t)[()]


@dataclass(frozen=True)
class ContractionCertificate:
    eta: float
    eta_regime: str
    iterations: int
    diffs: tuple[float, ...]
    ratios: tuple[float, ...]
    contraction_ratio: float
    final_residual: float
    discretisation_error: float
    sup_norm: float
    tail_bounds: tuple[float, ...]
    converged: bool

    def format(self) -> str:
        lines = [
            f"invariance radius eta = {self.eta!r} ({self.eta_regime})",
            f"iterations = {self.iterations}",
            f"sup norm of iterate = {self.sup_norm!r}",
            f"residual ||Tz - z||_0 = {self.final_residual!r}",
            f"discretisation error estimate = "
            f"{self.discretisation_error!r}",
            f"observed contraction ratio = {self.contraction_ratio!r}",
            "anticausal tail bounds = "
            + ", ".join(repr(b) for b in self.tail_bounds),
            f"converged = {self.converged}",
            "successive difference norms:",
        ]
        lines += [f"  {d!r}" for d in self.diffs]
        return "\n".join(lines) + "\n"


class FixedPointOperator:
    """Precomputed discretisation of T on a fixed Chebyshev window."""

    def __init__(self, problem: ProblemSpec, kernel: GreenKernel,
                 table: OmegaTable):
        self.problem = problem
        self.kernel = kernel
        self.table = table
        self.mu = kernel.gamma.mu

        count = problem.grid_points
        self.nodes = chebgrid.lobatto_nodes(problem.t0, problem.t_max, count)
        self.panels = chebgrid.AnglePanels(problem.t0, problem.t_max, count)
        pts = self.panels.points
        self.omega_panels = table.omega_values(self.mu,
                                               problem.r_list(pts.ravel()))
        self.omega_nodes = table.omega_values(self.mu,
                                              problem.r_list(self.nodes))

        self.gammas = kernel.gamma.gamma
        self.causal = kernel.causal
        # per-gamma panel weights and inter-node decay factors
        self.exp_weights = [
            kernelquad.exp_weights(self.nodes, pts, self.panels.weights,
                                   gam, causal)
            for gam, causal in zip(self.gammas, self.causal)
        ]
        self.tail_constants = self._tail_constants()

    def _tail_constants(self) -> dict:
        """A_gamma(t_max) under the zero tail model: the forcing beyond
        the window reduces to its independent term -Omega_0."""
        anti = [ell for ell in range(len(self.gammas))
                if not self.causal[ell]]
        if not anti:
            return {}
        problem = self.problem
        alpha0 = (0,) * (problem.n - 1)

        def forcing0(s):
            return -self.table.omega_value(alpha0, self.mu,
                                           problem.r_list(s))

        terms = [kernelquad.ExpTerm(self.gammas[ell], False) for ell in anti]
        rate = min(self.gammas[ell] for ell in anti)
        values = kernelquad.exp_integrals(
            forcing0, [problem.t_max], problem.t_max, terms, rate, problem.tol
        )
        return {ell: float(v) for ell, v in zip(anti, values[:, 0])}

    def forcing(self, values: np.ndarray, at_nodes: bool = False) -> np.ndarray:
        """P = -F along the panel points (or the nodes) for the iterate
        sampled in ``values``."""
        if at_nodes:
            return -self.table.combine(self.omega_nodes, values)
        zjet = self.panels.interpolate(values).reshape(values.shape[0], -1)
        return -self.table.combine(self.omega_panels, zjet)

    def kernel_integrals(self, forcing_panels: np.ndarray) -> np.ndarray:
        """I_gamma and A_gamma at every node via the panel recurrence, one
        row per kernel term."""
        fp = forcing_panels.reshape(self.panels.points.shape)
        return np.array([
            kernelquad.recurrence((weights * fp).sum(axis=1), decay, causal,
                                  self.tail_constants.get(ell, 0.0))
            for ell, ((weights, decay), causal)
            in enumerate(zip(self.exp_weights, self.causal))
        ])

    def apply(self, values: np.ndarray) -> np.ndarray:
        """One application of T: new derivative rows z^(0..n-2)."""
        integrals = self.kernel_integrals(self.forcing(values))
        return (self.kernel.amplitudes[:, :, None] * integrals).sum(axis=1)

    def grid(self, values: np.ndarray) -> IterateGrid:
        return IterateGrid(
            nodes=self.nodes,
            values=values,
            coeffs=chebgrid.chebyshev_coefficients(values),
            mu=self.mu,
        )

    def zero(self) -> np.ndarray:
        return np.zeros((self.problem.n - 1, len(self.nodes)))


def _norm0(values: np.ndarray) -> float:
    return float(np.max(np.abs(values).sum(axis=0)))


def _discretisation_error(coeffs: np.ndarray) -> float:
    """Largest sum of |d_m| over the trailing ceil(N/16) cosine
    coefficients of any derivative row: what the grid fails to resolve."""
    tail = math.ceil(coeffs.shape[-1] / TAIL_FRACTION)
    return float(np.max(np.abs(coeffs[..., -tail:]).sum(axis=-1)))


def picard_solve(operator: FixedPointOperator, eta: float | None = None,
                 tol: float | None = None, max_iter: int | None = None,
                 eta_regime: str = "default",
                 ) -> tuple[IterateGrid, ContractionCertificate]:
    """Iterate T from zero until the successive difference drops below
    tol.

    Raises InvarianceViolated when an iterate leaves the ball of radius
    eta, DivergenceDetected after three consecutive non-contracting
    steps, MaxIterations when the budget runs out.
    """
    problem = operator.problem
    eta = problem.eta if eta is None else eta
    tol = problem.tol if tol is None else tol
    max_iter = problem.max_iter if max_iter is None else max_iter

    values = operator.zero()
    diffs: list[float] = []
    strikes = 0
    for _ in range(max_iter):
        new = operator.apply(values)
        diff = _norm0(new - values)
        diffs.append(diff)
        norm = _norm0(new)
        if norm > eta:
            raise InvarianceViolated(
                f"iterate norm {norm} left the eta = {eta} ball"
            )
        if len(diffs) >= 2 and diffs[-2] > 0 and diff >= diffs[-2]:
            strikes += 1
            if strikes >= DIVERGENCE_STRIKES:
                raise DivergenceDetected(
                    f"difference norms stopped contracting: {diffs[-4:]}"
                )
        else:
            strikes = 0
        values = new
        if diff <= tol:
            break
    else:
        raise MaxIterations(
            f"no convergence within {max_iter} iterations; last "
            f"difference {diffs[-1]}"
        )

    # independent residual of the returned iterate
    final = operator.apply(values)
    residual = _norm0(final - values)
    ratios = tuple(
        diffs[k + 1] / diffs[k] for k in range(len(diffs) - 1) if diffs[k] > 0
    )
    contraction = max(ratios[-3:]) if ratios else 0.0
    grid = operator.grid(values)
    cert = ContractionCertificate(
        eta=eta,
        eta_regime=eta_regime,
        iterations=len(diffs),
        diffs=tuple(diffs),
        ratios=ratios,
        contraction_ratio=contraction,
        final_residual=residual,
        discretisation_error=_discretisation_error(grid.coeffs),
        sup_norm=_norm0(values),
        tail_bounds=tuple(
            float(abs(operator.kernel.coeffs[ell] * const))
            for ell, const in sorted(operator.tail_constants.items())
        ),
        converged=True,
    )
    return grid, cert


def solve_problem(problem: ProblemSpec, i: int):
    """End-to-end solve for root index i (1-based).

    Returns (operator, grid, certificate).  An invariance violation at
    the configured eta is retried once in the relaxed eta = 0.9 regime.
    """
    spectrum = find_roots(problem.a)
    shifted = shift_spectrum(spectrum, i)
    kernel = build_kernel(shifted)
    table = build_reduced_rhs(problem.a, problem.n)
    operator = FixedPointOperator(problem, kernel, table)
    try:
        grid, cert = picard_solve(operator)
    except InvarianceViolated:
        grid, cert = picard_solve(
            operator, eta=RETRY_ETA, eta_regime="retry at eta = 0.9"
        )
    return operator, grid, cert


def ode_residual(operator: FixedPointOperator, grid: IterateGrid) -> float:
    """Relative sup residual of the reduced differential equation.

    The top derivative comes from differentiating the Chebyshev series
    of z^(n-2), independently of the kernel recurrence, so this
    cross-checks the whole pipeline rather than an algebraic identity.
    """
    problem = operator.problem
    n = problem.n
    lhs = chebgrid.series_at_nodes(
        chebgrid.derivative(grid.coeffs[n - 2], grid.t0, grid.t_max)
    )
    b = reduced_linear_coefficients(problem.a, grid.mu)
    for j in range(n - 1):
        lhs += b[j] * grid.values[j]
    rhs = operator.forcing(grid.values, at_nodes=True)
    residual = lhs - rhs
    interior = slice(1, -1)
    scale = max(1.0, float(np.max(np.abs(rhs))))
    return float(np.max(np.abs(residual[interior]))) / scale
