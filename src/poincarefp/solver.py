"""Picard iteration for the reduced integral equation.

The fixed-point operator is ``(T z)(t) = int g(t, s) P(s, z-jet(s)) ds``
with the piecewise-exponential kernel g and the forcing
``P = -F(mu, r(s), z-jet(s))``.  Because g is a signed sum of pure
exponentials, every kernel integral obeys a one-panel recurrence

    I_gamma(t_{k+1}) = e^{gamma dt_k} I_gamma(t_k)
                       + int_{t_k}^{t_{k+1}} e^{gamma (t_{k+1} - s)} P(s) ds

(and its mirror for the anticausal terms), so one scan over the grid
yields every iterate derivative z^(j) = sum_l sign_l c_l gamma_l^j I_l
simultaneously; the weights and the per-term ``scan`` come from
``kernelquad``, whose other kernel integrals run the same scan.  The
grid, its panels and r on the panels are the problem's ``panel_rule``,
shared by every root's operator; the z-independent Omega_alpha(mu, r(s))
in P are evaluated once per operator.  The panel integrals need the z-jet
between the Chebyshev nodes.  The quadrature points of
``chebgrid.AnglePanels`` sit at the same angle offsets in every panel,
so each application of T interpolates the jet onto all of them with one
real FFT and one batched inverse FFT, whose two halves serve the two
offsets of a Gauss-Legendre mirror pair: O(N log N) work and O(N) memory
per iteration, and no interpolation matrix.  A solved iterate keeps
its cosine coefficients; the error estimate, z^(j) and int z at any t,
and the top derivative of ``ode_residual`` are all read off them.
Beyond the window the iterate is modelled as zero and the anticausal
integrals get an explicit constant tail computed from the independent
forcing term; it does not depend on the grid.

A grid of at least four times the panels of ``COARSE_POINTS`` nodes is
solved by nested iteration (Briggs, Henson & McCormick, A Multigrid
Tutorial, ch. 3): T is iterated to its fixed point on the problem's
``coarse`` grid, whose operator shares the fine one's tail constants,
and the fine iteration starts from that fixed point's cosine series,
zero-padded to the fine length.  T contracts at about the same rate on
both grids, and the coarse grid already resolves z far below tol, so
the fine iteration mostly takes one step.  The coarse stage runs the
Picard loop alone (``picard_iterate``): only its fixed point and
difference norms are read, so it pays for no residual and builds no
certificate.  A coarse stage that raises leaves the fine one to start
from zero.

Every iterate, coarse or fine, must stay in the ball of the problem's
eta, on which the fixed-point theorem is applied; an iterate that
leaves it raises ``InvarianceViolated``, and eta is never relaxed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import chebgrid, kernelquad
from .errors import (DivergenceDetected, InvarianceViolated, MaxIterations,
                     PoincarefpError)
from .problem import COARSE_POINTS, ProblemSpec
from .spectral import reduced_linear_coefficients

DIVERGENCE_STRIKES = 3
TAIL_FRACTION = 16  # the error estimate sums the last 1/16 of coefficients
UNOBSERVED = "no trace holds two nonzero successive differences"


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

    def top_derivative(self) -> np.ndarray:
        """z^(n-1) at the nodes: the derivative of the cosine series of
        z^(n-2), the last row, independent of the kernel recurrence."""
        return chebgrid.series_at_nodes(
            chebgrid.derivative(self.coeffs[-1], self.t0, self.t_max))

    def integral(self, t):
        """int_{t0}^t z(s) ds at scalar or array t; constant beyond t_max."""
        return self._series(chebgrid.antiderivative(
            self.coeffs[0], self.t0, self.t_max), t)[()]

    def prolong(self, count: int) -> np.ndarray:
        """The derivative rows at the nodes of the ``count``-node grid on
        the same window: the cosine series zero-padded to that length."""
        coeffs = np.zeros(self.coeffs.shape[:-1] + (count,))
        coeffs[..., :self.coeffs.shape[-1]] = self.coeffs
        return chebgrid.series_at_nodes(coeffs)


@dataclass(frozen=True)
class ContractionCertificate:
    """The Picard trace of a converged solve and what it shows; a solve
    that does not converge raises instead of making one.
    ``contraction_ratio`` is None when no trace holds two nonzero
    successive differences; a coarse start records its node count and
    trace in ``start_points`` and ``start_diffs``."""

    eta_regime = "default"  # not a field: the only regime, perfbench reads it

    eta: float
    diffs: tuple[float, ...]
    contraction_ratio: float | None
    final_residual: float
    discretisation_error: float
    sup_norm: float
    tail_bounds: tuple[float, ...]
    start_points: int | None = None
    start_diffs: tuple[float, ...] = ()

    @property
    def iterations(self) -> int:
        return len(self.diffs)

    def format(self) -> str:
        ratio = (f"not observed ({UNOBSERVED})"
                 if self.contraction_ratio is None
                 else repr(self.contraction_ratio))
        lines = [
            f"invariance radius eta = {self.eta!r} ({self.eta_regime})",
            f"iterations = {self.iterations}",
            f"sup norm of iterate = {self.sup_norm!r}",
            f"residual ||Tz - z||_0 = {self.final_residual!r}",
            f"discretisation error estimate = "
            f"{self.discretisation_error!r}",
            f"observed contraction ratio = {ratio}",
            "anticausal tail bounds = "
            + ", ".join(repr(b) for b in self.tail_bounds),
            "converged = True",  # fixed text: perfbench's checks read it
            "successive difference norms:",
        ]
        lines += [f"  {d!r}" for d in self.diffs]
        if self.start_points is not None:
            lines.append(f"coarse start = {self.start_points} nodes, "
                         f"{len(self.start_diffs)} iterations")
            lines.append("coarse successive difference norms:")
            lines += [f"  {d!r}" for d in self.start_diffs]
        return "\n".join(lines) + "\n"


class FixedPointOperator:
    """Precomputed discretisation of root i's T on a fixed Chebyshev grid."""

    def __init__(self, problem: ProblemSpec, i: int,
                 tail_constants: dict | None = None):
        self.problem = problem
        self.kernel = problem.equation.kernels[i - 1]
        self.mu = self.kernel.gamma.mu

        rule = problem.panel_rule
        self.nodes = rule.nodes
        self.panels = rule.panels
        table = problem.equation.table
        self.omega_panels = table.omega_values(self.mu, rule.r_panels)

        # per-gamma panel weights and inter-node decay factors
        self.exp_weights = [
            kernelquad.exp_weights(self.nodes, self.panels.points,
                                   self.panels.weights, gam, causal)
            for gam, causal in zip(self.kernel.gamma.gamma,
                                   self.kernel.causal)
        ]
        # grid-independent: an operator of the same root and window on
        # another grid passes its own
        self.tail_constants = (self._tail_constants()
                               if tail_constants is None else tail_constants)

    def _tail_constants(self) -> dict:
        """A_gamma(t_max) under the zero tail model: the forcing beyond
        the window reduces to its independent term -Omega_0."""
        gammas = self.kernel.gamma.gamma
        anti = [ell for ell, causal in enumerate(self.kernel.causal)
                if not causal]
        if not anti:
            return {}
        problem = self.problem
        table = problem.equation.table
        alpha0 = (0,) * (problem.n - 1)

        def forcing0(s):
            return -table.omega_value(alpha0, self.mu, problem.r_list(s))

        terms = [kernelquad.ExpTerm(gammas[ell], False) for ell in anti]
        rate = min(gammas[ell] for ell in anti)
        values = kernelquad.exp_integrals(
            forcing0, [problem.t_max], problem.t_max, terms, rate, problem.tol
        )
        return {ell: float(v) for ell, v in zip(anti, values[0, :, 0])}

    def forcing(self, values: np.ndarray) -> np.ndarray:
        """P = -F along the panel points for the iterate sampled in
        ``values``."""
        table = self.problem.equation.table
        zjet = self.panels.interpolate(values).reshape(values.shape[0], -1)
        return -table.combine(self.omega_panels, zjet)

    def kernel_integrals(self, forcing_panels: np.ndarray) -> np.ndarray:
        """I_gamma and A_gamma at every node via the panel recurrence, one
        row per kernel term."""
        fp = forcing_panels.reshape((1,) + self.panels.points.shape)
        return np.array([
            kernelquad.scan(weights, decay, causal, fp,
                            self.tail_constants.get(ell, 0.0))[0]
            for ell, ((weights, decay), causal)
            in enumerate(zip(self.exp_weights, self.kernel.causal))
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


def _contraction(*traces: tuple[float, ...]) -> float | None:
    """The largest of the last three ratios of two nonzero successive
    differences inside each trace, never across traces; None when no
    trace holds such a pair."""
    last: list[float] = []
    for trace in traces:
        ratios = [b / a for a, b in zip(trace, trace[1:]) if a > 0 and b > 0]
        last += ratios[-3:]
    return max(last, default=None)


def picard_iterate(operator: FixedPointOperator, values: np.ndarray,
                   ) -> tuple[IterateGrid, tuple[float, ...]]:
    """Apply T from ``values`` until the successive difference drops
    below the problem's tol, for at most its max_iter steps; returns the
    last iterate, with its cosine coefficients, and the difference norms.

    Raises InvarianceViolated when an iterate leaves the ball of the
    problem's eta, DivergenceDetected after three consecutive
    non-contracting steps, MaxIterations when the budget runs out.
    """
    problem = operator.problem
    diffs: list[float] = []
    strikes = 0
    for _ in range(problem.max_iter):
        new = operator.apply(values)
        diff = _norm0(new - values)
        diffs.append(diff)
        norm = _norm0(new)
        if norm > problem.eta:
            raise InvarianceViolated(
                f"iterate norm {norm} left the eta = {problem.eta} ball"
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
        if diff <= problem.tol:
            return operator.grid(values), tuple(diffs)
    raise MaxIterations(
        f"no convergence within {problem.max_iter} iterations; last "
        f"difference {diffs[-1]}"
    )


def picard_solve(operator: FixedPointOperator,
                 start: tuple[IterateGrid, tuple[float, ...]] | None = None,
                 ) -> tuple[IterateGrid, ContractionCertificate]:
    """``picard_iterate`` from zero, or from ``start``: a coarser grid's
    iterate of the same root and window, prolonged onto the operator's
    nodes, and its difference norms, which go into the certificate.  The
    certificate adds the problem's eta, the independent residual, the
    discretisation estimate, the sup norm and the tail bounds.
    """
    if start is None:
        values, start_points, start_diffs = operator.zero(), None, ()
    else:
        coarse, start_diffs = start
        values = coarse.prolong(len(operator.nodes))
        start_points = len(coarse.nodes)
    grid, diffs = picard_iterate(operator, values)

    # independent residual of the returned iterate
    residual = _norm0(operator.apply(grid.values) - grid.values)
    cert = ContractionCertificate(
        eta=operator.problem.eta,
        diffs=diffs,
        contraction_ratio=_contraction(start_diffs, diffs),
        final_residual=residual,
        discretisation_error=_discretisation_error(grid.coeffs),
        sup_norm=_norm0(grid.values),
        tail_bounds=tuple(
            float(abs(operator.kernel.coeffs[ell] * const))
            for ell, const in sorted(operator.tail_constants.items())
        ),
        start_points=start_points,
        start_diffs=start_diffs,
    )
    return grid, cert


def solve_problem(problem: ProblemSpec, i: int):
    """End-to-end solve for root index i (1-based).

    Returns (operator, grid, certificate).  A grid of at least four times
    the panels of the coarse one starts from the coarse iteration's
    fixed point, or from zero when that raises.  An iterate that leaves
    the problem's eta ball raises InvarianceViolated.
    """
    operator = FixedPointOperator(problem, i)
    start = None
    if problem.grid_points - 1 >= 4 * (COARSE_POINTS - 1):
        try:
            coarse = FixedPointOperator(problem.coarse, i,
                                        operator.tail_constants)
            start = picard_iterate(coarse, coarse.zero())
        except PoincarefpError:
            pass  # the fine iteration starts from zero, in the same ball
    grid, cert = picard_solve(operator, start)
    return operator, grid, cert


def ode_residual(operator: FixedPointOperator, grid: IterateGrid) -> float:
    """Relative sup residual of the reduced differential equation.

    The top derivative comes from differentiating the Chebyshev series
    of z^(n-2), independently of the kernel recurrence, so this
    cross-checks the whole pipeline rather than an algebraic identity.
    """
    problem = operator.problem
    n = problem.n
    lhs = grid.top_derivative()
    b = reduced_linear_coefficients(problem.a, operator.mu)
    for j in range(n - 1):
        lhs += b[j] * grid.values[j]
    rhs = problem.equation.table.evaluate_rhs(
        operator.mu, problem.r_list(grid.nodes), list(grid.values)
    )
    residual = lhs - rhs
    interior = slice(1, -1)
    scale = max(1.0, float(np.max(np.abs(rhs))))
    return float(np.max(np.abs(residual[interior]))) / scale
