"""Wrap the public functions of poincarefp's modules with a span Recorder.

The package itself is not edited: functions are replaced on their module
(and on every poincarefp module that imported them by name), methods on
their class.  Call this in a fresh interpreter only; nothing is undone.

Names are ``<module>.<call>``.  Kept spans surround coarse calls; the
frequent numerical calls inside quadrature integrands are timed without a
span or only counted, so the recorder stays small and cheap.
"""

from __future__ import annotations

import sys

import numpy as np


def _rebind(owner, attr: str, wrapper) -> None:
    """Replace ``owner.attr`` and every poincarefp module-level alias of
    the same object."""
    original = getattr(owner, attr)
    setattr(owner, attr, wrapper)
    if isinstance(owner, type):
        return
    for name, module in list(sys.modules.items()):
        if not name.startswith("poincarefp") or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def install(rec) -> None:
    import scipy.integrate

    # cli is imported first so that its by-name imports are rebound too
    from poincarefp import cli  # noqa: F401
    from poincarefp import (asymptotics, chebgrid, green, hypotheses,
                            multipoly, oracle, problem, reduction, solver)

    # (owner, attribute, recorded name, keep a span)
    timed = [
        (hypotheses, "evaluate_hypotheses", "hypotheses.evaluate_hypotheses",
         True),
        (hypotheses, "compute_R", "hypotheses.compute_R", True),
        (hypotheses, "compute_L", "hypotheses.compute_L", True),
        (hypotheses, "estimate_sigma", "hypotheses.estimate_sigma", True),
        (reduction, "build_reduced_rhs", "reduction.build_reduced_rhs", True),
        (reduction.OmegaTable, "omega_value", "reduction.omega_eval", False),
        (reduction.OmegaTable, "mass_by_order", "reduction.omega_eval", False),
        (reduction.OmegaTable, "evaluate_F", "reduction.omega_eval", False),
        (green.GreenKernel, "derivative", "green.derivative", False),
        (chebgrid, "barycentric_matrix", "chebgrid.barycentric_matrix",
         False),
        (solver, "solve_problem", "solver.solve_problem", True),
        (solver, "ode_residual", "solver.ode_residual", True),
        (solver.FixedPointOperator, "apply", "solver.apply", False),
        (solver.FixedPointOperator, "forcing", "solver.forcing", False),
        (solver.FixedPointOperator, "kernel_integrals",
         "solver.kernel_integrals", False),
        (asymptotics, "build_fundamental_system",
         "asymptotics.build_fundamental_system", True),
        (asymptotics, "envelope_stability", "asymptotics.envelope_stability",
         True),
        (asymptotics, "envelope", "asymptotics.envelope", False),
        (asymptotics, "wronskian_diagnostic",
         "asymptotics.wronskian_diagnostic", True),
        (asymptotics.FundamentalSystem, "derivative_ratio",
         "asymptotics.derivative_ratio", False),
        (oracle, "compare_to_fixed_point", "oracle.compare_to_fixed_point",
         True),
    ]
    for owner, attr, name, keep in timed:
        _rebind(owner, attr, rec.timed(name, getattr(owner, attr), keep))

    counts = rec.counts
    _rebind(multipoly.Poly, "evaluate",
            rec.counted("multipoly.evaluate.calls", multipoly.Poly.evaluate))

    r_value = problem.ProblemSpec.r_value

    def counted_r_value(self, i, t):
        counts["problem.r_value.calls"] += 1
        if not (isinstance(t, np.ndarray) and t.ndim):
            counts["problem.r_value.scalar_calls"] += 1
        return r_value(self, i, t)

    _rebind(problem.ProblemSpec, "r_value", counted_r_value)

    quad = scipy.integrate.quad

    def counted_quad(func, *args, **kwargs):
        # attributed to the layer of the innermost timed call, since
        # hypotheses' tail helper also serves solver and asymptotics
        prefix = rec.current_layer() + ".quad"
        counts[prefix + ".calls"] += 1
        evals = prefix + ".integrand_evals"

        def integrand(*fargs):
            counts[evals] += 1
            return func(*fargs)

        return quad(integrand, *args, **kwargs)

    scipy.integrate.quad = counted_quad

    picard = rec.timed("solver.picard_solve", solver.picard_solve, True)

    def counted_picard(*args, **kwargs):
        grid, cert = picard(*args, **kwargs)
        counts["solver.picard_iterations"] += cert.iterations
        return grid, cert

    _rebind(solver, "picard_solve", counted_picard)

    setup = rec.timed("solver.operator_setup",
                      solver.FixedPointOperator.__init__, True)

    def counted_setup(self, problem_spec, *args, **kwargs):
        setup(self, problem_spec, *args, **kwargs)
        # computed size of the dense node-to-panel matrix, not measured
        n = problem_spec.grid_points
        counts["chebgrid.interp_bytes"] += chebgrid.GL_ORDER * (n - 1) * n * 8

    _rebind(solver.FixedPointOperator, "__init__", counted_setup)

    integrate_original = rec.timed("oracle.integrate_original",
                                   oracle.integrate_original, True)

    def counted_integrate(*args, **kwargs):
        sample = integrate_original(*args, **kwargs)
        counts["oracle.nfev"] += sample.nfev
        return sample

    _rebind(oracle, "integrate_original", counted_integrate)
