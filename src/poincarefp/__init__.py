"""Fixed-point machinery for Poincare-type ordinary differential equations.

The package reduces y^(n) + sum (a_i + r_i(t)) y^(i) = 0 around a simple
characteristic root, builds the piecewise-exponential Green kernel of the
reduced linear operator, solves the resulting nonlinear integral
equation by Picard iteration, and verifies the asymptotic structure of
the reconstructed fundamental system against an independent integrator.
"""

__version__ = "0.1.0"
