"""Integration against exponential kernels: one rule for the whole package.

Every integral the fixed-point argument asks for is a fixed function f(s)
integrated against exponentials e^{gamma (t - s)}, over the causal side
[t0, t] or the anticausal side [t, inf) of a target t.  That covers the
kernel integrals of the Picard operator and the tail constants of its
zero tail model, the hypothesis quantities R(t), L_k(t) and sigma_gamma(t),
and the envelope of the asymptotic diagnostics.

All of them use one composite Gauss-Legendre rule.  Its breakpoints are
t0, every target t, every point t - u where a kernel derivative g^(j)(u)
changes sign (so |g^(j)| is smooth on each panel), and a tail cutoff
beyond which the integrand is below TAIL_SAFETY * tol.  A panel is at
most PANEL_WIDTH wide and spans at most PANEL_EXP_WIDTH e-foldings of the
fastest exponential; beyond the last target, where only the tail is
left, panels may grow with their distance from it.  A panel on which f
has a kink of its own is halved until its rule agrees with the rule on
its halves.  f is sampled, vectorised, on the panel points, and every
target comes out of one pass of the exact panel recurrence

    I(b_{p+1}) = e^{gamma (b_{p+1} - b_p)} I(b_p)
                 + int_{b_p}^{b_{p+1}} e^{gamma (b_{p+1} - s)} f(s) ds

(run from the cutoff backwards for the anticausal side).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QuadratureFailure
from .green import GreenKernel

GL_ORDER = 20
TAIL_SAFETY = 0.01  # tail bound must be this fraction of the tolerance
PANEL_WIDTH = 2.0
PANEL_EXP_WIDTH = 8.0
TAIL_GROWTH = 0.5  # panel width per unit distance beyond the last target
MAX_SPLITS = 60  # halvings of one panel before f counts as unresolved

_GL_X, _GL_W = np.polynomial.legendre.leggauss(GL_ORDER)


@dataclass(frozen=True)
class ExpTerm:
    """e^{gamma (t - s)} over [t0, t] (causal) or [t, inf) (anticausal).

    ``scale`` bounds the term's coefficient; it only weights the tail
    probe.
    """

    gamma: float
    causal: bool
    scale: float = 1.0


def tail_cutoff(f, lo: float, rate: float, tol: float) -> float:
    """Smallest probe point T >= lo with |f(T)| / rate below the tail
    budget; raises QuadratureFailure if doubling the window never gets
    there."""
    budget = TAIL_SAFETY * tol
    span = max(10.0, 10.0 / rate)
    prev = np.inf
    for _ in range(40):
        cut = lo + span
        with np.errstate(over="ignore", invalid="ignore"):
            probe = abs(f(cut))
        if probe / rate < budget:
            return cut
        if not np.isfinite(probe) or probe > prev:
            break  # growing integrand: no finite cutoff exists
        prev = probe
        span *= 2.0
    raise QuadratureFailure(
        f"integrand tail at {lo + span} is not below {budget}"
    )


def exp_weights(edges, points, weights, gamma: float, causal: bool):
    """Per-panel quadrature weights of e^{gamma (b - s)}, with b the panel
    end the recurrence runs towards, and the factor carrying a value
    across each panel.  points and weights have shape (panels, order)."""
    width = np.diff(edges)
    if causal:
        return (weights * np.exp(gamma * (edges[1:, None] - points)),
                np.exp(gamma * width))
    return (weights * np.exp(gamma * (edges[:-1, None] - points)),
            np.exp(-gamma * width))


def recurrence(panel_sums, decay, causal: bool,
               start: float = 0.0) -> np.ndarray:
    """Integral at every panel edge from the per-panel sums: forwards
    from ``start`` at the first edge (causal) or backwards from ``start``
    at the last edge (anticausal)."""
    acc = start
    vals = [acc]
    if causal:
        for d, p in zip(decay.tolist(), panel_sums.tolist()):
            acc = d * acc + p
            vals.append(acc)
        return np.array(vals)
    for d, p in zip(decay[::-1].tolist(), panel_sums[::-1].tolist()):
        acc = d * acc + p
        vals.append(acc)
    return np.array(vals[::-1])


@dataclass(frozen=True)
class _Sampled:
    """f on a panel rule whose edges include every target."""

    edges: np.ndarray  # (panels + 1,)
    points: np.ndarray  # (panels, order)
    weights: np.ndarray  # (panels, order)
    values: np.ndarray  # f at points, (panels, order)
    targets: np.ndarray  # indices of the targets among the edges


def _subdivide(lo: float, hi: float, width: float, last: float,
               exp_cap: float) -> list[float]:
    """Interior edges splitting [lo, hi]; beyond ``last`` the width may
    grow with the distance from it, up to ``exp_cap``."""
    if hi <= last:
        count = int(np.ceil((hi - lo) / width))
        return list(np.linspace(lo, hi, count + 1)[1:-1])
    out = []
    x = lo
    while True:
        step = min(exp_cap, max(width, TAIL_GROWTH * (x - last)))
        x += step
        if x >= hi - 0.5 * width:
            return out
        out.append(x)


def _sample(f, t, t0: float, terms, rate: float, tol: float,
            breaks=()) -> _Sampled:
    """Build the panel rule for targets t and evaluate f on it once.

    The rule covers [t0, cut]: cut is the largest target when every term
    is causal, otherwise the tail cutoff of the anticausal terms, probed
    beyond the largest target at the target where each term is largest.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or not len(t):
        raise ValueError("need a non-empty 1-d array of targets")
    if np.any(t < t0):
        raise ValueError(f"target below the lower limit {t0}")
    last = float(t.max())
    anti = [term for term in terms if not term.causal]
    cut = last
    if anti:
        first = float(t.min())

        def probe(s):
            kernel = max(
                term.scale * np.exp(
                    term.gamma * ((last if term.gamma >= 0 else first) - s)
                )
                for term in anti
            )
            return kernel * abs(float(f(s)))

        cut = tail_cutoff(probe, last, rate, tol)
    fastest = max((abs(term.gamma) for term in terms), default=0.0)
    exp_cap = PANEL_EXP_WIDTH / fastest if fastest > 0 else np.inf
    width = min(PANEL_WIDTH, exp_cap)

    breaks = np.asarray(breaks, dtype=float).ravel()
    marks = np.unique(np.concatenate((
        [t0, cut], t, breaks[(breaks > t0) & (breaks < cut)]
    )))
    edges = [marks[0]]
    for lo, hi in zip(marks[:-1], marks[1:]):
        edges.extend(_subdivide(lo, hi, width, last, exp_cap))
        edges.append(hi)
    edges, pts, wts, values = _resolve(f, np.array(edges), tol)
    return _Sampled(
        edges=edges,
        points=pts,
        weights=wts,
        values=values,
        targets=np.searchsorted(edges, t),
    )


def _gauss(lo, hi):
    """Gauss-Legendre points and weights on the panels [lo, hi], shape
    (panels, order)."""
    half = (hi - lo)[:, None] / 2
    return (lo + hi)[:, None] / 2 + half * _GL_X, half * _GL_W


def _resolve(f, edges, tol: float):
    """Split every panel on which f itself is not resolved.

    f is smooth between the breakpoints the callers know of, unless it
    has a kink of its own (a coefficient mass |Omega_alpha(mu, r(s))|
    whose Omega_alpha changes sign).  A panel passes when its rule and
    the rule on its two halves agree to tol, relative to the larger of
    int |f| on the panel and its width times the mean of |f|; a failing
    panel is replaced by its halves and checked again.  Returns the
    edges, points, weights and f values of the passed panels.
    """
    def sample(lo, hi):
        pts, wts = _gauss(lo, hi)
        vals = np.broadcast_to(np.asarray(f(pts.ravel()), dtype=float),
                               pts.size).reshape(pts.shape)
        return pts, wts, vals

    lo, hi = edges[:-1], edges[1:]
    pts, wts, vals = sample(lo, hi)
    if not len(lo):
        return edges, pts, wts, vals
    mean = np.abs(wts * vals).sum() / (edges[-1] - edges[0])
    done = []
    for _ in range(MAX_SPLITS):
        mid = (lo + hi) / 2
        left, right = sample(lo, mid), sample(mid, hi)
        whole = (wts * vals).sum(axis=1)
        halves = sum((w * v).sum(axis=1) for _, w, v in (left, right))
        size = sum(np.abs(w * v).sum(axis=1) for _, w, v in (left, right))
        ok = np.abs(whole - halves) <= tol * np.maximum(size,
                                                        (hi - lo) * mean)
        done.append((lo[ok], pts[ok], wts[ok], vals[ok]))
        if ok.all():
            break
        bad = ~ok
        lo = np.concatenate((lo[bad], mid[bad]))
        hi = np.concatenate((mid[bad], hi[bad]))
        pts, wts, vals = (np.concatenate((a[bad], b[bad]))
                          for a, b in zip(left, right))
    else:
        raise QuadratureFailure(
            f"integrand not resolved after {MAX_SPLITS} panel splits"
        )
    starts, pts, wts, vals = (np.concatenate(parts) for parts in zip(*done))
    order = np.argsort(starts, kind="stable")
    edges = np.append(starts[order], edges[-1])
    return edges, pts[order], wts[order], vals[order]


def exp_integrals(f, t, t0: float, terms, rate: float,
                  tol: float) -> np.ndarray:
    """int e^{gamma (t - s)} f(s) ds for every term (first axis) and every
    target in the scalar or array t, in one pass of the panel recurrence
    per term.

    ``rate`` is the decay rate that turns the probed integrand into a
    tail bound; a tail that never gets below TAIL_SAFETY * tol raises
    QuadratureFailure.
    """
    smp = _sample(f, np.ravel(t), t0, terms, rate, tol)
    out = np.empty((len(terms), len(smp.targets)))
    for row, term in enumerate(terms):
        wts, decay = exp_weights(smp.edges, smp.points, smp.weights,
                                 term.gamma, term.causal)
        sums = (wts * smp.values).sum(axis=1)
        out[row] = recurrence(sums, decay, term.causal)[smp.targets]
    return out.reshape((len(terms),) + np.shape(t))


def integral(f, lo: float, hi, tol: float = 1e-10):
    """int_lo^hi f(s) ds for scalar or array hi >= lo."""
    return exp_integrals(f, hi, lo, [ExpTerm(0.0, True)], 1.0, tol)[0]


def _kernel_terms(kernel: GreenKernel) -> list[ExpTerm]:
    amps = np.abs(kernel.amplitudes).sum(axis=0)
    return [ExpTerm(gam, causal, float(scale))
            for gam, causal, scale in zip(kernel.gamma.gamma, kernel.causal,
                                          amps)]


def derivative_integrals(kernel: GreenKernel, f, t, t0: float, rate: float,
                         tol: float) -> np.ndarray:
    """int g^(j)(t, s) f(s) ds over the kernel support, for j = 0..n-2
    (first axis) and every target in the scalar or array t."""
    terms = _kernel_terms(kernel)
    values = exp_integrals(f, np.ravel(t), t0, terms, rate, tol)
    return (kernel.amplitudes @ values).reshape((-1,) + np.shape(t))


def abs_derivative_integral(kernel: GreenKernel, f, t, t0: float,
                            rate: float, tol: float) -> np.ndarray:
    """int sum_j |g^(j)(t, s)| f(s) ds for every target in the scalar or
    array t.

    The absolute values do not split into exponential terms, so there is
    no recurrence: the kernel is formed as a dense targets x points
    matrix, with a breakpoint wherever some g^(j) changes sign.
    """
    flat = np.ravel(np.asarray(t, dtype=float))
    kinks = (flat[:, None] - np.asarray(kernel.sign_changes)[None, :])
    smp = _sample(f, flat, t0, _kernel_terms(kernel), rate, tol, kinks)
    dense = kernel.abs_derivative_sum(flat[:, None],
                                      smp.points.ravel()[None, :])
    return (dense @ (smp.weights * smp.values).ravel()).reshape(np.shape(t))
