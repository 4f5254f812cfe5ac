"""Integration against exponential kernels: one scan for the whole package.

Every integral the fixed-point argument asks for is a fixed function f(s)
integrated against exponentials e^{gamma (t - s)}, over the causal side
[t0, t] or the anticausal side [t, inf) of a target t.  That covers the
kernel integrals of the Picard operator and the tail constants of its
zero tail model, the hypothesis quantities R(t) and L_k(t), and the
envelope of the asymptotic diagnostics.

All of them run the one panel recurrence below.  The Picard operator
integrates on the panels of its Chebyshev grid (``chebgrid.AnglePanels``
of the problem's panel rule), with weights from ``exp_weights``.  Every
other integral, the tail constants included, is taken on a composite
Gauss-Legendre rule built here by ``exp_integrals``.  Its breakpoints are
t0, every target t and a tail cutoff beyond which the integrand is below
TAIL_SAFETY * tol.  A panel is at most PANEL_WIDTH wide and spans at most
PANEL_EXP_WIDTH e-foldings of the fastest exponential; beyond the last
target, where only the tail of the anticausal terms is left, panels may
grow with their distance from it and span that many e-foldings of the
fastest anticausal exponential.  The rule starts with at most MAX_PANELS
panels.  A panel on which f
has a kink of its own is halved until its rule agrees with the rule on
its halves, adding at most MAX_ADDED_PANELS panels.  f is sampled,
vectorised, on the panel points, and every target comes out of the exact
panel recurrence

    I(b_{p+1}) = e^{gamma (b_{p+1} - b_p)} I(b_p)
                 + int_{b_p}^{b_{p+1}} e^{gamma (b_{p+1} - s)} f(s) ds

(run from the cutoff backwards for the anticausal side; a causal scan
stops at the last target, past which none of its values is read).  A
first-order linear recurrence is a scan (Blelloch, Prefix Sums and Their
Applications, 1990), so ``recurrence`` evaluates it by cumulative products
and sums over blocks of panels; ``scan`` runs it for one term and every
row of f, for ``exp_integrals`` and the solver alike.  Between two sign
changes of the g^(j), sum_j |g^(j)| is an exponential sum, so
``green_integrals`` takes the same scans at t shifted by them
(``GreenKernel.pieces``).
"""

from __future__ import annotations

import math
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
MAX_PANELS = 2 ** 16  # panels of the rule before refinement
MAX_ADDED_PANELS = 2 ** 16  # panels refinement may add to one rule
SCAN_FLOOR = 1e-150  # least decay product inside one block of ``recurrence``

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
    at the last edge (anticausal).

    S_{k+1} = d_k S_k + p_k is scanned in blocks of equal width, all at
    once.  In a block entered with S_b, the first decay only carries
    S_b in, and with D_k = d_{b+1} ... d_k (D_b = 1),

        S_{k+1} = D_k (d_b S_b + sum_{j=b}^{k} p_j / D_j).

    The width keeps every D within [SCAN_FLOOR, 1 / SCAN_FLOOR] even if
    every decay were the farthest from 1, so p_j / D_j cannot overflow;
    a decay that underflowed to 0 makes the width 1, a plain step.  Only
    the values carried from block to block are a loop.
    """
    if not causal:
        panel_sums, decay = panel_sums[::-1], decay[::-1]
    count = len(decay)
    low, high = decay.min(initial=1.0), decay.max(initial=1.0)
    span = max(-math.log(low) if low > 0 else math.inf, math.log(high))
    width = max(1, min(count, int(-math.log(SCAN_FLOOR) / span)
                       if span else count))
    rows = -(-count // width)
    prod = np.ones(rows * width)
    prod[:count] = decay
    sums = np.zeros(rows * width)
    sums[:count] = panel_sums
    prod, sums = prod.reshape(rows, width), sums.reshape(rows, width)
    first = prod[:, 0].copy()
    prod[:, 0] = 1.0
    np.cumprod(prod, axis=1, out=prod)
    part = np.cumsum(sums / prod, axis=1)
    # S at a block's end is gain * S_b + base
    gain = prod[:, -1] * first
    base = prod[:, -1] * part[:, -1]
    entry = [start]
    for g, b in zip(gain.tolist(), base.tolist()):
        entry.append(g * entry[-1] + b)
    out = np.empty(count + 1)
    out[0] = start
    out[1:] = (prod * ((first * entry[:-1])[:, None] + part)).ravel()[:count]
    return out if causal else out[::-1]


@dataclass(frozen=True)
class _Sampled:
    """f on a panel rule whose edges include every target."""

    edges: np.ndarray  # (panels + 1,)
    points: np.ndarray  # (panels, order)
    weights: np.ndarray  # (panels, order)
    values: np.ndarray  # f at points, (rows, panels, order)
    targets: np.ndarray  # indices of the targets among the edges


def _subdivide(lo: float, hi: float, width: float, last: float,
               tail_cap: float, room: int) -> list[float]:
    """Interior edges splitting [lo, hi]; beyond ``last`` the width may
    grow with the distance from it, up to ``tail_cap``.  A split that
    needs more than ``room`` of them raises QuadratureFailure instead."""
    if hi <= last:
        count = int(np.ceil((hi - lo) / width))
        if count - 1 <= room:
            return list(np.linspace(lo, hi, count + 1)[1:-1])
    else:
        out = []
        x = lo
        while len(out) <= room:
            x += min(tail_cap, max(width, TAIL_GROWTH * (x - last)))
            if x >= hi - 0.5 * width:
                return out
            out.append(x)
    raise QuadratureFailure(f"panel rule needs more than {MAX_PANELS} "
                            f"panels by the end of [{lo}, {hi}]")


def _sample(f, t, t0: float, terms, rate: float, tol: float) -> _Sampled:
    """Build the panel rule for targets t and evaluate f on it once.

    The rule covers [t0, cut]: cut is the largest target when every term
    is causal, otherwise the tail cutoff of the anticausal terms, probed
    on f's largest row past the last target, where each term is largest.
    No causal value is read past the last target, so the anticausal terms
    alone size the panels there.  More than MAX_PANELS panels raise
    QuadratureFailure.
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
            return kernel * float(np.max(np.abs(f(s))))

        cut = tail_cutoff(probe, last, rate, tol)

    def exp_cap(group):  # PANEL_EXP_WIDTH e-foldings of the fastest term
        fastest = max((abs(term.gamma) for term in group), default=0.0)
        return PANEL_EXP_WIDTH / fastest if fastest > 0 else np.inf

    width = min(PANEL_WIDTH, exp_cap(terms))
    tail_cap = exp_cap(anti)

    # sorted and deduplicated (np.unique would import numpy.ma)
    marks = np.sort(np.concatenate(([t0, cut], t)))
    marks = marks[np.concatenate(([True], np.diff(marks) > 0))]
    edges = [marks[0]]
    for lo, hi in zip(marks[:-1], marks[1:]):
        room = MAX_PANELS - len(edges)  # interior edges still allowed
        edges.extend(_subdivide(lo, hi, width, last, tail_cap, room))
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
    """Split every panel on which some row of f is not resolved.

    f is smooth between the breakpoints the callers know of, unless it
    has a kink of its own (a coefficient mass |Omega_alpha(mu, r(s))|
    whose Omega_alpha changes sign).  A row passes a panel when the rules
    on the panel and on its halves agree to tol, relative to the larger
    of the row's int |f| on the panel and the panel's width times the
    row's mean |f|, or to within the panel's share of the absolute budget
    TAIL_SAFETY * tol over the whole rule; a panel some row fails is
    halved and checked again.

    The absolute budget is what resolves a row that is zero in exact
    arithmetic, such as Omega_0(lambda_i, r) when e^{lambda_i t} solves
    the equation exactly: its values are round-off, the two rules never
    agree relative to the row's own size, and "resolved" means that the
    row's whole integral is below TAIL_SAFETY * tol, the error already
    allowed for the tail cut off.  Refinement that would add more than
    MAX_ADDED_PANELS panels raises QuadratureFailure, naming a row that is
    not resolved and the t-range of the panels it fails on.
    Returns the edges, points, weights and f values of the passed panels.
    """
    def sample(lo, hi):
        pts, wts = _gauss(lo, hi)
        vals = np.asarray(f(pts.ravel()), dtype=float)
        rows = vals.shape[:-1] or (1,)
        vals = np.broadcast_to(vals, rows + (pts.size,))
        return pts, wts, vals.reshape(rows + pts.shape)

    lo, hi = edges[:-1], edges[1:]
    pts, wts, vals = sample(lo, hi)
    if not len(lo):
        return edges, pts, wts, vals
    mean = np.abs(wts * vals).sum(axis=(1, 2)) / (edges[-1] - edges[0])
    budget = TAIL_SAFETY * tol / (edges[-1] - edges[0])
    added = 0
    done = []
    for _ in range(MAX_SPLITS):
        mid = (lo + hi) / 2
        left, right = sample(lo, mid), sample(mid, hi)
        whole = (wts * vals).sum(axis=2)
        halves = sum((w * v).sum(axis=2) for _, w, v in (left, right))
        size = sum(np.abs(w * v).sum(axis=2) for _, w, v in (left, right))
        passed = np.abs(whole - halves) <= np.maximum(
            tol * np.maximum(size, (hi - lo) * mean[:, None]),
            budget * (hi - lo))
        ok = passed.all(axis=0)
        done.append((lo[ok], pts[ok], wts[ok], vals[:, ok]))
        if ok.all():
            break
        bad = ~ok
        added += bad.sum()  # each failed panel becomes two
        if added > MAX_ADDED_PANELS:
            row = np.flatnonzero(~passed.all(axis=1))[0]
            raise QuadratureFailure(
                f"integrand row {row} not resolved on "
                f"[{lo[bad].min()}, {hi[bad].max()}] within "
                f"{MAX_ADDED_PANELS} added panels"
            )
        lo = np.concatenate((lo[bad], mid[bad]))
        hi = np.concatenate((mid[bad], hi[bad]))
        # panels are the second-to-last axis of points, weights and values
        pts, wts, vals = (np.concatenate((a[..., bad, :], b[..., bad, :]),
                                         axis=-2) for a, b in zip(left, right))
    else:
        raise QuadratureFailure(
            f"integrand not resolved after {MAX_SPLITS} panel splits"
        )
    starts = np.concatenate([part[0] for part in done])
    pts, wts, vals = (np.concatenate(parts, axis=-2)
                      for parts in list(zip(*done))[1:])
    order = np.argsort(starts, kind="stable")
    edges = np.append(starts[order], edges[-1])
    return edges, pts[order], wts[order], vals[:, order]


def exp_integrals(f, t, t0: float, terms, rate: float,
                  tol: float) -> np.ndarray:
    """int e^{gamma (t - s)} f_row(s) ds for every row of f (first axis;
    one for an f of one value per s), every term (second axis) and every
    target in the scalar or array t, from one scan per term.

    ``rate`` is the decay rate that turns the probed integrand into a
    tail bound; a tail that never gets below TAIL_SAFETY * tol raises
    QuadratureFailure.  So does a value at a target that is not finite:
    a growing weight, such as a causal term with gamma > 0, may overflow.
    """
    flat = np.ravel(t)
    smp = _sample(f, flat, t0, terms, rate, tol)
    last = smp.targets.max()  # no causal value past it is read
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.stack([
            scan(*exp_weights(smp.edges[:stop + 1], smp.points[:stop],
                              smp.weights[:stop], term.gamma, term.causal),
                 term.causal, smp.values[:, :stop])[:, smp.targets]
            for term in terms
            for stop in [last if term.causal else len(smp.points)]
        ], axis=1)  # (rows, terms, targets)
    bad = ~np.isfinite(out).all(axis=(0, 1))
    if bad.any():
        raise QuadratureFailure(
            f"integral at t = {flat[bad][0]} is not finite (overflow)"
        )
    return out.reshape(out.shape[:2] + np.shape(t))


def scan(weights, decay, causal: bool, values,
         start: float = 0.0) -> np.ndarray:
    """One term's integral at every panel edge for every row of values,
    shape (rows, panels, order), from the term's ``exp_weights``."""
    sums = np.einsum("pg,rpg->rp", weights, values)
    return np.array([recurrence(row, decay, causal, start) for row in sums])


def integral(f, lo: float, hi, tol: float):
    """int_lo^hi f(s) ds for scalar or array hi >= lo."""
    return exp_integrals(f, hi, lo, [ExpTerm(0.0, True)], 1.0, tol)[0, 0]


def green_integrals(kernel: GreenKernel, f, t, t0: float, rate: float,
                    tol: float) -> tuple[np.ndarray, np.ndarray]:
    """For every row of the stacked f(s), shape (rows, len(s)), and every
    target in the scalar or array t, over the kernel support:

        signed[row, j] = int g^(j)(t, s) f_row(s) ds,  j = 0..n-2,
        absolute[row]  = int sum_j |g^(j)(t, s)| f_row(s) ds.

    Both come from one ``exp_integrals`` call at every t - c_k of the
    kernel's ``pieces``: the amplitudes weight the terms at t, W all.
    """
    flat = np.ravel(t)
    amps = np.abs(kernel.amplitudes).sum(axis=0)
    terms = [ExpTerm(gam, causal, float(scale)) for gam, causal, scale
             in zip(kernel.gamma.gamma, kernel.causal, amps)]
    cuts, weights = kernel.pieces
    shifted = flat - cuts[:, None]
    # below t0 a causal integral is empty and W weights no anticausal
    # term, so t0 stands in; t itself stays, so that a target below t0
    # is still rejected
    at = exp_integrals(f, np.where(cuts[:, None] > 0,
                                   np.maximum(shifted, t0), shifted),
                       t0, terms, rate, tol)  # (rows, terms, cuts, targets)
    signed = np.einsum("jl,rlt->rjt", kernel.amplitudes,
                       at[:, :, np.searchsorted(cuts, 0.0)])
    absolute = np.einsum("kl,rlkt->rt", weights, at)
    return (signed.reshape(signed.shape[:2] + np.shape(t)),
            absolute.reshape(absolute.shape[:1] + np.shape(t)))
