"""Kernel quadrature: the scan of the panel recurrence against the exact
recurrence, closed forms, tails, kinks, and agreement with the
adaptive-quadrature oracle on the shipped configs."""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.integrate

from helpers import (
    ScalarModel,
    coeffs_from_roots,
    make_shifted,
    quad_envelope,
    quad_L,
    quad_R,
    quad_sigma,
)
from poincarefp import green, kernelquad
from poincarefp.asymptotics import admissible_beta_interval, envelope
from poincarefp.cli import load_config
from poincarefp.errors import QuadratureFailure
from poincarefp.green import build_kernel
from poincarefp.hypotheses import (
    compute_L,
    compute_R,
    estimate_sigma,
    hypothesis_grid,
    kernel_masses,
)
from poincarefp.problem import Equation, ProblemSpec

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.conf"))
TARGETS = np.array([0.0, 0.5, 1.0, 3.0, 7.5])


def decaying(a):
    return lambda s: np.exp(-a * np.asarray(s, dtype=float))


def agree(got, ref) -> bool:
    return abs(got - ref) <= max(1e-8 * abs(ref), 1e-10)


class TestClosedForms:
    @pytest.mark.parametrize("gamma", [-2.0, -0.5, 0.0, 1.5])
    def test_causal(self, gamma):
        # int_0^t e^{gamma (t - s)} e^{-3 s} ds
        # = (e^{gamma t} - e^{-3 t}) / (gamma + 3)
        got = kernelquad.exp_integrals(
            decaying(3.0), TARGETS, 0.0,
            [kernelquad.ExpTerm(gamma, True)], 1.0, 1e-10,
        )[0, 0]
        expected = (np.exp(gamma * TARGETS) - np.exp(-3 * TARGETS)) / (
            gamma + 3
        )
        assert got == pytest.approx(expected, rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("gamma", [2.0, 0.5, -1.0])
    def test_anticausal(self, gamma):
        # int_t^inf e^{gamma (t - s)} e^{-3 s} ds = e^{-3 t} / (gamma + 3)
        got = kernelquad.exp_integrals(
            decaying(3.0), TARGETS, 0.0,
            [kernelquad.ExpTerm(gamma, False)], gamma + 3.0, 1e-12,
        )[0, 0]
        expected = np.exp(-3 * TARGETS) / (gamma + 3)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_stacked_rows(self):
        # every row of a stacked f gets its own closed form
        rates = np.array([3.0, 1.0])
        got = kernelquad.exp_integrals(
            lambda s: np.outer([1.0, 2.0], np.ones_like(s))
            * np.exp(-np.outer(rates, s)),
            TARGETS, 0.0, [kernelquad.ExpTerm(-0.5, True)], 1.0, 1e-10,
        )
        assert got.shape == (2, 1, len(TARGETS))
        for row, (scale, a) in enumerate(zip([1.0, 2.0], rates)):
            expected = scale * (np.exp(-0.5 * TARGETS)
                                - np.exp(-a * TARGETS)) / (a - 0.5)
            assert got[row, 0] == pytest.approx(expected, rel=1e-13,
                                                abs=1e-15)

    def test_targets_in_any_order(self):
        terms = [kernelquad.ExpTerm(-1.0, True),
                 kernelquad.ExpTerm(1.0, False)]
        ordered = kernelquad.exp_integrals(decaying(1.0), TARGETS, 0.0,
                                           terms, 1.0, 1e-10)
        shuffled = kernelquad.exp_integrals(decaying(1.0), TARGETS[::-1],
                                            0.0, terms, 1.0, 1e-10)
        assert np.array_equal(ordered, shuffled[..., ::-1])

    def test_plain_integral(self):
        # int_0^10 (1 + s)^-2 ds = 1 - 1/11
        got = kernelquad.integral(lambda s: (1.0 + s) ** -2, 0.0, 10.0,
                                  1e-10)
        assert got == pytest.approx(10.0 / 11.0, rel=1e-14)

    def test_target_below_lower_limit_rejected(self):
        with pytest.raises(ValueError):
            kernelquad.integral(decaying(1.0), 1.0, 0.5, 1e-10)


def exact_scan(sums, decay, causal, start):
    """S_{k+1} = d_k S_k + p_k to 40 digits, and the magnitude a rounded
    scan is measured against, M_k = |D S_0| + sum_j |p_j D_k / D_j| with
    D the products of the decays in between."""
    if not causal:
        sums, decay = sums[::-1], decay[::-1]
    with mpmath.workdps(40):
        acc = mpmath.mpf(start)
        mag = abs(acc)
        vals, mags = [float(acc)], [float(mag)]
        for d, p in zip(decay.tolist(), sums.tolist()):
            acc = d * acc + p
            mag = d * mag + abs(p)
            vals.append(float(acc))
            mags.append(float(mag))
    vals, mags = np.array(vals), np.array(mags)
    return (vals, mags) if causal else (vals[::-1], mags[::-1])


def scan_case(kind, length):
    """Seeded panel sums and decays of one kind."""
    rng = np.random.default_rng(length)
    sums = rng.standard_normal(length)
    if kind == "mixed":
        # e^-0.25 per panel on average: the product passes SCAN_FLOOR
        # long before the last panel, so blocks end where S is of its
        # usual size
        return sums, np.exp(-rng.uniform(0.0, 0.5, length))
    if kind == "underflowed":
        # every seventh decay underflowed to 0
        return sums, np.where(np.arange(length) % 7 == 3, np.exp(-800.0),
                              np.exp(-0.01))
    return sums, np.full(length, {"one": 1.0, "slow": np.exp(-0.01),
                                  "fast": np.exp(-40.0)}[kind])


class TestRecurrence:
    @pytest.mark.parametrize("length", [1, 2, 1599])
    @pytest.mark.parametrize("kind", ["one", "slow", "fast", "underflowed",
                                      "mixed"])
    @pytest.mark.parametrize("causal", [True, False],
                             ids=["causal", "anticausal"])
    @pytest.mark.parametrize("start", [0.0, 3.5])
    def test_matches_the_exact_recurrence(self, length, kind, causal,
                                          start):
        sums, decay = scan_case(kind, length)
        got = kernelquad.recurrence(sums, decay, causal, start)
        exact, mag = exact_scan(sums, decay, causal, start)
        assert got.shape == (length + 1,)
        assert got[0 if causal else -1] == start
        eps = np.finfo(float).eps
        assert np.all(np.abs(got - exact) <= 4 * eps * mag)

    def test_long_runs_cross_block_ends(self):
        # two of the cases above end a block with S still in play
        _, mixed = scan_case("mixed", 1599)
        assert np.cumprod(mixed).min() < kernelquad.SCAN_FLOOR
        _, underflowed = scan_case("underflowed", 1599)
        assert 0.0 in underflowed


class TestTail:
    def test_non_decaying_tail_raises(self):
        # e^{-(t - s)} against a constant grows along the anticausal side
        with pytest.raises(QuadratureFailure):
            kernelquad.exp_integrals(
                lambda s: np.ones_like(s), [1.0, 2.0], 0.0,
                [kernelquad.ExpTerm(-1.0, False)], 0.5, 1e-10,
            )

    def test_constant_tail_raises(self):
        with pytest.raises(QuadratureFailure):
            kernelquad.tail_cutoff(lambda s: 1.0, 0.0, 1.0, 1e-10)

    def test_cutoff_meets_budget(self):
        cut = kernelquad.tail_cutoff(lambda s: np.exp(-s), 0.0, 1.0, 1e-10)
        assert np.exp(-cut) < kernelquad.TAIL_SAFETY * 1e-10
        assert np.exp(-cut / 2) >= kernelquad.TAIL_SAFETY * 1e-10


class TestKinks:
    def test_sign_change_of_first_derivative(self):
        # lambda_1 of the golden problem: g = e^{-u} - e^{-2u} keeps its
        # sign, g' = -e^{-u} + 2 e^{-2u} changes it at u = ln 2; the
        # anticausal mirror changes it at u = -ln 2
        causal = build_kernel(make_shifted((-1.0, -2.0)))
        assert causal.sign_changes == pytest.approx((np.log(2.0),),
                                                    rel=1e-13)
        anti = build_kernel(make_shifted((2.0, 1.0)))
        assert anti.sign_changes == pytest.approx((-np.log(2.0),),
                                                  rel=1e-13)

    def test_every_sign_change_is_a_root(self):
        # lambda_1 of spread_n4: three causal terms, and g, g', g'' change
        # sign at three points in all, refined in one bisection.  Near
        # u = 0, g^(j)(u) ~ u^(2-j) / (2-j)!, so no g^(j) crosses there:
        # the rounding noise of the scan's sample at u = 0 is not a sign.
        kernel = build_kernel(make_shifted((-1.0, -3.0, -4.0)))
        assert len(kernel.sign_changes) == 3
        gams = np.asarray(kernel.gamma.gamma)
        for u in kernel.sign_changes:
            terms = kernel.amplitudes * np.exp(gams * u)
            rel = np.abs(terms.sum(axis=1)) / np.abs(terms).sum(axis=1)
            assert rel.min() < 1e-13

    def test_sign_change_near_the_diagonal_still_found(self):
        # the same kernel with every rate scaled by 1000 crosses at 1000
        # times smaller u, the first near 2.3e-4 and the last near 1.5e-3:
        # the noise floor is relative to the terms, so none is lost
        unit = build_kernel(make_shifted((-1.0, -3.0, -4.0)))
        fast = build_kernel(make_shifted((-1e3, -3e3, -4e3)))
        assert len(fast.sign_changes) == 3
        assert fast.sign_changes == pytest.approx(
            [1e-3 * u for u in unit.sign_changes], rel=1e-10)
        # h(v) = x ((1 - x)^2 - delta x^2) with x = e^{-v}: h(0) = -delta
        # is small but no noise, and the root ln(1 + sqrt(delta)) lies
        # between the scan's second and third samples
        delta = 1e-6
        roots = green._sign_changes([1.0, -2.0, 1.0 - delta],
                                    [-1.0, -2.0, -3.0])
        assert roots == pytest.approx([np.log1p(np.sqrt(delta))], rel=1e-10)

    def test_no_sign_change_for_single_term(self):
        assert build_kernel(make_shifted((-2.0,))).sign_changes == ()

    def test_kink_integrated_exactly(self):
        # int_0^t |g(u)| + |g'(u)| du for g = e^{-u} - e^{-2u}:
        # (1 - e^{-t}) - (1 - e^{-2t}) / 2 + 1/2 - e^{-t} + e^{-2t};
        # the signed integrals are those of g and g' alone, and every row
        # of the stacked integrand scales its own integrals
        kernel = build_kernel(make_shifted((-1.0, -2.0)))
        t = np.array([0.3, np.log(2.0), 2.0, 9.0])
        signed, absolute = kernelquad.green_integrals(
            kernel, lambda s: np.outer([1.0, -3.0], np.ones_like(s)), t,
            0.0, 1.0, 1e-10,
        )
        expected = (1 - np.exp(-t)) - (1 - np.exp(-2 * t)) / 2 \
            + 0.5 - np.exp(-t) + np.exp(-2 * t)
        expected[0] = (1 - np.exp(-0.3)) - (1 - np.exp(-0.6)) / 2 \
            + (np.exp(-0.3) - np.exp(-0.6))  # g' > 0 on all of [0, 0.3]
        assert signed.shape == (2, 2, 4) and absolute.shape == (2, 4)
        assert absolute[0] == pytest.approx(expected, rel=1e-13)
        assert absolute[1] == pytest.approx(-3 * expected, rel=1e-13)
        assert signed[0, 0] == pytest.approx(
            (1 - np.exp(-t)) - (1 - np.exp(-2 * t)) / 2, rel=1e-13)
        assert signed[0, 1] == pytest.approx(np.exp(-t) - np.exp(-2 * t),
                                             rel=1e-13)
        assert signed[1] == pytest.approx(-3 * signed[0], rel=1e-13)

    def test_wide_spectrum(self):
        # e^{800 c} at the causal cuts c near 0.55 and 1.1 overflows: the
        # anticausal term's weight there is 0 and must stay 0, not NaN.
        # g^(j)(-1) underflows to 0, so the anticausal side's signs must be
        # read nearer the diagonal, or that side drops out.
        kernel = build_kernel(make_shifted((800.0, -1.0, -3.0)))
        cuts, weights = kernel.pieces
        assert np.isfinite(weights).all()
        assert not weights[cuts > 0, 0].any()
        t = 3.0
        _, absolute = kernelquad.green_integrals(
            kernel, lambda s: np.exp(-s)[None], [t], 0.0, 1.0, 1e-10)

        def total(s):
            return np.exp(-s) * sum(abs(kernel.derivative(t, s, j))
                                    for j in range(kernel.n - 1))

        breaks = sorted(t - c for c in cuts)
        ref = sum(scipy.integrate.quad(total, lo, hi, epsabs=0,
                                       epsrel=1e-12, limit=200)[0]
                  for lo, hi in zip([0.0] + breaks, breaks + [t + 1.0]))
        assert absolute[0, 0] == pytest.approx(ref, rel=1e-9)

    def test_kink_of_the_integrand_is_split_out(self):
        # |s - 1.3| has a kink no breakpoint knows of
        got = kernelquad.integral(lambda s: np.abs(s - 1.3), 0.0, 3.0,
                                  1e-10)
        assert got == pytest.approx((1.3 ** 2 + 1.7 ** 2) / 2, rel=1e-10)

    def test_sign_changing_coefficient_mass(self):
        # M_1 = |r_1| = |0.5 - e^{-s}| has a kink at s = ln 2
        problem = ProblemSpec(Equation(2, (-1.0, 0.0)),
                              r_sources=("0", "0.5 - exp(-t)"), t_max=64.0,
                              grid_points=64)
        model = ScalarModel(problem, 1)
        for t in (1.0, 2.0, 4.0):
            got = compute_L(problem, 1, t, 1)
            assert agree(got, quad_L(model, t, 1))


class TestMemory:
    def test_kernel_masses_peak_grows_slower_than_targets(self):
        # the kernel integrals come out of one scan per term at every
        # t - c_k; no array of kernel values at targets x points is formed
        problem = load_config(ROOT / "configs" / "spread_n4.conf").problem

        def peak(count):
            t = np.linspace(problem.t0, problem.t_max, count)
            tracemalloc.start()
            try:
                kernel_masses(problem, 1, t)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(8)  # the kernel's cached sign changes and pieces
        assert peak(64) < 4 * peak(8)


def round_off(s):
    """A row that is zero in exact arithmetic: its values are round-off."""
    s = np.asarray(s, dtype=float)
    return np.exp(s / 3) * np.exp(-s / 3) - 1.0


class TestBoundedRefinement:
    def test_round_off_row_resolved_by_the_absolute_budget(self):
        got = kernelquad.integral(round_off, 0.0, 100.0, 1e-10)
        assert abs(got) < kernelquad.TAIL_SAFETY * 1e-10

    def test_round_off_row_without_budget_hits_the_panel_cap(
            self, monkeypatch):
        # without the absolute budget the row never agrees with itself;
        # the panel cap turns that into a named failure, not MemoryError
        monkeypatch.setattr(kernelquad, "TAIL_SAFETY", 0.0)
        with pytest.raises(QuadratureFailure,
                           match=r"row 0 not resolved on \[0\.0, 100\.0\]"):
            kernelquad.integral(round_off, 0.0, 100.0, 1e-10)

    def test_kink_of_the_coefficient_mass_still_splits(self, monkeypatch):
        # M_1 = |0.5 - e^{-s}| has a kink at s = ln 2 that only the
        # relative test can see
        problem = ProblemSpec(Equation(2, (-1.0, 0.0)),
                              r_sources=("0", "0.5 - exp(-t)"), t_max=64.0,
                              grid_points=64)
        resolve = kernelquad._resolve
        added = []

        def counted(f, edges, tol):
            out = resolve(f, edges, tol)
            added.append(len(out[0]) - len(edges))
            return out

        monkeypatch.setattr(kernelquad, "_resolve", counted)
        compute_L(problem, 1, 2.0, 1)
        assert max(added) > 0

    def test_exact_solution_runs_through_every_stage(self, tmp_path):
        # e^{3t}, (1+t) e^{2t} and e^t solve this equation exactly, so
        # Omega_0 of lambda_1 and lambda_3 is a round-off row; the child's
        # address space is capped so that a regression fails here instead
        # of exhausting the machine
        config = tmp_path / "exact.conf"
        config.write_text(
            "n = 3\n"
            "a = [-6, 11, -6]\n"
            'r = ["-3/(1+t)", "4/(1+t)", "-1/(1+t)"]\n'
            "t_max = 220\n"
            "grid_points = 200\n",
            encoding="utf-8",
        )
        script = (
            "import resource, sys\n"
            "cap = 2 * 1024 ** 3\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
            "from poincarefp.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        # one BLAS thread, so that the cap does not depend on the cores
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", script, "all", str(config),
             "--output-dir", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode in (0, 2), proc.stdout + proc.stderr
        assert "error:" not in proc.stderr, proc.stderr
        assert (tmp_path / "out" / "diagnostics.csv").exists()
        # no eta is configured: lambda_2's sup norm of 0.56 lies inside
        # the default ball
        certificate = tmp_path / "out" / "certificate_2.txt"
        assert certificate.read_text(encoding="utf-8").splitlines()[0] == \
            "invariance radius eta = 0.9 (default)"


class TestInitialRule:
    def test_rule_past_the_cap_is_a_named_failure(self):
        # 5e11 panels of width 2: refused before any edge is made, so the
        # failure is named instead of a MemoryError
        with pytest.raises(QuadratureFailure, match=(
                r"more than 65536 panels by the end of "
                r"\[0\.0, 1000000000000\.0\]")):
            kernelquad.integral(decaying(0.0), 0.0, 1e12, 1e-10)

    def test_tail_panels_are_sized_by_the_anticausal_terms(self):
        # one fast causal and one slow anticausal term: past the last
        # target only the slow term is read, so its width sizes the tail
        terms = [kernelquad.ExpTerm(-2.0, True), kernelquad.ExpTerm(1e-4,
                                                                   False)]
        smp = kernelquad._sample(decaying(1.0), np.array([1.0, 4.0]), 0.0,
                                 terms, 1.0, 1e-10)
        tail = np.diff(smp.edges[smp.edges >= 4.0])
        assert tail.max() > 8.0 / 2.0  # wider than the causal term allows

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="VmHWM is read from /proc")
    def test_close_roots_check_stays_small(self, tmp_path):
        # roots (1, 0.9999, -1): lambda_2's anticausal term decays at
        # 1e-4, so the tail runs to 4e5.  Sized by the causal -1.9999 it
        # took 100 062 panels and 558 MB; the peak is read as VmHWM, which
        # unlike ru_maxrss does not carry over the parent's fork
        a = ", ".join(repr(float(v))
                      for v in coeffs_from_roots((1.0, 0.9999, -1.0)))
        config = tmp_path / "close.conf"
        config.write_text(f"n = 3\na = [{a}]\n"
                          'r = ["1/(2*(1+t)^4)", "0", "0"]\nt_max = 160\n',
                          encoding="utf-8")
        script = (
            "import re, sys\n"
            "from poincarefp.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "status = open('/proc/self/status').read()\n"
            "print(code, re.search(r'VmHWM:\\s+(\\d+) kB', status)[1])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", script, "check", str(config),
             "--output-dir", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        code, peak_kb = proc.stdout.splitlines()[-1].split()
        assert code == "2"  # (R2) fails on every root
        assert int(peak_kb) < 200 * 1024


    def test_causal_scans_stop_at_the_last_target(self, monkeypatch):
        # roots (1, 0.9999, -1): lambda_2's tail runs to 4e5 for its slow
        # anticausal term, and its fast causal decay e^{-1.9999 h}
        # underflows to 0 on the wide tail panels.  No causal value past
        # the last target is read, so no causal scan goes there.
        a = tuple(float(v) for v in coeffs_from_roots((1.0, 0.9999, -1.0)))
        problem = ProblemSpec(Equation(3, a),
                              r_sources=("1/(2*(1+t)^4)", "0", "0"),
                              t_max=160.0)
        grid = np.array(hypothesis_grid(problem))
        rules, scans = [], []
        sample, scan = kernelquad._sample, kernelquad.scan

        def sample_spy(*args, **kwargs):
            rules.append(sample(*args, **kwargs))
            return rules[-1]

        def scan_spy(weights, decay, causal, *args, **kwargs):
            scans.append((causal, decay))
            return scan(weights, decay, causal, *args, **kwargs)

        monkeypatch.setattr(kernelquad, "_sample", sample_spy)
        monkeypatch.setattr(kernelquad, "scan", scan_spy)
        got = kernel_masses(problem, 2, grid)
        monkeypatch.undo()
        (smp,) = rules
        last = smp.targets.max()
        assert smp.edges[last] == grid.max()
        assert sorted((causal, len(decay)) for causal, decay in scans) == [
            (False, len(smp.points)), (True, last)]
        causal_decay = next(decay for causal, decay in scans if causal)
        assert causal_decay.min() > 0.0  # no width-1 blocks in its scan
        # rows R, L_1, L_2, L_3 at t = 1, 2, 4, ..., 128, as computed by
        # causal scans over the whole rule
        reference = [
            [0.07081330151474907, 0.01856567828882915,
             0.0019241054623719313, 0.0001897823692210603,
             2.2059075670285962e-05, 2.651808312222277e-06,
             3.241144020876593e-07, 3.9943902362625405e-08],
            [0.0] * 8,
            [25004.74215489616, 25005.181005337625, 25005.248442659846,
             25005.24970069629, 25005.249701118628, 25005.24970111862,
             25005.249701118602, 25005.249701118577],
            [5001.1484769189765, 5001.236250518214, 5001.249738522178,
             5001.249990139532, 5001.249990224002, 5001.2499902240015,
             5001.249990223999, 5001.249990223994],
        ]
        assert got.tolist() == [pytest.approx(row, rel=1e-13, abs=0)
                                for row in reference]

@pytest.fixture(scope="module", params=CONFIGS, ids=lambda p: p.stem)
def shipped(request):
    return load_config(request.param).problem


class TestAgainstQuadOracle:
    def test_R_and_L(self, shipped):
        problem = shipped
        grid = np.array(hypothesis_grid(problem))
        bad = []
        for i in range(1, problem.n + 1):
            model = ScalarModel(problem, i)
            got = compute_R(problem, i, grid)
            bad += [("R", i, t) for t, v in zip(grid, got)
                    if not agree(v, quad_R(model, t))]
            for k in range(1, problem.n + 1):
                got = compute_L(problem, i, grid, k)
                bad += [(f"L_{k}", i, t) for t, v in zip(grid, got)
                        if not agree(v, quad_L(model, t, k))]
        assert not bad

    def test_sigma(self, shipped):
        # every sigma is derived divergent; the oracle agrees: its tail
        # does not decay or keeps growing
        problem = shipped
        grid = hypothesis_grid(problem)
        for i in range(1, problem.n + 1):
            model = ScalarModel(problem, i)
            shifted = problem.equation.kernels[i - 1].gamma
            assert estimate_sigma(problem, shifted.mu) == np.inf
            for gam in shifted.gamma:
                try:
                    ref = [quad_sigma(model, gam, t) for t in grid[-2:]]
                except QuadratureFailure:
                    continue
                assert ref[1] > 1.1 * ref[0]

    def test_envelope(self, shipped):
        problem = shipped
        # the windows and beta of the verify stage
        lo = min(10.0, problem.t_max / 4)
        hi = min(100.0, problem.t_max / 2)
        ts = np.linspace(lo, min(lo + 2 * (hi - lo), problem.t_max), 25)
        spectrum = problem.equation.spectrum
        for i in range(1, problem.n + 1):
            beta = sum(admissible_beta_interval(spectrum, i)) / 2
            got = envelope(problem, i, beta, ts)
            ref = [quad_envelope(problem, i, beta, t) for t in ts]
            assert all(agree(v, q) for v, q in zip(got, ref))
