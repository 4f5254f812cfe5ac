"""Config parsing, subcommand orchestration, and output artifacts."""

from __future__ import annotations

import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import coeffs_from_roots
from poincarefp import cli
from poincarefp.cli import (
    EXIT_FAIL,
    EXIT_INDETERMINATE,
    EXIT_OK,
    EXIT_USAGE,
    load_config,
    main,
    run,
)
from poincarefp.errors import ConfigError, QuadratureFailure
from poincarefp.problem import Equation, ProblemSpec
from poincarefp.solver import UNOBSERVED, solve_problem

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

MINIMAL = """\
n = 2
a = [-1, 0]
r = ["0", "0"]
"""

E1 = """\
# golden third-order problem
n = 3
a = [-6, 11, -6]
r = ["1/(1+t)^3", "0", "0"]
t0 = 0.0
t_max = 120.0
grid_points = 120
output_dir = {out}
"""


def write_config(tmp_path, text, name="case.conf"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadConfig:
    def test_minimal_fills_defaults(self, tmp_path):
        config = load_config(write_config(tmp_path, MINIMAL))
        assert config.problem.n == 2
        assert config.problem.a == (-1.0, 0.0)
        assert config.problem.t_max > config.problem.t0
        assert config.problem.eta == 0.9
        assert config.output_dir.name == "out"

    def test_mismatched_lengths_name_the_field(self, tmp_path):
        bad = MINIMAL.replace("n = 2", "n = 3")
        with pytest.raises(ConfigError, match="a"):
            load_config(write_config(tmp_path, bad))

    def test_bad_expression_rejected(self, tmp_path):
        bad = MINIMAL.replace('"0", "0"', '"0", "1+("')
        with pytest.raises(ConfigError, match="expression"):
            load_config(write_config(tmp_path, bad))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown"):
            load_config(write_config(tmp_path, MINIMAL + "bogus = 1\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.conf")

    def test_beta_key_is_unknown(self, tmp_path):
        # the envelope rate is the midpoint of root i's interval; no key
        # overrides it
        with pytest.raises(ConfigError, match=r"unknown config keys: "
                                              r"\['beta_1'\]"):
            load_config(write_config(tmp_path, MINIMAL + "beta_1 = -0.25\n"))

    @pytest.mark.parametrize("text, value", [
        ("[exp(-3 * t)/10, '0']", ["exp(-3 * t)/10", "0"]),
        ('["a, b", [1, 2], -2.5e-3]', ["a, b", "[1, 2]", -2.5e-3]),
        ("out_n2", "out_n2"), (" out/a b ", "out/a b"), ("+1", 1),
        ("1e400", float("inf")), ("True", "True"), ("inf", "inf"),
        ("[]", []),
    ])
    def test_values_are_python_literals_or_text(self, text, value):
        assert cli._parse_value(text) == value

    @pytest.mark.parametrize("src", ["-" * 1500 + "t",
                                     "(" * 300 + "t" + ")" * 300],
                             ids=["minus", "parentheses"])
    def test_deeply_nested_expression_exits_1(self, tmp_path, capsys, src):
        # nested past Python's parser: a bad expression, not a traceback
        text = MINIMAL.replace('["0", "0"]', f'["{src}", "0"]')
        path = write_config(tmp_path, text)
        assert main(["roots", str(path)]) == EXIT_USAGE
        assert "config error: bad expression in r" in capsys.readouterr().err

    def test_unquoted_expressions_load(self, tmp_path):
        text = MINIMAL.replace('["0", "0"]', "[1/(1+t)^3, 0]")
        config = load_config(write_config(tmp_path, text))
        assert config.problem.r_sources == ("1/(1+t)^3", "0")

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        text = "# header\n\n" + MINIMAL + "t0 = 1.0  # trailing\n"
        config = load_config(write_config(tmp_path, text))
        assert config.problem.t0 == 1.0

    def test_golden_config_round_trip(self, tmp_path):
        path = write_config(tmp_path, E1.format(out=tmp_path / "out"))
        config = load_config(path)
        assert config.problem.a == (-6.0, 11.0, -6.0)
        assert config.problem.r_sources[0] == "1/(1+t)^3"


class TestNumericSettings:
    @pytest.mark.parametrize("setting", [
        {"t0": float("nan")}, {"t0": float("-inf")},
        {"t_max": float("inf")}, {"t_max": float("nan")},
        {"tol": 0.0}, {"tol": -1.0}, {"tol": float("nan")},
        {"tol": float("inf")}, {"max_iter": 0}, {"max_iter": -3},
        {"eta": float("inf")},
    ], ids=repr)
    def test_rejected_when_the_problem_is_built(self, setting):
        # at t_max = inf the hypothesis grid would never end, max_iter = 0
        # leaves Picard with no iterate, tol <= 0 or NaN never converges,
        # and no iterate can leave a ball of radius eta = inf
        with pytest.raises(ConfigError):
            ProblemSpec(Equation(2, (-1.0, 0.0)), r_sources=("0", "0"),
                        **setting)

    def test_replaced_r_is_the_r_evaluated(self):
        # the parsed r follows r_sources through dataclasses.replace
        problem = ProblemSpec(Equation(2, (-1.0, 0.0)),
                              r_sources=("1/(1+t)^2", "0"))
        scaled = replace(problem, r_sources=("40/(1+t)^2", "0"))
        assert problem.r_value(0, 0.0) == 1.0
        assert scaled.r_value(0, 0.0) == 40.0
        with pytest.raises(ConfigError,
                           match=r"bad expression in r: '1\+\('"):
            replace(problem, r_sources=("1+(", "0"))

    @pytest.mark.parametrize("line", ["t_max = inf", "tol = -1",
                                      "tol = nan", "max_iter = 0",
                                      "eta = inf"])
    def test_rejected_in_a_config_file(self, tmp_path, line):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, MINIMAL + line + "\n"))

    @pytest.mark.parametrize("lines, message", [
        ("t0 = abc", "t0 must be a number"),
        ("t_max = abc", "t_max must be a number"),
        ("tol = abc", "tol must be a number"),
        ("eta = abc", "eta must be a number"),
        ("grid_points = abc", "grid_points must be an integer"),
        ("max_iter = abc", "max_iter must be an integer"),
        ("t_max = [1, 2]", "t_max must be a number"),
        ("grid_points = 200.5", "grid_points must be an integer"),
        ("max_iter = 1.5", "max_iter must be an integer"),
        ("max_iter = 80.0", "max_iter must be an integer"),
        ('tol = "1e-10"', "tol must be a number"),
        ("n = 9\na = [0, 0, 0, 0, 0, 0, 0, 0, 0]\n"
         'r = ["0", "0", "0", "0", "0", "0", "0", "0", "0"]',
         "n must be in 2..8"),
        # the order and the lengths are checked where the problem is
        # built, with one message each, whatever the value
        ('n = 1\na = [0]\nr = ["0"]', "n must be in 2..8, got 1"),
        ("a = [-1]", "expected 2 coefficients a, got 1"),
        ('r = ["0"]', "expected 2 perturbation expressions, got 1"),
    ], ids=lambda v: v.split("\n")[0])
    def test_malformed_setting_exits_as_a_config_error(self, tmp_path,
                                                       capsys, lines,
                                                       message):
        # later lines override MINIMAL's; no traceback, exit code 1
        path = write_config(tmp_path, MINIMAL + lines + "\n")
        code = main(["roots", str(path), "--output-dir", str(tmp_path)])
        assert code == EXIT_USAGE
        assert f"config error: {message}" in capsys.readouterr().err


class TestSubcommands:
    def test_roots_golden(self, tmp_path, capsys):
        config = load_config(
            write_config(tmp_path, E1.format(out=tmp_path / "out"))
        )
        assert run("roots", config) == EXIT_OK
        out = capsys.readouterr().out
        assert "3.0" in out and "(H1) pass" in out

    def test_roots_repeated_fails(self, tmp_path, capsys):
        text = MINIMAL.replace("[-1, 0]", "[1, -2]")
        config = load_config(write_config(tmp_path, text))
        config.output_dir = tmp_path / "out"
        assert run("roots", config) == EXIT_FAIL

    def test_reduce_writes_table(self, tmp_path):
        config = load_config(
            write_config(tmp_path, E1.format(out=tmp_path / "out"))
        )
        assert run("reduce", config) == EXIT_OK
        text = (tmp_path / "out" / "omega_table.txt").read_text()
        assert "(1, 1) | 3" in text

    def test_solve_trivial_writes_zero_csvs(self, tmp_path):
        text = MINIMAL + f"output_dir = {tmp_path / 'out'}\n"
        config = load_config(write_config(tmp_path, text))
        assert run("solve", config) == EXIT_OK
        for i in (1, 2):
            lines = (
                (tmp_path / "out" / f"z_lambda_{i}.csv")
                .read_text().strip().splitlines()
            )
            assert lines[0] == "t,z"
            values = np.array(
                [float(row.split(",")[1]) for row in lines[1:]]
            )
            assert np.all(values == 0.0)
            cert = (
                tmp_path / "out" / f"certificate_{i}.txt"
            ).read_text()
            assert "iterations = 1" in cert

    def test_check_writes_hypotheses_csv(self, tmp_path):
        text = MINIMAL + f"output_dir = {tmp_path / 'out'}\n"
        config = load_config(write_config(tmp_path, text))
        code = run("check", config)
        assert code in (EXIT_OK, EXIT_FAIL, 3)
        header = (
            (tmp_path / "out" / "hypotheses.csv")
            .read_text().splitlines()[0]
        )
        assert header == "i,quantity,t,value,verdict"

    def test_check_rows_carry_their_own_verdicts(self, tmp_path, capsys):
        # e1_n3: R and L_1 vanish at infinity, but sum_{k>=2} L_k stays
        # near 7, so (R2) fails while every R and L_1 row reads pass
        config = load_config(CONFIGS / "e1_n3.conf")
        config.output_dir = tmp_path
        assert run("check", config) == EXIT_FAIL
        assert capsys.readouterr().out.count("(R2) fail") == 3
        rows = (tmp_path / "hypotheses.csv").read_text().splitlines()[1:]
        cells = [row.split(",") for row in rows]
        by_kind = {}
        for i, quantity, t, value, verdict in cells:
            if quantity == "R" or quantity.startswith("L_"):
                kind = quantity if quantity in ("R", "L_1") else "L_k"
                by_kind.setdefault(kind, set()).add(verdict)
        assert by_kind == {"R": {"pass (numerical)"},
                           "L_1": {"pass (numerical)"}, "L_k": {"fail"}}
        assert [cell[4] for cell in cells if cell[:3] == ["1", "R", "128.0"]
                ] == ["pass (numerical)"]

    def test_check_on_a_window_shorter_than_one(self, tmp_path, capsys):
        # the hypothesis grid starts at t0 + 1: R2 and R3 have no sample,
        # so they read indeterminate, and the H1 and phi1 rows remain
        text = MINIMAL.replace('"0", "0"', '"exp(-t)", "0"')
        path = write_config(tmp_path, text + "t_max = 0.5\n")
        code = main(["check", str(path), "--output-dir", str(tmp_path)])
        assert code == EXIT_INDETERMINATE
        out = capsys.readouterr().out
        assert out.count("(R2) indeterminate: no sample point") == 2
        assert out.count("(R3) indeterminate: no sample point") == 2
        lines = (tmp_path / "hypotheses.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["1", "H1"], ["1", "phi1"], ["2", "H1"], ["2", "phi1"]]

    @pytest.mark.parametrize("roots", [
        (30.0, 1.0, -1.0, -30.0),
        (10.0, 1.0, -1.0, -10.0),
        (1.0, 0.999, -1.0),
        (4.0, 3.0, 2.0, 1.0, -1.0, -2.0, -3.0, -4.0),
    ], ids=["spread-30", "spread-10", "near-pair", "n8"])
    def test_check_reads_r3_indeterminate_on_every_root(self, tmp_path,
                                                        capsys, roots):
        # every sigma_gamma is infinite by derivation, so (R3) cannot be
        # decided on any root; a quadrature once read overflowed sigmas
        # as finite ("fail"), a near-zero gamma as a finite 6820, and
        # overflowed at n = 8.  (R2) still fails, so check exits 2.
        n = len(roots)
        a = ", ".join(repr(float(v)) for v in coeffs_from_roots(roots))
        r = ", ".join(['"1/(2*(1+t)^4)"'] + ['"0"'] * (n - 1))
        path = write_config(tmp_path, f"n = {n}\na = [{a}]\nr = [{r}]\n"
                            "t_max = 160.0\n")
        code = main(["check", str(path), "--output-dir", str(tmp_path)])
        assert code == EXIT_FAIL
        out = capsys.readouterr().out
        assert out.count("(R3) indeterminate: phi1 = ") == n
        sigma = [line.split(",")[3:] for line in
                 (tmp_path / "hypotheses.csv").read_text().splitlines()
                 if ",sigma(" in line]
        assert sigma == [["inf", "divergent"]] * (n * (n - 1))

    def test_unknown_subcommand(self, tmp_path):
        config = load_config(write_config(tmp_path, MINIMAL))
        with pytest.raises(ConfigError):
            run("bogus", config)


WORST = [
    ((), EXIT_OK),
    (("pass",), EXIT_OK),
    (("indeterminate",), EXIT_INDETERMINATE),
    (("fail",), EXIT_FAIL),
    (("pass", "indeterminate"), EXIT_INDETERMINATE),
    (("pass", "fail"), EXIT_FAIL),
    (("indeterminate", "fail"), EXIT_FAIL),
    (("pass", "indeterminate", "fail"), EXIT_FAIL),
]


class TestExitCode:
    @pytest.mark.parametrize("statuses, code", WORST, ids=[
        "-".join(statuses) or "none" for statuses, _ in WORST])
    def test_worst_status_decides(self, statuses, code):
        assert cli.exit_code(statuses) == code
        assert cli.exit_code(statuses[::-1]) == code
        assert cli.exit_code(statuses * 2) == code

    def test_a_qualified_status_is_not_a_status(self):
        with pytest.raises(ValueError):
            cli.exit_code(["pass", "pass (numerical)"])

    @pytest.mark.parametrize("text, code", [
        ((CONFIGS / "e1_n3.conf").read_text(), EXIT_FAIL),
        # R3 is indeterminate on every problem, and so is each root's
        # contraction ratio, which one zero difference does not measure;
        # every other diagnostic passes
        (MINIMAL, EXIT_INDETERMINATE),
        # check alone exits 3 here, but verify fails derivative_ratio
        (MINIMAL.replace('"0", "0"', '"exp(-t)", "0"') + "t_max = 0.5\n",
         EXIT_FAIL),
    ], ids=["e1_n3", "unperturbed", "short-window"])
    def test_all_folds_the_statuses_of_check_and_verify(
            self, tmp_path, capsys, text, code):
        path = write_config(tmp_path, text)
        got = main(["all", str(path), "--output-dir", str(tmp_path)])
        out = capsys.readouterr().out
        n = load_config(path).problem.n
        check = re.findall(r"^lambda_\d+: \(R[123]\) (\w+)", out, re.M)
        assert len(check) == 3 * n
        lines = (tmp_path / "diagnostics.csv").read_text().splitlines()
        verify = [line.rsplit(",", 1)[1] for line in lines[1:]]
        assert got == cli.exit_code(check + verify) == code


class TestEndToEnd:
    def test_all_on_golden_produces_artifacts(self, tmp_path):
        out = tmp_path / "out"
        config = load_config(write_config(tmp_path, E1.format(out=out)))
        code = run("all", config)
        # hypothesis verdicts on the golden problem are adverse by
        # construction; the chain must still finish and emit everything
        assert code in (EXIT_OK, EXIT_FAIL, 3)
        for name in (
            "omega_table.txt",
            "hypotheses.csv",
            "z_lambda_1.csv",
            "z_lambda_2.csv",
            "z_lambda_3.csv",
            "certificate_1.txt",
            "diagnostics.csv",
        ):
            assert (out / name).is_file(), name
        diag = (out / "diagnostics.csv").read_text()
        assert "wronskian_ratio" in diag

    def test_all_solves_each_root_once(self, tmp_path, monkeypatch):
        calls = []

        def counting_solve(problem, i):
            calls.append(i)
            return solve_problem(problem, i)

        monkeypatch.setattr(cli, "solve_problem", counting_solve)
        config = load_config(write_config(tmp_path, MINIMAL))
        config.output_dir = tmp_path / "out"
        run("all", config)
        assert sorted(calls) == [1, 2]
        # a later stage on the same problem reuses the solves
        calls.clear()
        run("verify", config)
        assert calls == []
        # a replaced problem is solved again, even an equal one
        config.problem = replace(config.problem)
        run("verify", config)
        assert sorted(calls) == [1, 2]
        # verify on its own still solves
        calls.clear()
        fresh = load_config(write_config(tmp_path, MINIMAL))
        fresh.output_dir = tmp_path / "fresh"
        run("verify", fresh)
        assert sorted(calls) == [1, 2]

    def test_all_derives_the_algebra_once(self, tmp_path, monkeypatch):
        # one spectrum, one Omega table, one set of P_j, one shifted
        # spectrum, Green kernel and solve per root, one parse per r
        # expression and one solver panel rule, however many stages and
        # roots read them, in one call of `all` or stage by stage
        from poincarefp import (chebgrid, exprparse, green, reduction,
                                solver, spectral)

        counts = dict.fromkeys(("table", "polys", "spectrum", "shift",
                                "kernel", "solve", "parse", "panels"), 0)

        def count_calls(key, owner, name):
            """Count calls of owner.name, also through every poincarefp
            module that imported it by name."""
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)
            for modname, module in list(sys.modules.items()):
                if modname.startswith("poincarefp") and \
                        getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, wrapper)

        count_calls("table", reduction.OmegaTable, "__post_init__")
        count_calls("polys", reduction, "build_derivative_polynomials")
        count_calls("spectrum", spectral, "char_poly_coeffs")
        count_calls("shift", spectral, "shift_spectrum")
        count_calls("kernel", green, "build_kernel")
        count_calls("solve", solver, "solve_problem")
        count_calls("parse", exprparse, "parse_expression")
        count_calls("panels", chebgrid.AnglePanels, "__init__")
        for stages in (["all"], ["roots", "reduce", "check", "solve",
                                 "verify"]):
            counts.update(dict.fromkeys(counts, 0))
            config = load_config(CONFIGS / "spread_n4.conf")
            assert counts["parse"] == config.problem.n == 4
            config.output_dir = tmp_path / stages[0]
            codes = [run(stage, config) for stage in stages]
            assert EXIT_FAIL in codes
            assert counts == {"table": 1, "polys": 1, "spectrum": 1,
                              "shift": 4, "kernel": 4, "solve": 4,
                              "parse": 4, "panels": 1}, stages
        # a problem replaced in its window and its r keeps the equation:
        # it parses its r, builds its panel rule and solves again, but
        # derives no algebra
        counts.update(dict.fromkeys(counts, 0))
        equation = config.problem.equation
        config.problem = replace(config.problem, t0=1.0, r_sources=(
            "1/(4*(1+t)^4)", "0", "0", "0"))
        assert config.problem.equation is equation
        assert run("all", config) == EXIT_FAIL
        assert counts == {"table": 0, "polys": 0, "spectrum": 0,
                          "shift": 0, "kernel": 0, "solve": 4, "parse": 4,
                          "panels": 1}
        # roots prints every shifted spectrum without building a kernel
        counts.update(dict.fromkeys(counts, 0))
        config = load_config(CONFIGS / "spread_n4.conf")
        config.output_dir = tmp_path / "roots"
        assert run("roots", config) == EXIT_OK
        assert (counts["shift"], counts["kernel"]) == (4, 0)

    def test_unmeasured_contraction_is_indeterminate(self, tmp_path, capsys):
        # r = 0: T z = 0 for every z, so each trace is one zero difference
        path = write_config(tmp_path, MINIMAL)
        code = main(["verify", str(path), "--output-dir", str(tmp_path)])
        assert code == EXIT_INDETERMINATE
        rows = (tmp_path / "diagnostics.csv").read_text().splitlines()
        for i in (1, 2):
            assert f"contraction_ratio,{i},,,,1.0,indeterminate" in rows
        printed = capsys.readouterr().out
        assert printed.count("INDETERMINATE contraction_ratio i=") == 2
        assert f"i=1: {UNOBSERVED}" in printed

    def test_verify_passes_on_golden(self, tmp_path):
        out = tmp_path / "out"
        config = load_config(write_config(tmp_path, E1.format(out=out)))
        assert run("verify", config) == EXIT_OK

    def test_envelope_failure_leaves_the_other_rows(self, tmp_path, capsys):
        # roots (30, 1, -1, -30): lambda_3's envelope overflows at
        # t = 50.8; its row reads indeterminate and every other row of
        # every root is still written, the failing ones included
        text = ("n = 4\na = [900, 0, -901, 0]\n"
                'r = ["1/(2*(1+t)^4)", "0", "0", "0"]\nt_max = 160\n')
        path = write_config(tmp_path, text)
        code = main(["all", str(path), "--output-dir", str(tmp_path)])
        assert code == EXIT_FAIL
        out = capsys.readouterr().out
        assert ("INDETERMINATE envelope_stability i=3: integral at "
                "t = 50.83333333333333 is not finite (overflow)") in out
        lines = (tmp_path / "diagnostics.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 25 and all(len(row) == 7 for row in rows)
        assert sum(row[-1] == "fail" for row in rows) == 7
        assert [row for row in rows if row[-1] == "indeterminate"] == [
            ["envelope_stability", "3", "", "80.0", "", "", "indeterminate"]]

    def test_tail_that_does_not_decay_leaves_the_other_verdicts(
            self, tmp_path, capsys):
        # r_0 = e^{3t}: lambda_2's kernel integrals have no tail cutoff, so
        # its (R2) reads indeterminate with the error as its reason; both
        # roots still print three verdicts and the CSV is written
        text = 'n = 2\na = [-1, 0]\nr = ["exp(3*t)", "0"]\nt_max = 40\n'
        path = write_config(tmp_path, text)
        code = main(["check", str(path), "--output-dir", str(tmp_path)])
        assert code == EXIT_FAIL  # lambda_1's (R2) fails
        verdicts = [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("lambda_")]
        assert [line[:len("lambda_1: (R1)")] for line in verdicts] == [
            f"lambda_{i}: (R{k})" for i in (1, 2) for k in (1, 2, 3)]
        assert verdicts[4] == ("lambda_2: (R2) indeterminate: integrand "
                               "tail at 52.0 is not below 1e-12")
        rows = (tmp_path / "hypotheses.csv").read_text().splitlines()
        assert [row.split(",")[:2] for row in rows if row[0] == "2"] == [
            ["2", "H1"], ["2", "phi1"], ["2", "sigma(2.0)"]]

    def test_indeterminate_envelope_alone_exits_3(self, tmp_path, capsys,
                                                  monkeypatch):
        def overflow(problem, grid, i, beta, window):
            raise QuadratureFailure("envelope overflow")

        monkeypatch.setattr(cli.asymptotics, "envelope_stability", overflow)
        out = tmp_path / "out"
        config = load_config(write_config(tmp_path, E1.format(out=out)))
        assert run("verify", config) == EXIT_INDETERMINATE
        printed = capsys.readouterr().out
        assert "all diagnostics pass" not in printed
        verdicts = [line.rsplit(",", 1)[1] for line in
                    (out / "diagnostics.csv").read_text().splitlines()[1:]]
        assert verdicts.count("indeterminate") == 3
        assert "fail" not in verdicts

    def test_oracle_horizon_stays_in_the_solved_window(self, tmp_path):
        # with t_max - t0 < 10 the dominant root is compared up to t_max
        # too, not against the zero tail beyond the solved window; every
        # sample time is measured from t0, so a later t0 moves them all
        for name, window, end in (("short", "t_max = 8", "8.0"),
                                  ("late_short", "t0 = 20\nt_max = 28",
                                   "28.0"),
                                  ("late", "t0 = 20", "30.0")):
            config = load_config(write_config(tmp_path, MINIMAL + window
                                              + "\n"))
            config.output_dir = tmp_path / name
            run("verify", config)
            diag = config.output_dir / "diagnostics.csv"
            lines = diag.read_text().splitlines()
            header = lines[0].split(",")
            rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
            oracle_t = {row["quantity"]: row["t"] for row in rows
                        if row["quantity"].startswith("oracle_")}
            assert oracle_t == {"oracle_value": end,
                                "oracle_log-derivative": end}, name
            problem = config.problem
            assert all(problem.t0 < float(row["t"]) <= problem.t_max
                       for row in rows if row["t"]), name

    @pytest.mark.parametrize("name", ["decaying_n2", "e1_n3", "spread_n4"])
    def test_determinism_byte_identical(self, tmp_path, name):
        # each shipped config's r depends on t
        outputs = []
        for run_dir in ("a", "b"):
            config = load_config(CONFIGS / f"{name}.conf")
            config.output_dir = tmp_path / run_dir
            assert run("solve", config) == EXIT_OK
            outputs.append({path.name: path.read_bytes()
                            for path in config.output_dir.iterdir()})
        assert len(outputs[0]) == 2 * config.problem.n
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("name", ["e1_n3", "spread_n4"])
    def test_certificates_hold_plain_numbers(self, tmp_path, name):
        config = load_config(CONFIGS / f"{name}.conf")
        config.output_dir = tmp_path
        assert run("solve", config) == EXIT_OK
        certs = sorted(tmp_path.glob("certificate_*.txt"))
        assert len(certs) == config.problem.n
        for path in certs:
            text = path.read_text(encoding="utf-8")
            assert "anticausal tail bounds = " in text
            assert "np." not in text, path.name

    def test_z_csv_cells_are_reprs_of_the_solve(self, tmp_path):
        config = load_config(CONFIGS / "e1_n3.conf")
        config.output_dir = tmp_path
        assert run("solve", config) == EXIT_OK
        for i in (1, 2, 3):
            _, grid, _ = solve_problem(config.problem, i)
            raw = (tmp_path / f"z_lambda_{i}.csv").read_bytes()
            lines = raw.split(b"\r\n")
            assert lines[0] == b"t,z,z1"
            assert lines[-1] == b""  # every line ends in \r\n
            body = [line.decode().split(",") for line in lines[1:-1]]
            assert len(body) == len(grid.nodes)
            for k, cells in enumerate(body):
                assert cells == [repr(float(grid.nodes[k]))] + [
                    repr(float(row[k])) for row in grid.values]

    def test_csv_cells_of_numpy_scalars(self, tmp_path):
        path = tmp_path / "cells.csv"
        cli._write_csv(path, ("a", "b"), map(cli._render, zip(*[
            (np.float64(0.1), np.float32(0.1)),
            (np.int64(3), 3),
            (np.bool_(True), False),
            (float("inf"), "inf"),
            (1e-300, ""),
        ])))
        assert path.read_bytes() == (
            b"a,b\r\n0.1,0.10000000149011612\r\n3,3\r\nTrue,False\r\n"
            b"inf,inf\r\n1e-300,\r\n")

    def test_csv_bytes_equal_csv_writer(self, tmp_path):
        # every kind of cell the stages write, and text csv must quote,
        # as columns of cells and as a numeric array column
        import csv

        rows = [
            (1, "H1", "", np.float64(2.0000000000000013), "pass"),
            (np.int64(2), "sigma(-0.9999999999999991)", 1e-300, "inf",
             "pass (numerical)"),
            (3, "L_2", 128.0, np.float64(-7.450580596923828e-09), "fail"),
            ("", "wronskian_ratio", -1.5e16, float("inf"), np.bool_(False)),
            (4, 'a "quoted", odd\r\ncell', np.float32(0.1), 5e-324, True),
        ]
        values = np.array([0.0, -1.25e-17, 3.0e16, 2.5, 1 / 3])
        written = tmp_path / "cells.csv"
        cli._write_csv(written, ("i", "q", "t", "value", "verdict", "z"),
                       [*map(cli._render, zip(*rows)), cli._render(values)])
        reference = tmp_path / "reference.csv"
        with reference.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("i", "q", "t", "value", "verdict", "z"))
            writer.writerows(
                [cell.item() if isinstance(cell, np.generic) else cell
                 for cell in row] + [z]
                for row, z in zip(rows, values.tolist()))
        assert written.read_bytes() == reference.read_bytes()

    def test_main_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.conf"
        assert main(["roots", str(missing)]) == EXIT_USAGE

    def test_main_roots(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL)
        assert main(["roots", str(path),
                     "--output-dir", str(tmp_path / "o")]) == EXIT_OK
