"""Golden verdicts of `poincarefp all` on the shipped configs.

Round-off in the solver or the quadrature may move the numbers in the
output files; it must not flip a verdict.  This pins, as recorded before
the panel recurrence became a blocked scan: the exit code, each
certificate's iteration count and converged flag, and every verdict cell
of hypotheses.csv and diagnostics.csv.  Consecutive hypothesis rows of one
quantity and verdict are run together ("x8"), and a sigma row is named
without its rate, whose last digits are round-off.
"""

from __future__ import annotations

import csv
import itertools
import re
from pathlib import Path

import pytest

from poincarefp.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def verdict_record(out: Path, code: int) -> str:
    lines = [f"exit code {code}"]
    for path in sorted(out.glob("certificate_*.txt")):
        text = path.read_text(encoding="utf-8")
        iterations = re.search(r"^iterations = (\d+)$", text, re.M)[1]
        converged = re.search(r"^converged = (\w+)$", text, re.M)[1]
        lines.append(f"{path.stem}: {iterations} iterations, "
                     f"converged = {converged}")
    with open(out / "hypotheses.csv", newline="", encoding="utf-8") as h:
        rows = list(csv.reader(h))[1:]
    for (i, quantity, verdict), run in itertools.groupby(
            rows, key=lambda row: (row[0], row[1].split("(")[0], row[4])):
        lines.append(f"hypotheses {i} {quantity}: {verdict or '-'} "
                     f"x{len(list(run))}")
    with open(out / "diagnostics.csv", newline="", encoding="utf-8") as h:
        rows = list(csv.reader(h))[1:]
    lines += [f"diagnostics {row[1] or '-'} {row[0]}: {row[6]}"
              for row in rows]
    return "\n".join(lines) + "\n"


GOLDEN = {
    "decaying_n2": """\
exit code 2
certificate_1: 5 iterations, converged = True
certificate_2: 5 iterations, converged = True
hypotheses 1 H1: pass x1
hypotheses 1 R: pass (numerical) x7
hypotheses 1 L_1: pass (numerical) x7
hypotheses 1 L_2: pass x7
hypotheses 1 phi1: - x1
hypotheses 1 sigma: divergent x1
hypotheses 2 H1: pass x1
hypotheses 2 R: pass (numerical) x7
hypotheses 2 L_1: pass (numerical) x7
hypotheses 2 L_2: pass x7
hypotheses 2 phi1: - x1
hypotheses 2 sigma: divergent x1
diagnostics 1 contraction_ratio: pass
diagnostics 1 picard_residual: pass
diagnostics 1 ode_residual: pass
diagnostics 1 derivative_ratio: pass
diagnostics 1 oracle_value: pass
diagnostics 1 envelope_stability: fail
diagnostics 2 contraction_ratio: pass
diagnostics 2 picard_residual: pass
diagnostics 2 ode_residual: pass
diagnostics 2 derivative_ratio: pass
diagnostics 2 oracle_log-derivative: fail
diagnostics 2 envelope_stability: fail
diagnostics - wronskian_ratio: pass
""",
    "e1_n3": """\
exit code 2
certificate_1: 11 iterations, converged = True
certificate_2: 12 iterations, converged = True
certificate_3: 8 iterations, converged = True
hypotheses 1 H1: pass x1
hypotheses 1 R: pass (numerical) x8
hypotheses 1 L_1: pass (numerical) x8
hypotheses 1 L_2: fail x8
hypotheses 1 L_3: fail x8
hypotheses 1 phi1: - x1
hypotheses 1 sigma: divergent x2
hypotheses 2 H1: pass x1
hypotheses 2 R: pass (numerical) x8
hypotheses 2 L_1: pass (numerical) x8
hypotheses 2 L_2: fail x8
hypotheses 2 L_3: fail x8
hypotheses 2 phi1: - x1
hypotheses 2 sigma: divergent x2
hypotheses 3 H1: pass x1
hypotheses 3 R: pass (numerical) x8
hypotheses 3 L_1: pass (numerical) x8
hypotheses 3 L_2: fail x8
hypotheses 3 L_3: fail x8
hypotheses 3 phi1: - x1
hypotheses 3 sigma: divergent x2
diagnostics 1 contraction_ratio: pass
diagnostics 1 picard_residual: pass
diagnostics 1 ode_residual: pass
diagnostics 1 derivative_ratio: pass
diagnostics 1 oracle_value: pass
diagnostics 1 envelope_stability: pass
diagnostics 2 contraction_ratio: pass
diagnostics 2 picard_residual: pass
diagnostics 2 ode_residual: pass
diagnostics 2 derivative_ratio: pass
diagnostics 2 oracle_log-derivative: pass
diagnostics 2 envelope_stability: pass
diagnostics 3 contraction_ratio: pass
diagnostics 3 picard_residual: pass
diagnostics 3 ode_residual: pass
diagnostics 3 derivative_ratio: pass
diagnostics 3 oracle_log-derivative: pass
diagnostics 3 envelope_stability: pass
diagnostics - wronskian_ratio: pass
""",
    "spread_n4": """\
exit code 2
certificate_1: 5 iterations, converged = True
certificate_2: 6 iterations, converged = True
certificate_3: 6 iterations, converged = True
certificate_4: 5 iterations, converged = True
hypotheses 1 H1: pass x1
hypotheses 1 R: pass (numerical) x8
hypotheses 1 L_1: pass (numerical) x8
hypotheses 1 L_2: fail x8
hypotheses 1 L_3: fail x8
hypotheses 1 L_4: fail x8
hypotheses 1 phi1: - x1
hypotheses 1 sigma: divergent x3
hypotheses 2 H1: pass x1
hypotheses 2 R: pass (numerical) x8
hypotheses 2 L_1: pass (numerical) x8
hypotheses 2 L_2: fail x8
hypotheses 2 L_3: fail x8
hypotheses 2 L_4: fail x8
hypotheses 2 phi1: - x1
hypotheses 2 sigma: divergent x3
hypotheses 3 H1: pass x1
hypotheses 3 R: pass (numerical) x8
hypotheses 3 L_1: pass (numerical) x8
hypotheses 3 L_2: fail x8
hypotheses 3 L_3: fail x8
hypotheses 3 L_4: fail x8
hypotheses 3 phi1: - x1
hypotheses 3 sigma: divergent x3
hypotheses 4 H1: pass x1
hypotheses 4 R: pass (numerical) x8
hypotheses 4 L_1: pass (numerical) x8
hypotheses 4 L_2: fail x8
hypotheses 4 L_3: fail x8
hypotheses 4 L_4: fail x8
hypotheses 4 phi1: - x1
hypotheses 4 sigma: divergent x3
diagnostics 1 contraction_ratio: pass
diagnostics 1 picard_residual: pass
diagnostics 1 ode_residual: pass
diagnostics 1 derivative_ratio: pass
diagnostics 1 oracle_value: pass
diagnostics 1 envelope_stability: pass
diagnostics 2 contraction_ratio: pass
diagnostics 2 picard_residual: pass
diagnostics 2 ode_residual: pass
diagnostics 2 derivative_ratio: pass
diagnostics 2 oracle_log-derivative: pass
diagnostics 2 envelope_stability: pass
diagnostics 3 contraction_ratio: pass
diagnostics 3 picard_residual: pass
diagnostics 3 ode_residual: pass
diagnostics 3 derivative_ratio: pass
diagnostics 3 oracle_log-derivative: fail
diagnostics 3 envelope_stability: pass
diagnostics 4 contraction_ratio: pass
diagnostics 4 picard_residual: pass
diagnostics 4 ode_residual: pass
diagnostics 4 derivative_ratio: pass
diagnostics 4 oracle_log-derivative: fail
diagnostics 4 envelope_stability: pass
diagnostics - wronskian_ratio: pass
""",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_all_keeps_every_verdict(tmp_path, capsys, name):
    code = main(["all", str(CONFIGS / f"{name}.conf"),
                 "--output-dir", str(tmp_path)])
    capsys.readouterr()
    assert verdict_record(tmp_path, code) == GOLDEN[name]
