"""Run poincarefp stages on one config in a fresh interpreter.

    python3 perfbench/child.py CONFIG --stages check,solve --out RESULT.json
        [--trace RUN_ID]

Each stage is the CLI's own stage call (``poincarefp.cli.run``), with its
printed report captured.  RESULT.json holds, per stage, its duration, exit
code, captured output and any exception, plus the monotonic time of the
first stage call (the parent turns it into set-up time), the process's
peak RSS and, with ``--trace``, the recorder's spans, totals and counts.
Stages stop after a failing roots, reduce or solve stage, as in
``poincarefp all``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GATING = {"roots", "reduce", "solve"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("--stages", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", default=None, metavar="RUN_ID")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    rec = None
    if args.trace is not None:
        from instrument import install
        from spans import Recorder

        rec = Recorder(args.trace)
        install(rec)
    from poincarefp import cli

    config = cli.load_config(args.config)
    first_stage = time.monotonic()
    records = []
    for name in args.stages.split(","):
        captured = io.StringIO()
        span = contextlib.nullcontext() if rec is None \
            else rec.span(f"cli.{name}")
        error = None
        code = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), span:
                code = cli.run(name, config)
        except Exception:  # a failed operation: recorded, judged by parent
            error = traceback.format_exc()
        records.append({
            "name": name,
            "seconds": time.perf_counter() - start,
            "code": code,
            "error": error,
            "stdout": captured.getvalue(),
        })
        if error is not None or (code == cli.EXIT_FAIL and name in GATING):
            break
    result = {
        "first_stage": first_stage,
        "stages": records,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": rec.to_json() if rec is not None else None,
    }
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
