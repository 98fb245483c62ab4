"""Regenerate reference.json: `python3 perfbench/make_reference.py`.

Runs every workload once, at both sizes, on the reference seed, through
`cuspspec.cli.main`, and stores the parsed output tables.  Later runs on
the reference seed must reproduce the integer columns exactly and the
float columns within checks.FLOAT_RTOL.  Regenerate only when an output is
meant to change, and say so in the change that does it.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def main() -> int:
    sys.path.insert(0, str(SRC))
    from cuspspec import cli

    work = BENCH / "out" / "reference-models"
    work.mkdir(parents=True, exist_ok=True)
    tables = {"seed": workloads.REFERENCE_SEED}
    for size in workloads.LEVELS:
        tables[size] = {}
        for name in workloads.LEVELS[size]:
            models, ops = workloads.build(name, workloads.REFERENCE_SEED, size)
            paths = {}
            for key, model in models.items():
                paths[key] = work / f"{name}-{size}-{key}.json"
                paths[key].write_text(json.dumps(model, indent=2) + "\n", encoding="utf-8")
            rows_per_op = []
            for op in ops:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    rc = cli.main([op["verb"], str(paths[op["model"]])] + op["args"])
                if rc != 0:
                    print(f"{name}/{size}: {op['verb']} exited {rc}", file=sys.stderr)
                    return 1
                rows = checks.parse_table(op["verb"], out.getvalue())
                problems = checks.invariants(op, rows)
                if problems:
                    print(f"{name}/{size}: {op['verb']}: {problems}", file=sys.stderr)
                    return 1
                rows_per_op.append(rows)
            tables[size][name] = rows_per_op
            print(f"{name}/{size}: {len(ops)} operations", flush=True)
    path = BENCH / "reference.json"
    path.write_text(json.dumps(tables, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
