"""Output checks for benchmark operations.

Two kinds of check:

* reference: on the reference seed, exact integer columns must equal the
  stored table and float columns must agree within FLOAT_RTOL/FLOAT_ATOL;
* invariants, for any seed: count_low <= count_high, counts monotone in
  lambda, embedded bound >= n_ess, sorted fiber eigenvalues below the
  cutoff, phase gap below one, and the rj identity residual at rounding
  level.  fiber eigenvalues are also compared, on a sample, with the
  finite-difference oracle within FD_RTOL.

Every function returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import itertools
import math

FLOAT_RTOL = 1e-6
FLOAT_ATOL = 1e-9
FD_RTOL = 1e-4
RJ_RESIDUAL_RTOL = 1e-9

INT_COLUMNS = {
    "count": {"count_low", "count_high"},
    "embedded": {"n_ess", "bound"},
    "fiber": {"k"},
    "phase": {"count"},
    "rj-identity": set(),
}
# columns that are rounding noise by construction; checked by invariant only
NOISE_COLUMNS = {"rj-identity": {"residual"}}
# column echoing the requested level, and the column that must not decrease
LEVEL_COLUMN = {"count": "lambda", "embedded": "lambda", "phase": "lambda", "rj-identity": "mu"}
MONOTONE_COLUMNS = {
    "count": ("count_low", "count_high"),
    "phase": ("count", "w"),
    "rj-identity": ("rj",),
}


def parse_table(verb: str, text: str) -> list[dict]:
    """Rows of a CSV table as dicts; '#' footer lines are skipped."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines:
        raise ValueError("empty output")
    header = lines[0].split(",")
    ints = INT_COLUMNS[verb]
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"row has {len(cells)} cells, header has {len(header)}")
        row = {}
        for key, cell in zip(header, cells):
            if cell == "":
                row[key] = None
            elif key in ints:
                row[key] = int(cell)
            else:
                row[key] = float(cell)
        rows.append(row)
    return rows


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= FLOAT_ATOL + FLOAT_RTOL * abs(b)


def compare_reference(verb: str, rows: list[dict], ref: list[dict]) -> list[str]:
    if len(rows) != len(ref):
        return [f"{len(rows)} rows, reference has {len(ref)}"]
    problems = []
    skip = NOISE_COLUMNS.get(verb, set())
    for i, (row, want) in enumerate(zip(rows, ref)):
        if set(row) != set(want):
            problems.append(f"row {i}: columns {sorted(row)} != reference {sorted(want)}")
            continue
        for key, expected in want.items():
            got = row[key]
            if key in skip:
                continue
            if expected is None or got is None or key in INT_COLUMNS[verb]:
                ok = got == expected
            else:
                ok = _close(got, expected)
            if not ok:
                problems.append(f"row {i} {key}: {got!r} != reference {expected!r}")
    return problems


def _level_rows(op: dict) -> list[float]:
    params = op["params"]
    if "lam" in params:
        return [params["lam"]]
    lo, hi, points = params["lambda_min"], params["lambda_max"], params["points"]
    # the CLI's default geometric grid
    return [lo * (hi / lo) ** (i / (points - 1)) for i in range(points)]


def invariants(op: dict, rows: list[dict]) -> list[str]:
    """Checks that hold for any seed, on one operation's rows."""
    verb = op["verb"]
    problems = []
    level = LEVEL_COLUMN.get(verb)
    if level is not None:
        want = _level_rows(op)
        got = [row[level] for row in rows]
        if len(got) != len(want) or not all(
            abs(g - w) <= 1e-9 * abs(w) for g, w in zip(got, want)
        ):
            problems.append(f"{level} column {got} does not echo the requested levels")
    for i, row in enumerate(rows):
        if verb == "count":
            if not 0 <= row["count_low"] <= row["count_high"]:
                problems.append(f"row {i}: count_low {row['count_low']} > count_high {row['count_high']}")
        elif verb == "embedded":
            if row["n_ess"] is not None and row["n_ess"] > row["bound"]:
                problems.append(f"row {i}: n_ess {row['n_ess']} exceeds bound {row['bound']}")
        elif verb == "phase":
            if not row["gap"] < 1.0:
                problems.append(f"row {i}: phase gap {row['gap']} >= 1")
        elif verb == "rj-identity":
            if not (row["rj"] > 0 and abs(row["residual"]) <= RJ_RESIDUAL_RTOL * row["rj"]):
                problems.append(f"row {i}: rj {row['rj']} residual {row['residual']}")
    if verb == "fiber":
        values = [row["value"] for row in rows]
        if [row["k"] for row in rows] != list(range(len(rows))):
            problems.append("fiber k column is not 0..N-1")
        if any(b <= a for a, b in zip(values, values[1:])):
            problems.append("fiber eigenvalues are not strictly increasing")
        if values and not (values[0] > 0 and values[-1] < op["params"]["lam"]):
            problems.append(f"fiber eigenvalues outside (0, {op['params']['lam']})")
    problems += monotone(verb, rows)
    return problems


def monotone(verb: str, rows: list[dict]) -> list[str]:
    problems = []
    for key in MONOTONE_COLUMNS.get(verb, ()):
        values = [row[key] for row in rows]
        if any(b < a for a, b in zip(values, values[1:])):
            problems.append(f"{key} decreases with the level: {values}")
    return problems


def series_invariants(ops: list[dict], tables: list) -> list[tuple[int, str]]:
    """Monotonicity across the operations of one series, in level order.

    Returns (operation index, problem) pairs; operations whose output did not
    parse (table None) are left out.
    """
    problems = []
    by_series = {}
    for i, (op, rows) in enumerate(zip(ops, tables)):
        if rows is not None and "lam" in op["params"]:
            by_series.setdefault((op["verb"], op["series"]), []).append((op["params"]["lam"], i, rows))
    for (verb, _), members in by_series.items():
        members.sort()
        merged = list(itertools.chain.from_iterable(rows for _, _, rows in members))
        for problem in monotone(verb, merged):
            problems.append((members[-1][1], "across operations: " + problem))
    return problems


def cross_section_mode(cusp: dict, ell: int, radius: int = 8) -> float:
    """ell-th smallest torus eigenvalue sum_k (2 pi m_k / L_k + omega_k)^2,
    enumerated here independently of the program."""
    axes = [
        [(2.0 * math.pi * m / length + omega) ** 2 for m in range(-radius, radius + 1)]
        for length, omega in zip(cusp["lengths"], cusp["magnetic"])
    ]
    return sorted(sum(terms) for terms in itertools.product(*axes))[ell]


def fd_sample(op: dict, rows: list[dict], model: dict, cuspspec) -> list[str]:
    """Compare the lowest three and the highest listed fiber eigenvalue with
    the program's finite-difference oracle."""
    params = op["params"]
    cusp = model["cusps"][params["cusp"]]
    mu = cross_section_mode(cusp, params["ell"])
    f = cuspspec.FiberPotential.from_cusp(model["dimension"], cusp["delta"], cusp["a"], mu)
    oracle = cuspspec.fd_oracle(f, params["lam"])
    values = [row["value"] for row in rows]
    if abs(len(oracle) - len(values)) > 1:
        return [f"{len(values)} eigenvalues listed, oracle finds {len(oracle)}"]
    problems = []
    for k in sorted({0, 1, 2, len(values) - 1}):
        if 0 <= k < min(len(values), len(oracle)):
            if abs(values[k] - oracle[k]) > FD_RTOL * abs(oracle[k]):
                problems.append(f"eigenvalue {k}: {values[k]!r} vs oracle {oracle[k]!r}")
    return problems
