"""Output check, independent of ``lqpower``.

Reads the CSV files an operation wrote and verifies them against the
scenario from ``workloads.py``, with its own plain forward recursion for the
exact expected cost:

    C(p) = sum_t (q + r k^2 pi_t) m_t + sum_t p_t,   pi_t = exp(-theta/p_t),
    m_0 = E[x_1^2],   m_{t+1} = (a^2 + (b^2 k^2 + 2abk) pi_t) m_t + sigma_d2.

For every policy file: T rows, powers in [0, p_max], a silent terminal slot,
and a success column matching the powers.  Every cost the program reports
for a policy must match the recomputed one to ``COST_RTOL``; every Monte
Carlo mean must lie within ``MC_Z`` standard errors of the exact cost.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

COST_RTOL = 1e-9
MC_Z = 6.0
PI_ATOL = 1e-12


class CheckError(Exception):
    """An output file is missing, malformed or wrong."""


def theta(ch: dict) -> float:
    return ch["gamma"] * ch["sigma2"] / ch["gbar"]


def exact_cost(sys: dict, ch: dict, powers, m0: float) -> float:
    """Exact expected combined cost of a power schedule."""
    th = theta(ch)
    c = sys["b"] ** 2 * sys["k"] ** 2 + 2.0 * sys["a"] * sys["b"] * sys["k"]
    rk2 = sys["r"] * sys["k"] ** 2
    a2 = sys["a"] ** 2
    m = m0
    cost = 0.0
    for p in powers:
        pi = math.exp(-th / p) if p > 0 else 0.0
        cost += (sys["q"] + rk2 * pi) * m + p
        m = (a2 + c * pi) * m + sys["sigma_d2"]
    return cost


def read_csv(path: Path, header: list[str]) -> list[dict]:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except FileNotFoundError:
        raise CheckError(f"missing output {path.name}") from None
    if not rows or rows[0] != header:
        got = rows[0] if rows else None
        raise CheckError(f"{path.name}: header {got}, expected {header}")
    for r in rows[1:]:
        if len(r) != len(header):
            raise CheckError(f"{path.name}: row {r} has {len(r)} fields")
    return [dict(zip(header, r)) for r in rows[1:]]


def _num(row: dict, key: str, path: Path) -> float:
    try:
        return float(row[key])
    except (KeyError, TypeError, ValueError):
        raise CheckError(f"{path.name}: bad {key} in row {row}") from None


def check_policy(path: Path, sc) -> tuple[list[float], float]:
    """Validate a policy file; returns its powers and their exact cost."""
    rows = read_csv(path, ["t", "p", "pi"])
    if len(rows) != sc.T:
        raise CheckError(f"{path.name}: {len(rows)} slots, expected T = {sc.T}")
    p_max, th = sc.ch["p_max"], theta(sc.ch)
    powers = []
    for t, row in enumerate(rows, start=1):
        if row["t"] != str(t):
            raise CheckError(f"{path.name}: slot {row['t']!r} at row {t}")
        p, pi = _num(row, "p", path), _num(row, "pi", path)
        if not 0.0 <= p <= p_max:
            raise CheckError(f"{path.name}: p_{t} = {p} outside [0, {p_max}]")
        want_pi = math.exp(-th / p) if p > 0 else 0.0
        if abs(pi - want_pi) > PI_ATOL:
            raise CheckError(f"{path.name}: pi_{t} = {pi}, power implies {want_pi}")
        powers.append(p)
    if powers[-1] != 0.0:
        raise CheckError(f"{path.name}: terminal slot transmits (p = {powers[-1]})")
    return powers, exact_cost(sc.sys, sc.ch, powers, sc.ex2_1)


def check_cost(reported: float, exact: float, what: str) -> None:
    if not abs(reported - exact) <= COST_RTOL * abs(exact):
        raise CheckError(f"{what}: reported cost {reported!r}, exact {exact!r}")


def check_mc(mean: float, se: float, exact: float, what: str) -> None:
    if not (math.isfinite(mean) and se > 0 and math.isfinite(se)):
        raise CheckError(f"{what}: Monte Carlo mean {mean}, std err {se}")
    z = (mean - exact) / se
    if abs(z) > MC_Z:
        raise CheckError(f"{what}: Monte Carlo mean {mean} is {z:+.2f} std errs "
                         f"from the exact cost {exact}")


def _final_trace_cost(path: Path) -> float:
    rows = read_csv(path, ["iteration", "cost"])
    if not rows:
        raise CheckError(f"{path.name}: no rows")
    return _num(rows[-1], "cost", path)


def _check_index(op, key_col: str, header: list[str], parse) -> list[float]:
    path = op.out / "index.csv"
    rows = read_csv(path, header)
    seen = {}
    for row in rows:
        key = parse(row[key_col])
        if key not in op.scenarios:
            raise CheckError(f"{path.name}: unexpected {key_col} {row[key_col]!r}")
        _, exact = check_policy(op.out / row["file"], op.scenarios[key])
        check_cost(_num(row, "cost", path), exact, f"{op.name} {key}")
        seen[key] = exact
    missing = set(op.scenarios) - set(seen)
    if missing:
        raise CheckError(f"{path.name}: no row for {sorted(map(str, missing))}")
    return list(seen.values())


def _check_fig4(op, refs: dict) -> list[float]:
    path = op.out / "comparison.csv"
    rows = read_csv(path, ["T", "cost_proposed", "se_proposed", "cost_full",
                           "se_full", "cost_open", "se_open"])
    if [int(r["T"]) for r in rows] != list(op.scenarios):
        raise CheckError(f"{path.name}: horizons {[r['T'] for r in rows]}")
    for row in rows:
        T = int(row["T"])
        sc = op.scenarios[T]
        p_max = sc.ch["p_max"]
        if T not in refs:
            raise CheckError(f"{op.name}: no reference policy for T = {T}")
        for col, exact in (("proposed", refs[T]),
                           ("full", exact_cost(sc.sys, sc.ch, [p_max] * T, sc.ex2_1)),
                           ("open", exact_cost(sc.sys, sc.ch, [0.0] * T, sc.ex2_1))):
            check_mc(_num(row, f"cost_{col}", path), _num(row, f"se_{col}", path),
                     exact, f"{op.name} T={T} {col}")
    return []


def _check_simulate(op) -> list[float]:
    sc = op.scenarios[""]
    powers, exact = check_policy(op.out / "policy.csv", sc)
    check_cost(_final_trace_cost(op.out / "trace.csv"), exact, op.name)
    path = op.out / "report.csv"
    rows = read_csv(path, ["mean_cost", "std_err", "n_samples"])
    if len(rows) != 1:
        raise CheckError(f"{path.name}: {len(rows)} rows, expected 1")
    if int(rows[0]["n_samples"]) != op.sim["n_samples"]:
        raise CheckError(f"{path.name}: n_samples {rows[0]['n_samples']}")
    # The Monte Carlo draws x_1 itself: its second moment is x1^2 or sigma_x2.
    if op.sim["initial_state"] == "fixed":
        m0 = op.sim["x1"] ** 2
    else:
        m0 = sc.sys["sigma_x2"]
    check_mc(_num(rows[0], "mean_cost", path), _num(rows[0], "std_err", path),
             exact_cost(sc.sys, sc.ch, powers, m0), op.name)
    return [exact]


def check_op(op, refs: dict | None = None) -> list[float]:
    """Verify one operation's outputs; returns the exact cost of every
    policy it wrote.  Raises CheckError on the first problem found."""
    try:
        return _dispatch(op, refs)
    except (ValueError, KeyError, OSError) as exc:
        raise CheckError(f"{op.name}: malformed output: {exc!r}") from None


def _dispatch(op, refs):
    if op.kind == "fig2":
        return _check_index(
            op, "variant",
            ["variant", "cost", "active_slots", "last_active_slot",
             "total_energy", "file"], str)
    if op.kind == "fig3":
        return _check_index(
            op, "sigma_d2",
            ["sigma_d2", "cost", "active_slots", "total_energy", "file"], float)
    if op.kind == "fig4":
        return _check_fig4(op, refs or {})
    if op.kind == "optimize":
        sc = op.scenarios[""]
        _, exact = check_policy(op.out / "policy.csv", sc)
        check_cost(_final_trace_cost(op.out / "trace.csv"), exact, op.name)
        return [exact]
    if op.kind == "simulate":
        return _check_simulate(op)
    raise ValueError(f"unknown operation kind {op.kind!r}")
