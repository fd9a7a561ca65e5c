#!/usr/bin/env python3
"""Compare two sets of ledger rows: ``python ledger/compare.py A B``.

``A`` (the parent) and ``B`` (the change) each select rows of
``ledger/history.jsonl`` by git sha prefix or run id; several selectors
may be joined with commas.  Traced rows and workloads marked invalid are
left out.  For every end-to-end metric x workload (``spec.LEDGER``) the
two sides' medians and quartiles are printed with one verdict:

``regressed``     B's median is worse than A's by more than the bound (a
                  share of A's median, or a difference for the metrics
                  whose bound is absolute)
``improved``      B's median is better by more than A's own quartile
                  distance *and* B wins at least nine tenths of the
                  pairs (rows paired in the order they were recorded)
``within-bound``  neither
``unresolved``    a side's spread (quartile distance, as a share of the
                  median unless the bound is absolute) is wider than the
                  bound, so the runs cannot tell — unless every run of
                  one side beats every run of the other, which still
                  counts as ``improved`` / ``regressed``

Exit status is 1 when a gated metric regressed.  The metrics the README
lists as ungated on this host are judged and printed all the same.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(LEDGER_DIR))

from ledger import spec  # noqa: E402 - needs the path line above


def load_rows(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def select(rows: list[dict], selector: str) -> list[dict]:
    """Untraced rows whose run id, or git sha by prefix, a selector names."""
    wanted = [s for s in selector.split(",") if s]
    picked = []
    for row in rows:
        sha = (row.get("git") or {}).get("sha") or ""
        if not row.get("traced") and any(
            row.get("run_id") == s or sha.startswith(s) for s in wanted
        ):
            picked.append(row)
    return picked


def samples(rows: list[dict], workload: str, metric: str) -> list[float]:
    values = []
    for row in rows:
        entry = row.get("workloads", {}).get(workload)
        if entry and entry.get("valid", True) and metric in entry["metrics"]:
            values.append(float(entry["metrics"][metric]))
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str, bound: float,
            absolute: bool = False) -> str:
    """Judge side ``b`` against side ``a`` for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0  # positive change = worse
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = statistics.median(a), statistics.median(b)
    scale_a, scale_b = (1.0, 1.0) if absolute else (abs(med_a), abs(med_b))
    change = sign * (med_b - med_a) / scale_a
    if sign > 0:
        b_always_better = max(b) < min(a)
        b_always_worse = min(b) > max(a)
    else:
        b_always_better = min(b) > max(a)
        b_always_worse = max(b) < min(a)
    spread = max((qa[2] - qa[0]) / scale_a, (qb[2] - qb[0]) / scale_b)
    if spread > bound:
        if b_always_better:
            return "improved"
        if b_always_worse:
            return "regressed"
        return "unresolved"
    if change > bound:
        return "regressed"
    pairs = [(x, y) for x, y in zip(a, b) if x != y]
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if (
        sign * (med_a - med_b) > (qa[2] - qa[0])
        and pairs
        and wins >= 0.9 * len(pairs)
    ):
        return "improved"
    return "within-bound"


def compare(rows_a: list[dict], rows_b: list[dict]) -> list[dict]:
    """One record per end-to-end metric x workload that both sides measured."""
    out = []
    for workload in spec.WORKLOADS:
        for metric in spec.ledger_metrics(workload):
            name = metric["name"]
            a, b = samples(rows_a, workload, name), samples(rows_b, workload, name)
            if not a or not b:
                continue
            out.append({
                "workload": workload, "metric": name, "bound": metric["bound"],
                "absolute": metric["absolute"], "gated": metric["gated"],
                "a": quartiles(a), "b": quartiles(b), "n": (len(a), len(b)),
                "verdict": verdict(a, b, metric["better"], metric["bound"],
                                   metric["absolute"]),
            })
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="parent: git sha prefix(es) or run id(s), comma-joined")
    parser.add_argument("b", help="change: git sha prefix(es) or run id(s), comma-joined")
    parser.add_argument("--history", default=os.path.join(LEDGER_DIR, "history.jsonl"))
    args = parser.parse_args(argv)
    rows = load_rows(args.history)
    rows_a, rows_b = select(rows, args.a), select(rows, args.b)
    if not rows_a or not rows_b:
        print(f"error: {len(rows_a)} row(s) match A, {len(rows_b)} match B",
              file=sys.stderr)
        return 2
    records = compare(rows_a, rows_b)
    print(f"A = {args.a} ({len(rows_a)} rows)   B = {args.b} ({len(rows_b)} rows)")
    print(f"{'workload':<15}{'metric':<20}{'A q1/median/q3':>28}"
          f"{'B q1/median/q3':>28}  {'bound':<10}  verdict")
    for r in records:
        a, b = ("/".join(f"{v:.4g}" for v in r[side]) for side in ("a", "b"))
        bound = f"{r['bound']:g}{' abs' if r['absolute'] else ''}"
        print(f"{r['workload']:<15}{r['metric']:<20}{a:>28}{b:>28}  {bound:<10}"
              f"  {r['verdict']}{'' if r['gated'] else ' (ungated)'}"
              f"  (n={r['n'][0]},{r['n'][1]})")
    return 1 if any(r["gated"] and r["verdict"] == "regressed" for r in records) else 0


if __name__ == "__main__":
    sys.exit(main())
