"""The ledger's fixed vocabulary: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the root of the repository is the source for what
the driver gates (workloads, ``end_to_end``, ``per_layer``,
``run_seconds``); this module loads it and adds the one table the driver's
format has no room for: Issue 11's twelve end-to-end metrics, each
reported only by the workloads it means something on.  Changing a name, a
direction or a bound changes what every later PR is judged by — it is
its own change, never part of one that claims a gain.
"""

from __future__ import annotations

import json
import os

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(_ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    _DOC = json.load(_fh)

#: Length of one measured window when ``--seconds`` is not given.
RUN_SECONDS: int = _DOC["run_seconds"]
#: name -> one-line reason the workload exists.
WORKLOADS: dict[str, str] = {w["name"]: w["why"] for w in _DOC["workloads"]}
#: Gated by the driver: every workload reports every one of these, with
#: one definition, and a later PR is rejected when one worsens by more
#: than ``bound`` (a share of the parent's median).
END_TO_END: list[dict] = _DOC["end_to_end"]
#: Ungated layer metrics, ``<layer>.<metric>`` with the layer being the
#: ``src/repro`` package.  Taken from outside, in the traced run.
PER_LAYER: list[dict] = _DOC["per_layer"]

_SERVED = ("serve-paced-M", "serve-sat-M", "serve-churn-M")
_PACED = ("serve-paced-M", "serve-churn-M")
_ALL = ("oneshot-L",) + _SERVED


def _timing(name: str, unit: str, better: str, workloads: tuple[str, ...]) -> dict:
    # Issue 11 fixed every timing bound at 10 %.  None of them agrees with
    # itself within 10 % between two sets of runs of one commit on this
    # host (README, "Noise floor"), so none is gated: compare.py prints
    # their verdicts and never fails on them.
    return {"name": name, "unit": unit, "better": better, "bound": 0.10,
            "absolute": False, "workloads": workloads, "gated": False}


def _driver(name: str) -> dict:
    metric = next(m for m in END_TO_END if m["name"] == name)
    return {**metric, "absolute": False, "workloads": _ALL, "gated": True}


#: Issue 11's twelve end-to-end metrics.  A plain run prints and records
#: each on the workloads listed; ``compare.py`` judges them.  ``bound`` is
#: a share of the parent's median, or a difference when ``absolute``.
LEDGER: list[dict] = [
    _driver("setup_s"),  # at the driver's ceiling of 25 %, not the issue's 10 %
    _timing("index_s", "s", "lower", ("oneshot-L",)),
    _timing("map_reads_per_s", "reads/s", "higher", ("oneshot-L",)),
    _timing("map_p2_reads_per_s", "reads/s", "higher", ("oneshot-L",)),
    _driver("peak_rss_mb"),
    _driver("precision"),
    _driver("recall"),
    _timing("reads_per_s", "reads/s", "higher", ("serve-sat-M",)),
    _timing("p50_ms", "ms", "lower", _PACED),
    _timing("p90_ms", "ms", "lower", _PACED),
    _timing("mutate_ms", "ms", "lower", ("serve-churn-M",)),
    {"name": "failed_frac", "unit": "ratio", "better": "lower", "bound": 0.001,
     "absolute": True, "workloads": _ALL, "gated": True},
]

#: The generator about itself.  Never moved by an optimisation, so not in
#: ``BENCHMARK.json``; printed and recorded in ``history.jsonl`` for the
#: workloads that have a schedule.  A run past these limits is *invalid*
#: (the instrument was the bottleneck), not slow.
LOADGEN: list[dict] = [
    {"name": "loadgen.late_ms_p50", "unit": "ms"},
    {"name": "loadgen.late_ms_p99", "unit": "ms"},
    {"name": "loadgen.cpu_frac", "unit": "ratio"},
    {"name": "loadgen.inputs_s", "unit": "s"},
]
LATE_MS_P50_LIMIT = 1.0
CPU_FRAC_LIMIT = 0.8

#: The paper's Fig. 5 band: a run whose answers fall below fails outright.
QUALITY_FLOOR = 0.95


def units() -> dict[str, str]:
    """name -> unit for every metric the ledger can print."""
    return {m["name"]: m["unit"] for m in LEDGER + PER_LAYER + LOADGEN}


def ledger_metrics(workload: str) -> list[dict]:
    """The end-to-end metrics ``workload`` reports, in the issue's order."""
    return [m for m in LEDGER if workload in m["workloads"]]
