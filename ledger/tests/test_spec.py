"""``BENCHMARK.json`` obeys the driver's limits; the ledger carries Issue 11's names."""

import re

from ledger import spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_names_units_and_bounds_are_within_the_contract():
    doc = spec._DOC
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
    assert 1 <= doc["run_seconds"] <= 60 and doc["paths"] == ["ledger"]
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])


def test_the_ledger_reports_issue_11s_twelve_metrics_where_they_mean_something():
    assert [m["name"] for m in spec.LEDGER] == [
        "setup_s", "index_s", "map_reads_per_s", "map_p2_reads_per_s", "peak_rss_mb",
        "precision", "recall", "reads_per_s", "p50_ms", "p90_ms", "mutate_ms",
        "failed_frac",
    ]
    reported = {w: {m["name"] for m in spec.ledger_metrics(w)} for w in spec.WORKLOADS}
    for metric in spec.END_TO_END:  # what the driver gates, every workload reports
        assert all(metric["name"] in names for names in reported.values())
    assert "reads_per_s" in reported["serve-sat-M"]
    assert "reads_per_s" not in reported["serve-paced-M"]  # it would be the offered rate
    assert "p50_ms" not in reported["serve-sat-M"]  # it would be 64 / reads_per_s
    assert "mutate_ms" in reported["serve-churn-M"] and "index_s" in reported["oneshot-L"]
    assert set(spec.units()) >= {m["name"] for m in spec.LEDGER + spec.PER_LAYER}
