"""The four verdicts of ``compare.py``."""

from ledger import compare


def test_within_bound_and_regressed():
    a = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(a, [104.0, 105.0, 103.0, 104.5, 103.5], "lower", 0.10) == "within-bound"
    assert compare.verdict(a, [120.0, 121.0, 119.0, 120.5, 119.5], "lower", 0.10) == "regressed"
    # "higher is better" flips the direction
    assert compare.verdict(a, [80.0, 81.0, 79.0, 80.5, 79.5], "higher", 0.10) == "regressed"


def test_improved_needs_the_pairs_and_the_parents_spread():
    a = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    b = [v - 8.0 for v in a]
    assert compare.verdict(a, b, "lower", 0.10) == "improved"
    assert compare.verdict(a, b, "higher", 0.10) == "within-bound"
    # better median, but it loses 3 of 10 pairs: not a gain
    mixed = b[:7] + [a[7] + 1.0, a[8] + 1.0, a[9] + 1.0]
    assert compare.verdict(a, mixed, "lower", 0.10) == "within-bound"
    # inside the parent's own quartile distance: not a gain either
    wide = [90.0, 110.0, 95.0, 105.0, 100.0, 92.0, 108.0, 97.0, 103.0, 100.0]
    assert compare.verdict(wide, [v - 2.0 for v in wide], "lower", 0.25) == "within-bound"


def test_wide_spread_is_unresolved_unless_the_sides_separate():
    a = [100.0, 140.0, 80.0, 120.0, 90.0]
    assert compare.verdict(a, [110.0, 150.0, 85.0, 125.0, 95.0], "lower", 0.10) == "unresolved"
    assert compare.verdict(a, [50.0, 60.0, 40.0, 55.0, 45.0], "lower", 0.10) == "improved"
    assert compare.verdict(a, [200.0, 260.0, 180.0, 220.0, 190.0], "lower", 0.10) == "regressed"


def test_an_absolute_bound_is_a_difference_not_a_share():
    zeros = [0.0] * 5
    assert compare.verdict(zeros, zeros, "lower", 0.001, absolute=True) == "within-bound"
    assert compare.verdict(zeros, [0.002] * 5, "lower", 0.001, absolute=True) == "regressed"
    assert compare.verdict(zeros, [0.0005] * 5, "lower", 0.001, absolute=True) == "within-bound"


def test_rows_are_selected_by_sha_prefix_or_run_id_and_traced_rows_are_skipped():
    def row(run_id, sha, traced=False, valid=True, p50=10.0):
        return {"run_id": run_id, "git": {"sha": sha}, "traced": traced,
                "workloads": {"serve-paced-M": {"valid": valid,
                                                "metrics": {"p50_ms": p50}}}}
    rows = [row("r1", "abc123"), row("r2", "abc123", traced=True),
            row("r3", "def456", valid=False), row("r4", "def456", p50=14.0),
            {"run_id": "r5", "git": {"sha": None}, "workloads": {}}]
    assert [r["run_id"] for r in compare.select(rows, "abc")] == ["r1"]
    assert [r["run_id"] for r in compare.select(rows, "r4,r1")] == ["r1", "r4"]
    assert compare.samples(compare.select(rows, "def"), "serve-paced-M", "p50_ms") == [14.0]
    records = compare.compare(compare.select(rows, "abc"), compare.select(rows, "def"))
    assert [(r["metric"], r["verdict"]) for r in records] == [("p50_ms", "regressed")]
