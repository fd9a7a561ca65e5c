"""Fig. 7 — (a) runtime breakdown by step at p=16; (b) query throughput vs p."""

from conftest import run_once

from repro.bench import exp_fig7
from repro.bench.experiments import P_VALUES


def test_fig7(ctx, benchmark):
    out = run_once(benchmark, exp_fig7, ctx)
    print("\n" + out.text)

    dominant = 0
    for name, b in out.data["breakdown"].items():
        total = sum(b.values())
        assert total > 0
        # query processing is always a major cost component; on runs too
        # small to time reliably (sub-50ms totals of ms-scale steps) only a
        # loose floor is meaningful
        floor = 0.15 if total >= 0.05 else 0.05
        assert b["query_map"] / total > floor, f"{name}: query step negligible: {b}"
        if b["query_map"] == max(b.values()):
            dominant += 1
    # ...and the dominant step on most inputs — the paper's Fig. 7a finding.
    # Query dominance comes from the m >> n regime of full-size inputs; at
    # the tiny default bench scale the per-rank subject-sketching overhead
    # (T trial passes per rank) can win, so the majority requirement is
    # only asserted at >= 1/100 scale.
    n = len(out.data["breakdown"])
    if ctx.scale >= 0.01:
        assert dominant >= (n + 1) // 2, f"query dominant on only {dominant}/{n} inputs"
    else:
        assert dominant >= 1, f"query step never dominant: {out.data['breakdown']}"

    for name, thr in out.data["throughput"].items():
        # throughput grows near-linearly with p: strictly increasing and
        # substantially higher at p=64 than p=4.  Datasets with only a few
        # hundred segments produce sub-millisecond per-rank map times whose
        # noise swamps the trend, so the scaling claim needs enough work.
        values = [thr[p] for p in P_VALUES]
        assert all(v > 0 for v in values)
        if out.data["n_segments"][name] >= 500:
            assert values[-1] > 2.0 * values[0], f"{name}: hardly scales {values}"
            rising = sum(b > a for a, b in zip(values, values[1:]))
            assert rising >= len(values) - 2  # allow one noisy step
