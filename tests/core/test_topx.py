import numpy as np
import pytest

from repro.core import build_store, count_hits_vectorised
from repro.core.topx import TopHits, count_hits_topx
from repro.errors import MappingError
from repro.sketch import pack_key


def build_table(per_trial_pairs, n_subjects):
    keys = []
    for pairs in per_trial_pairs:
        if pairs:
            v = np.array([p[0] for p in pairs], dtype=np.uint64)
            s = np.array([p[1] for p in pairs], dtype=np.uint64)
            keys.append(np.unique(pack_key(v, s)))
        else:
            keys.append(np.empty(0, dtype=np.uint64))
    return build_store("columnar", keys, n_subjects)


@pytest.fixture
def table():
    # query value 5 collides: subject 1 in 3 trials, subject 0 in 2, subject 2 in 1
    return build_table(
        [
            [(5, 0), (5, 1), (5, 2)],
            [(5, 0), (5, 1)],
            [(5, 1)],
        ],
        n_subjects=3,
    )


def test_ranking(table):
    qv = np.full((3, 1), 5, dtype=np.uint64)
    hits = count_hits_topx(table, qv, x=3)
    assert hits.subjects[0].tolist() == [1, 0, 2]
    assert hits.counts[0].tolist() == [3, 2, 1]


def test_rank0_matches_best_hit(table):
    qv = np.full((3, 1), 5, dtype=np.uint64)
    top = count_hits_topx(table, qv, x=2)
    best = count_hits_vectorised(table, qv)
    assert top.best[0] == best.subject[0]
    assert top.counts[0, 0] == best.count[0]


def test_x_truncates(table):
    qv = np.full((3, 1), 5, dtype=np.uint64)
    hits = count_hits_topx(table, qv, x=1)
    assert hits.x == 1
    assert hits.subjects[0].tolist() == [1]


def test_unused_slots(table):
    qv = np.full((3, 1), 5, dtype=np.uint64)
    hits = count_hits_topx(table, qv, x=5)
    assert hits.subjects[0].tolist() == [1, 0, 2, -1, -1]
    assert hits.counts[0, 3:].tolist() == [0, 0]


def test_no_collisions(table):
    qv = np.full((3, 1), 999, dtype=np.uint64)
    hits = count_hits_topx(table, qv, x=3)
    assert (hits.subjects == -1).all()


def test_query_mask(table):
    qv = np.full((3, 2), 5, dtype=np.uint64)
    hits = count_hits_topx(table, qv, x=2, query_mask=np.array([True, False]))
    assert hits.subjects[0, 0] == 1
    assert (hits.subjects[1] == -1).all()


def test_min_hits(table):
    qv = np.full((3, 1), 5, dtype=np.uint64)
    hits = count_hits_topx(table, qv, x=3, min_hits=2)
    assert hits.subjects[0].tolist() == [1, 0, -1]  # subject 2 had 1 < 2 hits


def test_bad_x(table):
    with pytest.raises(MappingError):
        count_hits_topx(table, np.zeros((3, 1), dtype=np.uint64), x=0)


def test_hit_any():
    hits = TopHits(
        subjects=np.array([[1, 0], [2, -1], [-1, -1]], dtype=np.int64),
        counts=np.array([[3, 1], [2, 0], [0, 0]], dtype=np.int64),
    )
    # truth: query 0 -> subject 0; query 1 -> subject 7
    def truth(q, s):
        return (q == 0) & (s == 0)

    assert hits.hit_any(truth).tolist() == [True, False, False]


def test_recall_at_x_monotone(tiling_contigs, clean_reads):
    """recall@x is non-decreasing in x and >= recall@1."""
    from repro.core import JEMConfig, JEMMapper, extract_end_segments
    from repro.eval import build_benchmark
    from repro.eval.metrics import recall_at_x

    cfg = JEMConfig(k=12, w=20, ell=500, trials=10, seed=1)
    mapper = JEMMapper(cfg)
    mapper.index(tiling_contigs)
    segments, _ = extract_end_segments(clean_reads, cfg.ell)
    # build a truth benchmark from the tiling construction
    genome_len = 20_000
    import numpy as np

    from repro.eval.truth import Benchmark

    # use the standard builder against the known genome
    from repro.seq import random_codes

    rng = np.random.default_rng(12345)
    genome = random_codes(genome_len, rng)
    bench = build_benchmark(segments, tiling_contigs, genome, k=cfg.k)
    recalls = []
    for x in (1, 2, 4):
        hits = mapper.map_segments_topx(segments, x=x)
        recalls.append(recall_at_x(hits, bench))
    assert recalls[0] <= recalls[1] <= recalls[2]
    assert recalls[0] > 0.5
