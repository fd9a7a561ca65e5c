"""Inputs are a pure function of the seed."""

import filecmp
import os

import numpy as np

from ledger import inputs, workloads


def test_equal_seeds_give_byte_identical_fasta_and_truth(tmp_path):
    a = inputs.make_inputs("S", 3, 40, str(tmp_path / "a"))
    b = inputs.make_inputs("S", 3, 40, str(tmp_path / "b"))
    c = inputs.make_inputs("S", 4, 40, str(tmp_path / "c"))
    assert filecmp.cmp(a.contigs_path, b.contigs_path, shallow=False)
    assert filecmp.cmp(a.reads_path, b.reads_path, shallow=False)
    assert not filecmp.cmp(a.reads_path, c.reads_path, shallow=False)
    assert not filecmp.cmp(a.contigs_path, c.contigs_path, shallow=False)
    assert len(a.reads) == len(c.reads) == 40
    assert a.truth().pair_keys.tobytes() == b.truth().pair_keys.tobytes()


def test_cache_reload_is_the_same_input(tmp_path):
    fresh = inputs.make_inputs("S", 3, 40, str(tmp_path))
    cached = inputs.make_inputs("S", 3, 40, str(tmp_path))
    assert np.array_equal(fresh.reads.buffer, cached.reads.buffer)
    assert fresh.reads.names == cached.reads.names
    assert fresh.reads.metas == cached.reads.metas
    assert all(np.array_equal(x, y) for x, y in zip(fresh.contig_coords, cached.contig_coords))
    assert fresh.truth().pair_keys.tobytes() == cached.truth().pair_keys.tobytes()


def test_contig_tiles_have_exact_coordinates(tmp_path):
    data = inputs.make_inputs("S", 1, 20, str(tmp_path))
    starts, ends, placed = data.contig_coords
    assert placed.all() and (ends - starts == data.contigs.lengths).all()
    assert (starts[1:] >= ends[:-1]).all()  # tiles never overlap
    assert (starts[1:] - ends[:-1] < inputs.CONTIG_MAX_GAP).all()
    assert data.contigs.lengths.min() >= inputs.CONTIG_MIN_BP


def test_cache_keeps_only_recent_sets(tmp_path):
    for seed in range(6):
        inputs.make_inputs("S", seed, 5, str(tmp_path))
    kept = os.listdir(tmp_path / "inputs")
    assert len(kept) == 4 and "S-seed5-r5" in kept


def _context(seed: int, tmp_path) -> workloads.Context:
    return workloads.Context(seed=seed, seconds=3.0, traced=False, smoke=True,
                             out_dir=str(tmp_path))


def test_traffic_and_admin_plans_depend_on_the_seed_only(tmp_path):
    a = workloads._plan_traffic("churn", _context(1, tmp_path))
    b = workloads._plan_traffic("churn", _context(1, tmp_path))
    c = workloads._plan_traffic("churn", _context(2, tmp_path))
    assert a.offsets.tobytes() == b.offsets.tobytes()
    assert a.read_of_send.tobytes() == b.read_of_send.tobytes()
    assert a.offsets.tobytes() != c.offsets.tobytes()
    assert a.offsets.size == c.offsets.size  # same offered load whatever the seed
    ops_a = workloads._plan_admin(_context(1, tmp_path))
    ops_b = workloads._plan_admin(_context(1, tmp_path))
    ops_c = workloads._plan_admin(_context(2, tmp_path))
    assert [op.line for op in ops_a] == [op.line for op in ops_b]
    assert [op.kind for op in ops_a] == [op.kind for op in ops_c]
    assert [op.line for op in ops_a] != [op.line for op in ops_c]
    kinds = [op.kind for op in ops_a]
    assert kinds[:2] == ["add", "probe"] and "flush" in kinds


def test_the_saturation_pool_outgrows_the_cache_and_what_is_in_flight(tmp_path):
    """One cursor walks the pool, so a read returns only after pool - 1 others."""
    ctx = workloads.Context(seed=1, seconds=3.0, traced=False, smoke=False,
                            out_dir=str(tmp_path))
    pool = workloads._plan_traffic("sat", ctx).n_reads
    in_flight = workloads.SAT_CONNECTIONS * workloads.SAT_OUTSTANDING
    assert pool > workloads._serve_default("cache_capacity") + in_flight
