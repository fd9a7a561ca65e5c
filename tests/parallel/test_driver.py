import numpy as np
import pytest

from repro.core import JEMConfig, JEMMapper
from repro.errors import CommError
from repro.parallel import CostModel, run_parallel_jem


CFG = JEMConfig(k=12, w=20, ell=500, trials=8, seed=17)


@pytest.fixture
def sequential_result(tiling_contigs, clean_reads):
    mapper = JEMMapper(CFG)
    mapper.index(tiling_contigs)
    return mapper.map_reads(clean_reads)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 7])
def test_parallel_equals_sequential(tiling_contigs, clean_reads, sequential_result, p):
    run = run_parallel_jem(tiling_contigs, clean_reads, CFG, p=p)
    assert np.array_equal(run.mapping.subject, sequential_result.subject)
    assert np.array_equal(run.mapping.hit_count, sequential_result.hit_count)
    assert run.mapping.segment_names == sequential_result.segment_names


def test_segment_infos_globalised(tiling_contigs, clean_reads):
    run = run_parallel_jem(tiling_contigs, clean_reads, CFG, p=3)
    read_indices = [si.read_index for si in run.mapping.infos]
    assert read_indices == [i for r in range(len(clean_reads)) for i in (r, r)]


def test_step_times_recorded(tiling_contigs, clean_reads):
    run = run_parallel_jem(tiling_contigs, clean_reads, CFG, p=4)
    assert run.steps.p == 4
    assert (run.steps.sketch >= 0).all()
    assert (run.steps.map > 0).any()
    assert run.steps.comm_bytes > 0
    assert run.total_time > 0
    # Fig. 7a stacks the breakdown; Table II prints the total
    assert sum(run.steps.breakdown().values()) == run.steps.total_time


def test_comm_bytes_grow_with_table(tiling_contigs, clean_reads):
    small = run_parallel_jem(tiling_contigs, clean_reads, CFG.with_trials(2), p=2)
    big = run_parallel_jem(tiling_contigs, clean_reads, CFG.with_trials(8), p=2)
    assert big.steps.comm_bytes > small.steps.comm_bytes


def test_throughput_positive(tiling_contigs, clean_reads):
    run = run_parallel_jem(tiling_contigs, clean_reads, CFG, p=2)
    assert run.query_throughput > 0
    assert run.n_segments == 2 * len(clean_reads)


def test_invalid_p(tiling_contigs, clean_reads):
    with pytest.raises(CommError):
        run_parallel_jem(tiling_contigs, clean_reads, CFG, p=0)


def test_more_ranks_than_work(tiling_contigs, clean_reads):
    run = run_parallel_jem(tiling_contigs, clean_reads, CFG, p=16)
    seq = JEMMapper(CFG)
    seq.index(tiling_contigs)
    assert np.array_equal(run.mapping.subject, seq.map_reads(clean_reads).subject)


def test_custom_cost_model(tiling_contigs, clean_reads):
    slow_net = CostModel(tau=1.0, mu=1e-3)
    run = run_parallel_jem(tiling_contigs, clean_reads, CFG, p=4, cost_model=slow_net)
    assert run.steps.gather_comm > 1.0
    assert run.steps.comm_fraction > 0.5
