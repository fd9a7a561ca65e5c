import numpy as np
import pytest

from repro.errors import CommError
from repro.parallel import CostModel, StepTimes


def test_allgatherv_p1_free():
    assert CostModel().allgatherv_time(1, 10**9) == 0.0


def test_allgatherv_grows_with_p_and_bytes():
    m = CostModel()
    assert m.allgatherv_time(4, 1000) < m.allgatherv_time(64, 1000)
    assert m.allgatherv_time(8, 1000) < m.allgatherv_time(8, 10**7)


def test_latency_term_log_p():
    m = CostModel(tau=1.0, mu=0.0)
    assert m.allgatherv_time(2, 0) == 1.0
    assert m.allgatherv_time(8, 0) == 3.0
    assert m.allgatherv_time(64, 0) == 6.0


def test_bandwidth_term_scaling():
    m = CostModel(tau=0.0, mu=1e-6)
    t = m.allgatherv_time(4, 1_000_000)
    assert abs(t - 1e-6 * 1_000_000 * 3 / 4) < 1e-9


def test_invalid_constants():
    with pytest.raises(CommError):
        CostModel(tau=-1)
    with pytest.raises(CommError):
        CostModel(io_bandwidth=0)


def test_invalid_p():
    with pytest.raises(CommError):
        CostModel().allgatherv_time(0, 10)


def make_steps():
    return StepTimes(
        load=np.array([1.0, 2.0]),
        sketch=np.array([3.0, 1.0]),
        map=np.array([5.0, 4.0]),
        gather_comm=0.5,
        comm_bytes=1000,
    )


def test_steptimes_makespan():
    s = make_steps()
    assert s.compute_time == 2.0 + 3.0 + 5.0
    assert s.total_time == 10.5
    assert abs(s.comm_fraction - 0.5 / 10.5) < 1e-12


def test_steptimes_breakdown_keys():
    b = make_steps().breakdown()
    assert set(b) == {"input_load", "subject_sketch", "sketch_gather", "query_map"}
    assert b["query_map"] == 5.0
