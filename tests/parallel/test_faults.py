"""Fault matrix: crash / straggler / worker-death on the multiprocessing
backend.  The invariant under test: any *recoverable* fault plan yields a
mapping bit-identical to the sequential JEMMapper's."""

import numpy as np
import pytest

from repro.core import JEMConfig, JEMMapper
from repro.errors import FaultError, PartialResultError, ReproError
from repro.parallel import (
    FaultPlan,
    FaultSpec,
    RecoveryReport,
    RetryPolicy,
    map_reads_multiprocess,
)

CFG = JEMConfig(k=12, w=20, ell=500, trials=6, seed=21)
POLICY = RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.005)


@pytest.fixture(scope="module")
def world():
    from repro.seq import SequenceSet, SequenceSetBuilder, decode, random_codes

    rng = np.random.default_rng(99)
    genome = random_codes(15_000, rng)
    contigs = []
    pos = 0
    i = 0
    while pos < genome.size:
        end = min(pos + 1_500, genome.size)
        contigs.append((f"c{i}", decode(genome[pos:end])))
        pos = end
        i += 1
    builder = SequenceSetBuilder()
    for j in range(12):
        start = int(rng.integers(0, genome.size - 4_000))
        builder.add(f"r{j}", genome[start : start + 4_000])
    return SequenceSet.from_strings(contigs), builder.build()


@pytest.fixture(scope="module")
def expected(world):
    contigs, reads = world
    mapper = JEMMapper(CFG)
    mapper.index(contigs)
    return mapper.map_reads(reads)


def assert_identical(got, want):
    assert np.array_equal(got.subject, want.subject)
    assert np.array_equal(got.hit_count, want.hit_count)
    assert got.segment_names == want.segment_names


# -- multiprocessing backend ---------------------------------------------------

MP_PLANS = {
    "crash_sketch": [FaultSpec("crash", "sketch", 0, times=1)],
    "crash_map": [FaultSpec("crash", "map", 1, times=2)],
    "straggler": [FaultSpec("straggler", "map", 0, times=1, delay=0.05)],
}


@pytest.mark.parametrize("name", sorted(MP_PLANS))
def test_mp_fault_matrix(world, expected, name):
    contigs, reads = world
    plan = FaultPlan(MP_PLANS[name])
    report = RecoveryReport()
    got = map_reads_multiprocess(
        contigs, reads, CFG, processes=2, mp_context="fork",
        faults=plan, retry=POLICY, timeout=30.0, report=report,
    )
    assert_identical(got, expected)
    assert report.partial is None
    assert plan.total_fired > 0


def test_mp_worker_death_redispatch(world, expected):
    """A worker that dies hard (os._exit) is noticed via the unit timeout
    and its block re-dispatched; output stays bit-identical."""
    contigs, reads = world
    plan = FaultPlan([FaultSpec("worker_death", "sketch", 0, times=1)])
    report = RecoveryReport()
    got = map_reads_multiprocess(
        contigs, reads, CFG, processes=2, mp_context="fork",
        faults=plan, retry=POLICY, timeout=2.0, report=report,
    )
    assert_identical(got, expected)
    assert report.redispatches >= 1
    assert report.recovery_seconds > 0


def test_mp_unrecoverable_strict_raises(world):
    contigs, reads = world
    plan = FaultPlan([FaultSpec("crash", "map", 1, times=None, unit_scoped=True)])
    with pytest.raises(PartialResultError) as excinfo:
        map_reads_multiprocess(
            contigs, reads, CFG, processes=2, mp_context="fork",
            faults=plan, retry=POLICY, timeout=30.0,
        )
    assert len(excinfo.value.failed_reads) > 0


def test_mp_unrecoverable_degrades_gracefully(world, expected):
    from repro.parallel.partition import partition_set

    contigs, reads = world
    plan = FaultPlan([FaultSpec("crash", "map", 1, times=None, unit_scoped=True)])
    report = RecoveryReport()
    got = map_reads_multiprocess(
        contigs, reads, CFG, processes=2, mp_context="fork",
        faults=plan, retry=POLICY, timeout=30.0, strict=False, report=report,
    )
    lost = tuple(partition_set(reads, 2)[1].names)
    assert report.partial is not None
    assert report.partial.failed_reads == lost
    assert len(got) == len(expected) - 2 * len(lost)


# -- retry policy --------------------------------------------------------------

def test_retry_schedule_deterministic():
    policy = RetryPolicy(max_attempts=4, base_delay=0.1, jitter=0.5, seed=7)
    assert list(policy.delays(stream=3)) == list(policy.delays(stream=3))
    assert list(policy.delays(stream=3)) != list(policy.delays(stream=4))


def test_retry_jitter_from_explicit_generator():
    """Two policies built from same-seed Generators share one schedule."""
    make = lambda: RetryPolicy(  # noqa: E731 - tiny local factory
        max_attempts=4, base_delay=0.1, jitter=0.5,
        rng=np.random.default_rng(42),
    )
    a, b = make(), make()
    for stream in range(4):
        assert list(a.delays(stream=stream)) == list(b.delays(stream=stream))
    other = RetryPolicy(max_attempts=4, base_delay=0.1, jitter=0.5,
                        rng=np.random.default_rng(43))
    assert list(a.delays()) != list(other.delays())


def test_retry_seed_and_rng_are_mutually_exclusive():
    with pytest.raises(ReproError, match="not both"):
        RetryPolicy(seed=5, rng=np.random.default_rng(1))


def test_retry_backoff_grows_and_caps():
    policy = RetryPolicy(max_attempts=5, base_delay=0.1, backoff=2.0,
                         max_delay=0.25, jitter=0.0)
    assert list(policy.delays()) == [0.1, 0.2, 0.25, 0.25]


def test_retry_call_recovers_and_chains_cause():
    from repro.parallel import retry_call

    calls = []

    def flaky(attempt):
        calls.append(attempt)
        if attempt < 2:
            raise FaultError("boom")
        return "ok"

    policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
    result, attempts, recovery = retry_call(flaky, policy=policy)
    assert result == "ok" and attempts == 3 and calls == [0, 1, 2]

    def hopeless(attempt):
        raise FaultError("always")

    with pytest.raises(FaultError) as excinfo:
        retry_call(hopeless, policy=policy)
    assert isinstance(excinfo.value.__cause__, FaultError)  # root cause kept


def test_fault_plan_consume_is_scoped():
    plan = FaultPlan([
        FaultSpec("crash", "map", 1, times=1),                    # rank-scoped
        FaultSpec("crash", "map", 2, times=None, unit_scoped=True),
    ])
    # rank-scoped: fires on the executing rank, not on re-dispatch (-1)
    assert plan.consume("map", block=1, exec_rank=1)
    assert not plan.consume("map", block=1, exec_rank=1)  # budget spent
    # unit-scoped: follows block 2 to any executor
    assert plan.consume("map", block=2, exec_rank=0)
    assert plan.consume("map", block=2, exec_rank=-1)
    # other phases untouched
    assert not plan.consume("sketch", block=2, exec_rank=2)


@pytest.mark.parametrize(
    "kind, phase, times, match",
    [
        ("corrupt", "gather", 1, "kind"),
        ("crash", "gather", 1, "phase"),
        ("crash", "map", 0, "times"),
    ],
    ids=["retired_kind", "retired_phase", "zero_times"],
)
def test_fault_spec_validation(kind, phase, times, match):
    with pytest.raises(ReproError, match=match):
        FaultSpec(kind, phase, 0, times=times)
