"""MappingService behaviour: determinism, caching, backpressure, drain.

The load-bearing invariant: for any batching, caching or submission
order, the service's per-read results are bit-identical to a sequential
:class:`JEMMapper` over the same reads.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import JEMConfig, JEMMapper, save_index
from repro.errors import (
    SequenceError,
    ServiceClosedError,
    ServiceOverloadError,
)
from repro.service import MappingService, ServiceConfig

CONFIG = JEMConfig(k=12, w=20, ell=500, trials=6, seed=99)


@pytest.fixture
def sequential(tiling_contigs, clean_reads):
    mapper = JEMMapper(CONFIG)
    mapper.index(tiling_contigs)
    return mapper.map_reads(clean_reads)


def assert_same_mapping(actual, expected):
    assert actual.segment_names == expected.segment_names
    assert np.array_equal(actual.subject, expected.subject)
    assert np.array_equal(actual.hit_count, expected.hit_count)


class TestDeterminism:
    def test_bit_identical_to_sequential(self, tiling_contigs, clean_reads, sequential):
        with MappingService.from_contigs(
            tiling_contigs, CONFIG, ServiceConfig(max_batch_size=7)
        ) as service:
            result = service.map_reads(clean_reads)
        assert_same_mapping(result, sequential)
        assert result.infos == sequential.infos

    def test_cache_hits_do_not_change_results(
        self, tiling_contigs, clean_reads, sequential
    ):
        with MappingService.from_contigs(tiling_contigs, CONFIG) as service:
            first = service.map_reads(clean_reads)
            second = service.map_reads(clean_reads)  # all duplicates
            assert service.metrics.cache_hits_total.value == len(clean_reads)
        assert_same_mapping(first, sequential)
        assert_same_mapping(second, sequential)

    def test_from_saved_index_bundle(
        self, tmp_path, tiling_contigs, clean_reads, sequential
    ):
        mapper = JEMMapper(CONFIG)
        mapper.index(tiling_contigs)
        path = save_index(mapper, str(tmp_path / "bundle.npz"))
        with MappingService.from_index(path) as service:
            result = service.map_reads(clean_reads)
        assert_same_mapping(result, sequential)


class TestCachingAndMetrics:
    def test_duplicate_named_differently_still_hits(self, tiling_contigs, clean_reads):
        with MappingService.from_contigs(tiling_contigs, CONFIG) as service:
            a = service.submit("alias_a", clean_reads.codes_of(0)).result(30)
            b = service.submit("alias_b", clean_reads.codes_of(0)).result(30)
            assert service.metrics.cache_hits_total.value >= 1
        assert a.subject == b.subject
        assert a.hit_count == b.hit_count
        assert a.segment_names != b.segment_names  # names re-attached per read

    def test_metrics_account_every_request(self, tiling_contigs, clean_reads):
        with MappingService.from_contigs(tiling_contigs, CONFIG) as service:
            service.map_reads(clean_reads)
            snap = service.metrics.snapshot()
        n = len(clean_reads)
        assert snap["counters"]["requests_total"] == n
        assert snap["counters"]["responses_total"] == n
        assert snap["counters"]["cache_misses_total"] == n
        assert snap["counters"]["batches_total"] >= 1
        assert snap["histograms"]["request_latency_seconds"]["count"] == n
        assert snap["histograms"]["batch_size_reads"]["count"] >= 1
        assert snap["gauges"]["inflight"] == 0

    def test_cache_capacity_zero_disables(self, tiling_contigs, clean_reads):
        with MappingService.from_contigs(
            tiling_contigs, CONFIG, ServiceConfig(cache_capacity=0)
        ) as service:
            service.map_reads(clean_reads)
            service.map_reads(clean_reads)
            assert service.metrics.cache_hits_total.value == 0


class TestAdmissionControl:
    def test_overload_rejects_with_retry_after(self, tiling_contigs, clean_reads):
        release = threading.Event()
        service = MappingService.from_contigs(
            tiling_contigs, CONFIG,
            ServiceConfig(queue_capacity=1, max_batch_size=1),
        )
        original = service._map_misses

        def blocking_map(requests, view):
            release.wait(timeout=30)
            return original(requests, view)

        service._map_misses = blocking_map
        try:
            # first request occupies the scheduler...
            futures = [service.submit(clean_reads.names[0], clean_reads.codes_of(0))]
            deadline = time.monotonic() + 10.0
            while service._queue.depth > 0:  # wait for the scheduler to take it
                assert time.monotonic() < deadline
                time.sleep(0.001)
            # ...the second fills the queue, the third must bounce
            futures.append(service.submit(clean_reads.names[1], clean_reads.codes_of(1)))
            with pytest.raises(ServiceOverloadError) as exc_info:
                service.submit(clean_reads.names[2], clean_reads.codes_of(2))
            assert exc_info.value.retry_after > 0
            assert service.metrics.rejected_total.value == 1
        finally:
            release.set()
            service.drain()
        for future in futures:
            future.result(30)  # accepted requests all complete

    def test_empty_read_rejected_at_submit(self, tiling_contigs):
        with MappingService.from_contigs(tiling_contigs, CONFIG) as service:
            with pytest.raises(SequenceError):
                service.submit("empty", np.empty(0, dtype=np.uint8))


class TestDrain:
    def test_drain_is_idempotent_and_closes_admission(
        self, tiling_contigs, clean_reads
    ):
        service = MappingService.from_contigs(tiling_contigs, CONFIG)
        future = service.submit(clean_reads.names[0], clean_reads.codes_of(0))
        service.drain()
        assert service.drained
        assert future.done()
        future.result(1)
        with pytest.raises(ServiceClosedError):
            service.submit(clean_reads.names[1], clean_reads.codes_of(1))
        service.drain()  # idempotent

    def test_accepted_work_is_never_dropped(self, tiling_contigs, clean_reads):
        service = MappingService.from_contigs(
            tiling_contigs, CONFIG, ServiceConfig(max_batch_size=3)
        )
        futures = [
            service.submit(clean_reads.names[i], clean_reads.codes_of(i))
            for i in range(len(clean_reads))
        ]
        service.drain()
        assert all(f.done() for f in futures)
        assert service.metrics.responses_total.value == len(futures)

