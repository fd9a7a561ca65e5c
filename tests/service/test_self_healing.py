"""Service self-healing: breaker routing and deadline shedding.

The scenario behind the design: every primary batch fails and keeps
failing.  The service must fail the affected batch *typed* (never hang),
flip readiness, open the breaker, keep answering through the degraded
reduced-trial path, and — once the failure clears — recover through one
half-open probe and report it in the metrics.  The failure source is
:func:`failing_batches`: the service's one S4 call raises while a flag
is set.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import pytest
from conftest import serve_fleet, serve_session

from repro import JEMConfig, JEMMapper
from repro.core.hitcounter import count_hits_vectorised
from repro.core.segments import extract_end_segments
from repro.core.store import ColumnarSketchStore
from repro.errors import DeadlineExceededError, ReproError, ServiceError
from repro.service import MappingService, ServiceConfig
from repro.service.health import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.sketch import query_sketch_values

CONFIG = JEMConfig(k=12, w=20, ell=500, trials=6, seed=99)

BREAKER_CFG = ServiceConfig(
    breaker_failures=1,
    breaker_window=4,
    breaker_cooldown_batches=1,
    max_batch_size=4,
    cache_capacity=0,
)


def failing_batches(service: MappingService) -> threading.Event:
    """Make every primary batch of ``service`` raise a typed error while
    the returned flag is set; clearing it heals the service.  Degraded
    batches map on regardless: they do not go through ``_map_misses``."""
    failing = threading.Event()
    failing.set()
    real = service._map_misses

    def map_misses(requests, view):
        if failing.is_set():
            raise ServiceError("injected batch failure")
        return real(requests, view)

    service._map_misses = map_misses
    return failing


class TestCircuitBreakerUnit:
    def test_disabled_breaker_never_routes(self):
        breaker = CircuitBreaker(failure_threshold=0)
        for _ in range(10):
            assert breaker.record_failure() is None
            assert breaker.decide() == "primary"
        assert breaker.state == CLOSED

    def test_opens_at_threshold_within_window(self):
        breaker = CircuitBreaker(window=4, failure_threshold=2)
        assert breaker.record_failure() is None
        assert breaker.record_failure() == "opened"
        assert breaker.state == OPEN

    def test_window_forgets_old_failures(self):
        breaker = CircuitBreaker(window=3, failure_threshold=2)
        breaker.record_failure()
        for _ in range(3):  # pushes the failure out of the window
            breaker.record_success()
        assert breaker.record_failure() is None
        assert breaker.state == CLOSED

    def test_cooldown_then_half_open_probe_recovers(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_batches=2)
        assert breaker.record_failure() == "opened"
        assert breaker.decide() == "degraded"
        assert breaker.decide() == "degraded"
        assert breaker.decide() == "primary"  # the half-open probe
        assert breaker.state == HALF_OPEN
        assert breaker.record_success() == "recovered"
        assert breaker.state == CLOSED

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_batches=1)
        breaker.record_failure()
        breaker.decide()  # degraded cooldown
        assert breaker.decide() == "primary"
        assert breaker.record_failure() == "opened"
        assert breaker.state == OPEN


class TestAdaptiveShedUnit:
    def test_shed_ladder_steps_per_open_and_backs_off_per_recovery(self):
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_batches=1, max_shed_level=3
        )
        assert breaker.shed_level == 0
        assert breaker.record_failure() == "opened"
        assert breaker.shed_level == 1
        breaker.decide()  # degraded cooldown
        assert breaker.decide() == "primary"  # half-open probe
        assert breaker.record_failure() == "opened"  # probe failed: reopen
        assert breaker.shed_level == 2
        breaker.decide()
        breaker.decide()
        assert breaker.record_success() == "recovered"
        assert breaker.shed_level == 1  # one step back per recovery

    def test_shed_level_is_clamped_at_max(self):
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_batches=1, max_shed_level=2
        )
        for _ in range(6):  # open, fail the probe, reopen, ...
            breaker.record_failure()
            breaker.decide()
            breaker.decide()
        assert breaker.shed_level == 2

    def test_max_shed_level_validated(self):
        with pytest.raises(ValueError, match="max_shed_level"):
            CircuitBreaker(max_shed_level=0)


class TestAdaptiveShedEndToEnd:
    def pump(self, service, reads, i):
        """One read through the service, swallowing typed batch failures."""
        try:
            service.submit(f"pump{i}", reads.codes_of(i % len(reads))).result(60)
        except ReproError:
            pass

    def vectorised_oracle(self, config, contigs, reads, t_eff):
        """What a degraded reply must say: sketch + ``count_hits_vectorised``
        over the first ``t_eff`` trials of the index, the family's matching
        slice and ``min_hits`` scaled by the kept fraction."""
        mapper = JEMMapper(config)
        mapper.index(contigs)
        table = ColumnarSketchStore.from_trial_keys(
            [mapper.table.trial_keys(t) for t in range(t_eff)], len(contigs)
        )
        segments, _ = extract_end_segments(reads, config.ell)
        sketches = query_sketch_values(
            segments, config.k, config.w, config.hash_family().trial_slice(0, t_eff)
        )
        return count_hits_vectorised(
            table, sketches.values, query_mask=sketches.has,
            min_hits=max(1, (config.min_hits * t_eff) // config.trials),
        )

    def test_degraded_trials_halve_as_opens_repeat(
        self, tiling_contigs, clean_reads
    ):
        config = replace(CONFIG, min_hits=4)  # scales to 2, then 1, down the ladder
        with MappingService.from_contigs(
            tiling_contigs, config, BREAKER_CFG
        ) as service:
            failing_batches(service)
            assert service.degraded_trials() == CONFIG.trials
            with pytest.raises(ServiceError):
                service.submit("r0", clean_reads.codes_of(0)).result(60)
            # first open: half the trials on the degraded path, and the
            # gauges say so before anything asks for health
            assert service.shed_level == 1
            gauges = service.metrics.snapshot()["gauges"]
            assert gauges["shed_level"] == 1.0
            assert (gauges["breaker_open"], gauges["ready"]) == (1.0, 0.0)
            assert service.degraded_trials() == CONFIG.trials >> 1
            assert service.healthz()["shed_level"] == 1
            assert service.metrics.snapshot()["gauges"]["shed_level"] == 1.0

            # every failed half-open probe steps the ladder again: T/4, ...;
            # each level's degraded answer is checked against the oracle
            for expected in (1, 2, 3):
                i = 0
                while service.shed_level < expected and i < 64:
                    self.pump(service, clean_reads, i)
                    i += 1
                assert service.shed_level == expected
                assert service.degraded_trials() == max(
                    1, CONFIG.trials >> expected
                )
                # the shed degraded path still answers, flagged degraded
                degraded = service.submit(
                    f"shed{expected}", clean_reads.codes_of(1)
                ).result(60)
                assert degraded.degraded is True
                want = self.vectorised_oracle(
                    config, tiling_contigs, clean_reads.subset([1]),
                    service.degraded_trials(),
                )
                assert degraded.subject == tuple(want.subject.tolist())
                assert degraded.hit_count == tuple(want.count.tolist())

    def test_recovery_steps_the_ladder_back_down(
        self, tiling_contigs, clean_reads
    ):
        with MappingService.from_contigs(
            tiling_contigs, CONFIG, BREAKER_CFG
        ) as service:
            failing = failing_batches(service)
            with pytest.raises(ServiceError):
                service.submit("r0", clean_reads.codes_of(0)).result(60)
            i = 0
            while service.shed_level < 2 and i < 64:
                self.pump(service, clean_reads, i)
                i += 1
            assert service.shed_level == 2

            failing.clear()  # the primary path heals
            i = 0
            while service.breaker.state != CLOSED and i < 64:
                self.pump(service, clean_reads, i)
                i += 1
            assert service.breaker.state == CLOSED
            assert service.shed_level == 1  # one recovery = one step down
            # recovered answers are primary-path and exact
            sequential = JEMMapper(CONFIG)
            sequential.index(tiling_contigs)
            expected = sequential.map_reads(clean_reads)
            result = service.map_reads(clean_reads)
            assert list(result.subject) == list(expected.subject)


class TestBreakerEndToEnd:
    def test_dead_pool_opens_breaker_degrades_then_recovers(
        self, tiling_contigs, clean_reads
    ):
        with MappingService.from_contigs(
            tiling_contigs, CONFIG, BREAKER_CFG
        ) as service:
            failing = failing_batches(service)
            # 1. the primary batch raises: its future fails TYPED
            with pytest.raises(ServiceError, match="injected batch failure"):
                service.submit("r0", clean_reads.codes_of(0)).result(60)
            assert service.breaker.state == OPEN
            assert service.metrics.breaker_open_total.value == 1
            health = service.healthz()
            assert health["live"] and not health["ready"]
            assert health["breaker"] == OPEN

            # 2. while open, reads are answered degraded (reduced-trial)
            degraded = service.submit("r1", clean_reads.codes_of(1)).result(60)
            assert degraded.degraded is True
            assert service.metrics.degraded_total.value >= 1
            assert service.breaker.state == OPEN

            # 3. the primary path heals; the half-open probe closes the breaker
            failing.clear()
            recovered = service.submit("r2", clean_reads.codes_of(2)).result(60)
            assert recovered.degraded is False
            assert service.breaker.state == CLOSED
            assert service.metrics.recovered_total.value == 1
            assert service.healthz()["ready"] is True

            # 4. recovered results match the sequential mapper bit for bit
            sequential = JEMMapper(CONFIG)
            sequential.index(tiling_contigs)
            expected = sequential.map_reads(clean_reads)
            result = service.map_reads(clean_reads)
            assert list(result.subject) == list(expected.subject)
            assert list(result.hit_count) == list(expected.hit_count)

    def test_no_request_hangs_under_total_worker_loss(
        self, tiling_contigs, clean_reads
    ):
        with MappingService.from_contigs(
            tiling_contigs, CONFIG, BREAKER_CFG
        ) as service:
            failing_batches(service)
            futures = [
                service.submit(clean_reads.names[i], clean_reads.codes_of(i))
                for i in range(len(clean_reads))
            ]
            outcomes = []
            for future in futures:
                try:
                    outcomes.append(future.result(60))
                except ReproError as exc:  # typed rejection, not a hang
                    outcomes.append(exc)
            assert len(outcomes) == len(clean_reads)

    def test_degraded_results_are_not_cached(self, tiling_contigs, clean_reads):
        cfg = ServiceConfig(
            breaker_failures=1, breaker_cooldown_batches=8, cache_capacity=64,
        )
        with MappingService.from_contigs(tiling_contigs, CONFIG, cfg) as service:
            failing_batches(service)
            with pytest.raises(ServiceError):
                service.submit("r0", clean_reads.codes_of(0)).result(60)
            degraded = service.submit("dup", clean_reads.codes_of(1)).result(60)
            assert degraded.degraded
            assert len(service.cache) == 0
            again = service.submit("dup", clean_reads.codes_of(1)).result(60)
            assert again.degraded and not again.cached


class TestDeadlineShedding:
    def test_expired_request_is_shed_before_dispatch(self, tiling_contigs, clean_reads):
        mapper = JEMMapper(CONFIG)
        mapper.index(tiling_contigs)
        service = MappingService(mapper, ServiceConfig(), auto_start=False)
        doomed = service.submit("late", clean_reads.codes_of(0), deadline_s=0.02)
        fine = service.submit("fine", clean_reads.codes_of(1))
        time.sleep(0.1)  # the deadline expires while still queued
        service.start()
        try:
            with pytest.raises(DeadlineExceededError, match="shed") as info:
                doomed.result(30)
            assert info.value.elapsed >= 0.02
            assert fine.result(30).subject is not None
            assert service.metrics.shed_total.value == 1
            assert service.metrics.errors_total.value == 0
        finally:
            service.drain()

    def test_unexpired_deadline_maps_normally(self, tiling_contigs, clean_reads):
        with MappingService.from_contigs(tiling_contigs, CONFIG) as service:
            mapping = service.submit(
                "r0", clean_reads.codes_of(0), deadline_s=30.0
            ).result(30)
            assert mapping.degraded is False
            assert service.metrics.shed_total.value == 0

    def test_nonpositive_deadline_rejected(self, tiling_contigs, clean_reads):
        with MappingService.from_contigs(tiling_contigs, CONFIG) as service:
            with pytest.raises(ServiceError, match="deadline_s"):
                service.submit("r0", clean_reads.codes_of(0), deadline_s=0.0)


class TestHealthSurface:
    def test_healthz_lifecycle(self, tiling_contigs):
        service = MappingService.from_contigs(tiling_contigs, CONFIG)
        health = service.healthz()
        native = health.pop("native")
        assert health == {
            "live": True, "ready": True, "draining": False,
            "breaker": CLOSED, "shed_level": 0, "queue_depth": 0,
            "index_generation": 0,
        }
        # the fused-kernel surface: availability, thread count, and a
        # recorded reason whenever the native path is off
        assert set(native) == {"available", "threads", "error"}
        assert native["threads"] >= 1
        if not native["available"]:
            assert native["error"]
        assert service.metrics.ready.value == 1.0
        service.drain()
        health = service.healthz()
        assert health["live"] is False and health["ready"] is False
        assert service.metrics.ready.value == 0.0

    def test_protocol_health_op(self, tiling_contigs):
        with serve_fleet(tiling_contigs, CONFIG) as fleet:
            lines = serve_session(fleet, [{"op": "health"}, {"op": "ping"}])
        assert lines[0]["op"] == "health"
        assert lines[0]["live"] is True and lines[0]["ready"] is True
        assert lines[0]["replicas"][0]["breaker"] == CLOSED
        assert lines[1] == {"op": "pong"}
        assert lines[-1]["op"] == "drained"

