"""Serve-chaos harness: fleet torture mid-load with a byte-parity gate.

One cycle = reference stream (undisturbed single service) → storm (kills
and wedges fired against a supervised scatter fleet while the same reads
stream through it) → recovery (fleet healthy again, scatter throughput
restored, zero shm leaks).  The report's ``ok`` is the gate, taken at 3
replicas on the tiny tiling world and, for seeds 1–3, on ``ci_world``,
the simulated E. coli set.
"""

from __future__ import annotations

import pytest
from chaos_harness import ChaosError, ServeChaosEvent, ServeChaosPlan, run_serve_chaos

from repro import JEMConfig
from repro.core.engine import read_sequences
from repro.seq.io_fasta import read_fasta

CONFIG = JEMConfig(k=12, w=20, ell=500, trials=6, seed=99)


class TestServeChaosPlan:
    def test_seeded_plans_are_replayable(self):
        a = ServeChaosPlan.seeded(7, n_replicas=3, total_reads=20)
        b = ServeChaosPlan.seeded(7, n_replicas=3, total_reads=20)
        assert a == b
        assert 1 <= len(a.events) <= 2
        for event in a.events:
            assert event.kind in ("kill", "wedge")
            assert 0 <= event.replica < 3
            assert 1 <= event.after_mapped < 20
        # triggers are sorted so the injector fires them in stream order
        marks = [e.after_mapped for e in a.events]
        assert marks == sorted(marks)

    def test_distinct_seeds_draw_distinct_plans(self):
        plans = {ServeChaosPlan.seeded(s, n_replicas=3, total_reads=20)
                 for s in range(8)}
        assert len(plans) > 1

    def test_bad_specs_are_rejected(self):
        with pytest.raises(ChaosError, match="unknown serve chaos kind"):
            ServeChaosEvent(kind="meteor", replica=0, after_mapped=1)
        with pytest.raises(ChaosError, match="after_mapped"):
            ServeChaosEvent(kind="kill", replica=0, after_mapped=0)
        with pytest.raises(ChaosError, match="total_reads"):
            ServeChaosPlan.seeded(1, n_replicas=3, total_reads=1)


class TestServeChaosCycle:
    def test_kill_storm_is_byte_identical_and_recovers(
        self, tiling_contigs, clean_reads
    ):
        plan = ServeChaosPlan(
            seed=0,
            events=(
                ServeChaosEvent(kind="kill", replica=1, after_mapped=3),
                ServeChaosEvent(kind="wedge", replica=2, after_mapped=8),
            ),
        )
        report = run_serve_chaos(
            tiling_contigs, clean_reads, CONFIG, plan=plan, n_replicas=3
        )
        assert report.parity, report.story()
        assert report.dropped == 0
        assert report.responses == len(clean_reads)
        assert len(report.events_fired) == 2
        assert report.respawns >= 1  # the supervisor repaired the corpse
        assert report.recovered and report.rescatter_ok
        assert report.leaked_segments == []
        assert report.ok

    def test_seeded_cycle_passes_the_gate(self, tiling_contigs, clean_reads):
        plan = ServeChaosPlan.seeded(
            1, n_replicas=3, total_reads=len(clean_reads)
        )
        report = run_serve_chaos(
            tiling_contigs, clean_reads, CONFIG, plan=plan, n_replicas=3
        )
        assert report.ok, report.story()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_ci_world_seed_passes_the_gate(self, ci_world, seed):
        """Default sketch parameters, 3 scatter replicas, every read of the
        simulated set streamed through the storm and again after it."""
        contigs = read_fasta(ci_world.contigs, on_error="raise")
        reads = read_sequences(ci_world.reads, on_error="raise")
        plan = ServeChaosPlan.seeded(seed, n_replicas=3, total_reads=len(reads))
        report = run_serve_chaos(contigs, reads, JEMConfig(), plan=plan, n_replicas=3)
        assert report.ok, report.story()
