"""Kill-resume chaos cycles: real SIGKILLs, deterministic plans, parity.

The acceptance bar: over seeded plans that SIGKILL ``jem index`` and
``jem map`` mid-unit (and then vandalise the run directory), a
``--resume`` run completes and its output is bit-identical to an
uninterrupted run — the index by content checksum, the mapping by TSV
body.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.errors import ChaosError
from repro.resilience import ChaosPlan, ChaosSpec, run_kill_resume_cycle, unit_count
from repro.resilience.chaos import DAMAGE_KINDS, apply_damage, read_tsv_body
from repro.resilience.checkpoint import (
    CHAOS_KILL_AFTER_ENV,
    CHAOS_TORN_ENV,
    LOG_NAME,
    CheckpointLog,
)
from repro.seq.io_fasta import write_fasta

CONFIG_ARGV = ["--k", "12", "--w", "20", "--ell", "500", "--trials", "6",
               "--seed", "99"]
SEEDS = (1, 2, 3, 4, 5)


@pytest.fixture(autouse=True)
def absolute_pythonpath(monkeypatch):
    """The chaos subprocesses must import repro regardless of pytest's cwd."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = os.environ.get("PYTHONPATH", "")
    monkeypatch.setenv(
        "PYTHONPATH", src + (os.pathsep + existing if existing else "")
    )


@pytest.fixture
def fasta_world(tmp_path, tiling_contigs, clean_reads):
    contigs = str(tmp_path / "contigs.fasta")
    reads = str(tmp_path / "reads.fasta")
    write_fasta(contigs, tiling_contigs)
    write_fasta(reads, clean_reads)
    return contigs, reads


def index_checksum(path: str) -> int:
    with np.load(path, allow_pickle=False) as data:
        return int(data["checksum"])


class TestChaosPlan:
    def test_seeded_plan_is_deterministic(self):
        a = ChaosPlan.seeded(7, total_units=8)
        b = ChaosPlan.seeded(7, total_units=8)
        assert a == b
        assert a.kill is not None
        assert 1 <= a.kill.after_records <= 8

    def test_env_overlay_arms_the_hooks(self):
        plan = ChaosPlan(seed=0, specs=(ChaosSpec("torn_kill", 3),))
        env = plan.env()
        assert env[CHAOS_KILL_AFTER_ENV] == "3"
        assert env[CHAOS_TORN_ENV] == "1"
        plain = ChaosPlan(seed=0, specs=(ChaosSpec("kill", 2),))
        assert CHAOS_TORN_ENV not in plain.env()

    def test_spec_validation(self):
        with pytest.raises(ChaosError, match="unknown chaos kind"):
            ChaosSpec("meteor")
        with pytest.raises(ChaosError, match="after_records"):
            ChaosSpec("kill", 0)
        with pytest.raises(ChaosError, match="total_units"):
            ChaosPlan.seeded(1, total_units=0)

    def test_apply_damage_is_deterministic(self, tmp_path):
        plan = ChaosPlan(
            seed=11,
            specs=(ChaosSpec("kill", 1),)
            + tuple(ChaosSpec(kind) for kind in DAMAGE_KINDS),
        )
        dirs = []
        for name in ("a", "b"):
            run_dir = tmp_path / name
            units = run_dir / "units"
            units.mkdir(parents=True)
            with CheckpointLog(str(run_dir / LOG_NAME)) as log:
                log.append({"phase": "sketch", "block": 0})
            buf = np.arange(64, dtype=np.uint8).tobytes()
            (units / "sketch_0000.npz").write_bytes(buf)
            (units / "sketch_0001.npz.tmp.123").write_bytes(b"torn")
            dirs.append(run_dir)
        done_a = apply_damage(str(dirs[0]), plan)
        done_b = apply_damage(str(dirs[1]), plan)
        assert done_a == done_b
        assert (dirs[0] / LOG_NAME).read_bytes() == (dirs[1] / LOG_NAME).read_bytes()
        assert (dirs[0] / "units" / "sketch_0000.npz").read_bytes() == (
            dirs[1] / "units" / "sketch_0000.npz"
        ).read_bytes()
        assert not (dirs[0] / "units" / "sketch_0001.npz.tmp.123").exists()


class TestKillResumeParity:
    def test_index_kill_resume_parity_across_seeds(self, tmp_path, fasta_world):
        contigs, _ = fasta_world
        reference = str(tmp_path / "reference.npz")
        assert main(["index", "-s", contigs, "-o", reference, *CONFIG_ARGV]) == 0
        expected = index_checksum(reference)
        units = unit_count(contigs)  # the contig blocks
        assert units >= 2
        for seed in SEEDS:
            run_dir = str(tmp_path / f"idx{seed}")
            out = os.path.join(run_dir, "out.npz")
            os.makedirs(run_dir, exist_ok=True)
            plan = ChaosPlan.seeded(seed, total_units=units)
            cycle = run_kill_resume_cycle(
                ["index", "-s", contigs, "-o", out,
                 "--checkpoint-dir", run_dir, *CONFIG_ARGV],
                run_dir=run_dir, plan=plan,
                resume_argv=["index", "--resume", run_dir],
            )
            assert cycle.killed, f"seed {seed}: victim was not killed"
            assert cycle.resumed_ok, f"seed {seed}: {cycle.resume_stderr}"
            assert index_checksum(out) == expected, f"seed {seed} parity"

    def test_map_kill_resume_parity_across_seeds(self, tmp_path, fasta_world):
        contigs, reads = fasta_world
        reference = str(tmp_path / "reference.tsv")
        assert main(["map", "-q", reads, "-s", contigs, "-o", reference,
                     "-p", "2", *CONFIG_ARGV]) == 0
        expected = read_tsv_body(reference)
        assert expected, "reference mapping produced no rows"
        units = unit_count(contigs) + unit_count(reads)  # blocks, then batches
        assert units >= 4
        for seed in SEEDS:
            run_dir = str(tmp_path / f"map{seed}")
            out = os.path.join(run_dir, "out.tsv")
            os.makedirs(run_dir, exist_ok=True)
            plan = ChaosPlan.seeded(seed, total_units=units)
            cycle = run_kill_resume_cycle(
                ["map", "-q", reads, "-s", contigs, "-o", out, "-p", "2",
                 "--checkpoint-dir", run_dir, *CONFIG_ARGV],
                run_dir=run_dir, plan=plan,
                resume_argv=["map", "--resume", run_dir],
            )
            assert cycle.killed, f"seed {seed}: victim was not killed"
            assert cycle.resumed_ok, f"seed {seed}: {cycle.resume_stderr}"
            assert read_tsv_body(out) == expected, f"seed {seed} parity"


class TestResumeCli:
    def test_resume_skips_completed_shards_same_output(
        self, tmp_path, fasta_world, capsys
    ):
        contigs, _ = fasta_world
        run_dir = str(tmp_path / "run")
        out = str(tmp_path / "out.npz")
        argv = ["index", "-s", contigs, "-o", out,
                "--checkpoint-dir", run_dir, *CONFIG_ARGV]
        assert main(argv) == 0
        first = index_checksum(out)
        os.unlink(out)
        assert main(["index", "--resume", run_dir]) == 0
        assert index_checksum(out) == first
        # every block was loaded from the checkpoint, not recomputed
        records = CheckpointLog(os.path.join(run_dir, LOG_NAME)).replay()
        assert len(records) == unit_count(contigs) > 1

    def test_resume_refuses_wrong_command(self, tmp_path, fasta_world, capsys):
        contigs, _ = fasta_world
        run_dir = str(tmp_path / "run")
        out = str(tmp_path / "out.npz")
        assert main(["index", "-s", contigs, "-o", out,
                     "--checkpoint-dir", run_dir, *CONFIG_ARGV]) == 0
        capsys.readouterr()
        assert main(["map", "--resume", run_dir]) == 1
        assert re.search(r"^error: .*jem index", capsys.readouterr().err, re.M)

    def test_resume_of_nonexistent_dir_is_typed(self, tmp_path, capsys):
        assert main(["index", "--resume", str(tmp_path / "nope")]) == 1
        assert re.search(r"^error: .*invocation\.json", capsys.readouterr().err, re.M)

    def test_chaos_subcommand_end_to_end(self, tmp_path, fasta_world, capsys):
        contigs, _ = fasta_world
        rc = main(["chaos", "index", "-s", contigs, "--seeds", "3",
                   "--workdir", str(tmp_path / "chaos"),
                   "--keep", *CONFIG_ARGV])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert "1/1 chaos cycles reproduced" in captured.out

    @pytest.mark.parametrize("seeds", ["", "1,x"])
    def test_chaos_bad_seeds_exit_2(self, tmp_path, capsys, seeds):
        rc = main(["chaos", "index", "-s", str(tmp_path / "contigs.fasta"),
                   "--seeds", seeds])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: --seeds")
        assert ("'x'" in err) if seeds else ("empty" in err)
