"""Kill-resume chaos cycles: real SIGKILLs, deterministic plans, parity.

The acceptance bar: over seeded plans that SIGKILL ``jem index`` and
``jem map`` mid-unit (and then vandalise the run directory), the same
command run again completes and its output is bit-identical to an
uninterrupted run — the index by content checksum, the mapping by TSV
body.  Seeds 1–5 run on the tiling world and on ``ci_world``, the
simulated E. coli set at ``--trials 8``.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pytest
from chaos_harness import (
    DAMAGE_KINDS,
    ChaosError,
    ChaosPlan,
    ChaosSpec,
    apply_damage,
    read_tsv_body,
    run_kill_resume_cycle,
    unit_count,
)

import repro
from repro.cli import main
from repro.resilience.checkpoint import (
    CHAOS_KILL_AFTER_ENV,
    LOG_NAME,
    CheckpointLog,
    chaos_kill_point,
)
from repro.seq.io_fasta import write_fasta

CONFIG_ARGV = ["--k", "12", "--w", "20", "--ell", "500", "--trials", "6",
               "--seed", "99"]
CI_ARGV = ["--trials", "8"]
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
        assert plan.env() == {CHAOS_KILL_AFTER_ENV: "3:torn"}
        plain = ChaosPlan(seed=0, specs=(ChaosSpec("kill", 2),))
        assert plain.env() == {CHAOS_KILL_AFTER_ENV: "2"}
        assert chaos_kill_point("3:torn") == (3, True)
        assert chaos_kill_point("2") == (2, False)
        assert chaos_kill_point(None) == chaos_kill_point("") == (0, False)
        for malformed in ("x", "3:tron", "3:"):  # never read as "off"
            with pytest.raises(ValueError):
                chaos_kill_point(malformed)

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
            dirs.append(run_dir)
        done_a = apply_damage(str(dirs[0]), plan, dead_pid=4242)
        done_b = apply_damage(str(dirs[1]), plan, dead_pid=4242)
        assert done_a == done_b
        assert (dirs[0] / LOG_NAME).read_bytes() == (dirs[1] / LOG_NAME).read_bytes()
        unit = [(d / "units" / "sketch_0000.npz").read_bytes() for d in dirs]
        assert unit[0] == unit[1]
        # the next unit's temporary file, torn short, under the dead pid
        torn = [(d / "units" / "sketch_0001.npz.tmp.4242").read_bytes() for d in dirs]
        assert torn[0] == torn[1]
        assert 0 < len(torn[0]) < len(unit[0]) and unit[0].startswith(torn[0])
        assert done_a[-1] == f"torn_tmp: units/sketch_0001.npz.tmp.4242 ({len(torn[0])} bytes)"


def _index_checksum_sweep(tmp_path, contigs, config_argv):
    """Seeds 1–5 of kill → vandalise → resume against a checkpointed
    `jem index`; each resumed index holds the uninterrupted one's content."""
    reference = str(tmp_path / "reference.npz")
    assert main(["index", "-s", contigs, "-o", reference, *config_argv]) == 0
    units = unit_count(contigs)  # the contig blocks
    assert units >= 2
    _sweep(tmp_path, "idx", units, index_checksum(reference), index_checksum,
           ["index", "-s", contigs, *config_argv], ".npz")


def _map_body_sweep(tmp_path, contigs, reads, config_argv):
    """The same for a checkpointed `jem map`: blocks, then read batches."""
    argv = ["map", "-q", reads, "-s", contigs, "-p", "2", *config_argv]
    reference = str(tmp_path / "reference.tsv")
    assert main([*argv, "-o", reference]) == 0
    expected = read_tsv_body(reference)
    assert expected, "reference mapping produced no rows"
    units = unit_count(contigs) + unit_count(reads)
    assert units >= 4
    _sweep(tmp_path, "map", units, expected, read_tsv_body, argv, ".tsv")


def _sweep(tmp_path, tag, units, expected, fingerprint, argv, ext):
    for seed in SEEDS:
        run_dir = str(tmp_path / f"{tag}{seed}")
        out = os.path.join(run_dir, "out" + ext)
        os.makedirs(run_dir, exist_ok=True)
        plan = ChaosPlan.seeded(seed, total_units=units)
        cycle = run_kill_resume_cycle(
            [*argv, "-o", out, "--checkpoint-dir", run_dir], run_dir=run_dir, plan=plan,
        )
        assert cycle.killed, f"seed {seed}: victim was not killed"
        assert cycle.resumed_ok, f"seed {seed}: {cycle.resume_stderr}"
        assert fingerprint(out) == expected, f"seed {seed} parity"
        for done in cycle.damage_applied:  # the resume ran beside the torn file
            if done.startswith("torn_tmp: units"):
                assert os.path.exists(os.path.join(run_dir, done.split()[1])), done


class TestKillResumeParity:
    def test_index_kill_resume_parity_across_seeds(self, tmp_path, fasta_world):
        contigs, _ = fasta_world
        _index_checksum_sweep(tmp_path, contigs, CONFIG_ARGV)

    def test_map_kill_resume_parity_across_seeds(self, tmp_path, fasta_world):
        contigs, reads = fasta_world
        _map_body_sweep(tmp_path, contigs, reads, CONFIG_ARGV)

    def test_index_kill_resume_parity_on_the_ci_world(self, tmp_path, ci_world):
        _index_checksum_sweep(tmp_path, ci_world.contigs, CI_ARGV)

    def test_map_kill_resume_parity_on_the_ci_world(self, tmp_path, ci_world):
        _map_body_sweep(tmp_path, ci_world.contigs, ci_world.reads, CI_ARGV)


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
        assert main(argv) == 0  # the same command again
        assert index_checksum(out) == first
        # every block was loaded from the checkpoint, not recomputed
        records = CheckpointLog(os.path.join(run_dir, LOG_NAME)).replay()
        assert len(records) == unit_count(contigs) > 1

    def test_resume_refuses_wrong_command(self, tmp_path, fasta_world, capsys):
        """`jem map` pointed at an index run's directory is refused on the
        manifest's `command`, and writes nothing."""
        contigs, reads = fasta_world
        run_dir = str(tmp_path / "run")
        out = str(tmp_path / "out.npz")
        assert main(["index", "-s", contigs, "-o", out,
                     "--checkpoint-dir", run_dir, *CONFIG_ARGV]) == 0
        capsys.readouterr()
        mapped = str(tmp_path / "out.tsv")
        assert main(["map", "-q", reads, "-s", contigs, "-o", mapped,
                     "--checkpoint-dir", run_dir, *CONFIG_ARGV]) == 1
        assert re.search(r"^error: .*command: 'index' != 'map'",
                         capsys.readouterr().err, re.M)
        assert not os.path.exists(mapped)
        assert not os.path.exists(os.path.join(run_dir, "invocation.json"))
