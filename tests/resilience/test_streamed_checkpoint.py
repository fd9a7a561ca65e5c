"""A checkpointed run is the streamed run.

`jem index --checkpoint-dir` commits the contig blocks of the one index
build, `jem map --checkpoint-dir` the read batches of the one mapping loop:
outputs equal a plain run's, neither input is ever held whole, a resume
(the same command run again) computes exactly the units that are missing or
damaged, and a run directory that cut whole sets into shards is refused.
"""

from __future__ import annotations

import json
import os
import re

import numpy as np
import pytest

from repro.cli import main
from repro.core import engine as engine_module
from repro.core import mapper as mapper_module
from repro.core.mapper import JEMMapper
from repro.parallel import driver, mp_backend, partition
from repro.resilience import ChaosPlan, ChaosSpec, unit_count
from repro.resilience.chaos import apply_damage, read_tsv_body
from repro.resilience.checkpoint import MANIFEST_NAME
from repro.seq.io_fasta import write_fasta
from repro.seq.io_fastq import write_fastq

CONFIG_ARGV = ["--k", "12", "--w", "20", "--ell", "500", "--trials", "6",
               "--seed", "99"]


@pytest.fixture
def world(tmp_path, tiling_contigs, clean_reads):
    contigs = str(tmp_path / "contigs.fasta")
    reads = str(tmp_path / "reads.fastq")
    write_fasta(contigs, tiling_contigs)
    write_fastq(reads, clean_reads)
    index = str(tmp_path / "contigs.idx.npz")
    assert main(["index", "-s", contigs, "-o", index, *CONFIG_ARGV]) == 0
    plain = str(tmp_path / "plain.tsv")
    assert main(["map", "-q", reads, "-s", contigs, "-o", plain, *CONFIG_ARGV]) == 0
    return contigs, reads, index, read_tsv_body(plain)


def _checksum(path: str) -> int:
    with np.load(path, allow_pickle=False) as data:
        return int(data["checksum"])


@pytest.fixture
def calls(monkeypatch):
    """Counts of contig blocks sketched and read batches mapped."""
    counted = {"sketch": 0, "map": 0}
    sketch, map_reads = mapper_module.subject_intervals, JEMMapper.map_reads

    def counting_sketch(*args, **kwargs):
        counted["sketch"] += 1
        return sketch(*args, **kwargs)

    def counting_map(self, reads):
        counted["map"] += 1
        return map_reads(self, reads)

    monkeypatch.setattr(mapper_module, "subject_intervals", counting_sketch)
    monkeypatch.setattr(JEMMapper, "map_reads", counting_map)
    return counted


def test_checkpointed_outputs_equal_plain_ones(tmp_path, world, capsys):
    contigs, reads, index, body = world
    bundle = str(tmp_path / "ck.npz")
    assert main(["index", "-s", contigs, "-o", bundle,
                 "--checkpoint-dir", str(tmp_path / "idx"), *CONFIG_ARGV]) == 0
    assert _checksum(bundle) == _checksum(index)
    for name, source in (("s", ["-s", contigs]), ("index", ["--index", index])):
        out = str(tmp_path / f"{name}.tsv")
        # -p 2 is two kernel threads: the same loop, the same units
        assert main(["map", "-q", reads, *source, "-o", out, "-p", "2",
                     "--checkpoint-dir", str(tmp_path / name), *CONFIG_ARGV]) == 0
        assert read_tsv_body(out) == body, name
    assert "warning" not in capsys.readouterr().err


def test_units_are_the_streamed_batches_at_unit_bases(tmp_path, world):
    contigs, reads, _, _ = world
    run_dir = tmp_path / "run"
    assert main(["map", "-q", reads, "-s", contigs, "-o", str(tmp_path / "out.tsv"),
                 "--checkpoint-dir", str(run_dir), *CONFIG_ARGV]) == 0
    units = sorted(os.listdir(run_dir / "units"))
    n_sketch, n_map = unit_count(contigs), unit_count(reads)
    assert n_sketch >= 2 and n_map >= 2
    assert units == sorted(
        [f"sketch_{k:04d}.npz" for k in range(n_sketch)]
        + [f"map_{k:04d}.npz" for k in range(n_map)]
    )
    manifest = json.loads((run_dir / MANIFEST_NAME).read_text())
    assert manifest["version"] == 2
    assert set(manifest["units"]) == {"sketch_bases", "map_bases"}
    assert set(manifest["inputs"]) == {"subjects", "reads"}


def test_resume_computes_only_missing_and_damaged_units(tmp_path, world, calls):
    contigs, reads, _, body = world
    run_dir = str(tmp_path / "run")
    out = str(tmp_path / "out.tsv")
    argv = ["map", "-q", reads, "-s", contigs, "-o", out, "--checkpoint-dir", run_dir,
            *CONFIG_ARGV]
    assert main(argv) == 0
    assert calls == {"sketch": unit_count(contigs), "map": unit_count(reads)}
    assert not os.path.exists(os.path.join(run_dir, "invocation.json"))

    calls.update(sketch=0, map=0)
    assert main(argv) == 0
    assert calls == {"sketch": 0, "map": 0}  # a complete directory maps nothing
    assert read_tsv_body(out) == body

    plan = ChaosPlan(seed=4, specs=(ChaosSpec("kill"),) + (ChaosSpec("corrupt_unit"),) * 3)
    damaged = {
        re.match(r"corrupt_unit: (\S+) @", line).group(1) for line in apply_damage(run_dir, plan)
    }
    os.unlink(os.path.join(run_dir, "units", "map_0001.npz"))
    damaged.add("map_0001.npz")
    calls.update(sketch=0, map=0)
    assert main(argv) == 0
    assert calls == {
        "sketch": sum(name.startswith("sketch_") for name in damaged),
        "map": sum(name.startswith("map_") for name in damaged),
    }
    assert read_tsv_body(out) == body


def test_checkpointed_runs_never_hold_an_input_whole(tmp_path, world, monkeypatch):
    contigs, reads, index, body = world

    def whole(*args, **kwargs):
        raise AssertionError("a checkpointed run read a whole input")

    monkeypatch.setattr(engine_module, "read_sequences", whole)
    for module in (partition, driver, mp_backend):
        monkeypatch.setattr(module, "partition_set", whole)
    assert main(["index", "-s", contigs, "-o", str(tmp_path / "ck.npz"),
                 "--checkpoint-dir", str(tmp_path / "idx"), *CONFIG_ARGV]) == 0
    for name, source in (("s", ["-s", contigs]), ("index", ["--index", index])):
        out = str(tmp_path / f"{name}.tsv")
        assert main(["map", "-q", reads, *source, "-o", out, "-p", "2",
                     "--checkpoint-dir", str(tmp_path / name), *CONFIG_ARGV]) == 0
        assert read_tsv_body(out) == body


def test_a_run_directory_cut_into_shards_is_refused(tmp_path, world, capsys):
    """A directory whose units were base-balanced shards of whole sets
    (manifest version 1) is not resumed as if its units were batches."""
    contigs, reads, _, _ = world
    run_dir = tmp_path / "old"
    (run_dir / "units").mkdir(parents=True)
    config = {"k": 12, "w": 20, "ell": 500, "trials": 6, "seed": 99}
    (run_dir / MANIFEST_NAME).write_text(json.dumps({
        "version": 1, "command": "map",
        "pipeline": {"backend": "simulated", "inject_faults": None, "mapper": "jem",
                     "processes": 2, "strict": True, "jem_min_hits": 1,
                     **{f"jem_{k}": v for k, v in config.items()}},
        "units": {"mode": "simulated", "sketch_blocks": 2, "map_blocks": 2},
        "inputs": {"subjects": {"n": 11, "crc32": 1}, "reads": {"n": 20, "crc32": 2}},
    }))
    assert main(["map", "-q", reads, "-s", contigs, "-o", str(tmp_path / "out.tsv"),
                 "-p", "2", "--checkpoint-dir", str(run_dir), *CONFIG_ARGV]) == 1
    assert re.search(r"^error: .*version: 1 != 2", capsys.readouterr().err, re.M)
    assert not (tmp_path / "out.tsv").exists()
    assert os.listdir(run_dir / "units") == []


@pytest.mark.parametrize("flag", [["--paf"]])
def test_whole_set_flags_refuse_a_checkpoint_dir(tmp_path, world, capsys, flag):
    contigs, reads, _, _ = world
    assert main(["map", "-q", reads, "-s", contigs, "-o", str(tmp_path / "out"), *flag,
                 "--checkpoint-dir", str(tmp_path / "run"), *CONFIG_ARGV]) == 2
    err = capsys.readouterr().err
    assert flag[0] in err and "--checkpoint-dir" in err
    assert not (tmp_path / "run").exists()
