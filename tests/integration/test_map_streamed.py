"""`jem map` maps reads in batches as the parser yields them.

The TSV it writes must equal, row for row, what the same mapper answers for
the whole read set at once — for every registered mapper kind, from FASTA,
FASTQ and gzip, wherever the batches happen to be cut.  All four mappers
treat a segment independently of the rest of its batch, so none is kept
whole-set.  A failed run must not leave a plausible TSV behind.
"""

import gzip
import os
import re
import shutil

import pytest

from repro.cli import main
from repro.core import JEMConfig, MappingEngine, PipelineConfig, build_mapper, streaming
from repro.core.engine import MAPPER_KINDS, read_sequences
from repro.seq import SeqRecord, write_fasta, write_fastq

CFG = JEMConfig(k=12, w=20, ell=500, trials=10, seed=99)
CFG_FLAGS = ["--k", "12", "--w", "20", "--ell", "500", "--trials", "10", "--seed", "99"]
SUFFIXES = (".fasta", ".fastq", ".fasta.gz", ".fastq.gz")


def _body(path):
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh if not line.startswith("#")]


@pytest.fixture
def files(tmp_path, tiling_contigs, clean_reads, small_genome):
    """Contigs and reads on disk; three reads are shorter than ℓ, one is 1 base."""
    reads = list(clean_reads)
    for at, (start, length) in ((3, (700, 499)), (11, (9_000, 120)), (20, (15_000, 1))):
        reads.insert(at, SeqRecord(f"short_{length}", small_genome[start : start + length]))
    contigs = str(tmp_path / "contigs.fasta")
    write_fasta(contigs, tiling_contigs)
    paths = {".fasta": str(tmp_path / "reads.fasta"), ".fastq": str(tmp_path / "reads.fastq")}
    write_fasta(paths[".fasta"], reads)
    write_fastq(paths[".fastq"], reads)
    for plain in (".fasta", ".fastq"):
        paths[plain + ".gz"] = paths[plain] + ".gz"
        with open(paths[plain], "rb") as src, gzip.open(paths[plain + ".gz"], "wb") as dst:
            shutil.copyfileobj(src, dst)
    return contigs, paths, tiling_contigs


def _whole_set_rows(kind, contigs, reads_path, on_error="raise", jem=CFG):
    mapper = build_mapper(PipelineConfig(jem=jem, mapper=kind))
    mapper.index(contigs)
    result = mapper.map_reads(read_sequences(reads_path, on_error=on_error))
    names = mapper.subject_names
    return ["segment\tcontig\thits\n"] + [
        f"{seg}\t{names[sid] if sid >= 0 else '*'}\t{hits}\n"
        for seg, sid, hits in zip(
            result.segment_names, result.subject.tolist(), result.hit_count.tolist()
        )
    ]


@pytest.mark.parametrize("suffix", SUFFIXES)
@pytest.mark.parametrize("kind", MAPPER_KINDS)
def test_streamed_equals_whole_set(kind, suffix, files, tmp_path, monkeypatch):
    contigs_path, paths, contigs = files
    want = _whole_set_rows(kind, contigs, paths[suffix])
    assert len(want) == 1 + 2 * 23
    batches, map_file = [], MappingEngine.map_file

    def counting(engine, path):
        for result in map_file(engine, path):
            batches.append(len(result) // 2)
            yield result

    monkeypatch.setattr(MappingEngine, "map_file", counting)
    # one read per batch / a cut every other 5-kbp read, mid-file / one batch
    n_batches = []
    for budget in (1, 12_000, streaming.BATCH_BASES):
        monkeypatch.setattr(streaming, "BATCH_BASES", budget)
        batches.clear()
        out = str(tmp_path / f"{budget}.tsv")
        assert main(["map", "-q", paths[suffix], "-s", contigs_path, "-o", out,
                     "--mapper", kind, *CFG_FLAGS]) == 0
        assert _body(out) == want, (kind, suffix, budget)
        assert sum(batches) == 23
        n_batches.append(len(batches))
    assert n_batches[0] == 23 and 1 < n_batches[1] < 23 and n_batches[2] == 1


@pytest.mark.parametrize("checkpoint", [False, True])
@pytest.mark.parametrize("suffix", [".fasta", ".fastq"])
def test_s4_is_handed_only_the_read_ends(files, tmp_path, monkeypatch, suffix, checkpoint):
    """A streamed `jem map` — plain or checkpointed — hands S4 reads of at most
    2ℓ codes, cut into the batches `iter_batches` makes of the full parse, and
    writes the whole-set answer."""
    from repro.core import JEMMapper

    contigs_path, paths, contigs = files
    path = paths[suffix]
    handed, real = [], JEMMapper.map_reads

    def spy(mapper, reads):
        handed.append((len(reads), int(reads.lengths.max())))
        return real(mapper, reads)

    monkeypatch.setattr(JEMMapper, "map_reads", spy)
    monkeypatch.setattr(streaming, "BATCH_BASES", 12_000)
    out = str(tmp_path / "out.tsv")
    run = ["--checkpoint-dir", str(tmp_path / "run")] if checkpoint else []
    assert main(["map", "-q", path, "-s", contigs_path, "-o", out, *CFG_FLAGS, *run]) == 0
    full = list(streaming.iter_records(path))
    assert max(len(r) for r in full) > 2 * CFG.ell  # the ends are a real cut
    budget = streaming.unit_bases(path) if checkpoint else streaming.BATCH_BASES
    assert [n for n, _ in handed] == [len(b) for b in streaming.iter_batches(full, budget)]
    assert max(longest for _, longest in handed) <= 2 * CFG.ell
    assert _body(out) == _whole_set_rows("jem", contigs, path)


def test_a_saved_index_trims_reads_at_its_own_ell(files, tmp_path):
    """`map --index` keeps the ends at the index's ℓ (here above the default
    one, which would cut into the segments), with no sketch flag given."""
    from dataclasses import replace

    contigs_path, paths, contigs = files
    index, out = str(tmp_path / "idx.npz"), str(tmp_path / "out.tsv")
    flags = ["--k", "12", "--w", "20", "--ell", "1200", "--trials", "10", "--seed", "99"]
    assert main(["index", "-s", contigs_path, "-o", index, *flags]) == 0
    assert main(["map", "-q", paths[".fasta"], "--index", index, "-o", out]) == 0
    want = _whole_set_rows("jem", contigs, paths[".fasta"], jem=replace(CFG, ell=1_200))
    assert _body(out) == want


def test_skip_policy_reaches_the_stream_and_warns_once(files, tmp_path, monkeypatch, capsys):
    """`--on-error skip` drops a malformed record mid-stream, whichever batch
    it would have fallen in, and the tally is printed once, after the last."""
    contigs_path, paths, contigs = files
    bad = str(tmp_path / "bad.fasta")
    with open(paths[".fasta"]) as fh:
        text = fh.read()
    cut = text.index(">read_9")
    with open(bad, "w") as fh:
        fh.write(text[:cut] + ">\nacgtacgt\n" + text[cut:] + ">\ncc\n")
    with pytest.warns(UserWarning, match="skipping malformed record"):
        want = _whole_set_rows("jem", contigs, bad, on_error="skip")
    capsys.readouterr()
    monkeypatch.setattr(streaming, "BATCH_BASES", 12_000)
    out = str(tmp_path / "skip.tsv")
    with pytest.warns(UserWarning, match="skipping malformed record"):
        assert main(["map", "-q", bad, "-s", contigs_path, "-o", out,
                     "--on-error", "skip", *CFG_FLAGS]) == 0
    assert _body(out) == want and len(want) == 1 + 2 * 23
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("warning: skipped")] == [
        f"warning: skipped 2 malformed record(s) in {bad}"
    ]
    assert err[-1].startswith("mapped ")  # the tally comes after the last batch


def test_failed_streamed_run_leaves_no_tsv(files, tmp_path, monkeypatch, capsys):
    """Under the default policy a malformed *last* record fails the run after
    every earlier batch was written — to a temporary file, which is removed."""
    contigs_path, paths, _ = files
    bad = str(tmp_path / "bad.fasta")
    shutil.copy(paths[".fasta"], bad)
    with open(bad, "a") as fh:
        fh.write(">\nacgt\n")
    monkeypatch.setattr(streaming, "BATCH_BASES", 12_000)
    out = tmp_path / "out.tsv"
    out.write_text("the previous run's answer\n")
    assert main(["map", "-q", bad, "-s", contigs_path, "-o", str(out), *CFG_FLAGS]) == 1
    assert re.search(r"^error: .*empty FASTA header", capsys.readouterr().err, re.M)
    assert out.read_text() == "the previous run's answer\n"
    assert sorted(os.listdir(tmp_path)) == sorted(
        ["bad.fasta", "contigs.fasta", "out.tsv",
         *(os.path.basename(p) for p in paths.values())]
    )


def test_timing_moves_to_the_last_line(files, tmp_path):
    contigs_path, paths, _ = files
    out = tmp_path / "out.tsv"
    assert main(["map", "-q", paths[".fastq"], "-s", contigs_path, "-o", str(out),
                 *CFG_FLAGS]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# jem-mapper ") and "# jem [native=" in lines[0]
    assert "wall" not in lines[0]
    assert lines[1] == "segment\tcontig\thits"
    assert lines[-1].startswith("# jem: ") and lines[-1].endswith("s wall")
    assert not any(line.startswith("#") for line in lines[1:-1])

