"""CLI integration tests driving ``repro.cli.main`` in-process."""

import contextlib
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import build_parser, main


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "jem-mapper" in capsys.readouterr().out


def test_datasets_listing(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    assert "e_coli" in out and "B. splendens" in out


def test_simulate_and_map_round_trip(tmp_path, capsys):
    data = tmp_path / "data"
    assert main([
        "simulate", "e_coli", "--scale", "0.0002", "--seed", "3", "--out", str(data)
    ]) == 0
    assert (data / "e_coli_genome.fasta").exists()
    assert (data / "e_coli_contigs.fasta").exists()
    assert (data / "e_coli_reads.fastq").exists()

    out_tsv = tmp_path / "out.tsv"
    assert main([
        "map",
        "-q", str(data / "e_coli_reads.fastq"),
        "-s", str(data / "e_coli_contigs.fasta"),
        "-o", str(out_tsv),
        "--trials", "10",
    ]) == 0
    lines = out_tsv.read_text().splitlines()
    assert lines[1] == "segment\tcontig\thits"
    assert len(lines) > 10
    assert "/prefix\t" in lines[2] or "/suffix\t" in lines[2]


def test_map_parallel_matches_serial(tmp_path):
    data = tmp_path / "data"
    main(["simulate", "e_coli", "--scale", "0.0002", "--seed", "3", "--out", str(data)])
    serial = tmp_path / "serial.tsv"
    par = tmp_path / "par.tsv"
    args = ["-q", str(data / "e_coli_reads.fastq"),
            "-s", str(data / "e_coli_contigs.fasta"), "--trials", "8"]
    main(["map", *args, "-o", str(serial)])
    main(["map", *args, "-o", str(par), "-p", "4"])
    strip = lambda p: [l for l in p.read_text().splitlines() if not l.startswith("#")]
    assert strip(serial) == strip(par)


def test_index_then_map(tmp_path, capsys):
    data = tmp_path / "data"
    main(["simulate", "e_coli", "--scale", "0.0002", "--seed", "3", "--out", str(data)])
    idx = tmp_path / "contigs.idx.npz"
    assert main([
        "index", "-s", str(data / "e_coli_contigs.fasta"),
        "-o", str(idx), "--trials", "8",
    ]) == 0
    assert idx.exists()
    # the summary says which kernels and how many threads built the index,
    # with the token `jem map` heads its TSV with
    from repro.core.engine import native_summary

    summary = [l for l in capsys.readouterr().out.splitlines() if l.startswith("indexed ")]
    assert len(summary) == 1 and summary[0].endswith(f"-> {idx} [{native_summary()}]")
    direct = tmp_path / "direct.tsv"
    via_index = tmp_path / "via_index.tsv"
    main(["map", "-q", str(data / "e_coli_reads.fastq"),
          "-s", str(data / "e_coli_contigs.fasta"), "-o", str(direct), "--trials", "8"])
    main(["map", "-q", str(data / "e_coli_reads.fastq"),
          "--index", str(idx), "-o", str(via_index)])
    strip = lambda p: [l for l in p.read_text().splitlines() if not l.startswith("#")]
    assert strip(direct) == strip(via_index)


def test_map_requires_exactly_one_source(tmp_path, capsys):
    data = tmp_path / "data"
    main(["simulate", "e_coli", "--scale", "0.0002", "--seed", "3", "--out", str(data)])
    rc = main(["map", "-q", str(data / "e_coli_reads.fastq")])
    assert rc == 2


def test_eval_command(tmp_path, capsys):
    assert main([
        "eval", "e_coli", "--scale", "0.0002", "--data-seed", "2",
        "--cache-dir", str(tmp_path), "--trials", "10", "--mappers", "jem",
    ]) == 0
    out = capsys.readouterr().out
    assert "precision=" in out


def test_bench_command(tmp_path, capsys, monkeypatch):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main([
        "bench", "table1", "--scale", "0.0002", "--datasets", "e_coli",
        "--cache-dir", str(tmp_path / "cache"),
        "--results-dir", str(tmp_path / "results"),
    ]) == 0
    assert "Table I" in capsys.readouterr().out
    # nothing lands outside --results-dir / --cache-dir
    assert os.listdir(tmp_path / "results") == ["table1.txt"]
    assert sorted(os.listdir(tmp_path)) == ["cache", "cwd", "results"]
    assert os.listdir(cwd) == []


def test_bench_rejects_the_deleted_experiments(capsys):
    """`kernels` & co. are ledger metrics now, not `jem bench` choices."""
    with pytest.raises(SystemExit) as exc:
        main(["bench", "kernels"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_map_paf_output(tmp_path):
    data = tmp_path / "data"
    main(["simulate", "e_coli", "--scale", "0.0002", "--seed", "3", "--out", str(data)])
    paf = tmp_path / "out.paf"
    assert main([
        "map", "-q", str(data / "e_coli_reads.fastq"),
        "-s", str(data / "e_coli_contigs.fasta"),
        "-o", str(paf), "--paf", "--trials", "8",
    ]) == 0
    lines = paf.read_text().splitlines()
    assert len(lines) > 10
    fields = lines[0].split("\t")
    assert len(fields) == 13
    assert fields[4] in "+-"
    assert int(fields[1]) == 1000  # qlen = ell


def test_paf_incompatible_with_index(tmp_path):
    data = tmp_path / "data"
    main(["simulate", "e_coli", "--scale", "0.0002", "--seed", "3", "--out", str(data)])
    idx = tmp_path / "i.npz"
    main(["index", "-s", str(data / "e_coli_contigs.fasta"), "-o", str(idx),
          "--trials", "8"])
    rc = main(["map", "-q", str(data / "e_coli_reads.fastq"),
               "--index", str(idx), "--paf", "-o", "-"])
    assert rc == 2


def test_scaffolder_is_gone(capsys):
    """Hybrid scaffolding is the paper's motivating use, not its mapper: no
    `jem scaffold` subcommand, no `repro.Scaffolder` export."""
    import repro

    with pytest.raises(SystemExit) as exc:
        main(["scaffold", "-q", "r.fq", "-s", "c.fa", "-o", "s.fa"])
    assert exc.value.code == 2
    assert "invalid choice: 'scaffold'" in capsys.readouterr().err
    with pytest.raises(AttributeError):
        repro.Scaffolder


def test_parser_rejects_unknown_dataset():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["simulate", "martian_genome"])


def test_parser_name_lists_match_the_registries():
    """The parser spells its choices out so that building it imports neither
    repro.bench nor repro.eval; the spelled-out lists must not drift."""
    from repro import cli
    from repro.bench import ALL_EXPERIMENTS
    from repro.core.engine import MAPPER_KINDS
    from repro.eval.datasets import DEFAULT_SCALE, dataset_names

    assert list(cli._EXPERIMENT_NAMES) == list(ALL_EXPERIMENTS)
    assert list(cli._DATASET_NAMES) == dataset_names()
    assert cli._DEFAULT_SCALE == DEFAULT_SCALE
    assert cli._MAPPER_KINDS == MAPPER_KINDS


def test_parser_builds_without_bench_or_eval():
    """`jem index | map | serve` start-up does not pay for the harnesses."""
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    # ... nor, yet, for numpy and the engine: main() starts a cold cache's
    # kernel compile first, and the handlers import what they run
    code = (
        "import sys; from repro.cli import build_parser; build_parser(); "
        "bad = [m for m in sys.modules if m.startswith(('repro.bench', 'repro.eval', "
        "'repro.core', 'repro.sketch', 'numpy'))]; "
        "sys.exit(1 if bad else 0)"
    )
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_one_shot_commands_load_no_serving_or_scaffolding_code(tmp_path):
    """`jem index`, `jem map --index` and `jem map -s -p 2` import what they
    run: the package ``__init__``s resolve their re-exports lazily, so the
    service, network, alignment and checkpoint
    layers (and multiprocessing / asyncio with them) stay out of the one-shot
    round, and neither the hash constants nor the kernel cache's key load
    ``numpy.random`` or OpenSSL (``hashlib``)."""
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    contigs, reads = tmp_path / "contigs.fasta", tmp_path / "reads.fasta"
    contigs.write_text(">c1\n" + "acgtgcatta" * 60 + "\n")
    reads.write_text(">r1\n" + "acgtgcatta" * 40 + "\n")
    code = (
        "import sys; from repro.cli import main; rc = main(sys.argv[1:]); "
        "heavy = ('repro.service', 'repro.netserve', 'repro.align', "
        "'repro.resilience', 'multiprocessing', 'asyncio', "
        "'numpy.random', 'hashlib', '_hashlib'); "
        "bad = [m for m in heavy if m in sys.modules]; "
        "print(bad, file=sys.stderr); sys.exit(rc or len(bad))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    idx = str(tmp_path / "idx.npz")
    for argv in (
        ["index", "-s", str(contigs), "-o", idx, "--trials", "4"],
        ["map", "-q", str(reads), "--index", idx, "-o", str(tmp_path / "out.tsv")],
        ["map", "-q", str(reads), "-s", str(contigs), "--trials", "4", "-p", "2",
         "-o", str(tmp_path / "out-p2.tsv")],
    ):
        done = subprocess.run(
            [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr


def _peak_mb(*argv):
    """VmHWM (MB) of one `jem` command in a fresh interpreter with the kernels
    loaded — of an import-only process without ``argv`` — and whether it
    imported multiprocessing.

    VmHWM of /proc/self/status, not ru_maxrss: the kernel folds the forked
    pytest parent into the latter at exec (ledger/README.md)."""
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = (
        "import sys; from repro.cli import main; import repro.sketch._native as n; n.load(); "
        "rc = main(sys.argv[1:]) if len(sys.argv) > 1 else 0; "
        "hwm = [l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM:')][0]; "
        "print(rc, hwm, 'multiprocessing' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    rc, hwm_kb, has_mp = done.stdout.split()[-3:]
    assert rc == "0", done.stderr
    return int(hwm_kb) / 1024.0, has_mp == "True"


def _tiled_contigs(genome, size=2_500):
    from repro.seq import SequenceSet

    cuts = np.arange(0, genome.size + 1, size, dtype=np.int64)
    return SequenceSet(genome, cuts, [f"c{i}" for i in range(cuts.size - 1)])


def _sampled_reads(genome, rng, count, size=10_000):
    from repro.seq import SequenceSet

    starts = rng.integers(0, genome.size - size, size=count)
    return SequenceSet(
        np.concatenate([genome[s : s + size] for s in starts]),
        np.arange(0, size * count + 1, size, dtype=np.int64),
        [f"r{i}" for i in range(count)],
    )


def test_one_shot_round_memory_does_not_grow_with_the_read_set(tmp_path):
    """`jem index`, `jem map --index` and `jem map -s … -p 2` stay within a
    fixed allowance of an import-only process on a 2-Mbp contig set and a
    24-Mbp read set, and never import multiprocessing.  The allowance
    is what one round needs at any read-set size — one 2-Mi-base block of
    contigs twice over while it is assembled (4 MB), S2's minimizer block and
    its 2-MiB key scratch, the index — and is far less than the read set held
    once: a map batch keeps only each read's two ℓ-base ends (0.4 MB for the
    ≈ 200 reads of a batch), so loading the reads whole, or publishing a copy
    in shared memory, cannot fit."""
    from repro.seq import random_codes, write_fasta

    # measured in ten runs: index +7.0..7.6 MB, map -p 2 +7.0..7.7 MB (+10.1..10.5
    # while S4 read whole reads), map --index +4.4..4.6 MB (+9.0..9.3 then)
    allowance_mb = {"index": 9.0, "map --index": 6.0, "map -p 2": 9.0}
    rng = np.random.default_rng(17)
    genome = random_codes(2_000_000, rng)
    reads = _sampled_reads(genome, rng, 2_400)
    assert reads.total_bases / 1e6 > max(allowance_mb.values())
    contigs_path, reads_path = str(tmp_path / "contigs.fasta"), str(tmp_path / "reads.fasta")
    write_fasta(contigs_path, _tiled_contigs(genome))
    write_fasta(reads_path, reads, width=0)

    baseline_mb, _ = _peak_mb()
    index_path, out = str(tmp_path / "idx.npz"), tmp_path / "out.tsv"
    legs = {
        "index": ["index", "-s", contigs_path, "-o", index_path],
        "map --index": ["map", "-q", reads_path, "--index", index_path, "-o", str(out)],
        "map -p 2": ["map", "-q", reads_path, "-s", contigs_path, "-p", "2",
                     "-o", str(out)],
    }
    for name, argv in legs.items():
        peak_mb, has_mp = _peak_mb(*argv)
        assert not has_mp, name
        assert peak_mb < baseline_mb + allowance_mb[name], (name, baseline_mb, peak_mb)
    assert sum(1 for _ in open(out)) == 3 + 2 * len(reads)


def test_one_shot_round_memory_grows_by_the_index_not_the_contig_set(tmp_path):
    """The other axis: 6 Mbp against 24 Mbp of 2.5-kbp contigs.  `jem index`
    grows by less than the 18 MB of added contig bases held once — it holds one
    block of them, so what grows is the index (0.6 bytes a base: the packed
    keys, then the columns) — and so does `jem map -s … -p 2`, by less than
    15 MB: it builds the same index once and maps over its per-trial columns
    where they are.  Folding them into two flat arrays at the first lookup
    grew the map by 22 MB; reading the set whole (twice over while it is
    assembled) grew them by 58 and 44 MB."""
    from repro.seq import random_codes, write_fasta

    rng = np.random.default_rng(18)
    genome = random_codes(24_000_000, rng)
    small, large = str(tmp_path / "contigs6.fasta"), str(tmp_path / "contigs24.fasta")
    write_fasta(small, _tiled_contigs(genome[:6_000_000]))
    write_fasta(large, _tiled_contigs(genome))
    reads = _sampled_reads(genome[:6_000_000], rng, 100)
    reads_path = str(tmp_path / "reads.fasta")
    write_fasta(reads_path, reads, width=0)

    out = tmp_path / "out.tsv"
    legs = {
        "index": (18.0, lambda contigs: ["index", "-s", contigs, "-o", str(tmp_path / "idx.npz")]),
        "map": (15.0, lambda contigs: ["map", "-q", reads_path, "-s", contigs, "-p", "2",
                                       "-o", str(out)]),
    }  # measured growth: index +11.5..12.0 MB, map +11.4..11.9 MB (+21.5..22.3 folding)
    for name, (allowance_mb, argv) in legs.items():
        (small_mb, mp_small), (large_mb, mp_large) = _peak_mb(*argv(small)), _peak_mb(*argv(large))
        assert not (mp_small or mp_large), name
        assert large_mb - small_mb < allowance_mb, (name, small_mb, large_mb)
    assert sum(1 for _ in open(out)) == 3 + 2 * len(reads)


def test_checkpointed_map_peaks_like_the_plain_streamed_map(tmp_path):
    """`jem map -s … --checkpoint-dir D` is the streamed run plus one unit
    file a batch: on 20 Mbp of reads it peaks within 2 MB of plain `jem map
    -s` (measured: +0.25..0.46 MB in ten runs) — less than one more batch
    held, let alone the read set.  The whole-set checkpoint path it replaced
    held every read and peaked 30 MB higher here."""
    from repro.seq import random_codes, write_fasta

    rng = np.random.default_rng(19)
    genome = random_codes(500_000, rng)
    contigs_path, reads_path = str(tmp_path / "contigs.fasta"), str(tmp_path / "reads.fasta")
    write_fasta(contigs_path, _tiled_contigs(genome))
    write_fasta(reads_path, _sampled_reads(genome, rng, 2_000), width=0)

    argv = ["map", "-q", reads_path, "-s", contigs_path]
    plain_mb, _ = _peak_mb(*argv, "-o", str(tmp_path / "plain.tsv"))
    checkpointed_mb, _ = _peak_mb(
        *argv, "-o", str(tmp_path / "ck.tsv"), "--checkpoint-dir", str(tmp_path / "ck")
    )
    assert checkpointed_mb < plain_mb + 2.0, (plain_mb, checkpointed_mb)
    assert _body(tmp_path / "ck.tsv") == _body(tmp_path / "plain.tsv")


def test_store_flag_is_gone(capsys):
    """The resident layout is not a CLI choice: `--store` is an argparse error."""
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(
            ["map", "-q", "r.fq", "-s", "c.fa", "--store", "columnar"]
        )
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --store" in capsys.readouterr().err


def test_transport_flag_is_gone(capsys):
    """Shared memory is the worker processes' one transport, not a CLI choice."""
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(
            ["map", "-q", "r.fq", "-s", "c.fa", "--transport", "shm"]
        )
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --transport" in capsys.readouterr().err



#: the arguments each command needs before a flag can be judged alone
_REQUIRED = {
    "serve": ["--index", "i.npz"],
    "client": ["-q", "r.fq", "--connect", "127.0.0.1:7000"],
    "chaos": ["serve", "-s", "c.fa"],
}


@pytest.mark.parametrize("command, flag", [
    ("serve", "--max-wait-ms"),
    ("client", "--max-wait-ms"),
    ("serve", "--no-supervise"),
    ("serve", "--hedge-timeout-ms"),
    *(("serve", flag) for flag in (
        "-s", "--subjects", "--on-error", "--k", "--w", "--ell", "--trials", "--seed",
    )),
    *(("client", flag) for flag in (
        "-s", "--subjects", "--index", "--server-cmd", "--k", "--w", "--ell",
        "--trials", "--seed", "--max-batch", "--queue-capacity", "--cache-capacity",
    )),
    ("chaos", "--max-events"),
    ("chaos", "--max-damage"),
])
def test_retired_service_flags_are_gone(capsys, command, flag):
    """The scheduler sets its own batch window, `--listen` always
    supervises, scatter keeps the fleet's hedge deadline, `serve` opens only
    a built index (whose sketch parameters are its own), `client` only
    connects to a running `serve --listen`, and `chaos` draws its plans at
    their own bounds: each of these flags is an argparse error."""
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args([command, *_REQUIRED[command], flag])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_saved_index_process_backend_maps_on_kernel_threads(tmp_path):
    """`map --index X -p N --backend process` maps on N kernel threads and says
    so in its header."""
    data = tmp_path / "data"
    main(["simulate", "e_coli", "--scale", "0.0002", "--seed", "3", "--out", str(data)])
    idx = tmp_path / "contigs.idx.npz"
    main(["index", "-s", str(data / "e_coli_contigs.fasta"), "-o", str(idx),
          "--trials", "8"])
    reads = str(data / "e_coli_reads.fastq")
    plain, threaded = (tmp_path / f"{n}.tsv" for n in ("plain", "p3"))
    assert main(["map", "-q", reads, "--index", str(idx), "-o", str(plain)]) == 0
    assert main(["map", "-q", reads, "--index", str(idx), "-o", str(threaded),
                 "-p", "3", "--backend", "process"]) == 0
    header = threaded.read_text().splitlines()[0]
    assert header.startswith("# jem-mapper") and "(saved index)" in header
    from repro.sketch import _native

    if _native.load() is not None:
        assert header.endswith("[native=fused,threads=3]")
    strip = lambda p: [l for l in p.read_text().splitlines() if not l.startswith("#")]
    assert strip(threaded) == strip(plain)
    assert len(strip(plain)) > 10


def test_map_runs_one_way_at_any_thread_count(tmp_path, capsys):
    """`-p N` is N kernel threads — `-p 1` one, not one per CPU — and the
    hidden `--backend process` changes nothing; the simulated backend and the
    fault-injection knobs are gone from `jem map`."""
    data = tmp_path / "data"
    main(["simulate", "e_coli", "--scale", "0.0002", "--seed", "3", "--out", str(data)])
    base = ["map", "-q", str(data / "e_coli_reads.fastq"),
            "-s", str(data / "e_coli_contigs.fasta"), "--trials", "8"]
    runs = {"p1": ["-p", "1"], "p2": ["-p", "2"], "p2-process": ["-p", "2", "--backend", "process"]}
    bodies, headers = {}, {}
    for name, flags in runs.items():
        out = tmp_path / f"{name}.tsv"
        assert main([*base, *flags, "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        headers[name] = lines[0]
        bodies[name] = [line for line in lines if not line.startswith("#")]
    assert bodies["p1"] == bodies["p2"] == bodies["p2-process"] and len(bodies["p1"]) > 10
    from repro.sketch import _native

    if _native.load() is not None:
        assert headers["p1"].endswith("# jem [native=fused,threads=1]")
        assert headers["p2"].endswith("# jem [native=fused,threads=2]")
        assert headers["p2-process"].endswith("# jem [native=fused,threads=2]")
    capsys.readouterr()
    for flags in (["--backend", "simulated"], ["--inject-faults", "7"],
                  ["--timeout", "5"], ["--no-strict"]):
        with pytest.raises(SystemExit) as excinfo:
            main([*base, *flags, "-o", str(tmp_path / "gone.tsv")])
        assert excinfo.value.code == 2, flags
        assert flags[0] in capsys.readouterr().err
    assert not (tmp_path / "gone.tsv").exists()


@pytest.fixture
def indexed(tmp_path, tiling_contigs, clean_reads):
    """A bundle built at --trials 8 --k 12, the reads, and their plain TSV body."""
    from repro.seq import write_fasta

    contigs, reads = str(tmp_path / "contigs.fasta"), str(tmp_path / "reads.fasta")
    write_fasta(contigs, tiling_contigs)
    write_fasta(reads, clean_reads)
    idx = str(tmp_path / "t8.idx.npz")
    assert main(["index", "-s", contigs, "-o", idx, "--trials", "8", "--k", "12"]) == 0
    plain = tmp_path / "plain.tsv"
    assert main(["map", "-q", reads, "--index", idx, "-o", str(plain)]) == 0
    return idx, reads, _body(plain)


def _body(path):
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


def test_map_refuses_sketch_flags_the_index_disagrees_with(tmp_path, indexed, capsys):
    """Next to --index a sketch flag is checked, not ignored: a different
    value exits 2 naming the flag and the index's value, an equal one maps."""
    idx, reads, body = indexed
    out = tmp_path / "out.tsv"
    capsys.readouterr()
    assert main(["map", "-q", reads, "--index", idx, "-o", str(out),
                 "--trials", "4", "--k", "12"]) == 2
    err = capsys.readouterr().err
    assert "--trials 4 (the index has trials = 8)" in err and "--k" not in err
    assert not out.exists()
    assert main(["map", "-q", reads, "--index", idx, "-o", str(out),
                 "--trials", "8", "--k", "12"]) == 0
    assert _body(out) == body
    # a --resume payload records the unset flags as unset
    run_dir = str(tmp_path / "run")
    assert main(["map", "-q", reads, "--index", idx, "-o", str(out),
                 "--checkpoint-dir", run_dir]) == 0
    assert main(["map", "--resume", run_dir]) == 0
    assert _body(out) == body


def test_serve_imports_asyncio_without_ssl_and_leaves_ssl_importable(indexed, capsys):
    """`jem serve` imports ``asyncio`` with ``ssl`` blocked, so no server maps
    OpenSSL, and takes the block away again: a caller that runs ``main`` in
    its own process can still ``import ssl`` afterwards, and one that had
    already imported it keeps its module."""
    import repro

    idx, _, _ = indexed
    argv = ["serve", "--index", idx, "--listen", ":70000"]  # fails after the import
    loaded = sys.modules["ssl"]  # the suite's conftest imports asyncio
    assert main(argv) == 1
    assert "port 70000" in capsys.readouterr().err
    assert sys.modules["ssl"] is loaded

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    after_main = {
        # a fresh process: asyncio loaded without ssl, ssl importable after
        "": "assert 'asyncio' in sys.modules and 'ssl' not in sys.modules, rc; "
            "import ssl; ssl.create_default_context(); ",
        # ssl loaded first, asyncio not: the guard leaves ssl as it was
        "import ssl; ": "assert sys.modules['ssl'] is ssl, rc; ",
    }
    for before, check in after_main.items():
        code = (
            f"{before}import sys; from repro.cli import main\n"
            f"rc = main(sys.argv[1:])\n{check}sys.exit(rc)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code, *argv],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        # a failed check would exit 1 too, but with a traceback
        assert done.returncode == 1, (before, done.stderr)
        assert "Traceback" not in done.stderr, (before, done.stderr)
        assert "port 70000" in done.stderr, (before, done.stderr)


@pytest.mark.parametrize("argv, message", [
    (["serve", "--index", "{idx}", "--replicas", "0"], "n_replicas must be >= 1"),
    (["map", "-q", "{reads}", "--index", "{missing}.npz"], "no such index"),
    (["map", "-q", "{reads}", "--index", "{idx}", "-p", "0"], "processes must be >= 1"),
    (["map", "-q", "{missing}.fq", "--index", "{idx}"], "No such file or directory"),
    (["client", "-q", "{reads}", "--connect", "127.0.0.1:1"], "Connection refused"),
], ids=["serve-replicas-0", "map-missing-index", "map-p-0", "map-missing-reads",
        "client-refused"])
def test_expected_failures_are_one_error_line(tmp_path, indexed, argv, message):
    """A typed library error or an OS error is one ``error:`` line on
    stderr and exit 1, never a traceback."""
    import repro

    idx, reads, _ = indexed
    paths = {"idx": idx, "reads": reads, "missing": str(tmp_path / "missing")}
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", *(a.format(**paths) for a in argv)],
        env={**os.environ, "PYTHONPATH": src}, stdin=subprocess.DEVNULL,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr, done.stderr
    errors = [line for line in done.stderr.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and message in errors[0], done.stderr


def test_mutable_index_cli_round_trip(tmp_path, tiling_contigs, clean_reads):
    """bundle -> --from-index DIR -> --append -> --remove -> store-stats: the
    counts add up, and `map --index DIR` answers as a fresh build over the
    surviving contigs does."""
    import json

    from repro.seq import write_fasta

    cfg = ["--trials", "8", "--k", "12"]
    first, extra = tiling_contigs.slice(0, 7), tiling_contigs.slice(7, len(tiling_contigs))
    paths = {n: str(tmp_path / f"{n}.fasta") for n in ("first", "extra", "reads", "survivors")}
    write_fasta(paths["first"], first)
    write_fasta(paths["extra"], extra)
    write_fasta(paths["reads"], clean_reads)
    removed = [tiling_contigs.names[2], tiling_contigs.names[8]]
    keep = [i for i, n in enumerate(tiling_contigs.names) if n not in removed]
    write_fasta(paths["survivors"], tiling_contigs.subset(keep))
    bundle, lsm = str(tmp_path / "first.npz"), str(tmp_path / "idx.lsm")
    assert main(["index", "-s", paths["first"], "-o", bundle, *cfg]) == 0
    assert main(["index", "--from-index", bundle, "-o", lsm]) == 0
    assert main(["index", "--append", paths["extra"], "-o", lsm]) == 0
    assert main(["index", "--remove", ",".join(removed), "-o", lsm]) == 0

    stats_out = tmp_path / "stats.json"
    with open(stats_out, "w") as fh, contextlib.redirect_stdout(fh):
        assert main(["store-stats", "--index", lsm, "--json"]) == 0
    stats = json.loads(stats_out.read_text())
    assert stats["n_subjects"] == len(tiling_contigs)
    assert stats["live_subjects"] == len(tiling_contigs) - 2
    assert stats["tombstones"] == 2
    assert stats["memtable_entries"] > 0  # the appended contigs, not yet flushed

    fresh = str(tmp_path / "fresh.npz")
    assert main(["index", "-s", paths["survivors"], "-o", fresh, *cfg]) == 0
    got, want = tmp_path / "lsm.tsv", tmp_path / "fresh.tsv"
    assert main(["map", "-q", paths["reads"], "--index", lsm, "-o", str(got)]) == 0
    assert main(["map", "-q", paths["reads"], "--index", fresh, "-o", str(want)]) == 0
    assert _body(got) == _body(want)
    assert not {line.split("\t")[1] for line in _body(got)} & set(removed)
