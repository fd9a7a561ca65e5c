"""Seeded inputs: a genome tiled into contigs with exact coordinates, HiFi reads.

The assembler path (``load_or_generate``) is deliberately not used: it
took 70 s for 720 contigs, while cutting the simulated genome into tiles
is instant, gives exact contig coordinates (so ground truth needs no
minimap-lite placement) and the mapper only ever sees strings.

Everything is a pure function of ``(tier, seed, n_reads)``; the result
is cached as plain files under ``ledger/.work/inputs/`` so a re-run with
the same seed skips generation.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

from repro.eval.truth import Benchmark, build_benchmark
from repro.core.segments import extract_end_segments
from repro.seq.io_fasta import read_fasta, write_fasta
from repro.seq.records import SequenceSet, SequenceSetBuilder
from repro.simulate.genome import GenomeProfile, simulate_genome
from repro.simulate.hifi import HiFiProfile, simulate_hifi_reads

#: Genome length per tier.  S exists for ``--smoke`` only.  M and L are
#: sized so that 4 + 22 x 4 driver runs, each regenerating its inputs
#: from a fresh seed, fit the driver's 3420 s budget on a 2-core host.
TIER_BP = {"S": 200_000, "M": 5_000_000, "L": 8_000_000}

CONTIG_MEDIAN_BP = 2_500
CONTIG_SIGMA = 0.6
CONTIG_MIN_BP = 500
CONTIG_MAX_GAP = 200
DECOY_BP = 2_500

#: mean of the default HiFiProfile's log-normal (median 10 kbp, sigma 0.33)
_MEAN_READ_BP = 10_000 * float(np.exp(0.33**2 / 2))

#: Cached input sets kept on disk (each is tens of MB; the driver uses a
#: new seed per run).
_CACHE_KEEP = 4


@dataclass
class Inputs:
    """One generated input set and where its files live."""

    seed: int
    directory: str
    contigs: SequenceSet
    reads: SequenceSet  # metas carry ref_start / ref_end / ref_strand
    contig_coords: tuple[np.ndarray, np.ndarray, np.ndarray]
    seconds: float  # generation (or cache load) wall

    @property
    def contigs_path(self) -> str:
        return os.path.join(self.directory, "contigs.fasta")

    @property
    def reads_path(self) -> str:
        return os.path.join(self.directory, "reads.fasta")

    def truth(self, k: int = 16, ell: int = 1000) -> Benchmark:
        """True <segment, contig> pairs under the paper's >= k-overlap rule."""
        segments, _ = extract_end_segments(self.reads, ell)
        return build_benchmark(
            segments, self.contigs, np.empty(0, dtype=np.uint8), k=k,
            contig_coords=self.contig_coords,
        )


def tile_contigs(
    genome: np.ndarray, rng: np.random.Generator
) -> tuple[SequenceSet, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Cut ``genome`` left to right into log-normal tiles with small gaps."""
    builder = SequenceSetBuilder()
    starts: list[int] = []
    ends: list[int] = []
    pos = 0
    while True:
        length = max(
            CONTIG_MIN_BP,
            int(np.exp(rng.normal(np.log(CONTIG_MEDIAN_BP), CONTIG_SIGMA))),
        )
        if pos + length > genome.size:
            break
        builder.add(f"ctg_{len(starts):06d}", genome[pos : pos + length])
        starts.append(pos)
        ends.append(pos + length)
        pos += length + int(rng.integers(0, CONTIG_MAX_GAP))
    coords = (
        np.asarray(starts, dtype=np.int64),
        np.asarray(ends, dtype=np.int64),
        np.ones(len(starts), dtype=bool),
    )
    return builder.build(), coords


def generate(tier: str, seed: int, n_reads: int) -> tuple[SequenceSet, tuple, SequenceSet]:
    """(contigs, contig_coords, reads) for one tier and seed — no I/O."""
    length = TIER_BP[tier]
    rng = np.random.default_rng([seed, length])
    genome = simulate_genome(
        GenomeProfile(
            length=length, repeat_fraction=0.06, repeat_divergence=0.01,
            repeat_length=400,
        ),
        rng,
    )
    contigs, coords = tile_contigs(genome, rng)
    # the simulator samples to a coverage, not a count: overshoot a little
    # and cut, so every seed yields exactly n_reads
    coverage = 1.05 * (n_reads + 8) * _MEAN_READ_BP / length
    reads = simulate_hifi_reads(genome, HiFiProfile(coverage=coverage), rng)
    if len(reads) < n_reads:
        raise RuntimeError(
            f"read simulator returned {len(reads)} reads, wanted {n_reads}"
        )
    return contigs, coords, reads.slice(0, n_reads)


def _evict(cache_root: str, keep: str) -> None:
    entries = [
        os.path.join(cache_root, name) for name in os.listdir(cache_root)
    ]
    entries = [e for e in entries if os.path.isdir(e) and e != keep]
    entries.sort(key=os.path.getmtime, reverse=True)
    for stale in entries[_CACHE_KEEP - 1 :]:
        shutil.rmtree(stale, ignore_errors=True)


def make_inputs(tier: str, seed: int, n_reads: int, work_dir: str) -> Inputs:
    """Generate (or load from the cache) one input set."""
    t0 = time.perf_counter()
    cache_root = os.path.join(work_dir, "inputs")
    directory = os.path.join(cache_root, f"{tier}-seed{seed}-r{n_reads}")
    truth_path = os.path.join(directory, "truth.npz")
    if os.path.exists(truth_path):
        contigs = read_fasta(os.path.join(directory, "contigs.fasta"))
        reads = read_fasta(os.path.join(directory, "reads.fasta"))
        with np.load(truth_path) as data:
            coords = (data["c_start"], data["c_end"],
                      np.ones(data["c_start"].size, dtype=bool))
            for meta, start, end, strand in zip(
                reads.metas, data["r_start"], data["r_end"], data["r_strand"]
            ):
                meta.update(ref_start=int(start), ref_end=int(end),
                            ref_strand=int(strand))
        os.utime(directory)
    else:
        contigs, coords, reads = generate(tier, seed, n_reads)
        tmp = f"{directory}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        write_fasta(os.path.join(tmp, "contigs.fasta"), contigs)
        write_fasta(os.path.join(tmp, "reads.fasta"), reads)
        np.savez(
            os.path.join(tmp, "truth.npz"),
            c_start=coords[0], c_end=coords[1],
            r_start=[m["ref_start"] for m in reads.metas],
            r_end=[m["ref_end"] for m in reads.metas],
            r_strand=[m["ref_strand"] for m in reads.metas],
        )
        shutil.rmtree(directory, ignore_errors=True)
        os.rename(tmp, directory)
    _evict(cache_root, directory)
    return Inputs(
        seed=seed, directory=directory, contigs=contigs,
        reads=reads, contig_coords=coords,
        seconds=time.perf_counter() - t0,
    )


def decoy_contigs(seed: int, batch: int, count: int) -> tuple[list[str], list[str]]:
    """(names, sequences) of one batch of random decoy contigs.

    Random sequence shares no minimizer run with the genome, so adding or
    removing decoys never changes the reference answer of a genome read.
    """
    rng = np.random.default_rng([seed, 0xDEC0, batch])
    names = [f"decoy_{batch:04d}_{j:02d}" for j in range(count)]
    alphabet = np.frombuffer(b"ACGT", dtype=np.uint8)
    seqs = [
        alphabet[rng.integers(0, 4, size=DECOY_BP)].tobytes().decode("ascii")
        for _ in range(count)
    ]
    return names, seqs
