"""Dataset registry — the eight Table I inputs, scaled.

Each :class:`DatasetSpec` mirrors one organism row of Table I: genome size,
repeat character (which drives contig fragmentation and mapping precision),
short-read coverage feeding the assembler, and the HiFi read profile.  The
``scale`` parameter shrinks genomes so the full suite runs on one machine
in minutes; Table I's *relative* statistics (contig counts and length
distributions across organisms, read counts at 10x coverage) are preserved.

Generated datasets are cached as ``.npz`` bundles keyed by
(name, scale, seed) so the seven benchmark programs can share them.
"""

from __future__ import annotations

import os
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np

from ..assembly import AssemblyConfig, assemble
from ..errors import DatasetError
from ..seq.packed import pack_codes, unpack_codes
from ..seq.records import SequenceSet
from ..simulate import (
    GenomeProfile,
    HiFiProfile,
    IlluminaProfile,
    simulate_genome,
    simulate_hifi_reads,
    simulate_short_reads,
)

__all__ = ["DatasetSpec", "Dataset", "DATASETS", "dataset_names", "generate_dataset", "load_or_generate"]

#: Default genome scale: 1/200 of the organism's true size (floored below).
DEFAULT_SCALE = 1.0 / 200.0

#: Smallest genome generated regardless of scale (keeps tiny bacteria viable).
MIN_GENOME = 100_000


@dataclass(frozen=True)
class DatasetSpec:
    """One Table I input, parameterised for regeneration at any scale."""

    name: str
    organism: str
    full_genome_length: int
    repeat_fraction: float
    repeat_divergence: float
    repeat_length: int
    short_read_coverage: float
    hifi_coverage: float = 10.0
    hifi_median_length: int = 10_000
    assembly_k: int = 25
    assembly_min_count: int = 3
    min_contig_length: int = 300
    is_real_like: bool = False

    def genome_length(self, scale: float) -> int:
        return max(int(self.full_genome_length * scale), MIN_GENOME)

    def genome_profile(self, scale: float) -> GenomeProfile:
        return GenomeProfile(
            length=self.genome_length(scale),
            repeat_fraction=self.repeat_fraction,
            repeat_divergence=self.repeat_divergence,
            repeat_length=self.repeat_length,
        )

    def hifi_profile(self, scale: float) -> HiFiProfile:
        median = min(self.hifi_median_length, max(2_000, self.genome_length(scale) // 4))
        return HiFiProfile(
            coverage=self.hifi_coverage,
            median_length=median,
            min_length=min(1_000, median),
        )

    def illumina_profile(self) -> IlluminaProfile:
        return IlluminaProfile(coverage=self.short_read_coverage)

    def assembly_config(self) -> AssemblyConfig:
        return AssemblyConfig(
            k=self.assembly_k,
            min_count=self.assembly_min_count,
            min_contig_length=self.min_contig_length,
        )


@dataclass
class Dataset:
    """A generated dataset: reference genome, contigs (S), long reads (Q)."""

    spec: DatasetSpec
    scale: float
    seed: int
    genome: np.ndarray
    contigs: SequenceSet
    reads: SequenceSet

    @property
    def name(self) -> str:
        return self.spec.name


# Bacterial genomes assemble into long contigs (Table I: ~12-13 kbp mean);
# eukaryotes are repeat-rich and fragment into ~2-3.5 kbp contigs.  Repeat
# fraction/divergence and short-read coverage are tuned to reproduce that
# contrast at reduced scale.
DATASETS: dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in [
        # Repeat parameters are calibrated so assembled contig length
        # statistics track Table I: bacteria ~ 7-12 kbp mean contigs,
        # nematode/fish ~ 2-3.5 kbp, fly ~ 2.5 kbp, human/rice ~ 2 kbp.
        # Short (300-400 bp) lightly-diverged repeats fragment the de
        # Bruijn graph (any >= 25 bp exact copy branches it) while leaving
        # 1000 bp end segments mostly unique — the same balance real
        # transposon landscapes strike.
        DatasetSpec(
            name="e_coli", organism="E. coli",
            full_genome_length=4_641_652,
            repeat_fraction=0.004, repeat_divergence=0.05, repeat_length=1_000,
            short_read_coverage=25.0,
        ),
        DatasetSpec(
            name="p_aeruginosa", organism="P. aeruginosa",
            full_genome_length=6_264_404,
            repeat_fraction=0.006, repeat_divergence=0.05, repeat_length=1_000,
            short_read_coverage=25.0,
        ),
        DatasetSpec(
            name="c_elegans", organism="C. elegans",
            full_genome_length=100_286_401,
            repeat_fraction=0.07, repeat_divergence=0.01, repeat_length=400,
            short_read_coverage=25.0,
        ),
        DatasetSpec(
            name="d_busckii", organism="D. busckii",
            full_genome_length=118_492_362,
            repeat_fraction=0.08, repeat_divergence=0.01, repeat_length=400,
            short_read_coverage=25.0,
        ),
        DatasetSpec(
            name="human_chr7", organism="Human chr 7",
            full_genome_length=159_345_973,
            repeat_fraction=0.12, repeat_divergence=0.015, repeat_length=400,
            short_read_coverage=25.0,
        ),
        DatasetSpec(
            name="human_chr8", organism="Human chr 8",
            full_genome_length=145_138_636,
            repeat_fraction=0.12, repeat_divergence=0.015, repeat_length=400,
            short_read_coverage=25.0,
        ),
        DatasetSpec(
            name="b_splendens", organism="B. splendens",
            full_genome_length=339_050_970,
            repeat_fraction=0.06, repeat_divergence=0.01, repeat_length=400,
            short_read_coverage=25.0,
        ),
        DatasetSpec(
            name="o_sativa_chr8", organism="O. sativa chr 8 (real-like)",
            full_genome_length=28_443_022,
            repeat_fraction=0.12, repeat_divergence=0.015, repeat_length=400,
            short_read_coverage=25.0,
            hifi_coverage=25.0, hifi_median_length=19_600,
            is_real_like=True,
        ),
    ]
}

#: The inputs Table II / Fig. 7 call "larger".
LARGE_DATASETS = (
    "c_elegans", "d_busckii", "human_chr7", "human_chr8", "b_splendens", "o_sativa_chr8",
)


def dataset_names() -> list[str]:
    return list(DATASETS)


def generate_dataset(
    name: str, *, scale: float = DEFAULT_SCALE, seed: int = 0
) -> Dataset:
    """Generate one dataset from scratch: genome → short reads → contigs; HiFi reads."""
    if name not in DATASETS:
        raise DatasetError(f"unknown dataset {name!r}; known: {', '.join(DATASETS)}")
    if scale <= 0:
        raise DatasetError(f"scale must be > 0, got {scale}")
    spec = DATASETS[name]
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, zlib.crc32(name.encode("ascii"))])
    )
    genome = simulate_genome(spec.genome_profile(scale), rng)
    short_reads = simulate_short_reads(genome, spec.illumina_profile(), rng)
    contigs = assemble(short_reads, spec.assembly_config())
    if len(contigs) == 0:
        raise DatasetError(f"dataset {name!r}: assembly produced no contigs")
    reads = simulate_hifi_reads(genome, spec.hifi_profile(scale), rng)
    return Dataset(spec=spec, scale=scale, seed=seed, genome=genome, contigs=contigs, reads=reads)


# -- on-disk caching ---------------------------------------------------------


def _save_set(npz: dict, prefix: str, sequences: SequenceSet, with_truth: bool) -> None:
    packed, invalid = pack_codes(sequences.buffer)
    npz[f"{prefix}_packed"] = packed
    npz[f"{prefix}_invalid"] = invalid
    npz[f"{prefix}_offsets"] = sequences.offsets
    npz[f"{prefix}_names"] = np.array(sequences.names)
    if with_truth:
        npz[f"{prefix}_start"] = np.array(
            [m.get("ref_start", -1) for m in sequences.metas], dtype=np.int64
        )
        npz[f"{prefix}_end"] = np.array(
            [m.get("ref_end", -1) for m in sequences.metas], dtype=np.int64
        )
        npz[f"{prefix}_strand"] = np.array(
            [m.get("ref_strand", 1) for m in sequences.metas], dtype=np.int64
        )


def _load_set(data, prefix: str, with_truth: bool) -> SequenceSet:
    offsets = data[f"{prefix}_offsets"]
    if f"{prefix}_packed" in data:
        buffer = unpack_codes(
            data[f"{prefix}_packed"], int(offsets[-1]), data[f"{prefix}_invalid"]
        )
    else:  # pre-packing cache format
        buffer = data[f"{prefix}_buffer"]
    names = [str(n) for n in data[f"{prefix}_names"]]
    metas = None
    if with_truth:
        starts = data[f"{prefix}_start"]
        ends = data[f"{prefix}_end"]
        strands = data[f"{prefix}_strand"]
        metas = [
            {"ref_start": int(s), "ref_end": int(e), "ref_strand": int(st)}
            for s, e, st in zip(starts, ends, strands)
        ]
    return SequenceSet(buffer, offsets, names, metas)


def load_or_generate(
    name: str,
    *,
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
    cache_dir: str | os.PathLike | None = None,
) -> Dataset:
    """Generate a dataset, reusing an ``.npz`` cache when available."""
    if cache_dir is None:
        return generate_dataset(name, scale=scale, seed=seed)
    os.makedirs(cache_dir, exist_ok=True)
    tag = f"{name}_s{scale:.6f}_r{seed}".replace(".", "p")
    path = os.path.join(os.fspath(cache_dir), f"{tag}.npz")
    if os.path.exists(path):
        try:
            with np.load(path, allow_pickle=False) as data:
                if "genome_packed" in data:
                    genome = unpack_codes(
                        data["genome_packed"], int(data["genome_len"]), data["genome_invalid"]
                    )
                else:  # pre-packing cache format
                    genome = data["genome"]
                return Dataset(
                    spec=DATASETS[name],
                    scale=scale,
                    seed=seed,
                    genome=genome,
                    contigs=_load_set(data, "contigs", with_truth=False),
                    reads=_load_set(data, "reads", with_truth=True),
                )
        except (OSError, ValueError, KeyError, zipfile.BadZipFile):
            # A truncated or otherwise unreadable cache file (interrupted
            # write, checkout mangling a binary) is a cache miss, not an
            # error: fall through and regenerate deterministically.
            pass
    dataset = generate_dataset(name, scale=scale, seed=seed)
    g_packed, g_invalid = pack_codes(dataset.genome)
    payload: dict = {
        "genome_packed": g_packed,
        "genome_invalid": g_invalid,
        "genome_len": np.int64(dataset.genome.size),
    }
    _save_set(payload, "contigs", dataset.contigs, with_truth=False)
    _save_set(payload, "reads", dataset.reads, with_truth=True)
    np.savez_compressed(path, **payload)
    return dataset
