"""Synthetic genome generator (substitute for the paper's NCBI genomes).

The mapper's quality behaviour is driven by two genome properties the paper
calls out: size and **repeat content** ("eukaryotic inputs have more
repetitive content that may lead to reduced precision", Section IV-C).  The
generator therefore exposes both: a base random genome plus a controllable
fraction of duplicated segments re-inserted elsewhere (with light mutation,
as real repeats diverge).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DatasetError

__all__ = ["GenomeProfile", "simulate_genome"]


@dataclass(frozen=True)
class GenomeProfile:
    """Parameters controlling genome synthesis.

    Attributes
    ----------
    length:
        Genome length in bp.
    gc_content:
        Fraction of g/c bases in the random background.
    repeat_fraction:
        Fraction of the genome covered by copied (repeated) segments.
    repeat_length:
        Mean length of one repeated segment.
    repeat_divergence:
        Per-base substitution probability applied to each repeat copy —
        0 gives exact repeats (hardest case), ~0.05 gives diverged families.
    """

    length: int
    gc_content: float = 0.5
    repeat_fraction: float = 0.0
    repeat_length: int = 2_000
    repeat_divergence: float = 0.02

    def __post_init__(self) -> None:
        if self.length < 1:
            raise DatasetError(f"genome length must be >= 1, got {self.length}")
        if not 0.0 < self.gc_content < 1.0:
            raise DatasetError(f"gc_content must be in (0, 1), got {self.gc_content}")
        if not 0.0 <= self.repeat_fraction < 1.0:
            raise DatasetError("repeat_fraction must be in [0, 1)")
        if self.repeat_length < 1:
            raise DatasetError("repeat_length must be >= 1")
        if not 0.0 <= self.repeat_divergence < 1.0:
            raise DatasetError("repeat_divergence must be in [0, 1)")


def _random_background(profile: GenomeProfile, rng: np.random.Generator) -> np.ndarray:
    gc = profile.gc_content
    probs = np.array([(1 - gc) / 2, gc / 2, gc / 2, (1 - gc) / 2])
    return rng.choice(4, size=profile.length, p=probs).astype(np.uint8)


def simulate_genome(
    profile: GenomeProfile, rng: np.random.Generator | int | None = None
) -> np.ndarray:
    """Generate a genome code array from a profile.

    Repeats are created by copying source segments to random destinations,
    optionally reverse-complemented (half the time) and lightly mutated, so
    repeat families look like real transposon insertions rather than exact
    tandem copies.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    genome = _random_background(profile, rng)
    if profile.repeat_fraction <= 0.0 or profile.length < 2 * profile.repeat_length:
        return genome
    target_bases = int(profile.repeat_fraction * profile.length)
    copied = 0
    while copied < target_bases:
        seg_len = max(
            200, int(rng.normal(profile.repeat_length, profile.repeat_length / 4))
        )
        seg_len = min(seg_len, profile.length // 2)
        src = int(rng.integers(0, profile.length - seg_len))
        dst = int(rng.integers(0, profile.length - seg_len))
        segment = genome[src : src + seg_len].copy()
        if rng.random() < 0.5:
            segment = (3 - segment)[::-1]  # reverse complement copy
        if profile.repeat_divergence > 0:
            flip = rng.random(seg_len) < profile.repeat_divergence
            segment[flip] = (segment[flip] + rng.integers(1, 4, size=int(flip.sum()))) % 4
        genome[dst : dst + seg_len] = segment
        copied += seg_len
    return genome
