"""Sketch diagnostics: densities, table load, collision statistics.

Production sketch indexes need observability: how many minimizers per base
did winnowing keep, how large is each trial's table, how discriminative are
the sketch values (a value shared by hundreds of subjects stops being
informative).  These numbers also back the paper's space-complexity
discussion (Section III-C.1: |S_global| is far below the O(n·ℓ_s·T) worst
case because sketches come from minimizers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.store import SketchStore
from ..seq.records import SequenceSet
from .minimizers import minimizers

__all__ = ["SketchStats", "table_stats", "observed_minimizer_density"]


@dataclass(frozen=True)
class SketchStats:
    """Aggregate statistics of a built sketch table."""

    trials: int
    n_subjects: int
    total_entries: int
    nbytes: int
    entries_per_trial_mean: float
    distinct_values_per_trial_mean: float
    max_subjects_per_value: int
    mean_subjects_per_value: float

    def format_report(self) -> str:
        return (
            f"sketch table: T={self.trials}, {self.n_subjects:,} subjects, "
            f"{self.total_entries:,} entries ({self.nbytes / 1e6:.2f} MB)\n"
            f"  per trial: {self.entries_per_trial_mean:,.0f} entries over "
            f"{self.distinct_values_per_trial_mean:,.0f} distinct sketch values\n"
            f"  subjects per value: mean {self.mean_subjects_per_value:.2f}, "
            f"max {self.max_subjects_per_value}"
        )


def table_stats(table: SketchStore) -> SketchStats:
    """Compute :class:`SketchStats` for a built table."""
    entries = []
    distinct = []
    max_bucket = 0
    bucket_sizes: list[int] = []
    for t in range(table.trials):
        keys = table.trial_keys(t)
        entries.append(int(keys.size))
        values = keys >> np.uint64(32)
        if values.size == 0:
            distinct.append(0)
            continue
        _uniq, counts = np.unique(values, return_counts=True)
        distinct.append(int(_uniq.size))
        max_bucket = max(max_bucket, int(counts.max()))
        bucket_sizes.extend(counts.tolist())
    return SketchStats(
        trials=table.trials,
        n_subjects=table.n_subjects,
        total_entries=table.total_entries,
        nbytes=table.nbytes,
        entries_per_trial_mean=float(np.mean(entries)) if entries else 0.0,
        distinct_values_per_trial_mean=float(np.mean(distinct)) if distinct else 0.0,
        max_subjects_per_value=max_bucket,
        mean_subjects_per_value=float(np.mean(bucket_sizes)) if bucket_sizes else 0.0,
    )


def observed_minimizer_density(sequences: SequenceSet, k: int, w: int) -> float:
    """Measured minimizers per base over a sequence set (~2/(w+1) expected)."""
    total_minis = 0
    total_bases = 0
    for i in range(len(sequences)):
        codes = sequences.codes_of(i)
        if codes.size < k:
            continue
        total_minis += len(minimizers(codes, k, w))
        total_bases += int(codes.size)
    return total_minis / total_bases if total_bases else 0.0
