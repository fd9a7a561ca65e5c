"""Top-x hit reporting — the extension Section IV-C sketches.

The paper observes that most recall loss comes from a wrong contig winning
the single best-hit slot, and that "if we are to extend our method to
report a fixed number, say top x hits per read, then several of the
missing contig hits could possibly be recovered."  This module implements
that extension: per query, the x most frequent colliding subjects, ranked
by (trial collisions desc, subject id asc).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import MappingError
from .store import SketchStore

__all__ = ["TopHits", "count_hits_topx"]


@dataclass(frozen=True)
class TopHits:
    """Ranked hit lists: row per query, up to x columns.

    Unused slots hold subject -1 / count 0.  Rank 0 equals the single
    best hit of :func:`~repro.core.hitcounter.count_hits_vectorised`.
    """

    subjects: np.ndarray  # (n_queries, x) int64
    counts: np.ndarray  # (n_queries, x) int64

    def __post_init__(self) -> None:
        if self.subjects.shape != self.counts.shape or self.subjects.ndim != 2:
            raise MappingError("subjects/counts must be equal-shaped 2-d arrays")

    @property
    def x(self) -> int:
        return int(self.subjects.shape[1])

    def __len__(self) -> int:
        return int(self.subjects.shape[0])

    @property
    def best(self) -> np.ndarray:
        """Rank-0 subjects (the classic single best hit)."""
        return self.subjects[:, 0]

    def hit_any(self, truth_mask_fn) -> np.ndarray:
        """Bool per query: does *any* reported hit satisfy ``truth_mask_fn``?

        ``truth_mask_fn(query_idx, subjects)`` receives flat arrays and
        returns a bool array; used by recall@x evaluation.
        """
        n, x = self.subjects.shape
        q = np.repeat(np.arange(n, dtype=np.int64), x)
        s = self.subjects.reshape(-1)
        valid = s >= 0
        ok = np.zeros(n * x, dtype=bool)
        if valid.any():
            ok[valid] = truth_mask_fn(q[valid], s[valid])
        return ok.reshape(n, x).any(axis=1)


def count_hits_topx(
    table: SketchStore,
    query_values: np.ndarray,
    *,
    x: int = 3,
    min_hits: int = 1,
    query_mask: np.ndarray | None = None,
) -> TopHits:
    """Vectorised top-x selection over the whole query set.

    Same collision counting as the best-hit path, but keeping the first x
    rows per query of the (count desc, subject asc) ordering.
    """
    if x < 1:
        raise MappingError(f"x must be >= 1, got {x}")
    query_values = np.asarray(query_values, dtype=np.uint64)
    trials, n_queries = query_values.shape
    if trials != table.trials:
        raise MappingError(f"{trials} query trials vs table with {table.trials}")

    chunks: list[np.ndarray] = []
    for t in range(trials):
        hits = table.lookup_trial(t, query_values[t])
        if len(hits):
            chunks.append(
                (hits.query_index.astype(np.uint64) << np.uint64(32))
                | hits.subjects.astype(np.uint64)
            )
    subjects = np.full((n_queries, x), -1, dtype=np.int64)
    counts = np.zeros((n_queries, x), dtype=np.int64)
    if chunks:
        pairs = np.concatenate(chunks)
        uniq, multiplicity = np.unique(pairs, return_counts=True)
        q = (uniq >> np.uint64(32)).astype(np.int64)
        s = (uniq & np.uint64(0xFFFFFFFF)).astype(np.int64)
        keep = multiplicity >= min_hits
        q, s, multiplicity = q[keep], s[keep], multiplicity[keep]
        order = np.lexsort((s, -multiplicity, q))
        q, s, multiplicity = q[order], s[order], multiplicity[order]
        # rank within each query's run
        first = np.ones(q.size, dtype=bool)
        first[1:] = q[1:] != q[:-1]
        run_starts = np.flatnonzero(first)
        rank = np.arange(q.size, dtype=np.int64) - np.repeat(
            run_starts, np.diff(np.append(run_starts, q.size))
        )
        sel = rank < x
        subjects[q[sel], rank[sel]] = s[sel]
        counts[q[sel], rank[sel]] = multiplicity[sel]
    if query_mask is not None:
        query_mask = np.asarray(query_mask, dtype=bool)
        subjects[~query_mask] = -1
        counts[~query_mask] = 0
    return TopHits(subjects=subjects, counts=counts)
