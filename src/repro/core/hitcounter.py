"""Best-hit selection from per-trial collisions (Algorithm 2, lines 5-8).

Three interchangeable implementations:

* :func:`count_hits_lazy` — the paper's lazy-update counter array A[1..n] of
  ⟨u, v⟩ tuples: queries are processed one at a time; the counter of a
  subject is reset implicitly when its stored query id differs from the
  current query (Section III-C, implementation notes).
* :func:`count_hits_vectorised` — a groupby over packed (query, subject)
  pairs; processes the entire query set at once.
* :func:`count_hits_fused` — the fused native path: hands the *pre-sketch*
  minimizer block to :meth:`ColumnarSketchStore.lookup_fused`, which runs
  sketch → per-trial binary search → lazy-update vote in one C pass.
  Available only for columnar stores with the compiled kernels loaded;
  returns ``None`` otherwise so callers fall back.

All return identical results (unit tests enforce parity); ties on the
maximum hit count are broken toward the smallest subject id so output is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import MappingError
from .store import SketchStore, TrialHits

__all__ = ["BestHits", "count_hits_fused", "count_hits_lazy", "count_hits_vectorised"]

#: Subject id reported for unmapped queries.
UNMAPPED = -1


@dataclass(frozen=True)
class BestHits:
    """Per-query best hit.

    Attributes
    ----------
    subject:
        Best-matching subject id per query, ``-1`` when unmapped.
    count:
        Number of trials in which the query collided with that subject
        (0 when unmapped).
    """

    subject: np.ndarray
    count: np.ndarray

    def __post_init__(self) -> None:
        if self.subject.shape != self.count.shape:
            raise MappingError("subject/count shape mismatch")

    def __len__(self) -> int:
        return int(self.subject.size)

    @property
    def mapped_mask(self) -> np.ndarray:
        return self.subject >= 0

    @property
    def n_mapped(self) -> int:
        return int(np.count_nonzero(self.mapped_mask))


def count_hits_lazy(
    table: SketchStore,
    query_values: np.ndarray,
    *,
    min_hits: int = 1,
    query_mask: np.ndarray | None = None,
) -> BestHits:
    """The paper's lazy-update counter strategy (faithful reference).

    ``query_values`` is the (T, n_queries) sketch matrix.  An array
    ``A[1..n]`` of ⟨counter u, query id v⟩ is allocated once (O(n) init);
    for a hit of query j on subject i, if ``A[i].v == j`` the counter is
    incremented, otherwise it is re-seeded to (1, j) — avoiding an O(n)
    reset per query.
    """
    query_values = np.asarray(query_values, dtype=np.uint64)
    trials, n_queries = query_values.shape
    if trials != table.trials:
        raise MappingError(f"{trials} query trials vs table with {table.trials}")
    counter_u = np.zeros(table.n_subjects, dtype=np.int64)
    counter_v = np.full(table.n_subjects, -1, dtype=np.int64)
    best_subject = np.full(n_queries, UNMAPPED, dtype=np.int64)
    best_count = np.zeros(n_queries, dtype=np.int64)
    for j in range(n_queries):
        if query_mask is not None and not query_mask[j]:
            continue
        top_count = 0
        top_subject = UNMAPPED
        for t in range(trials):
            for i in table.lookup_scalar(t, int(query_values[t, j])):
                i = int(i)
                if counter_v[i] != j:
                    counter_v[i] = j
                    counter_u[i] = 0
                counter_u[i] += 1
                u = counter_u[i]
                if u > top_count or (u == top_count and i < top_subject):
                    top_count = u
                    top_subject = i
        if top_count >= min_hits:
            best_subject[j] = top_subject
            best_count[j] = top_count
    return BestHits(best_subject, best_count)


def count_hits_fused(
    table: SketchStore,
    minimizer_values: np.ndarray,
    segment_starts: np.ndarray,
    family,
    *,
    min_hits: int = 1,
    n_queries: int | None = None,
    nonempty: np.ndarray | None = None,
) -> BestHits | None:
    """Fused native best-hit selection, or ``None`` when unsupported.

    ``minimizer_values``/``segment_starts`` describe the query block
    *before sketching* (concatenated minimizer ranks of the non-empty
    segments + per-segment offsets); the store's fused kernel does the
    per-trial sketch itself.  ``nonempty`` maps the block's rows back to
    query indices in a batch of ``n_queries`` (segments outside it had no
    minimizers and are reported unmapped, exactly like a ``query_mask``).

    ``None`` is returned — and the caller must take the numpy path — when
    the store has no fused entry point (the dict store, scatter-gather
    lanes) or the native library is unavailable (no compiler,
    ``REPRO_NO_NATIVE``).  When a result is returned it is bit-identical
    to :func:`count_hits_vectorised` over the same batch.
    """
    lookup_fused = getattr(table, "lookup_fused", None)
    if lookup_fused is None:
        return None
    fused = lookup_fused(minimizer_values, segment_starts, family, min_hits=min_hits)
    if fused is None:
        return None
    subject, count = fused
    if nonempty is None and n_queries is None:
        return BestHits(subject, count)
    if n_queries is None:
        raise MappingError("count_hits_fused: nonempty requires n_queries")
    best_subject = np.full(n_queries, UNMAPPED, dtype=np.int64)
    best_count = np.zeros(n_queries, dtype=np.int64)
    rows = np.arange(subject.size) if nonempty is None else np.asarray(nonempty)
    best_subject[rows] = subject
    best_count[rows] = count
    return BestHits(best_subject, best_count)


def count_hits_vectorised(
    table: SketchStore,
    query_values: np.ndarray,
    *,
    min_hits: int = 1,
    query_mask: np.ndarray | None = None,
) -> BestHits:
    """Vectorised best-hit selection over the whole query set.

    All per-trial collisions are concatenated, multiplicities per
    (query, subject) pair are counted with one ``np.unique`` over packed
    64-bit pairs, and the best subject per query is selected with a single
    lexicographic sort (count descending, subject ascending).

    ``query_mask`` marks queries that produced sketches; masked-out queries
    are reported unmapped without lookups.
    """
    query_values = np.asarray(query_values, dtype=np.uint64)
    trials, n_queries = query_values.shape
    if trials != table.trials:
        raise MappingError(f"{trials} query trials vs table with {table.trials}")
    if n_queries >> 32:
        raise MappingError("too many queries for packed pair counting")  # pragma: no cover

    chunks: list[np.ndarray] = []
    for t in range(trials):
        hits: TrialHits = table.lookup_trial(t, query_values[t])
        if len(hits):
            pair = (hits.query_index.astype(np.uint64) << np.uint64(32)) | hits.subjects.astype(
                np.uint64
            )
            chunks.append(pair)

    best_subject = np.full(n_queries, UNMAPPED, dtype=np.int64)
    best_count = np.zeros(n_queries, dtype=np.int64)
    if chunks:
        pairs = np.concatenate(chunks)
        uniq, counts = np.unique(pairs, return_counts=True)
        q = (uniq >> np.uint64(32)).astype(np.int64)
        s = (uniq & np.uint64(0xFFFFFFFF)).astype(np.int64)
        # Sort by (query asc, count desc, subject asc); first row per query
        # is then its deterministic best hit.
        order = np.lexsort((s, -counts, q))
        q, s, counts = q[order], s[order], counts[order]
        first = np.ones(q.size, dtype=bool)
        first[1:] = q[1:] != q[:-1]
        sel = first & (counts >= min_hits)
        best_subject[q[sel]] = s[sel]
        best_count[q[sel]] = counts[sel]
    if query_mask is not None:
        query_mask = np.asarray(query_mask, dtype=bool)
        best_subject[~query_mask] = UNMAPPED
        best_count[~query_mask] = 0
    return BestHits(best_subject, best_count)
