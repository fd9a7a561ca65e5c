"""JEM-mapper — the paper's primary contribution (Algorithms 1 and 2).

Public usage::

    from repro import JEMConfig, JEMMapper

    mapper = JEMMapper(JEMConfig(k=16, w=100, ell=1000, trials=30))
    mapper.index(contigs)                 # Algorithm 1 over all subjects
    result = mapper.map_reads(long_reads) # end segments + Algorithm 2

``result`` pairs every read end segment with its best-matching contig (or
-1), ready for precision/recall evaluation or scaffolding.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..errors import MappingError
from ..seq.records import SequenceSet
from ..sketch import _native
from ..sketch.hashing import HashFamily
from ..sketch.jem import (
    query_kernel,
    query_minimizer_concat,
    query_sketch_values,
    subject_intervals,
    subject_kernel,
)
from .config import JEMConfig
from .hitcounter import BestHits, count_hits_fused, count_hits_vectorised
from .segments import SegmentInfo, extract_end_segments
from .store import DEFAULT_STORE_KIND, SketchStore, build_store, iter_merged_trial_keys

__all__ = ["JEMMapper", "MappingResult", "map_segment_batch"]


@dataclass
class MappingResult:
    """Output of the L2C mapping Φ : Q → S.

    One row per query segment.  ``subject[i]`` is the contig index in the
    indexed contig set (-1 when unmapped) and ``hit_count[i]`` the number of
    trial collisions supporting it.
    """

    segment_names: list[str]
    subject: np.ndarray
    hit_count: np.ndarray
    infos: list[SegmentInfo] = field(default_factory=list)

    def __len__(self) -> int:
        return int(self.subject.size)

    @property
    def mapped_mask(self) -> np.ndarray:
        return self.subject >= 0

    @property
    def n_mapped(self) -> int:
        return int(np.count_nonzero(self.mapped_mask))

    @property
    def mapped_fraction(self) -> float:
        return self.n_mapped / len(self) if len(self) else 0.0

    def pairs(self, subject_names: list[str] | None = None) -> list[tuple[str, str]]:
        """(segment name, contig name-or-index) for every mapped segment."""
        out = []
        for i in np.flatnonzero(self.mapped_mask):
            s = int(self.subject[i])
            label = subject_names[s] if subject_names is not None else str(s)
            out.append((self.segment_names[int(i)], label))
        return out

    @classmethod
    def from_best_hits(
        cls, names: list[str], hits: BestHits, infos: list[SegmentInfo] | None = None
    ) -> "MappingResult":
        return cls(
            segment_names=list(names),
            subject=hits.subject,
            hit_count=hits.count,
            infos=list(infos) if infos is not None else [],
        )


def map_segment_batch(
    table: SketchStore,
    segments: SequenceSet,
    config: JEMConfig,
    family: HashFamily,
    infos: list[SegmentInfo] | None = None,
    *,
    threads: int | None = None,
) -> MappingResult:
    """Algorithm 2 over one segment batch — the S4 hot path, shared.

    The one place sketch + lookup + vote happens: :class:`JEMMapper`, the
    parallel driver's per-block S4 stage and the service's inline path all
    call this, so every frontend takes the same route.  When the store is
    columnar and the compiled kernels are loaded, each range of segments
    is one minimizer pass and then one fused C pass on the store's open
    native context (:func:`~repro.core.hitcounter.count_hits_fused`);
    otherwise the numpy path — the per-trial sketch kernel feeding
    :func:`~repro.core.hitcounter.count_hits_vectorised` — runs on the
    *same* pre-extracted minimizer block, so the fallback never re-extracts
    minimizers.  Both routes are bit-identical (the parity oracle contract;
    ``REPRO_NO_NATIVE=1`` forces the numpy route).

    A batch whose segments are worth it
    (:data:`~repro.sketch._native.MIN_THREAD_MAP_BASES` a thread) is cut
    into one range per thread, S1 then S4 of a range being one item of
    :func:`~repro.sketch._native.thread_map` on ``threads`` threads (None:
    :func:`~repro.sketch._native.thread_count`); segments are independent,
    so the rows are the same at any count.  A served batch, a one-CPU mask
    and the numpy route are one range, mapped inline.
    """
    shares = 1
    if hasattr(table, "lookup_fused") and _native.load() is not None:
        shares = _native.thread_shares(
            segments.total_bases, _native.MIN_THREAD_MAP_BASES, threads
        )
    # one range a thread: every further one is ≈ 0.1 ms of Python under the GIL
    ranges = _native.thread_ranges(len(segments), shares, per_thread=1)

    def map_range(bounds: tuple[int, int]) -> BestHits:
        part = segments if len(ranges) == 1 else segments.slice(*bounds)
        has, nonempty, values, starts = query_minimizer_concat(
            part, config.k, config.w, threads=1 if shares > 1 else threads
        )
        hits = count_hits_fused(
            table, values, starts, family,
            min_hits=config.min_hits, n_queries=len(part), nonempty=nonempty,
        )
        if hits is None:
            sketch_values = np.zeros((family.size, len(part)), dtype=np.uint64)
            if nonempty.size:
                sketch_values[:, nonempty] = query_kernel(values, starts, family)
            hits = count_hits_vectorised(
                table, sketch_values, min_hits=config.min_hits, query_mask=has
            )
        return hits

    parts = _native.thread_map(map_range, ranges, shares)
    hits = parts[0] if len(parts) == 1 else BestHits(
        np.concatenate([part.subject for part in parts]),
        np.concatenate([part.count for part in parts]),
    )
    return MappingResult.from_best_hits(segments.names, hits, infos)


class JEMMapper:
    """Sketch-based long-read-to-contig mapper.

    The mapper is *deterministic* for a fixed :class:`JEMConfig` (the hash
    constants derive from ``config.seed``), and the index can be built
    block by block (:meth:`index_partitioned`, the one build body) — the
    sequential equivalent of the paper's parallel steps S1–S3.
    """

    def __init__(
        self,
        config: JEMConfig | None = None,
        *,
        store_kind: str | None = None,
        threads: int | None = None,
    ) -> None:
        self.config = config if config is not None else JEMConfig()
        self.store_kind = store_kind if store_kind is not None else DEFAULT_STORE_KIND
        #: threads of the native kernels (None: their default,
        #: :func:`~repro.sketch._native.thread_count`); `jem map -p N`
        self.threads = threads
        self._family: HashFamily = self.config.hash_family()
        self._table: SketchStore | None = None
        self._subject_names: list[str] = []

    # -- index construction (Algorithm 1 over subjects) ---------------------

    @property
    def table(self) -> SketchStore:
        if self._table is None:
            raise MappingError("index() must be called before mapping")
        return self._table

    #: alias — the resident index is a store; ``table`` is the legacy name
    @property
    def store(self) -> SketchStore:
        return self.table

    @property
    def is_indexed(self) -> bool:
        return self._table is not None

    @property
    def subject_names(self) -> list[str]:
        return self._subject_names

    def adopt_store(self, store: SketchStore, subject_names: list[str]) -> None:
        """Install a pre-built store (persist load, shm attach, engine)."""
        self._table = store
        self._subject_names = list(subject_names)

    def index(self, contigs: SequenceSet) -> SketchStore:
        """Sketch all subjects and build the per-trial tables S[1..T]."""
        return self.index_partitioned([contigs])

    def index_partitioned(
        self,
        partitions: Iterable[SequenceSet],
        unit: Callable[[int, Callable[[], list[np.ndarray]]], list[np.ndarray]] | None = None,
    ) -> SketchStore:
        """Build the index from disjoint contig blocks, consumed one at a time.

        The paper's S1–S3 run in sequence: each block (any iterable — a
        generator over a file holds one block at a time) is sketched with
        subject ids offset by the contigs seen so far, the same global ids
        the parallel driver assigns, and the per-trial tables are unioned
        once, each trial's merged keys going straight into the store's
        columns.  The result is identical to :meth:`index` — its one-block
        case — on the concatenated set, at any :attr:`threads` count (each
        block's S1 and S2 are split over them).  ``unit(k, sketch)``, when
        given, returns block k's keys in place of ``sketch()`` — a
        checkpointed build's load-or-sketch-and-commit.  Nothing here holds
        a block once ``sketch`` has it, and ``sketch`` lets it go after S1,
        so the block's codes are freed before S2 takes its scratch.
        """
        parts: list[list[np.ndarray]] = []
        names: list[str] = []
        k = 0  # not enumerate(): its reused result tuple holds the last block
        for part in partitions:
            offset = len(names)
            names.extend(part.names)
            held = [part]
            del part
            sketch = partial(self._sketch_block, held, offset)
            parts.append(sketch() if unit is None else unit(k, sketch))
            held.clear()  # a loaded unit never sketched it
            k += 1
        if not names:  # no block, or only empty ones
            raise MappingError("cannot index an empty contig set")
        self._table = build_store(
            self.store_kind, iter_merged_trial_keys(parts), n_subjects=len(names)
        )
        self._subject_names = names
        return self._table

    def _sketch_block(self, held: list[SequenceSet], offset: int) -> list[np.ndarray]:
        """S1 then S2 of the one block ``held`` holds, its subject ids from
        ``offset``; the block is popped, so its codes die with S1."""
        cfg = self.config
        intervals = subject_intervals(
            held.pop(), cfg.k, cfg.w, cfg.ell, subject_id_offset=offset, threads=self.threads
        )
        return subject_kernel(*intervals, self._family, threads=self.threads)

    # -- mapping (Algorithm 2) ----------------------------------------------

    def map_segments(self, segments: SequenceSet, infos: list[SegmentInfo] | None = None) -> MappingResult:
        """Map pre-extracted query segments against the index.

        Routes through :func:`map_segment_batch`: the fused native pass
        when the store is columnar and the compiled kernels are loaded,
        the numpy path otherwise — bit-identical either way.
        """
        return map_segment_batch(
            self.table, segments, self.config, self._family, infos,
            threads=self.threads,
        )

    def map_reads(self, reads: SequenceSet) -> MappingResult:
        """Extract prefix/suffix end segments of length ℓ and map them."""
        segments, infos = extract_end_segments(reads, self.config.ell)
        return self.map_segments(segments, infos)

    def map_segments_topx(self, segments: SequenceSet, x: int = 3) -> "TopHits":
        """Ranked top-x hits per segment (Section IV-C's proposed extension)."""
        from .topx import count_hits_topx

        cfg = self.config
        sketches = query_sketch_values(segments, cfg.k, cfg.w, self._family)
        return count_hits_topx(
            self.table, sketches.values, x=x,
            min_hits=cfg.min_hits, query_mask=sketches.has,
        )
