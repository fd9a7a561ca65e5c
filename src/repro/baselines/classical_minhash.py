"""Classical MinHash mapper — the baseline of Fig. 6.

Identical workflow to JEM-mapper (per-trial tables, hit counting, end
segments) but the sketch of a subject is Broder's classical bottom-1
MinHash over *all* its k-mers, with no minimizer windowing and no ℓ-length
intervals.  A long contig therefore contributes exactly T sketch k-mers,
drawn from anywhere along its length — which is precisely why it needs far
more trials than JEM to collide with a 1000 bp end segment (Section IV-C).
"""

from __future__ import annotations

import numpy as np

from ..core.config import JEMConfig
from ..core.hitcounter import count_hits_vectorised
from ..core.mapper import MappingResult
from ..core.segments import extract_end_segments
from ..core.store import ColumnarSketchStore
from ..errors import MappingError
from ..seq.records import SequenceSet
from ..sketch.kernels import key_scratch, pack_keys_batched, sorted_unique_rows
from ..sketch.minhash import minhash_sketch_set

__all__ = ["ClassicalMinHashMapper"]


class ClassicalMinHashMapper:
    """Drop-in counterpart of :class:`~repro.core.mapper.JEMMapper`.

    Shares :class:`JEMConfig` (k, ℓ, T, seed); ``w`` is ignored because the
    classical scheme sketches every k-mer.
    """

    def __init__(
        self,
        config: JEMConfig | None = None,
        *,
        use_minimizers: bool = False,
    ) -> None:
        self.config = config if config is not None else JEMConfig()
        self._family = self.config.hash_family()
        self._table: ColumnarSketchStore | None = None
        self._subject_names: list[str] = []
        #: when true, sketches draw from the (w, k)-minimizer set instead of
        #: all k-mers — the "minimizer MinHash" ablation variant
        self.use_minimizers = bool(use_minimizers)

    @property
    def _minimizer_w(self) -> int | None:
        return self.config.w if self.use_minimizers else None

    @property
    def table(self) -> ColumnarSketchStore:
        if self._table is None:
            raise MappingError("index() must be called before mapping")
        return self._table

    @property
    def subject_names(self) -> list[str]:
        return self._subject_names

    def index(self, contigs: SequenceSet) -> ColumnarSketchStore:
        """One bottom-1 MinHash per (subject, trial) into the trial tables."""
        if len(contigs) == 0:
            raise MappingError("cannot index an empty contig set")
        sketches, has = minhash_sketch_set(
            contigs, self.config.k, self._family, minimizer_w=self._minimizer_w
        )
        subject_ids = np.arange(len(contigs), dtype=np.uint64)[has]
        # One hoisted validation + shift-or over the (T, n) matrix, one
        # row-wise dedupe instead of T pack_key + np.unique rounds.
        packed = pack_keys_batched(
            sketches[:, has], subject_ids,
            out=key_scratch(self.config.trials, int(subject_ids.size)),
        )
        self._table = ColumnarSketchStore.from_trial_keys(
            sorted_unique_rows(packed), n_subjects=len(contigs)
        )
        self._subject_names = list(contigs.names)
        return self._table

    def map_segments(self, segments: SequenceSet, infos=None) -> MappingResult:
        """Sketch each segment classically and pick the most frequent collider."""
        sketches, has = minhash_sketch_set(
            segments, self.config.k, self._family, minimizer_w=self._minimizer_w
        )
        hits = count_hits_vectorised(
            self.table, sketches, min_hits=self.config.min_hits, query_mask=has
        )
        return MappingResult.from_best_hits(segments.names, hits, infos)

    def map_reads(self, reads: SequenceSet) -> MappingResult:
        segments, infos = extract_end_segments(reads, self.config.ell)
        return self.map_segments(segments, infos)
