"""Log-structured mutability over the sketch store — online add/remove.

The paper builds the contig index once (S1–S3) and treats it as immutable
during mapping (S4).  Production assemblies are not static: contigs are
added, split and retired while mapping traffic continues (Minimap2's
on-the-fly indexing, ntLink's iterative re-scaffolding).  This module makes
the index *mutable* without giving up the immutable read path every
consumer relies on, using the classic LSM-tree decomposition:

:class:`IndexGeneration`
    One immutable snapshot of the whole index, satisfying the
    :class:`~repro.core.store.SketchStore` protocol.  It layers

    * a stack of immutable sorted :class:`ColumnarSketchStore` **segments**
      (sealed batches of contigs),
    * a small **memtable** — the contigs added since the last flush, held
      as one more sorted :class:`ColumnarSketchStore` run (its lookups are
      a segment's vectorised ``searchsorted``; a flush seals it unchanged
      as the next segment), and
    * contig-level **tombstones** — ids masked out of every lookup, so a
      remove is O(1) and never rewrites a segment.

    ``lookup_trial`` merges per-source hits back into the (query index,
    subject id) order the vote kernel requires; each contig's entries live
    in exactly one source (ids are never reused), so the merge is a
    concatenate + tombstone mask + stable lexsort — bit-identical to a
    from-scratch rebuild over the surviving contigs.  When the generation
    is *clean* (exactly one segment, empty memtable, no tombstones — the
    state compaction produces) ``lookup_fused`` delegates straight to the
    segment's fused native kernel, so a compacted mutable index maps at
    full S4 speed.

:class:`MutableSketchStore`
    The mutable handle: applies ``add_contigs`` / ``remove_contigs`` /
    ``flush`` / ``compact`` and publishes a fresh :class:`IndexGeneration`
    per mutation (copy-on-write — readers holding the previous generation
    are never disturbed).  With a directory attached the handle is
    *durable*: every mutation is logged to a CRC-framed
    :class:`~repro.resilience.checkpoint.CheckpointLog` WAL before it is
    applied, segment files are committed atomically, and ``manifest.json``
    (index format **v4**) snapshots the applied state so replay only
    re-runs the WAL suffix.  A crash — including SIGKILL mid-compaction —
    loses at most the un-fsynced tail of the WAL; replay is torn-tail-safe
    and converges to exactly the state the completed mutations describe.

    Format v3 bundles load as a single-segment generation-0 index
    (:meth:`MutableSketchStore.from_bundle`), so existing saved indexes
    migrate without a rebuild.

Durability protocol (why replay is crash-safe at every step):

* ``add``/``remove`` append one WAL record (fsync'd) *before* mutating
  memory.  Add records carry the raw sequences; replay re-sketches them
  deterministically (the sketch kernels are pure functions of config).
* ``flush``/``compact`` write the new segment file atomically *first*,
  then append the WAL record naming it (with its CRC32), then rewrite the
  manifest with ``applied_seq`` = that record's seq, then reset the WAL
  (and, for compact, delete the superseded segment files).  A crash
  between any two steps replays to the same state: the record is ignored
  if its file is missing or bad (the memtable/segments it would fold are
  still live), and records with ``seq <= applied_seq`` are skipped because
  the manifest already incorporates them.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import zipfile
from itertools import chain
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..errors import IndexCorruptError, MappingError
from ..seq.records import SequenceSet
from ..sketch.jem import subject_sketch_pairs
from .config import JEMConfig
from .store import ColumnarSketchStore, SketchStore, TrialHits

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.checkpoint import CheckpointLog

__all__ = [
    "IndexGeneration",
    "MutableSketchStore",
    "store_stats",
    "MUTABLE_FORMAT_VERSION",
    "MANIFEST_NAME",
    "WAL_NAME",
]

#: Index format v4: a directory with a manifest of segment files + a WAL.
MUTABLE_FORMAT_VERSION = 4

MANIFEST_NAME = "manifest.json"
WAL_NAME = "wal.log"
_SEGMENTS_DIR = "segments"


class IndexGeneration:
    """One immutable, generation-stamped snapshot of the mutable index.

    Satisfies the :class:`~repro.core.store.SketchStore` protocol, so
    every existing consumer — the vote kernels, the service, persistence,
    shard planning — reads it like any other store.  Its live entries are
    fixed at construction; mutations happen by building a *new* generation
    (:class:`MutableSketchStore` does this), never by touching this one.
    The one slot set later is ``_folded``, the cache of a dirty
    generation's :meth:`as_columnar`: a function of those fixed entries,
    so it never goes stale.
    """

    __slots__ = (
        "segments",
        "memtable",
        "tombstones",
        "removed",
        "n_subjects",
        "subject_names",
        "generation",
        "_dead",
        "_folded",
    )

    def __init__(
        self,
        segments: tuple[ColumnarSketchStore, ...],
        memtable: ColumnarSketchStore | None,
        tombstones: frozenset[int],
        n_subjects: int,
        subject_names: tuple[str, ...],
        generation: int,
        removed: frozenset[int] = frozenset(),
    ) -> None:
        self.segments = tuple(segments)
        self.memtable = memtable
        self.tombstones = frozenset(tombstones)
        self.removed = frozenset(removed) | self.tombstones
        self.n_subjects = int(n_subjects)
        self.subject_names = tuple(subject_names)
        self.generation = int(generation)
        #: ``_dead[id]`` marks a tombstoned subject id: one ``take`` masks a
        #: column, however many tombstones there are
        self._dead: np.ndarray | None = None
        if self.tombstones:
            self._dead = np.zeros(self.n_subjects, dtype=bool)
            self._dead[list(self.tombstones)] = True
        #: this generation folded into one columnar store, built at the
        #: first :meth:`as_columnar` of a dirty generation (or handed over
        #: by the flush that published it) and reused after that
        self._folded: ColumnarSketchStore | None = None

    # -- structure -----------------------------------------------------------

    @property
    def is_clean(self) -> bool:
        """True for the compacted shape: one segment, no memtable, no tombstones.

        Clean generations take the fused native read path unchanged; dirty
        ones merge per-source hits on the numpy path until compaction.
        """
        return (
            len(self.segments) == 1
            and self.memtable is None
            and not self.tombstones
        )

    def _sources(self) -> list[ColumnarSketchStore]:
        sources: list[ColumnarSketchStore] = []
        if self.memtable is not None:
            sources.append(self.memtable)
        sources.extend(self.segments)
        return sources

    @property
    def memtable_entries(self) -> int:
        return self.memtable.total_entries if self.memtable is not None else 0

    @property
    def live_subjects(self) -> int:
        # ``removed`` is monotone across compactions; tombstones alone
        # would undercount once the entries are physically folded away.
        return self.n_subjects - len(self.removed)

    # -- SketchStore protocol ------------------------------------------------

    @property
    def trials(self) -> int:
        for src in self._sources():
            return src.trials
        return 0

    @property
    def total_entries(self) -> int:
        return int(sum(src.total_entries for src in self._sources()))

    @property
    def nbytes(self) -> int:
        return int(sum(src.nbytes for src in self._sources()))

    def lookup_trial(self, t: int, query_values: np.ndarray) -> TrialHits:
        """Merged lookup: concatenate per-source hits, mask tombstones, resort.

        Each subject's entries live in exactly one source (contigs are
        added atomically and ids are never reused), so the concatenation
        has no duplicates and the final ``lexsort`` restores the exact
        (query index, subject id) order a monolithic rebuilt store returns.
        """
        sources = self._sources()
        if not sources:
            empty = np.empty(0, dtype=np.int64)
            return TrialHits(empty, empty)
        if len(sources) == 1 and self._dead is None:
            return sources[0].lookup_trial(t, query_values)
        idx_chunks: list[np.ndarray] = []
        sub_chunks: list[np.ndarray] = []
        for src in sources:
            hits = src.lookup_trial(t, query_values)
            if len(hits):
                idx_chunks.append(hits.query_index)
                sub_chunks.append(hits.subjects)
        if not idx_chunks:
            empty = np.empty(0, dtype=np.int64)
            return TrialHits(empty, empty)
        query_index = np.concatenate(idx_chunks)
        subjects = np.concatenate(sub_chunks)
        if self._dead is not None:
            keep = ~self._dead.take(subjects)
            query_index = query_index[keep]
            subjects = subjects[keep]
        order = np.lexsort((subjects, query_index))
        return TrialHits(query_index[order], subjects[order])

    def lookup_scalar(self, t: int, value: int) -> np.ndarray:
        return self.lookup_trial(t, np.array([value], dtype=np.uint64)).subjects

    def lookup_fused(
        self,
        query_values: np.ndarray,
        query_starts: np.ndarray,
        family,
        *,
        min_hits: int = 1,
    ):
        """Fused native S4 pass — only on the clean (compacted) shape.

        A dirty generation returns ``None`` so callers fall back to the
        numpy merge path; after :meth:`MutableSketchStore.compact` the
        single sealed segment answers exactly as an immutable index would,
        through the native context it opens at its first fused lookup —
        once per installed generation, the segment being new with it.
        """
        if not self.is_clean:
            return None
        return self.segments[0].lookup_fused(
            query_values, query_starts, family, min_hits=min_hits
        )

    def values_of_trial(self, t: int) -> np.ndarray:
        # a value whose only carriers are tombstoned has no surviving key
        return np.unique(self.trial_keys(t) >> np.uint64(32))

    def trial_keys(self, t: int) -> np.ndarray:
        """Merged sorted packed keys of trial ``t``, tombstones filtered out."""
        sources = self._sources()
        if not sources:
            return np.empty(0, dtype=np.uint64)
        chunks = [src.trial_keys(t) for src in sources]
        if self._dead is not None:
            chunks = [keys[self._survivors(src, t)] for keys, src in zip(chunks, sources)]
        keys = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
        keys.sort(kind="stable")  # sorted runs: timsort merges them in linear time
        return keys

    def _survivors(self, src: ColumnarSketchStore, t: int) -> np.ndarray:
        """Mask of ``src``'s trial-``t`` entries whose subject is not tombstoned."""
        return ~self._dead.take(src.subjects[t])

    def _live_entries(self, t: int) -> int:
        """Trial ``t``'s entry count once tombstoned subjects are dropped."""
        if self._dead is None:
            return sum(src.values[t].size for src in self._sources())
        return sum(np.count_nonzero(self._survivors(src, t)) for src in self._sources())

    def as_columnar(self) -> ColumnarSketchStore:
        """Fold this generation into one columnar store (same subject ids).

        This *is* the compaction kernel, and it writes the fold once: the
        surviving entry count of every trial sizes the flat columns, then
        :meth:`ColumnarSketchStore.from_sized_keys` fills them from one
        trial's merged sorted keys minus tombstones at a time.  The fused
        kernel maps over the result's columns as they are.
        ``n_subjects`` stays the allocated id count so live ids keep their
        meaning.

        A generation is folded at most once: a clean one is its segment,
        and a dirty one's fold is kept in ``_folded``, so the scatter
        fleet's install and the compaction after it share one root.  (The
        fleet and the handle fold under their mutation locks; two racing
        callers would build equal stores and keep one.)
        """
        if self.is_clean:
            return self.segments[0]
        if self._folded is None:
            self._folded = ColumnarSketchStore.from_sized_keys(
                [self._live_entries(t) for t in range(self.trials)],
                (self.trial_keys(t) for t in range(self.trials)),
                self.n_subjects,
            )
        return self._folded

    def __repr__(self) -> str:
        return (
            f"IndexGeneration(gen={self.generation}, segments={len(self.segments)}, "
            f"memtable={self.memtable_entries}, tombstones={len(self.tombstones)}, "
            f"n_subjects={self.n_subjects})"
        )


def store_stats(store) -> dict:
    """Uniform stats block for any store — plain or generational.

    ``jem store-stats``, the NDJSON ``stats`` op and the service metrics
    all report through this one shape, so a static columnar index and a
    mutable generation read the same way.
    """
    gen = getattr(store, "current", None)
    if isinstance(store, IndexGeneration):
        gen = store
    elif gen is None or not isinstance(gen, IndexGeneration):
        gen = None
    if gen is None:
        return {
            "generation": 0,
            "segments": 1,
            "segment_entries": [int(store.total_entries)],
            "memtable_entries": 0,
            "tombstones": 0,
            "n_subjects": int(store.n_subjects),
            "live_subjects": int(store.n_subjects),
            "total_entries": int(store.total_entries),
            "nbytes": {
                "segments": int(store.nbytes),
                "memtable": 0,
                "total": int(store.nbytes),
            },
        }
    seg_bytes = int(sum(s.nbytes for s in gen.segments))
    mem_bytes = int(gen.memtable.nbytes) if gen.memtable is not None else 0
    return {
        "generation": gen.generation,
        "segments": len(gen.segments),
        "segment_entries": [int(s.total_entries) for s in gen.segments],
        "memtable_entries": int(gen.memtable_entries),
        "tombstones": len(gen.tombstones),
        "n_subjects": int(gen.n_subjects),
        "live_subjects": int(gen.live_subjects),
        "total_entries": int(gen.total_entries),
        "nbytes": {
            "segments": seg_bytes,
            "memtable": mem_bytes,
            "total": seg_bytes + mem_bytes,
        },
    }


class MutableSketchStore:
    """The mutable index handle: LSM writes over immutable generation reads.

    All reads delegate to :attr:`current`, the latest
    :class:`IndexGeneration` — the handle itself satisfies the
    :class:`~repro.core.store.SketchStore` protocol, so a mapper can adopt
    it directly and every query routes through a consistent snapshot.
    Mutations (under an internal lock) build and publish the next
    generation; readers holding an older one finish on it undisturbed.

    With ``run_dir`` set the handle is durable (format v4, see the module
    docstring for the WAL/manifest protocol); without it, mutations are
    memory-only — the shape the service uses when it wraps a static index
    on the first online mutation.
    """

    def __init__(
        self,
        config: JEMConfig,
        *,
        run_dir: str | None = None,
        _replay: bool = True,
    ) -> None:
        self.config = config
        self._family = config.hash_family()
        self._dir = os.fspath(run_dir) if run_dir is not None else None
        self._lock = threading.RLock()
        self._segments: list[ColumnarSketchStore] = []
        self._segment_files: list[dict] = []  # durable: {"file", "crc32", "entries"}
        #: the contigs added since the last flush, as one sorted run
        self._memtable: ColumnarSketchStore | None = None
        self._names: list[str] = []  # allocated ids, index == subject id
        self._live: dict[str, int] = {}
        #: pending lookup mask — cleared when compaction drops the entries
        self._tombstones: set[int] = set()
        #: every id ever removed — monotone, never cleared (ids don't revive)
        self._removed: set[int] = set()
        self._generation = 0
        self._seq = 0
        self._wal: CheckpointLog | None = None
        if self._dir is not None:  # durable: only now is the WAL module loaded
            from ..resilience.checkpoint import CheckpointLog

            os.makedirs(os.path.join(self._dir, _SEGMENTS_DIR), exist_ok=True)
            self._wal = CheckpointLog(os.path.join(self._dir, WAL_NAME))
            if _replay:
                self._load_manifest()
                self._replay_wal()
        self._current = self._snapshot()

    # -- construction --------------------------------------------------------

    @classmethod
    def in_memory(
        cls,
        config: JEMConfig,
        *,
        base_store: SketchStore | None = None,
        subject_names: Iterable[str] = (),
    ) -> "MutableSketchStore":
        """Memory-only handle, optionally seeded from an existing store.

        The seed store becomes the single generation-0 segment — exactly
        how a static index goes mutable without a rebuild.
        """
        self = cls(config, run_dir=None)
        self._adopt_base(base_store, subject_names)
        return self

    @classmethod
    def create(
        cls,
        run_dir: str,
        config: JEMConfig,
        *,
        base_store: SketchStore | None = None,
        subject_names: Iterable[str] = (),
    ) -> "MutableSketchStore":
        """Initialise a fresh durable index directory (format v4)."""
        run_dir = os.fspath(run_dir)
        manifest_path = os.path.join(run_dir, MANIFEST_NAME)
        if os.path.exists(manifest_path):
            raise MappingError(
                f"mutable index already exists at {run_dir!r}; open it instead"
            )
        os.makedirs(os.path.join(run_dir, _SEGMENTS_DIR), exist_ok=True)
        self = cls(config, run_dir=run_dir, _replay=False)
        self._adopt_base(base_store, subject_names)
        if base_store is not None:
            # seal the seed as an on-disk segment so the directory is
            # self-contained from the very first generation
            seg = self._segments[0]
            rel, crc = self._write_segment_file(self._seq, seg)
            self._segment_files = [
                {"file": rel, "crc32": crc, "entries": int(seg.total_entries)}
            ]
        self._write_manifest()
        self._current = self._snapshot()
        return self

    @classmethod
    def open(cls, run_dir: str) -> "MutableSketchStore":
        """Open an existing v4 directory: manifest + WAL-suffix replay."""
        run_dir = os.fspath(run_dir)
        manifest_path = os.path.join(run_dir, MANIFEST_NAME)
        if not os.path.exists(manifest_path):
            raise MappingError(f"no mutable index manifest in {run_dir!r}")
        with open(manifest_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return cls(JEMConfig(**data["config"]), run_dir=run_dir)

    @classmethod
    def from_bundle(
        cls, bundle_path: str, *, run_dir: str | None = None
    ) -> "MutableSketchStore":
        """Load a format-v3 bundle as a single-segment generation 0.

        The auto-migration path: the immutable bundle's store becomes the
        seed segment unchanged — same subject ids, same lookups — and the
        result is mutable from there on (durably, when ``run_dir`` given).
        """
        from .persist import load_index

        mapper = load_index(bundle_path)
        if run_dir is not None:
            return cls.create(
                run_dir,
                mapper.config,
                base_store=mapper.table,
                subject_names=mapper.subject_names,
            )
        return cls.in_memory(
            mapper.config,
            base_store=mapper.table,
            subject_names=mapper.subject_names,
        )

    @classmethod
    def wrap(
        cls, store, config: JEMConfig, subject_names: Iterable[str]
    ) -> "MutableSketchStore":
        """``store`` as a mutable handle — how a resident index goes mutable.

        A handle (one opened from a v4 directory: WAL-logged, durable) is
        used as is, so what is mutated is what was loaded; any static
        store becomes the generation-0 segment of a memory-only handle.
        The service and the replica fleet both decide through here.
        """
        if isinstance(store, cls):
            return store
        return cls.in_memory(config, base_store=store, subject_names=subject_names)

    def _adopt_base(
        self, base_store: SketchStore | None, subject_names: Iterable[str]
    ) -> None:
        if base_store is None:
            return
        names = list(subject_names)
        if len(names) != base_store.n_subjects:
            raise MappingError(
                f"{len(names)} subject names for a store with "
                f"{base_store.n_subjects} subjects"
            )
        if base_store.trials != self.config.trials:
            raise MappingError(
                f"store has {base_store.trials} trials, config expects "
                f"{self.config.trials}"
            )
        self._segments = [ColumnarSketchStore.from_store(base_store)]
        self._names = names
        self._live = {n: i for i, n in enumerate(names)}
        if len(self._live) != len(names):
            raise MappingError("duplicate contig names in base store")
        self._current = self._snapshot()

    # -- state ---------------------------------------------------------------

    @property
    def current(self) -> IndexGeneration:
        """The latest immutable generation (capture once per batch)."""
        return self._current

    @property
    def generation(self) -> int:
        return self._current.generation

    @property
    def durable(self) -> bool:
        return self._dir is not None

    @property
    def run_dir(self) -> str | None:
        return self._dir

    @property
    def subject_names(self) -> list[str]:
        return list(self._names)

    @property
    def live_subject_names(self) -> list[str]:
        """Names of contigs that are currently mappable, in id order.

        This is the authoritative liveness view: tombstone *sets* fold away
        at compaction (the entries are physically gone), but a removed
        contig stays dead — and its name free for re-use — forever.
        """
        return [n for n, _ in sorted(self._live.items(), key=lambda kv: kv[1])]

    def is_live(self, name: str) -> bool:
        return name in self._live

    def _snapshot(self) -> IndexGeneration:
        return IndexGeneration(
            segments=tuple(self._segments),
            memtable=self._memtable,
            tombstones=frozenset(self._tombstones),
            n_subjects=len(self._names),
            subject_names=tuple(self._names),
            generation=self._generation,
            removed=frozenset(self._removed),
        )

    def _publish(self, folded: ColumnarSketchStore | None = None) -> IndexGeneration:
        """Build and install the next generation; ``folded`` is its fold,
        when the caller already holds it (a dirty generation keeps it)."""
        current = self._snapshot()
        if folded is not None and not current.is_clean:
            current._folded = folded
        self._current = current
        return current

    # -- mutations -----------------------------------------------------------

    def add_contigs(self, contigs: SequenceSet) -> IndexGeneration:
        """Sketch and add new contigs; returns the new generation.

        New contigs get the next free subject ids (ids are never reused),
        are merged into the memtable run, and are WAL-logged (raw
        sequences — replay re-sketches deterministically) before memory
        changes.  The cost is the memtable's, never the whole index's.
        """
        if len(contigs) == 0:
            raise MappingError("add_contigs: empty contig set")
        with self._lock:
            for name in contigs.names:
                if name in self._live:
                    raise MappingError(f"contig {name!r} already in the index")
            if len(set(contigs.names)) != len(contigs.names):
                raise MappingError("add_contigs: duplicate names in batch")
            if self._wal is not None:
                self._seq += 1
                self._wal.append(
                    {
                        "op": "add",
                        "seq": self._seq,
                        "names": list(contigs.names),
                        "seqs": [contigs[i].sequence for i in range(len(contigs))],
                    }
                )
            self._apply_add(contigs)
            self._generation += 1
            return self._publish()

    def _apply_add(self, contigs: SequenceSet) -> None:
        cfg = self.config
        base = len(self._names)
        keys = subject_sketch_pairs(
            contigs, cfg.k, cfg.w, cfg.ell, self._family, subject_id_offset=base
        )
        for i, name in enumerate(contigs.names):
            self._live[name] = base + i
        self._names.extend(contigs.names)
        old = self._memtable
        # each trial's keys come sorted: timsort merges them into the run in linear time
        runs = (
            added
            if old is None
            else np.sort(np.concatenate([old.trial_keys(t), added]), kind="stable")
            for t, added in enumerate(keys)
        )
        self._memtable = ColumnarSketchStore.from_trial_keys(runs, len(self._names))

    def remove_contigs(self, names: Iterable[str]) -> IndexGeneration:
        """Tombstone live contigs by name; returns the new generation."""
        names = list(names)
        if not names:
            raise MappingError("remove_contigs: no names given")
        with self._lock:
            for name in names:
                if name not in self._live:
                    raise MappingError(f"contig {name!r} not in the index")
            if self._wal is not None:
                self._seq += 1
                self._wal.append({"op": "remove", "seq": self._seq, "names": names})
            self._apply_remove(names)
            self._generation += 1
            return self._publish()

    def _apply_remove(self, names: list[str]) -> None:
        for name in names:
            sid = self._live.pop(name)
            self._tombstones.add(sid)
            self._removed.add(sid)

    def flush(self) -> IndexGeneration:
        """Seal the memtable: the current run becomes the newest segment.

        No-op when the memtable is empty.  Durable flushes commit the
        segment file before the WAL record, then checkpoint the manifest
        and reset the WAL (adds/removes up to here are now in the
        manifest snapshot, so their records need never replay again).
        The live entries do not change, so the new generation keeps the
        fold the previous one may hold.
        """
        with self._lock:
            segment = self._memtable
            if segment is None:
                return self._current
            folded = self._current._folded
            if self._wal is not None:
                self._seq += 1
                rel, crc = self._write_segment_file(self._seq, segment)
                self._wal.append(
                    {"op": "flush", "seq": self._seq, "file": rel, "crc32": crc}
                )
                self._segment_files.append(
                    {"file": rel, "crc32": crc, "entries": int(segment.total_entries)}
                )
            self._segments.append(segment)
            self._memtable = None
            self._generation += 1
            if self._wal is not None:
                self._checkpoint()
            return self._publish(folded)

    def compact(self) -> IndexGeneration:
        """Fold memtable + segments − tombstones into one fresh segment.

        The resulting generation is *clean*: its single segment is the
        current generation's fold (built here, or the one a scatter install
        already built), written once, and the fused native kernel serves it
        at full speed without a second copy.  With nothing to fold (no
        segment, empty memtable) it is a no-op, like an empty flush.  Durable compactions
        follow the full checkpoint protocol (segment file → WAL record →
        manifest → WAL reset → delete superseded files); a SIGKILL at any
        point replays back to a state bit-identical to either before or
        after the compaction.
        """
        with self._lock:
            current = self._current
            if not current.segments and current.memtable is None:
                return current
            merged = current.as_columnar()
            old_files = [meta["file"] for meta in self._segment_files]
            if self._wal is not None:
                self._seq += 1
                rel, crc = self._write_segment_file(self._seq, merged)
                self._wal.append(
                    {"op": "compact", "seq": self._seq, "file": rel, "crc32": crc}
                )
                self._segment_files = [
                    {"file": rel, "crc32": crc, "entries": int(merged.total_entries)}
                ]
            self._segments = [merged]
            self._memtable = None
            self._tombstones = set()
            self._generation += 1
            if self._wal is not None:
                self._checkpoint()
                for old in old_files:
                    if old != rel:
                        try:
                            os.unlink(os.path.join(self._dir, old))
                        except OSError:  # pragma: no cover - already gone
                            pass
            return self._publish()

    # -- durability ----------------------------------------------------------

    @property
    def manifest_path(self) -> str:
        assert self._dir is not None
        return os.path.join(self._dir, MANIFEST_NAME)

    def _write_segment_file(
        self, seq: int, segment: ColumnarSketchStore
    ) -> tuple[str, int]:
        from .persist import stacked_trials, write_bundle

        head = [
            ("n_subjects", np.int64(segment.n_subjects)),
            ("trials", np.int64(segment.trials)),
        ]
        rel = os.path.join(_SEGMENTS_DIR, f"seg_{seq:06d}.npz")
        members = chain(head, stacked_trials(segment))
        return rel, write_bundle(os.path.join(self._dir, rel), members, file_crc=True)

    def _load_segment_file(self, meta: dict) -> ColumnarSketchStore | None:
        """The segment ``meta`` names, or None when it is missing or damaged.

        The file's CRC is checked first, through one reused 64 KiB buffer
        (:func:`~repro.core.persist.file_crc32`); then its trial members
        are read straight into the segment's columns, as a v3 bundle
        loads — the segment is resident once.
        """
        from .persist import file_crc32, read_trial_columns

        path = os.path.join(self._dir, meta["file"])
        try:
            with open(path, "rb") as fh:
                if file_crc32(fh) != int(meta["crc32"]):
                    return None
            with np.load(path, allow_pickle=False) as data:
                trials = int(data["trials"])
                n_subjects = int(data["n_subjects"])
                values, subjects, offsets, _ = read_trial_columns(data.zip, trials)
        except (KeyError, ValueError, OSError, EOFError, zipfile.BadZipFile):
            return None
        return ColumnarSketchStore.from_flat(values, subjects, offsets, n_subjects)

    def _write_manifest(self) -> None:
        from .persist import atomic_write_bytes

        manifest = {
            "format_version": MUTABLE_FORMAT_VERSION,
            "config": dataclasses.asdict(self.config),
            "generation": self._generation,
            "applied_seq": self._seq,
            "subject_names": list(self._names),
            "tombstones": sorted(self._tombstones),
            "removed": sorted(self._removed),
            "segments": list(self._segment_files),
            "wal": WAL_NAME,
        }
        atomic_write_bytes(
            self.manifest_path,
            json.dumps(manifest, indent=2, sort_keys=True).encode(),
        )

    def _checkpoint(self) -> None:
        """Manifest rewrite + WAL reset — the durable state is now the manifest."""
        self._write_manifest()
        assert self._wal is not None
        self._wal.reset()

    def _load_manifest(self) -> None:
        if not os.path.exists(self.manifest_path):
            return
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise IndexCorruptError(
                f"unreadable mutable-index manifest {self.manifest_path!r}: {exc}",
                path=self.manifest_path,
            ) from exc
        version = int(data.get("format_version", 0))
        if version != MUTABLE_FORMAT_VERSION:
            raise MappingError(
                f"mutable index format {version} unsupported "
                f"(expected {MUTABLE_FORMAT_VERSION})"
            )
        manifest_cfg = JEMConfig(**data["config"])
        if manifest_cfg != self.config:
            raise MappingError(
                "mutable index was built with a different JEMConfig; "
                "refusing to open"
            )
        self._generation = int(data["generation"])
        self._seq = int(data["applied_seq"])
        self._names = [str(n) for n in data["subject_names"]]
        self._tombstones = {int(i) for i in data.get("tombstones", [])}
        self._removed = {int(i) for i in data.get("removed", [])}
        # duplicate names can only exist via remove-then-re-add, so the one
        # non-removed occurrence per name is unique
        self._live = {
            n: i for i, n in enumerate(self._names) if i not in self._removed
        }
        self._segments = []
        self._segment_files = []
        for meta in data.get("segments", []):
            segment = self._load_segment_file(meta)
            if segment is None:
                raise IndexCorruptError(
                    f"mutable index segment {meta['file']!r} is missing or "
                    "fails its CRC; the manifest references it, so the "
                    "directory is damaged — restore or rebuild",
                    path=os.path.join(self._dir, str(meta["file"])),
                )
            self._segments.append(segment)
            self._segment_files.append(dict(meta))

    def _replay_wal(self) -> None:
        """Apply the WAL suffix (seq > applied_seq); torn tails drop safely.

        Flush/compact records whose segment file is missing or bad are
        *skipped*, not fatal: the memtable/segments they would have folded
        are still live in the replayed state, so the logical index is
        unchanged — the next flush/compact simply redoes the work.
        """
        assert self._wal is not None
        applied = self._seq
        for record in self._wal.replay():
            seq = int(record.get("seq", 0))
            if seq <= applied:
                continue
            op = record.get("op")
            if op == "add":
                contigs = SequenceSet.from_strings(
                    list(zip(record["names"], record["seqs"]))
                )
                self._apply_add(contigs)
            elif op == "remove":
                self._apply_remove([str(n) for n in record["names"]])
            elif op == "flush":
                segment = self._load_segment_file(record)
                if segment is not None and self._memtable is not None:
                    self._segments.append(segment)
                    self._memtable = None
                    self._segment_files.append(
                        {
                            "file": record["file"],
                            "crc32": int(record["crc32"]),
                            "entries": int(segment.total_entries),
                        }
                    )
            elif op == "compact":
                segment = self._load_segment_file(record)
                if segment is not None:
                    self._segments = [segment]
                    self._memtable = None
                    self._tombstones = set()
                    self._segment_files = [
                        {
                            "file": record["file"],
                            "crc32": int(record["crc32"]),
                            "entries": int(segment.total_entries),
                        }
                    ]
            self._seq = seq
            self._generation += 1

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()

    def __enter__(self) -> "MutableSketchStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- SketchStore protocol (delegated to the current generation) ----------

    @property
    def trials(self) -> int:
        trials = self._current.trials
        return trials if trials else self.config.trials

    @property
    def n_subjects(self) -> int:
        return self._current.n_subjects

    @property
    def total_entries(self) -> int:
        return self._current.total_entries

    @property
    def nbytes(self) -> int:
        return self._current.nbytes

    def lookup_trial(self, t: int, query_values: np.ndarray) -> TrialHits:
        return self._current.lookup_trial(t, query_values)

    def lookup_scalar(self, t: int, value: int) -> np.ndarray:
        return self._current.lookup_scalar(t, value)

    def lookup_fused(self, *args, **kwargs):
        return self._current.lookup_fused(*args, **kwargs)

    def values_of_trial(self, t: int) -> np.ndarray:
        return self._current.values_of_trial(t)

    def trial_keys(self, t: int) -> np.ndarray:
        return self._current.trial_keys(t)

    def __repr__(self) -> str:
        mode = f"dir={self._dir!r}" if self._dir else "in-memory"
        return f"MutableSketchStore({self._current!r}, {mode})"
