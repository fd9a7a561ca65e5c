"""The resident sketch store — the tables S[1..T] of Algorithm 2.

There is one resident index layout, :class:`ColumnarSketchStore`,
following Minimap2's sorted-seed-array design (Li 2016, 2018): per trial,
one **sorted** ``uint32`` sketch-value array plus a parallel ``uint32``
contig-id array.  Batch lookup is a pair of ``np.searchsorted`` calls over
the value column feeding
:func:`~repro.core.hitcounter.count_hits_vectorised`, and the fused native
kernel maps over the same per-trial columns in place.  The store supports
key-range sharding for partitioned lookup and zero-copy export over the
:mod:`repro.parallel.shm` segments so worker processes attach instead of
unpickling.

:class:`DictSketchStore` answers the same :class:`SketchStore` protocol
from per-trial Python dicts (``sketch value -> subject-id array``).  It is
only the *equivalence oracle*, reached through ``build_store("dict")``: a
maximally simple, obviously correct lookup path the columnar store is
tested against bit for bit.  Every LSM source — segment and memtable alike
(:mod:`repro.core.lsm`) — is columnar.

Packed ``uint64`` ``(value << 32) | subject`` key arrays exist only as the
build-time intermediate: :func:`~repro.sketch.jem.subject_sketch_pairs`
emits them, :func:`merge_trial_keys` unions them across ranks (step S3),
and :func:`build_store` splits them into the resident layout.

Every store is **order-preserving**: for the same trial keys, all
implementers return identical :class:`TrialHits` for any query batch —
the invariant the cross-frontend parity suite pins down.
"""

from __future__ import annotations

import sys
import threading
from collections.abc import Iterable, Iterator
from typing import Protocol, runtime_checkable

import numpy as np

from ..errors import SketchError

__all__ = [
    "SketchStore",
    "TrialHits",
    "DictSketchStore",
    "ColumnarSketchStore",
    "StoreShard",
    "STORE_KINDS",
    "DEFAULT_STORE_KIND",
    "build_store",
    "iter_merged_trial_keys",
    "merge_trial_keys",
    "shard_bounds",
    "lookup_trial_sharded",
]

#: Store kinds accepted by :func:`build_store` (first is the default).
STORE_KINDS = ("columnar", "dict")

#: What every frontend builds; ``"dict"`` is injected only by parity suites.
DEFAULT_STORE_KIND = "columnar"

_LOW32 = np.uint64(0xFFFFFFFF)

#: Held while a store opens its native map context.
_OPEN_LOCK = threading.Lock()


def _same_family(held, family) -> bool:
    return held is family or all(
        np.array_equal(getattr(held, c), getattr(family, c)) for c in "abp"
    )


class TrialHits:
    """Collisions of one trial's lookups, in flat (query, subject) form.

    Attributes
    ----------
    query_index:
        For every collision, the index of the query that produced it.
    subjects:
        The colliding subject id (parallel to ``query_index``).
    """

    __slots__ = ("query_index", "subjects")

    def __init__(self, query_index: np.ndarray, subjects: np.ndarray) -> None:
        self.query_index = query_index
        self.subjects = subjects

    def __len__(self) -> int:
        return int(self.query_index.size)


@runtime_checkable
class SketchStore(Protocol):
    """Resident per-trial sketch tables, behind one lookup contract.

    ``lookup_trial(t, qv)`` returns every (query, subject) collision of
    trial ``t`` with hits ordered by (query index, subject id) — the order
    :func:`~repro.core.hitcounter.count_hits_vectorised` relies on for
    bit-identical best-hit selection across store implementations.
    ``trial_keys(t)`` is trial ``t`` as one sorted packed-key array, the
    layout-neutral form every implementer can be rebuilt from.
    """

    @property
    def trials(self) -> int: ...

    @property
    def n_subjects(self) -> int: ...

    @property
    def total_entries(self) -> int: ...

    @property
    def nbytes(self) -> int: ...

    def lookup_trial(self, t: int, query_values: np.ndarray) -> TrialHits: ...

    def lookup_scalar(self, t: int, value: int) -> np.ndarray: ...

    def values_of_trial(self, t: int) -> np.ndarray: ...

    def trial_keys(self, t: int) -> np.ndarray: ...


def _check_query_values(qv: np.ndarray) -> np.ndarray:
    qv = np.asarray(qv, dtype=np.uint64)
    if qv.size and int(qv.max()) >> 32:
        raise SketchError("sketch values must fit in 32 bits (k <= 16)")
    return qv


class DictSketchStore:
    """Dict-backed store over sorted packed trial keys (the parity oracle).

    One Python dict per trial maps each distinct sketch value to the sorted
    array of subject ids carrying it.  Lookups walk the query batch in a
    Python loop — deliberately the simplest possible implementation, kept
    only as the equivalence oracle.
    """

    __slots__ = ("_keys", "n_subjects", "_maps")

    def __init__(self, keys: list[np.ndarray], n_subjects: int) -> None:
        if not keys:
            raise SketchError("sketch store needs at least one trial")
        self._keys = [np.ascontiguousarray(k, dtype=np.uint64) for k in keys]
        for arr in self._keys:
            if arr.size > 1 and (arr[1:] < arr[:-1]).any():
                raise SketchError("trial key arrays must be sorted")
        self.n_subjects = int(n_subjects)
        self._maps: list[dict[int, np.ndarray]] = []
        for trial in self._keys:
            values, subjects = _split_keys(trial)
            mapping: dict[int, np.ndarray] = {}
            if values.size:
                starts = np.concatenate(
                    [[0], np.flatnonzero(np.diff(values)) + 1, [values.size]]
                )
                # packed keys sort by (value, subject), so every run comes
                # out in the sorted-subject order the merge contract needs
                for i in range(starts.size - 1):
                    lo, hi = int(starts[i]), int(starts[i + 1])
                    mapping[int(values[lo])] = subjects[lo:hi]
            self._maps.append(mapping)

    # -- protocol ----------------------------------------------------------

    @property
    def trials(self) -> int:
        return len(self._keys)

    @property
    def total_entries(self) -> int:
        return int(sum(k.size for k in self._keys))

    @property
    def nbytes(self) -> int:
        """Resident bytes of the dict machinery (not the source keys).

        Counts each trial's dict, its boxed integer keys and its subject
        arrays — the price actually paid to hold a dict-backed index in
        memory, which is what the store bench compares layouts on.
        """
        total = 0
        for mapping in self._maps:
            total += sys.getsizeof(mapping)
            for key, arr in mapping.items():
                total += sys.getsizeof(key) + sys.getsizeof(arr) + arr.nbytes
        return total

    def lookup_trial(self, t: int, query_values: np.ndarray) -> TrialHits:
        if not 0 <= t < self.trials:
            raise SketchError(f"trial {t} out of range [0, {self.trials})")
        qv = _check_query_values(query_values)
        mapping = self._maps[t]
        idx_chunks: list[np.ndarray] = []
        sub_chunks: list[np.ndarray] = []
        for i in range(qv.size):
            subjects = mapping.get(int(qv[i]))
            if subjects is not None:
                idx_chunks.append(np.full(subjects.size, i, dtype=np.int64))
                sub_chunks.append(subjects)
        if not idx_chunks:
            empty = np.empty(0, dtype=np.int64)
            return TrialHits(empty, empty)
        return TrialHits(np.concatenate(idx_chunks), np.concatenate(sub_chunks))

    def lookup_scalar(self, t: int, value: int) -> np.ndarray:
        return self.lookup_trial(t, np.array([value], dtype=np.uint64)).subjects

    def values_of_trial(self, t: int) -> np.ndarray:
        return np.unique(self._keys[t] >> np.uint64(32))

    def trial_keys(self, t: int) -> np.ndarray:
        return self._keys[t]

    def __repr__(self) -> str:
        return (
            f"DictSketchStore(trials={self.trials}, "
            f"entries={self.total_entries}, n_subjects={self.n_subjects})"
        )


class ColumnarSketchStore:
    """Per-trial sorted value columns + parallel contig-id columns.

    ``values[t]`` is the sorted ``uint32`` sketch-value column of trial
    ``t`` and ``subjects[t]`` the parallel contig-id column; together they
    carry exactly the information of the packed key array, in the layout
    Minimap2 uses for its seed index.  Batch lookup binary-searches the
    value column directly — no bound-key materialisation, half the
    key-compare memory traffic — and the column pairs are flat arrays,
    ready for zero-copy publication in shared memory.
    """

    __slots__ = ("values", "subjects", "n_subjects", "_ctx")

    def __init__(
        self,
        values: list[np.ndarray],
        subjects: list[np.ndarray],
        n_subjects: int,
    ) -> None:
        if not values or len(values) != len(subjects):
            raise SketchError("columnar store needs matching value/subject columns")
        self.values = [np.ascontiguousarray(v, dtype=np.uint32) for v in values]
        self.subjects = [np.ascontiguousarray(s, dtype=np.uint32) for s in subjects]
        for v, s in zip(self.values, self.subjects):
            if v.shape != s.shape:
                raise SketchError("value/subject column length mismatch")
            if v.size > 1 and (v[1:] < v[:-1]).any():
                raise SketchError("value columns must be sorted")
        self.n_subjects = int(n_subjects)
        self._ctx = None  # the open native map context, see lookup_fused

    def __getstate__(self) -> tuple:
        """The columns only: a native context is a pointer into this process."""
        return self.values, self.subjects, self.n_subjects

    def __setstate__(self, state: tuple) -> None:
        self.values, self.subjects, self.n_subjects = state
        self._ctx = None

    @classmethod
    def from_trial_keys(
        cls, keys: Iterable[np.ndarray], n_subjects: int
    ) -> "ColumnarSketchStore":
        """Split sorted packed-key arrays (any iterable) into (value, subject) columns.

        The packed keys sort by value first, subject second, so each
        value's run of the subject column comes out subject-ascending —
        the hit order every store implementation must return.
        """
        values: list[np.ndarray] = []
        subjects: list[np.ndarray] = []
        for k in keys:
            v, s = _split_keys(np.asarray(k, dtype=np.uint64))
            values.append(v)
            subjects.append(s)
        return cls(values, subjects, n_subjects)

    @classmethod
    def from_store(cls, store: SketchStore) -> "ColumnarSketchStore":
        """Any store folded into the resident layout (identity when columnar)."""
        if isinstance(store, cls):
            return store
        return cls.from_trial_keys(
            [store.trial_keys(t) for t in range(store.trials)], store.n_subjects
        )

    @classmethod
    def from_columns(
        cls, columns: list[np.ndarray], n_subjects: int
    ) -> "ColumnarSketchStore":
        """Rebuild from the flat column list of :meth:`export_columns`.

        ``columns`` alternates value/subject pairs per trial — the exact
        array list a shared-memory attach or a format-v3 bundle yields —
        so reconstruction is zero-copy.
        """
        if len(columns) % 2:
            raise SketchError("column list must pair values with subjects")
        return cls(columns[0::2], columns[1::2], n_subjects)

    @classmethod
    def from_flat(
        cls,
        values: np.ndarray,
        subjects: np.ndarray,
        offsets: np.ndarray,
        n_subjects: int,
    ) -> "ColumnarSketchStore":
        """A store whose trials are views of two shared ``uint32`` arrays.

        ``values``/``subjects`` hold every trial back to back and
        ``offsets`` (trials + 1, ``int64``) marks the trial boundaries;
        trial ``t``'s columns are the views ``[offsets[t]:offsets[t+1]]``,
        so nothing is copied.  This is how a saved bundle or segment loads.
        """
        bounds = _trial_bounds(offsets)
        return cls(
            [values[lo:hi] for lo, hi in bounds],
            [subjects[lo:hi] for lo, hi in bounds],
            n_subjects,
        )

    @classmethod
    def from_sized_keys(
        cls, sizes: list[int], keys: Iterable[np.ndarray], n_subjects: int
    ) -> "ColumnarSketchStore":
        """Write sorted packed-key arrays of known sizes into one copy.

        ``sizes[t]`` is trial ``t``'s entry count and ``keys`` yields its
        keys one trial at a time (any iterable: a generator keeps only one
        trial's keys alive).  Each array is consumed — shifted in place —
        as it is split into its slices of two preallocated ``uint32``
        arrays (:meth:`from_flat`).  A trial whose key count is not its
        size, or more or fewer trials than sizes, is a :class:`SketchError`.
        """
        offsets = _trial_offsets(sizes)
        values = np.empty(int(offsets[-1]), dtype=np.uint32)
        subjects = np.empty_like(values)
        trials = iter(keys)
        for t, (lo, hi) in enumerate(_trial_bounds(offsets)):
            k = next(trials, None)
            if k is None or k.size != hi - lo:
                got = "no" if k is None else k.size
                raise SketchError(f"trial {t}: {got} keys for a size of {hi - lo}")
            subjects[lo:hi] = k & _LOW32
            k >>= np.uint64(32)
            values[lo:hi] = k
        if next(trials, None) is not None:
            raise SketchError(f"keys for more trials than the {len(sizes)} sizes")
        return cls.from_flat(values, subjects, offsets, n_subjects)

    def export_columns(self) -> list[np.ndarray]:
        """Flat [values_0, subjects_0, values_1, subjects_1, ...] list."""
        out: list[np.ndarray] = []
        for v, s in zip(self.values, self.subjects):
            out.append(v)
            out.append(s)
        return out

    def lookup_fused(
        self,
        query_values: np.ndarray,
        query_starts: np.ndarray,
        family,
        *,
        min_hits: int = 1,
    ) -> "tuple[np.ndarray, np.ndarray] | None":
        """Fused native S4: sketch → lookup → vote in one C pass.

        ``query_values``/``query_starts`` are the concatenated minimizer
        ranks and per-segment offsets of a query block (the
        :func:`~repro.sketch.jem.query_kernel` layout — *pre-sketch*, so
        the native kernel hashes, binary-searches the value columns and
        runs the paper's lazy-update vote without ever materialising the
        (T, n) sketch matrix in Python; a segment may be empty).  Returns
        per-segment ``(best_subject, best_count)`` int64 arrays (-1/0
        unmapped), bit-identical to sketching with :func:`query_kernel` and
        voting with :func:`~repro.core.hitcounter.count_hits_vectorised`; or
        ``None`` when the native library is unavailable (callers fall
        back to the numpy path).

        The first call opens the store's native context
        (:meth:`~repro.sketch._native.NativeKernels.map_open`: the kernel's
        set-up, a pass over every entry) over ``values`` / ``subjects`` as
        they are — each trial's pair where it lives, nothing copied; later
        calls — from any thread — reuse it, and a call with another hash
        family replaces it.  It is never pickled: every process opens its
        own, and so does every store object — serving replicas that hold
        one store object share its context.
        """
        from ..sketch import _native

        native = _native.load()
        if native is None:
            return None
        if family.size != self.trials:
            raise SketchError(
                f"{family.size} hash trials vs store with {self.trials}"
            )
        ctx = self._ctx
        if ctx is None or not _same_family(ctx.family, family):
            with _OPEN_LOCK:  # threads that arrive together: one open
                ctx = self._ctx
                if ctx is None or not _same_family(ctx.family, family):
                    ctx = self._ctx = native.map_open(
                        self.values, self.subjects, family, self.n_subjects
                    )
        return ctx.map(
            np.ascontiguousarray(_check_query_values(query_values)),
            np.ascontiguousarray(query_starts, dtype=np.int64),
            min_hits,
        )

    # -- protocol ----------------------------------------------------------

    @property
    def trials(self) -> int:
        return len(self.values)

    @property
    def total_entries(self) -> int:
        return int(sum(v.size for v in self.values))

    @property
    def nbytes(self) -> int:
        """Resident bytes of the columns (the index's working-set size)."""
        return int(
            sum(v.nbytes for v in self.values) + sum(s.nbytes for s in self.subjects)
        )

    def lookup_trial(self, t: int, query_values: np.ndarray) -> TrialHits:
        """All (query, subject) collisions of trial ``t`` — batch lookup.

        One ``searchsorted`` pair over the value column finds every run of
        matching entries; the subject column is gathered by flat index
        (within each run, offsets count up from the run's left edge), so
        hit order is query index ascending, subject ascending within a
        query.
        """
        if not 0 <= t < self.trials:
            raise SketchError(f"trial {t} out of range [0, {self.trials})")
        values = self.values[t]
        qv = _check_query_values(query_values).astype(np.uint32)
        left = np.searchsorted(values, qv, side="left")
        right = np.searchsorted(values, qv, side="right")
        lengths = right - left
        total = int(lengths.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return TrialHits(empty, empty)
        query_index = np.repeat(np.arange(qv.size, dtype=np.int64), lengths)
        run_starts = np.zeros(qv.size, dtype=np.int64)
        np.cumsum(lengths[:-1], out=run_starts[1:])
        flat = np.arange(total, dtype=np.int64) - run_starts[query_index] + left[query_index]
        return TrialHits(query_index, self.subjects[t][flat].astype(np.int64))

    def lookup_scalar(self, t: int, value: int) -> np.ndarray:
        return self.lookup_trial(t, np.array([value], dtype=np.uint64)).subjects

    def values_of_trial(self, t: int) -> np.ndarray:
        if not 0 <= t < self.trials:
            raise SketchError(f"trial {t} out of range [0, {self.trials})")
        return np.unique(self.values[t]).astype(np.uint64)

    def trial_keys(self, t: int) -> np.ndarray:
        """Repack trial ``t`` into the sorted packed-key layout."""
        if not 0 <= t < self.trials:
            raise SketchError(f"trial {t} out of range [0, {self.trials})")
        keys = self.values[t].astype(np.uint64)
        keys <<= np.uint64(32)
        keys |= self.subjects[t]
        return keys

    # -- key-range sharding -------------------------------------------------

    def restrict(self, lo: int, hi: int) -> "StoreShard":
        """One key-range shard: this store restricted to values in ``[lo, hi)``.

        The single-shard building block behind :meth:`shard` — and the
        fleet supervisor's respawn path, which must rebuild exactly one
        replica's shard at the *current* placement boundaries without
        re-slicing every other shard.
        """
        lo, hi = int(lo), int(hi)
        values: list[np.ndarray] = []
        subjects: list[np.ndarray] = []
        for t in range(self.trials):
            a = int(np.searchsorted(self.values[t], np.uint32(lo), side="left"))
            b = (
                int(np.searchsorted(self.values[t], np.uint32(hi - 1), side="right"))
                if hi > lo
                else a
            )
            values.append(self.values[t][a:b])
            subjects.append(self.subjects[t][a:b])
        return StoreShard(
            store=ColumnarSketchStore(values, subjects, self.n_subjects),
            lo=lo,
            hi=hi,
        )

    def shard(self, n_shards: int) -> list["StoreShard"]:
        """Split into ``n_shards`` disjoint key-range shards.

        Boundaries come from :func:`shard_bounds` (equal-frequency over the
        pooled value columns) so shards carry comparable entry counts; each
        shard is itself a :class:`ColumnarSketchStore` restricted to
        ``[lo, hi)`` of the value space.  :func:`lookup_trial_sharded`
        routes a query batch across the shards and reassembles hits in
        the unsharded order — the partitioned-lookup building block.
        """
        bounds = shard_bounds(self, n_shards)
        return [
            self.restrict(int(bounds[i]), int(bounds[i + 1]))
            for i in range(n_shards)
        ]

    def __repr__(self) -> str:
        return (
            f"ColumnarSketchStore(trials={self.trials}, "
            f"entries={self.total_entries}, n_subjects={self.n_subjects})"
        )


class StoreShard:
    """One key-range shard: a columnar store owning values in ``[lo, hi)``."""

    __slots__ = ("store", "lo", "hi")

    def __init__(self, store: ColumnarSketchStore, lo: int, hi: int) -> None:
        self.store = store
        self.lo = int(lo)
        self.hi = int(hi)

    def owns(self, qv: np.ndarray) -> np.ndarray:
        qv = np.asarray(qv, dtype=np.uint64)
        return (qv >= np.uint64(self.lo)) & (qv < np.uint64(self.hi))

    def __repr__(self) -> str:
        return f"StoreShard([{self.lo:#x}, {self.hi:#x}), {self.store!r})"


def shard_bounds(store: ColumnarSketchStore, n_shards: int) -> np.ndarray:
    """Equal-frequency key-range boundaries over the pooled value columns.

    Returns ``n_shards + 1`` ascending bounds covering the full 32-bit
    value space (first is 0, last 2^32), chosen from quantiles of the
    trial values taken together — interior bound ``i`` is the
    ``round(i * N / n_shards)``-th smallest of all ``N`` entries — so every
    shard holds a comparable share of the entries regardless of how sketch
    values cluster.  The quantiles are found by :func:`_kth_values` over
    the sorted per-trial columns; no pooled copy is built.
    """
    if n_shards < 1:
        raise SketchError(f"n_shards must be >= 1, got {n_shards}")
    total = store.total_entries
    bounds = np.empty(n_shards + 1, dtype=np.int64)
    bounds[0] = 0
    bounds[-1] = 1 << 32
    if total == 0:
        interior = np.linspace(0, 1 << 32, n_shards + 1)[1:-1]
        bounds[1:-1] = interior.astype(np.int64)
        return bounds
    # ranks never decrease in i, so neither do the bounds
    ranks = [min(int(round(i * total / n_shards)), total - 1) for i in range(1, n_shards)]
    bounds[1:-1] = _kth_values(store.values, np.array(ranks, dtype=np.int64))
    return bounds


#: values :func:`_kth_values` probes per rank and round
_KTH_PROBES = 256


def _kth_values(columns: list[np.ndarray], ranks: np.ndarray) -> np.ndarray:
    """The ``ranks``-th smallest (0-based) values of sorted ``columns`` pooled.

    A search on the value, all ranks at once: the answer for rank ``k`` is
    the least ``v`` with more than ``k`` entries ``<= v``, and counting
    them is one ``searchsorted`` per column — no copy.  Each round probes
    :data:`_KTH_PROBES` evenly spaced values of every rank's interval
    ``[lo, hi]`` and keeps the gap where the count crosses ``k``, so five
    rounds cover the 32-bit space; a binary search would take 32 rounds of
    about the same cost.
    """
    lo = np.zeros(ranks.size, dtype=np.int64)
    hi = np.full(ranks.size, (1 << 32) - 1, dtype=np.int64)
    rows = np.arange(ranks.size)
    steps = np.arange(1, _KTH_PROBES + 1, dtype=np.int64)
    while (lo < hi).any():
        # ascending probes in (lo, hi]; the last is hi, whose count exceeds k
        probes = lo[:, None] + (hi - lo)[:, None] * steps // _KTH_PROBES
        needles = probes.astype(np.uint32)
        at_most = sum(np.searchsorted(col, needles, side="right") for col in columns)
        first = (at_most > ranks[:, None]).argmax(axis=1)
        lo = np.where(first > 0, probes[rows, first - 1] + 1, lo)
        hi = probes[rows, first]
    return lo


def lookup_trial_sharded(
    shards: list[StoreShard], t: int, query_values: np.ndarray
) -> TrialHits:
    """Partitioned lookup: route a query batch across key-range shards.

    Each query value is answered by exactly the shard owning its key range
    (boundaries are disjoint by construction); the per-shard hits are
    stitched back together in ascending (query, subject) order, so the
    result equals the unsharded :meth:`ColumnarSketchStore.lookup_trial`
    bit for bit — asserted by the store test suite.
    """
    qv = _check_query_values(query_values)
    idx_chunks: list[np.ndarray] = []
    sub_chunks: list[np.ndarray] = []
    for shard in shards:
        mine = np.flatnonzero(shard.owns(qv))
        if mine.size == 0:
            continue
        hits = shard.store.lookup_trial(t, qv[mine])
        if len(hits):
            idx_chunks.append(mine[hits.query_index])
            sub_chunks.append(hits.subjects)
    if not idx_chunks:
        empty = np.empty(0, dtype=np.int64)
        return TrialHits(empty, empty)
    query_index = np.concatenate(idx_chunks)
    subjects = np.concatenate(sub_chunks)
    order = np.lexsort((subjects, query_index))
    return TrialHits(query_index[order], subjects[order])


def _trial_offsets(sizes: list[int]) -> np.ndarray:
    """The trials + 1 ``int64`` offsets of a flat column, from per-trial sizes."""
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(np.asarray(sizes, dtype=np.int64), out=offsets[1:])
    return offsets


def _trial_bounds(offsets: np.ndarray) -> list[tuple[int, int]]:
    """``(lo, hi)`` of each trial in a flat column, from its trials + 1 offsets."""
    return list(zip(offsets[:-1].tolist(), offsets[1:].tolist()))


def _split_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split sorted packed keys into (uint32 values, uint32 subjects)."""
    keys = np.asarray(keys, dtype=np.uint64)
    return (
        (keys >> np.uint64(32)).astype(np.uint32),
        (keys & _LOW32).astype(np.uint32),
    )


def build_store(
    kind: str, trial_keys: Iterable[np.ndarray], n_subjects: int
) -> "SketchStore":
    """Build a store of the requested kind from per-trial packed keys.

    ``kind`` is one of :data:`STORE_KINDS`: ``"columnar"`` is the resident
    index every frontend runs; ``"dict"`` is the oracle parity suites
    inject through the :class:`~repro.core.mapper.JEMMapper` constructor.
    """
    if kind == "columnar":
        return ColumnarSketchStore.from_trial_keys(trial_keys, n_subjects)
    if kind == "dict":
        return DictSketchStore(list(trial_keys), n_subjects)
    raise SketchError(f"unknown store kind {kind!r}; expected one of {STORE_KINDS}")


def iter_merged_trial_keys(parts: list[list]) -> Iterator[np.ndarray]:
    """:func:`merge_trial_keys` one trial at a time, *consuming* ``parts``:
    ``parts[r][t]`` is dropped (set to None) once merged, so the parts and
    whatever the caller builds from the merged arrays never coexist in full."""
    if not parts:
        raise SketchError("cannot merge zero key lists")
    trials = len(parts[0])
    if any(len(p) != trials for p in parts):
        raise SketchError("trial count mismatch across key lists")
    for t in range(trials):
        merged = np.concatenate([p[t] for p in parts])
        for p in parts:
            p[t] = None
        merged.sort()
        duplicate = merged[1:] == merged[:-1]
        if duplicate.any():
            merged = merged[np.concatenate(([True], ~duplicate))]
        yield merged


def merge_trial_keys(parts: list[list[np.ndarray]]) -> list[np.ndarray]:
    """Union per-rank packed-key lists trial by trial — the S3 gather.

    ``parts[r][t]`` is rank ``r``'s trial-``t`` key array as
    :func:`~repro.sketch.jem.subject_sketch_pairs` emits it.  Trial counts
    must agree; duplicate keys (same sketch from the same subject seen on
    two ranks — impossible under disjoint partitions but tolerated) are
    collapsed, and each merged array comes back sorted.
    """
    return list(iter_merged_trial_keys([list(p) for p in parts]))
