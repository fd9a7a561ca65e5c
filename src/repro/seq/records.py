"""Sequence containers.

:class:`SeqRecord` is a single named sequence; :class:`SequenceSet` is a
*columnar* collection — one contiguous ``uint8`` buffer holding every
sequence back to back, plus an offsets array and a name list.  The columnar
layout keeps memory contiguous (cache-friendly, trivially partitionable by
base count for the parallel loader, step S1 of the paper) and lets sketching
run over views instead of copies.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..errors import SequenceError
from .encode import decode, encode

__all__ = ["SeqRecord", "SequenceSet", "SequenceSetBuilder"]


@dataclass
class SeqRecord:
    """A single named DNA sequence.

    Attributes
    ----------
    name:
        Record identifier (FASTA header up to the first whitespace).
    codes:
        2-bit code array (``uint8``); may be a view into a shared buffer.
    quality:
        Optional per-base Phred scores (``uint8``), as read from FASTQ.
    meta:
        Free-form annotations.  The simulators use this to attach ground
        truth (e.g. ``ref_start``/``ref_end`` coordinates).
    bases:
        The sequence's full base count: ``codes.size`` unless the reader
        kept only the two ends of the sequence (``iter_fasta(ends=ℓ)``).
    """

    name: str
    codes: np.ndarray
    quality: np.ndarray | None = None
    meta: dict = field(default_factory=dict)
    bases: int | None = None

    def __post_init__(self) -> None:
        self.codes = np.asarray(self.codes, dtype=np.uint8)
        if self.bases is None:
            self.bases = int(self.codes.size)
        if self.quality is not None:
            self.quality = np.asarray(self.quality, dtype=np.uint8)
            if self.quality.shape != self.codes.shape:
                raise SequenceError(
                    f"record {self.name!r}: quality length {self.quality.size} "
                    f"!= sequence length {self.codes.size}"
                )

    def __len__(self) -> int:
        return int(self.codes.size)

    @property
    def sequence(self) -> str:
        """The sequence as a lowercase string (decoded on demand)."""
        return decode(self.codes)

    @classmethod
    def from_string(cls, name: str, seq: str, **meta) -> "SeqRecord":
        return cls(name=name, codes=encode(seq), meta=dict(meta))


class SequenceSet:
    """Immutable columnar set of sequences.

    Construction goes through :meth:`from_records`, :meth:`from_strings` or
    :class:`SequenceSetBuilder`; the resulting object exposes numpy-level
    access (:attr:`buffer`, :attr:`offsets`) for vectorised consumers and
    record-level access (``__getitem__``) for convenience.
    """

    __slots__ = ("buffer", "offsets", "names", "metas")

    def __init__(
        self,
        buffer: np.ndarray,
        offsets: np.ndarray,
        names: Sequence[str],
        metas: Sequence[dict] | None = None,
    ) -> None:
        self.buffer = np.ascontiguousarray(buffer, dtype=np.uint8)
        self.offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        if self.offsets.ndim != 1 or self.offsets.size == 0:
            raise SequenceError("offsets must be a 1-d array with at least one entry")
        if self.offsets[0] != 0 or self.offsets[-1] != self.buffer.size:
            raise SequenceError("offsets must start at 0 and end at buffer size")
        if (np.diff(self.offsets) < 0).any():
            raise SequenceError("offsets must be non-decreasing")
        self.names = list(names)
        if len(self.names) != self.offsets.size - 1:
            raise SequenceError(
                f"{len(self.names)} names for {self.offsets.size - 1} sequences"
            )
        self.metas = list(metas) if metas is not None else [{} for _ in self.names]
        if len(self.metas) != len(self.names):
            raise SequenceError("metas length mismatch")

    @classmethod
    def _valid(
        cls, buffer: np.ndarray, offsets: np.ndarray, names: list[str], metas: list[dict]
    ) -> "SequenceSet":
        """A set over arrays already known to be valid — a slice or join of
        valid sets: the constructor's checks are for outside input, and
        re-running them on every piece of a streamed batch costs more than
        the slicing."""
        self = cls.__new__(cls)
        self.buffer, self.offsets, self.names, self.metas = buffer, offsets, names, metas
        return self

    # -- construction ------------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable[SeqRecord]) -> "SequenceSet":
        records = list(records)
        lengths = np.fromiter((len(r) for r in records), dtype=np.int64, count=len(records))
        offsets = np.zeros(len(records) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        buffer = np.empty(int(offsets[-1]), dtype=np.uint8)
        for rec, start, end in zip(records, offsets[:-1], offsets[1:]):
            buffer[start:end] = rec.codes
        return cls(buffer, offsets, [r.name for r in records], [r.meta for r in records])

    @classmethod
    def from_strings(cls, pairs: Iterable[tuple[str, str]]) -> "SequenceSet":
        return cls.from_records(SeqRecord.from_string(n, s) for n, s in pairs)

    @classmethod
    def empty(cls) -> "SequenceSet":
        return cls(np.empty(0, dtype=np.uint8), np.zeros(1, dtype=np.int64), [])

    # -- container protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[SeqRecord]:
        for i in range(len(self)):
            yield self[i]

    def __getitem__(self, index: int) -> SeqRecord:
        i = int(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"sequence index {index} out of range [0, {len(self)})")
        return SeqRecord(
            name=self.names[i],
            codes=self.codes_of(i),
            meta=self.metas[i],
        )

    def codes_of(self, i: int) -> np.ndarray:
        """Zero-copy view of sequence ``i``'s code array."""
        return self.buffer[self.offsets[i] : self.offsets[i + 1]]

    # -- bulk properties -----------------------------------------------------

    @property
    def lengths(self) -> np.ndarray:
        """Per-sequence lengths (``int64``)."""
        return np.diff(self.offsets)

    @property
    def total_bases(self) -> int:
        return int(self.buffer.size)

    def subset(self, indices: Sequence[int] | np.ndarray) -> "SequenceSet":
        """New set containing the selected sequences (copies the bases)."""
        indices = np.asarray(indices, dtype=np.int64)
        return SequenceSet.from_records(self[int(i)] for i in indices)

    def slice(self, start: int, stop: int) -> "SequenceSet":
        """Contiguous sub-range ``[start, stop)`` of sequences, zero-copy buffer view."""
        if not (0 <= start <= stop <= len(self)):
            raise SequenceError(f"bad slice [{start}, {stop}) of {len(self)} sequences")
        base = self.offsets[start]
        return SequenceSet._valid(
            self.buffer[base : self.offsets[stop]],
            self.offsets[start : stop + 1] - base,
            self.names[start:stop],
            self.metas[start:stop],
        )

    def concat(self, other: "SequenceSet") -> "SequenceSet":
        """Concatenate two sets (:meth:`join`)."""
        return SequenceSet.join([self, other])

    @classmethod
    def join(cls, sets: Sequence["SequenceSet"]) -> "SequenceSet":
        """One set of ``sets``' sequences in order: a copy, unless there is
        only one set, or their buffers lie back to back in one array."""
        if len(sets) == 1:
            return sets[0]
        if not sets:
            return cls.empty()
        at = np.cumsum([0] + [s.buffer.size for s in sets])
        first, owner = sets[0].buffer, sets[0].buffer.base
        if isinstance(owner, np.ndarray) and owner.dtype == np.uint8 and owner.ndim == 1 and all(
            s.buffer.base is owner and s.buffer.ctypes.data == first.ctypes.data + lo
            for s, lo in zip(sets, at.tolist())
        ):
            lo = first.ctypes.data - owner.ctypes.data
            buffer = owner[lo : lo + at[-1]]
        else:
            buffer = np.concatenate([s.buffer for s in sets])
        return cls._valid(
            buffer,
            np.concatenate([[0]] + [s.offsets[1:] + base for s, base in zip(sets, at)]),
            [name for s in sets for name in s.names],
            [meta for s in sets for meta in s.metas],
        )

    def __repr__(self) -> str:
        return f"SequenceSet(n={len(self)}, total_bases={self.total_bases})"


class SequenceSetBuilder:
    """Incremental builder that avoids repeated reallocation.

    Appends are O(1) amortised; :meth:`build` concatenates once.
    """

    def __init__(self) -> None:
        self._chunks: list[np.ndarray] = []
        self._names: list[str] = []
        self._metas: list[dict] = []
        self._lengths: list[int] = []

    def add(self, name: str, codes: np.ndarray, meta: dict | None = None) -> None:
        codes = np.asarray(codes, dtype=np.uint8)
        self._chunks.append(codes)
        self._names.append(name)
        self._metas.append(meta if meta is not None else {})
        self._lengths.append(int(codes.size))

    def add_string(self, name: str, seq: str, meta: dict | None = None) -> None:
        self.add(name, encode(seq), meta)

    def __len__(self) -> int:
        return len(self._names)

    def build(self) -> SequenceSet:
        if not self._chunks:
            return SequenceSet.empty()
        buffer = np.concatenate(self._chunks)
        offsets = np.zeros(len(self._chunks) + 1, dtype=np.int64)
        np.cumsum(np.asarray(self._lengths, dtype=np.int64), out=offsets[1:])
        return SequenceSet(buffer, offsets, self._names, self._metas)

    def take(self) -> SequenceSet:
        """:meth:`build`, leaving the builder empty: the set is then the
        caller's alone, and the builder holds none of its records' codes."""
        built = self.build()
        self._chunks, self._names, self._metas, self._lengths = [], [], [], []
        return built
