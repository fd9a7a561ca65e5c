"""Zero-copy shared-memory transport for the process backend.

The process backend used to ship every work unit by pickling it: each S2
payload copied a rank's contig bases into the pickle stream, and each S4
payload copied the *entire* merged sketch table once per rank — p copies
of data that every worker reads but never writes.  This module moves those
read-only blocks through POSIX shared memory instead
(:mod:`multiprocessing.shared_memory`): the parent publishes one segment
per role, workers attach and build numpy views directly on the mapping,
and payloads shrink to a small descriptor naming the segment.

Lifecycle rules (all enforced here):

* **Parent owns every segment.**  Workers only ever attach; creation and
  ``unlink`` happen in the parent process, in a ``try/finally`` around the
  phase dispatch, so segments disappear even when a phase raises
  (:class:`~repro.errors.FaultError`,
  :class:`~repro.errors.PartialResultError`).  An ``atexit`` hook backstops
  interpreter exit, and it refuses to unlink from a process that is not
  the creator (fork children inherit the registry dict).
* **Deterministic names** — ``jem-{pid}-{role}-{counter}`` — so a rebuilt
  pool (the recovery path after a unit timeout) re-attaches to the same
  segments by name; nothing about recovery needs re-publication.
* **Worker attaches bypass the resource tracker.**  Python 3.11 registers
  *attached* segments with ``multiprocessing``'s resource tracker, which
  would unlink parent-owned segments when a worker exits — exactly wrong
  for our ownership model (and the source of the well-known
  ``resource_tracker`` warnings).  Unregistering after the fact races
  when several workers share one tracker (its name cache is a set), so
  attaches simply suppress registration.  Worker attachments are cached
  per process and dropped when the worker dies: the OS releases the
  mapping, the segment itself survives until the parent unlinks it.
"""

from __future__ import annotations

import atexit
import itertools
import math
import os
import threading
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from ..core.store import ColumnarSketchStore
from ..errors import CommError
from ..seq.records import SequenceSet

__all__ = [
    "ShmArrayRef",
    "SharedSeqBlock",
    "SharedStore",
    "share_arrays",
    "attach_arrays",
    "share_sequence_set",
    "share_store",
    "release",
    "release_all",
    "created_segment_names",
    "segment_exists",
    "SEGMENT_PREFIX",
    "orphan_segment_names",
    "sweep_orphan_segments",
]

#: Every segment this package creates is named ``jem-{pid}-{role}-{n}`` —
#: the prefix the orphan sweep scans for.
SEGMENT_PREFIX = "jem-"

#: Where POSIX shared memory surfaces as files (Linux; absent elsewhere).
_SHM_DIR = "/dev/shm"

#: Segments created by *this* process: name -> (SharedMemory, creator pid).
_created: dict[str, tuple[shared_memory.SharedMemory, int]] = {}
#: Segments this process attached to (worker-side cache, dropped on exit).
_attached: dict[str, shared_memory.SharedMemory] = {}
_counter = itertools.count()
#: Serialises the ``resource_tracker.register`` swap in ``_attach_untracked``.
_attach_lock = threading.Lock()


def _next_name(role: str) -> str:
    """Deterministic segment name: creator pid + role + running counter."""
    return f"jem-{os.getpid()}-{role}-{next(_counter)}"


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to a segment without registering it with the resource tracker.

    The tracker would otherwise unlink the parent-owned segment when this
    process exits.  Suppressing registration (rather than unregistering
    afterwards) avoids a race in the tracker's shared name cache when
    several workers attach the same segment.  The swap is a process-wide
    patch, so it is serialised: two interleaved callers would otherwise
    save the no-op as "original" and leave it installed for good.
    """
    with _attach_lock:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


@dataclass(frozen=True)
class ShmArrayRef:
    """Descriptor of one shared segment holding several packed arrays.

    ``specs`` is a tuple of ``(offset, dtype_str, shape)`` triples; the
    descriptor is tiny and picklable — it is what travels in the work-unit
    payload instead of the arrays themselves.
    """

    name: str
    specs: tuple[tuple[int, str, tuple[int, ...]], ...]

    def __len__(self) -> int:
        return len(self.specs)


def share_arrays(arrays: list[np.ndarray], role: str) -> ShmArrayRef:
    """Publish arrays into one parent-owned segment; returns the descriptor.

    Arrays are packed back to back at 8-byte alignment.  The segment is
    registered for :func:`release` / :func:`release_all`; the caller is
    responsible for eventually releasing it (the backend does so in a
    ``try/finally``).
    """
    specs: list[tuple[int, str, tuple[int, ...]]] = []
    offset = 0
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        offset = (offset + 7) & ~7
        specs.append((offset, arr.dtype.str, arr.shape))
        offset += arr.nbytes
    shm = shared_memory.SharedMemory(
        create=True, size=max(offset, 1), name=_next_name(role)
    )
    for (off, _, _), arr in zip(specs, arrays):
        arr = np.ascontiguousarray(arr)
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=off)
        view[...] = arr
    _created[shm.name] = (shm, os.getpid())
    return ShmArrayRef(name=shm.name, specs=tuple(specs))


def attach_arrays(ref: ShmArrayRef) -> list[np.ndarray]:
    """Zero-copy views of a descriptor's arrays (attaching if needed).

    In the creating process (and its fork children, which inherit the
    mapping) the existing segment object is reused; otherwise the segment
    is attached once, unregistered from the resource tracker (the parent
    owns the unlink) and cached for the life of this process.
    """
    if ref.name in _created:
        shm = _created[ref.name][0]
    elif ref.name in _attached:
        shm = _attached[ref.name]
    else:
        try:
            shm = _attach_untracked(ref.name)
        except FileNotFoundError as exc:
            raise CommError(f"shared segment {ref.name!r} has vanished") from exc
        _attached[ref.name] = shm
    # frombuffer holds an export on the mapping, so a view outlives a release
    return [
        np.frombuffer(shm.buf, np.dtype(dtype), math.prod(shape), off).reshape(shape)
        for off, dtype, shape in ref.specs
    ]


@dataclass(frozen=True)
class SharedSeqBlock:
    """One rank's slice of a :class:`SequenceSet` published in shared memory.

    The whole set's ``buffer``/``offsets`` live in a single segment shared
    by every rank; each payload carries only ``[start, stop)`` plus the
    slice's names and metas (small Python objects — metas hold the
    simulators' ground-truth coordinates, which
    :func:`~repro.core.segments.extract_end_segments` reads, so they must
    ride along).
    """

    ref: ShmArrayRef
    start: int
    stop: int
    names: tuple[str, ...]
    metas: tuple[dict, ...]

    def materialise(self) -> SequenceSet:
        """Rebuild the slice as a SequenceSet over zero-copy shm views."""
        buffer, offsets = attach_arrays(self.ref)
        base = int(offsets[self.start])
        return SequenceSet(
            buffer[base : int(offsets[self.stop])],
            offsets[self.start : self.stop + 1] - base,
            list(self.names),
            list(self.metas),
        )


def share_sequence_set(
    sequences: SequenceSet, role: str, bounds: list[tuple[int, int]]
) -> list[SharedSeqBlock]:
    """Publish a set once; return per-rank block descriptors.

    ``bounds`` is the rank partition as ``(start, stop)`` sequence-index
    pairs — the shm analogue of the driver's block scatter, except every
    rank reads its slice from the same segment.
    """
    ref = share_arrays([sequences.buffer, sequences.offsets], role)
    return [
        SharedSeqBlock(
            ref=ref,
            start=start,
            stop=stop,
            names=tuple(sequences.names[start:stop]),
            metas=tuple(sequences.metas[start:stop]),
        )
        for start, stop in bounds
    ]


@dataclass(frozen=True)
class SharedStore:
    """The resident sketch store, published once for all ranks.

    The value/subject columns are shared as they are held: workers rebuild
    a :class:`~repro.core.store.ColumnarSketchStore` over zero-copy views
    of the interleaved columns.
    """

    ref: ShmArrayRef
    n_subjects: int

    def materialise(self) -> ColumnarSketchStore:
        """Rebuild the store over zero-copy shm views."""
        return ColumnarSketchStore.from_columns(
            attach_arrays(self.ref), self.n_subjects
        )


def share_store(store: ColumnarSketchStore) -> SharedStore:
    """Publish a store once; returns the descriptor workers attach to."""
    return SharedStore(
        ref=share_arrays(store.export_columns(), "table"),
        n_subjects=store.n_subjects,
    )


def release(name: str) -> None:
    """Close and unlink one parent-owned segment (idempotent)."""
    entry = _created.pop(name, None)
    if entry is None:
        return
    shm, creator = entry
    try:
        shm.close()
    except BufferError:
        # live views keep the mapping open: it is unmapped with the last of them
        shm._mmap = None
    if creator == os.getpid():
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def release_all() -> None:
    """Release every segment this process created (atexit backstop)."""
    for name in list(_created):
        release(name)


def created_segment_names() -> list[str]:
    """Names of segments currently owned by this process (for tests)."""
    return sorted(_created)


def segment_exists(name: str) -> bool:
    """True if a segment of that name can still be attached (for tests)."""
    try:
        shm = _attach_untracked(name)
    except FileNotFoundError:
        return False
    shm.close()
    return True


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid exists, other user
        return True
    return True


def orphan_segment_names() -> list[str]:
    """``jem-*`` segments whose creating process is dead.

    The deterministic name scheme embeds the creator pid, so orphans are
    decidable without any registry: a segment named ``jem-{pid}-...``
    whose pid no longer exists was leaked by a hard crash (SIGKILL never
    runs the ``atexit`` unlink).  Segments of live processes — including
    this one — are never reported.
    """
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:  # pragma: no cover - non-Linux shm backing
        return []
    orphans: list[str] = []
    for name in entries:
        if not name.startswith(SEGMENT_PREFIX):
            continue
        parts = name.split("-")
        try:
            pid = int(parts[1])
        except (IndexError, ValueError):
            continue
        if not _pid_alive(pid):
            orphans.append(name)
    return sorted(orphans)


def sweep_orphan_segments() -> list[str]:
    """Unlink every orphaned ``jem-*`` segment; returns the names removed.

    Run at process-backend startup, so shared memory leaked by a SIGKILLed
    run is reclaimed by the next one instead of accumulating until reboot.  Safe to call concurrently: a segment
    already gone is skipped.
    """
    removed: list[str] = []
    for name in orphan_segment_names():
        try:
            shm = _attach_untracked(name)
        except FileNotFoundError:
            continue
        try:
            shm.close()
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - lost a race
            continue
        removed.append(name)
    return removed


atexit.register(release_all)
