"""Index persistence: save/load a built JEM index as one ``.npz`` bundle.

A production mapper indexes the contig set once and maps many read batches
against it; this module makes the sketch store a durable artifact.  The
bundle records the full :class:`JEMConfig` so a loaded mapper is guaranteed
to sketch queries with the same constants the index was built with —
loading with a mismatched config is impossible by construction.

The bundle also carries a CRC32 content checksum (config + names + every
trial's columns) that is verified on load, so a truncated, bit-rotted or
hand-edited index surfaces as a typed
:class:`~repro.errors.IndexCorruptError` — localised to a byte offset
when the damage can be placed — instead of a silently wrong mapping or a
raw ``numpy``/``KeyError`` leak.  Saves are atomic (tmp file +
``os.replace`` + fsync): a crash mid-save can leave a stale tmp file but
never a torn bundle under the index's name.

**Format v3** stores the columnar layout natively: each ``trial_{t:03d}``
entry is a ``(2, n)`` ``uint32`` array — row 0 the sorted sketch-value
column, row 1 the parallel contig-id column.  Loading copies every row
into its slice of two arrays that hold every trial back to back
(:func:`read_trial_columns`), so the store's columns are views of them
and the index is resident once.  Older single-file formats (v2 wrote
packed ``uint64`` keys) are rejected with a typed error telling the user
to rebuild.  See ``docs/architecture.md`` for the layout.
"""

from __future__ import annotations

import os
import zipfile
import zlib
from collections.abc import Iterable, Iterator
from typing import BinaryIO

import numpy as np
from numpy.lib import format as npy

from ..errors import IndexCorruptError, MappingError, SketchError
from .config import JEMConfig
from .mapper import JEMMapper
from .store import ColumnarSketchStore

__all__ = [
    "save_index",
    "load_index",
    "write_bundle",
    "read_trial_columns",
    "file_crc32",
    "INDEX_FORMAT_VERSION",
]

#: ``.npy`` header readers by format version.
_NPY_HEADERS = {(1, 0): npy.read_array_header_1_0, (2, 0): npy.read_array_header_2_0}

#: Bumped on any incompatible change to the on-disk layout.
#: v4 is the *mutable* layout — a directory holding a manifest of segment
#: files (per-segment CRCs) plus a WAL (see :mod:`repro.core.lsm`);
#: :func:`load_index` dispatches on a directory path.  Single-file bundles
#: stay at v3 (columnar (2, n) uint32 trial columns); older bundles must
#: be rebuilt.
INDEX_FORMAT_VERSION = 3

#: Low-level failures that mean "this file is not a readable index".
#: ``NotImplementedError`` covers a flipped compression-method byte in a
#: member header (zipfile refuses the bogus method instead of failing CRC).
_CORRUPTION_ERRORS = (
    KeyError,
    ValueError,
    OSError,
    EOFError,
    zipfile.BadZipFile,
    zlib.error,
    NotImplementedError,
)


def _content_checksum(
    config_arr: np.ndarray, n_subjects: int, names: np.ndarray, trials: list[np.ndarray]
) -> int:
    """CRC32 over everything that determines mapping behaviour.

    ``trials`` is the per-trial arrays exactly as stored — stacked
    ``(2, n)`` ``uint32`` columns — so the checksum covers the bytes on disk.
    """
    # crc32 reads the arrays' own buffers: no ``tobytes`` copy per trial
    crc = zlib.crc32(np.ascontiguousarray(config_arr))
    crc = zlib.crc32(str(int(n_subjects)).encode(), crc)
    crc = zlib.crc32("\x00".join(str(n) for n in names).encode(), crc)
    for arr in trials:
        crc = zlib.crc32(np.ascontiguousarray(arr), crc)
    return crc & 0xFFFFFFFF


def stacked_trials(store: ColumnarSketchStore) -> Iterator[tuple[str, np.ndarray]]:
    """``(member name, (2, n) uint32 columns)`` of each trial, stacked one at a time."""
    for t in range(store.trials):
        yield f"trial_{t:03d}", np.stack([store.values[t], store.subjects[t]])


#: Bytes :func:`file_crc32` reads at a time, into one buffer it reuses.
_CRC_BUFFER_BYTES = 1 << 16


def file_crc32(fh: BinaryIO) -> int:
    """CRC32 of an open binary file from its position on.

    The file is read with ``readinto`` into one reused
    :data:`_CRC_BUFFER_BYTES` buffer, so checking a segment file of any
    size (every v4 segment write and load does) holds 64 KiB.
    """
    buf = bytearray(_CRC_BUFFER_BYTES)
    crc = 0
    with memoryview(buf) as view:
        while n := fh.readinto(buf):
            crc = zlib.crc32(view[:n], crc)
    return crc


def _trial_width(bundle: zipfile.ZipFile, name: str) -> int:
    """``n`` of trial member ``name``, whose header must say ``(2, n)`` native uint32, C order."""
    with bundle.open(name) as fh:
        version = npy.read_magic(fh)
        if version not in _NPY_HEADERS:
            raise ValueError(f"{name}: .npy format {version} unsupported")
        shape, fortran_order, dtype = _NPY_HEADERS[version](fh)
    if dtype != np.uint32 or fortran_order or len(shape) != 2 or shape[0] != 2:
        order = "Fortran" if fortran_order else "C"
        raise ValueError(
            f"{name}: expected (2, n) uint32 columns in C order, "
            f"got {shape} {dtype.str} in {order} order"
        )
    return shape[1]


def read_trial_columns(
    bundle: zipfile.ZipFile, trials: int, crc: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The ``trial_NNN`` members of an open bundle, read into two arrays.

    Returns ``(values, subjects, offsets, crc)``: trial ``t``'s two rows
    land in ``values[offsets[t]:offsets[t+1]]`` and the same slice of
    ``subjects`` — what :meth:`ColumnarSketchStore.from_flat` takes —
    and ``crc`` is the given CRC32 continued
    over each member's array bytes, as :func:`_content_checksum` covers
    them.  The headers are read first to size the two arrays; then each
    member is read whole and copied into its slices, so a load holds the
    index plus one trial.  Every member is read to its end, so the zip
    CRC of each is checked.  A member that is not ``(2, n)`` uint32, or
    holds fewer or more bytes than its header says, raises ``ValueError``.
    """
    names = [f"trial_{t:03d}.npy" for t in range(trials)]
    offsets = np.zeros(trials + 1, dtype=np.int64)
    np.cumsum([_trial_width(bundle, name) for name in names], out=offsets[1:])
    values = np.empty(int(offsets[-1]), dtype=np.uint32)
    subjects = np.empty_like(values)
    for name, lo, hi in zip(names, offsets[:-1].tolist(), offsets[1:].tolist()):
        with bundle.open(name) as fh:
            try:
                columns = npy.read_array(fh, allow_pickle=False)
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from exc
            if fh.read(1):
                raise ValueError(f"{name}: bytes past its (2, {hi - lo}) columns")
        values[lo:hi], subjects[lo:hi] = columns
        crc = zlib.crc32(columns, crc)
    return values, subjects, offsets, crc


def write_bundle(
    final: str, members: Iterable[tuple[str, np.ndarray]], *, file_crc: bool = False
) -> int | None:
    """Write ``members`` as a stored ``.npz`` — what ``np.savez`` writes — atomically.

    The one bundle writer (v3 bundles and v4 segment files).  Members go
    one at a time straight into a tmp file next to ``final``, so no copy
    of the bundle is built in memory; the tmp file is fsynced and renamed
    over ``final``, so a crash mid-save can leave a stale tmp file but
    never a torn bundle under the name.  Stored, not deflated: hashed
    uint32 columns shrink by a third at ~12 MB/s, which cost more than
    sketching the contigs did.  With ``file_crc`` the finished tmp file is
    read back before the rename and its CRC32 returned (what a v4 manifest
    records of a segment file).
    """
    tmp = f"{final}.tmp.{os.getpid()}"
    crc = None
    with open(tmp, "w+b") as fh:
        with zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED) as bundle:
            for name, arr in members:
                with bundle.open(name + ".npy", "w", force_zip64=True) as member:
                    np.lib.format.write_array(member, np.asanyarray(arr), allow_pickle=False)
        if file_crc:
            fh.seek(0)
            crc = file_crc32(fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, final)
    parent = os.path.dirname(os.path.abspath(final))
    try:
        dir_fd = os.open(parent, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return crc
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return crc


def save_index(mapper: JEMMapper, path: str | os.PathLike) -> str:
    """Write a mapper's index (store + config + subject names) to ``path``.

    Returns the path written.  The mapper must be indexed.  Any store
    saves through the same v3 layout (columns are derived when the
    resident store is not already columnar).
    """
    # mapper.table raises MappingError when not indexed
    store = ColumnarSketchStore.from_store(mapper.table)
    cfg = mapper.config
    config_arr = np.array(
        [cfg.k, cfg.w, cfg.ell, cfg.trials, cfg.seed, cfg.min_hits], dtype=np.int64
    )
    names_arr = np.array(mapper.subject_names)

    def members() -> Iterator[tuple[str, np.ndarray]]:
        yield "format_version", np.int64(INDEX_FORMAT_VERSION)
        yield "config", config_arr
        yield "n_subjects", np.int64(store.n_subjects)
        yield "subject_names", names_arr
        # _content_checksum, continued over each trial as it is written
        crc = _content_checksum(config_arr, store.n_subjects, names_arr, [])
        for name, columns in stacked_trials(store):
            crc = zlib.crc32(columns, crc)
            yield name, columns
        yield "checksum", np.uint32(crc)

    path = os.fspath(path)
    # np.savez appended .npz when missing; commit under the same file name
    final = path if path.endswith(".npz") else path + ".npz"
    write_bundle(final, members())
    return final


def load_index(path: str | os.PathLike) -> JEMMapper:
    """Reconstruct a ready-to-map :class:`JEMMapper` from a saved index.

    A v3 bundle's columns are read into two arrays whose views are the
    resident columnar store's columns (:func:`read_trial_columns`), which
    the fused kernel maps over with no further copy.  Truncated, corrupted, older- or
    future-format files raise :class:`~repro.errors.MappingError` with the
    root cause chained.
    """
    path = os.fspath(path)
    if os.path.isdir(path):
        # format v4: a mutable-index directory (manifest + segments + WAL);
        # the resident store is the generational handle itself
        from .lsm import MutableSketchStore

        handle = MutableSketchStore.open(path)
        mapper = JEMMapper(handle.config)
        mapper.adopt_store(handle, handle.subject_names)
        return mapper
    if not os.path.exists(path) and os.path.exists(path + ".npz"):
        path = path + ".npz"
    try:
        with np.load(path, allow_pickle=False) as data:
            version = int(data["format_version"])
            if version != INDEX_FORMAT_VERSION:
                hint = (
                    "rebuild the index with save_index"
                    if version < INDEX_FORMAT_VERSION
                    else "upgrade this library"
                )
                raise MappingError(
                    f"index format {version} unsupported "
                    f"(expected {INDEX_FORMAT_VERSION}); {hint}"
                )
            config_arr = np.asarray(data["config"], dtype=np.int64)
            k, w, ell, trials, seed, min_hits = (int(v) for v in config_arr)
            config = JEMConfig(
                k=k, w=w, ell=ell, trials=trials, seed=seed, min_hits=min_hits
            )
            n_subjects = int(data["n_subjects"])
            names_arr = data["subject_names"]
            names = [str(n) for n in names_arr]
            stored = int(data["checksum"])
            values, subjects, offsets, actual = read_trial_columns(
                data.zip,
                trials,
                _content_checksum(config_arr, n_subjects, names_arr, []),
            )
    except MappingError:
        raise
    except FileNotFoundError as exc:
        raise MappingError(f"no such index: {path!r}") from exc
    except _CORRUPTION_ERRORS as exc:
        raise _corrupt_error(path, str(exc)) from exc
    if actual != stored:
        raise _corrupt_error(
            path,
            f"failed its integrity check (stored {stored:#010x}, "
            f"computed {actual:#010x})",
        )
    try:
        resident = ColumnarSketchStore.from_flat(values, subjects, offsets, n_subjects)
    except (SketchError, *_CORRUPTION_ERRORS) as exc:
        raise _corrupt_error(path, str(exc)) from exc
    mapper = JEMMapper(config)
    mapper.adopt_store(resident, names)
    return mapper


def _locate_corruption(path: str) -> int | None:
    """Best-effort byte offset where reading the bundle first goes wrong.

    A truncated container (the zip central directory at EOF is missing)
    localises to the file size — the truncation point; a damaged member
    localises to that member's local header offset by decoding every
    member in turn (unlike :meth:`zipfile.ZipFile.testzip` this survives
    members whose damage raises instead of failing the CRC).  ``None``
    when the damage cannot be placed (e.g. the corruption only shows up
    as a checksum mismatch over structurally valid zip data).
    """
    try:
        size = os.path.getsize(path)
    except OSError:
        return None
    try:
        with zipfile.ZipFile(path) as zf:
            for info in zf.infolist():
                try:
                    with zf.open(info) as member:
                        while member.read(1 << 20):
                            pass
                except _CORRUPTION_ERRORS:
                    return int(info.header_offset)
    except zipfile.BadZipFile:
        return size
    except OSError:  # pragma: no cover - unreadable mid-scan
        return None
    return None


def _corrupt_error(path: str, cause: str) -> IndexCorruptError:
    """Typed corruption error, localised to a byte offset when possible."""
    offset = _locate_corruption(path)
    where = f" (first bad byte near offset {offset})" if offset is not None else ""
    return IndexCorruptError(
        f"corrupt or unreadable index {path!r}: {cause}{where}; "
        "rebuild the index",
        path=path,
        offset=offset,
    )
