"""Durable checkpoint/resume for the S1–S4 pipeline.

The pipeline is naturally checkpointable at batch granularity: S2 sketches
the contigs one streamed block at a time, S4 maps the reads one streamed
batch at a time, and S3 is a pure, cheap reduction over the S2 outputs.
This module makes those unit boundaries *durable*, so a run killed hard
(SIGKILL, OOM, power) resumes from its last completed unit instead of
starting over — and produces bit-identical output to an uninterrupted run,
because each unit's result is saved losslessly and the merge order is fixed
by block index.

Three on-disk artifacts live in a *run directory*:

``manifest.json``
    A :class:`RunManifest`: the algorithm constants and the batch size of
    each input's units, plus content fingerprints of every input file.
    Written once via atomic rename; any later open of the same directory
    must present an *identical* manifest or resume is refused with
    :class:`~repro.errors.CheckpointError` — mixing units computed under
    different configs would silently corrupt the output.

``checkpoint.log``
    A :class:`CheckpointLog`: append-only, CRC32-framed records, flushed
    and ``fsync``'d per append.  A crash can only tear the final frame;
    replay stops at the first bad frame and discards the tail, so the log
    never needs repair.

``units/``
    One ``.npz`` payload per completed work unit (S2 block keys, S4 batch
    mappings), written to a temp name and committed with ``os.replace``.
    Each log record carries the payload's CRC32; a payload that fails its
    CRC on resume (chaos, partial write) is treated as *not done* and the
    unit is recomputed.

The module also hosts the deterministic crash-injection hook the
kill-resume tests use (``tests/chaos_harness.py``): with ``REPRO_CHAOS_KILL_AFTER=N`` in the environment, the
process SIGKILLs *itself* immediately after committing its N-th log
record (``N:torn`` additionally leaves a torn half-frame behind first).
Self-kill makes "SIGKILL at checkpoint boundary k" exactly
reproducible — no racy external monitor required.
"""

from __future__ import annotations

import io
import json
import os
import signal
import struct
import zlib
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core.mapper import MappingResult
from ..core.persist import atomic_write_bytes, file_crc32, write_bundle
from ..core.segments import SegmentInfo
from ..errors import CheckpointError

__all__ = [
    "CheckpointLog",
    "CheckpointContext",
    "RunManifest",
    "MANIFEST_NAME",
    "LOG_NAME",
    "fingerprint_file",
    "CHAOS_KILL_AFTER_ENV",
    "chaos_kill_point",
]

#: One frame: magic + payload length + CRC32(payload), then the payload.
_FRAME_MAGIC = b"JMCK"
_FRAME_HEAD = struct.Struct("<4sII")

MANIFEST_NAME = "manifest.json"
LOG_NAME = "checkpoint.log"
_UNITS_DIR = "units"

#: Environment hook for the deterministic self-SIGKILL chaos injection:
#: ``N`` (die after the N-th appended record) or ``N:torn`` (write half a
#: frame first).
CHAOS_KILL_AFTER_ENV = "REPRO_CHAOS_KILL_AFTER"


def chaos_kill_point(value: str | None) -> tuple[int, bool]:
    """The kill hook's ``(after_records, torn)``; ``(0, False)`` when unset.
    A malformed value raises :class:`ValueError` rather than reading as off."""
    if not value:
        return 0, False
    count, sep, mode = value.partition(":")
    if sep and mode != "torn":
        raise ValueError(f"{CHAOS_KILL_AFTER_ENV}={value!r}: expected N or N:torn")
    return int(count), bool(sep)


def fingerprint_file(path: str) -> dict:
    """Content identity of an input file: size + CRC32 over its bytes."""
    with open(path, "rb") as fh:
        crc = file_crc32(fh)
        return {"size": fh.tell(), "crc32": crc}


class CheckpointLog:
    """Append-only CRC32-framed record log with torn-tail-tolerant replay.

    Records are small JSON dicts.  ``append`` frames, writes, flushes and
    ``fsync``'s — after it returns, the record survives any crash.
    ``replay`` yields every intact record in order and stops at the first
    torn or corrupt frame (the crash tail), which is discarded rather
    than treated as an error.
    """

    def __init__(self, path: str, *, fsync: bool = True) -> None:
        self.path = os.fspath(path)
        self._fsync = fsync
        self._fh: io.BufferedWriter | None = None
        self._appended = 0
        self._kill_after, self._torn = chaos_kill_point(os.environ.get(CHAOS_KILL_AFTER_ENV))

    # -- writing -------------------------------------------------------------

    def _writer(self) -> io.BufferedWriter:
        if self._fh is None:
            self._fh = open(self.path, "ab")
        return self._fh

    def append(self, record: dict) -> None:
        """Durably append one record (flush + fsync before returning)."""
        payload = json.dumps(record, sort_keys=True).encode()
        frame = _FRAME_HEAD.pack(_FRAME_MAGIC, len(payload), zlib.crc32(payload)) + payload
        fh = self._writer()
        fh.write(frame)
        fh.flush()
        if self._fsync:
            os.fsync(fh.fileno())
        self._appended += 1
        if self._kill_after and self._appended >= self._kill_after:
            self._chaos_self_kill(fh)

    def _chaos_self_kill(self, fh: io.BufferedWriter) -> None:
        """Deterministic crash injection: die by SIGKILL, mid-write if torn."""
        if self._torn:
            # a half-written frame: plausible length, missing payload bytes
            fh.write(_FRAME_HEAD.pack(_FRAME_MAGIC, 64, 0) + b"\x00" * 7)
            fh.flush()
            os.fsync(fh.fileno())
        os.kill(os.getpid(), signal.SIGKILL)

    def reset(self) -> None:
        """Truncate the log to empty — a durable checkpoint now owns the state.

        The mutable-index layer calls this after rewriting its manifest:
        every record in the log is incorporated in the manifest snapshot,
        so replaying them again would be wrong.  The chaos append counter
        deliberately keeps counting across resets (kill-after-N refers to
        process-lifetime appends, which keeps crash points reproducible
        across an entire mutation schedule).
        """
        self.close()
        with open(self.path, "wb") as fh:
            fh.flush()
            os.fsync(fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CheckpointLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reading -------------------------------------------------------------

    def replay(self) -> list[dict]:
        """Every intact record, in append order; the torn tail is dropped."""
        records: list[dict] = []
        if not os.path.exists(self.path):
            return records
        with open(self.path, "rb") as fh:
            data = fh.read()
        pos = 0
        while pos + _FRAME_HEAD.size <= len(data):
            magic, length, crc = _FRAME_HEAD.unpack_from(data, pos)
            start = pos + _FRAME_HEAD.size
            end = start + length
            if magic != _FRAME_MAGIC or end > len(data):
                break  # torn or garbage tail: everything before it is good
            payload = data[start:end]
            if zlib.crc32(payload) != crc:
                break
            try:
                records.append(json.loads(payload))
            except json.JSONDecodeError:  # pragma: no cover - crc collision
                break
            pos = end
        return records


@dataclass(frozen=True)
class RunManifest:
    """Identity of one checkpointed run: what is computed, over what.

    Two manifests are *compatible* iff they are equal (``version``,
    ``command``, ``pipeline`` dict, ``units`` batch sizes, and every input
    fingerprint); version 1 cut whole sets into ``p`` shards.
    Resume against an incompatible manifest raises
    :class:`~repro.errors.CheckpointError` — the completed units in the
    directory were produced under different rules.
    """

    command: str
    pipeline: dict
    units: dict
    inputs: dict = field(default_factory=dict)
    version: int = 2

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "command": self.command,
            "pipeline": self.pipeline,
            "units": self.units,
            "inputs": self.inputs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        return cls(
            command=str(data["command"]),
            pipeline=dict(data["pipeline"]),
            units=dict(data["units"]),
            inputs=dict(data.get("inputs", {})),
            version=int(data.get("version", 1)),
        )

    def mismatches(self, other: "RunManifest") -> list[str]:
        """Human-readable field paths where the two manifests disagree."""
        out: list[str] = []
        if self.version != other.version:
            out.append(f"version: {self.version!r} != {other.version!r}")
        if self.command != other.command:
            out.append(f"command: {self.command!r} != {other.command!r}")
        for label, mine, theirs in (
            ("pipeline", self.pipeline, other.pipeline),
            ("units", self.units, other.units),
            ("inputs", self.inputs, other.inputs),
        ):
            keys = sorted(set(mine) | set(theirs))
            for key in keys:
                if mine.get(key) != theirs.get(key):
                    out.append(
                        f"{label}.{key}: {mine.get(key)!r} != {theirs.get(key)!r}"
                    )
        return out


def _mapping_to_arrays(result: MappingResult) -> dict[str, np.ndarray]:
    return {
        "segment_names": np.array(result.segment_names, dtype=np.str_),
        "subject": np.asarray(result.subject, dtype=np.int64),
        "hit_count": np.asarray(result.hit_count, dtype=np.int64),
        "info_read_index": np.array(
            [si.read_index for si in result.infos], dtype=np.int64
        ),
        "info_kind": np.array([si.kind for si in result.infos], dtype=np.str_),
    }


def _mapping_from_arrays(data) -> MappingResult:
    return MappingResult(
        segment_names=[str(n) for n in data["segment_names"]],
        subject=np.asarray(data["subject"], dtype=np.int64),
        hit_count=np.asarray(data["hit_count"], dtype=np.int64),
        infos=[
            SegmentInfo(read_index=int(ri), kind=str(kind))
            for ri, kind in zip(data["info_read_index"], data["info_kind"])
        ],
    )


class CheckpointContext:
    """One run directory: manifest + log + unit payloads, ready for resume.

    The streamed loops talk to it through ``sketch_unit`` / ``map_unit``:
    a unit already done (``sketch_result`` / ``mapping_result`` return the
    saved payload or ``None``) is loaded, any other is computed and
    committed (``save_sketch`` / ``save_mapping`` persist the payload
    atomically, then append a log record).  A payload whose CRC no longer
    matches its log record — chaos corruption, a torn rename — reads as
    "not done" and is recomputed.
    """

    def __init__(self, run_dir: str, *, fsync: bool = True) -> None:
        self.run_dir = os.fspath(run_dir)
        os.makedirs(os.path.join(self.run_dir, _UNITS_DIR), exist_ok=True)
        self.log = CheckpointLog(os.path.join(self.run_dir, LOG_NAME), fsync=fsync)
        self._done: dict[tuple[str, int], dict] = {}
        for record in self.log.replay():
            phase, block = record.get("phase"), record.get("block")
            if phase is not None and block is not None:
                self._done[(str(phase), int(block))] = record

    # -- manifest ------------------------------------------------------------

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.run_dir, MANIFEST_NAME)

    def load_manifest(self) -> RunManifest | None:
        if not os.path.exists(self.manifest_path):
            return None
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as fh:
                return RunManifest.from_dict(json.load(fh))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"unreadable run manifest {self.manifest_path!r}: {exc}"
            ) from exc

    def ensure_manifest(self, manifest: RunManifest) -> RunManifest:
        """Install ``manifest``, or verify the directory already agrees.

        First open writes the manifest atomically; any later open compares
        field by field and refuses to resume on any difference.
        """
        existing = self.load_manifest()
        if existing is None:
            atomic_write_bytes(
                self.manifest_path,
                json.dumps(manifest.to_dict(), indent=2, sort_keys=True).encode(),
            )
            return manifest
        problems = existing.mismatches(manifest)
        if problems:
            raise CheckpointError(
                f"run directory {self.run_dir!r} was started with a different "
                f"configuration; refusing to resume ({'; '.join(problems)})"
            )
        return existing

    # -- completion queries --------------------------------------------------

    def completed_units(self, phase: str) -> list[int]:
        return sorted(b for (ph, b) in self._done if ph == phase)

    def _payload_arrays(self, phase: str, block: int) -> Any | None:
        record = self._done.get((phase, block))
        if record is None:
            return None
        path = os.path.join(self.run_dir, record["file"])
        try:
            with open(path, "rb") as fh:
                if file_crc32(fh) != record["crc32"]:
                    return None  # corrupt payload: treat the unit as not done
            return np.load(path, allow_pickle=False)
        except (ValueError, OSError, EOFError):  # a missing file; crc guards the rest
            return None

    def _commit(self, phase: str, block: int, arrays: dict[str, np.ndarray]) -> None:
        rel = os.path.join(_UNITS_DIR, f"{phase}_{block:04d}.npz")
        crc = write_bundle(os.path.join(self.run_dir, rel), arrays.items(), file_crc=True)
        record = {"phase": phase, "block": int(block), "file": rel, "crc32": crc}
        self.log.append(record)
        self._done[(phase, int(block))] = record

    # -- S2 block payloads ---------------------------------------------------

    def sketch_result(self, block: int) -> list[np.ndarray] | None:
        """The saved per-trial key arrays of S2 block ``block`` (or None)."""
        data = self._payload_arrays("sketch", block)
        if data is None:
            return None
        with data:
            return [data[f"trial_{t:03d}"] for t in range(len(data.files))]

    def save_sketch(self, block: int, keys: list[np.ndarray]) -> None:
        self._commit(
            "sketch",
            block,
            {f"trial_{t:03d}": np.asarray(k) for t, k in enumerate(keys)},
        )

    def sketch_unit(
        self, block: int, sketch: Callable[[], list[np.ndarray]]
    ) -> list[np.ndarray]:
        """Block ``block``'s saved keys, or ``sketch()``'s, committed first."""
        keys = self.sketch_result(block)
        if keys is None:
            keys = sketch()
            self.save_sketch(block, keys)
        return keys

    # -- S4 batch payloads ---------------------------------------------------

    def mapping_result(self, block: int) -> MappingResult | None:
        """The saved mapping of S4 read batch ``block`` (or None)."""
        data = self._payload_arrays("map", block)
        if data is None:
            return None
        with data:
            return _mapping_from_arrays(data)

    def save_mapping(self, block: int, result: MappingResult) -> None:
        self._commit("map", block, _mapping_to_arrays(result))

    def map_unit(self, block: int, map_batch: Callable[[], MappingResult]) -> MappingResult:
        """Batch ``block``'s saved mapping, or ``map_batch()``'s, committed first."""
        result = self.mapping_result(block)
        if result is None:
            result = map_batch()
            self.save_mapping(block, result)
        return result

    def close(self) -> None:
        self.log.close()

    def __enter__(self) -> "CheckpointContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
