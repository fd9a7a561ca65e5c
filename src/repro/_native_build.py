"""How the compiled kernels' C source becomes a shared library.

Numpy-free, and outside :mod:`repro.sketch` (whose package import pulls numpy
in), on purpose: ``jem index`` / ``jem map`` / ``jem serve`` call
:func:`start` before they import anything heavy, so on a cold cache the C
compiler — a child process — runs beside the imports instead of after them.
:func:`library`, what :func:`repro.sketch._native.load` calls, starts the
compile if nobody has and waits for it, so there is one build path whoever
began it.

The source is one file, ``sketch/jem_kernels.c`` (:data:`SOURCE_PATH`,
shipped as package data; its header says what each kernel computes), read
once.  The library is cached under ``<repo>/.native_cache`` (override with
``REPRO_NATIVE_CACHE``; a temp dir when unwritable) under a 64-bit
checksum of that file's bytes and the compiler flags (``zlib``'s CRC-32 and
Adler-32: ``hashlib`` would load OpenSSL into every process for one digest),
and trusted only while the ``.c`` copy beside it equals the shipped source
byte for byte — a checksum collision recompiles, never loads a stale
kernel.  Every file a build writes appears
under a pid-unique temporary name and is renamed into place — the ``.c``
file all cold processes share is never seen half-written, concurrent
builders race benignly — and a failed, timed-out or abandoned compile
removes its temporary output.

With two CPUs or more the compiler runs on the caller's last CPU from exec
on: the calling thread takes that one-CPU mask for the ``fork``, so the
compiler and every process it starts inherit it, and then moves to its first
CPU, where it stays until the compile is collected, fails, times out or is
abandoned — only then does it get its whole mask back.  Left to the
scheduler, the imports the caller makes meanwhile and the compiler share a
CPU.  A thread the caller starts before then inherits the one-CPU mask, so a
command that starts threads collects the compile first (``jem serve``).
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import os
import subprocess
import tempfile
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path

__all__ = ["SOURCE_PATH", "affinity", "start", "library"]

#: The kernels' source: what ``cc``, the tests and the sanitizer drivers read.
SOURCE_PATH = Path(__file__).resolve().parent / "sketch" / "jem_kernels.c"

#: No ``-pthread``: the C starts no thread (:func:`repro.sketch._native.thread_map` does).
#: ``-O2``, not ``-O3``: the kernels run as fast (tier-X index and map alike)
#: and a cold compile takes a sixth less; ``-pipe`` keeps the compiler's
#: intermediate files off the disk.
_FLAGS = ("-O2", "-pipe", "-shared", "-fPIC")

#: Seconds a compile may take before it is killed and reported as failed.
_TIMEOUT_S = 120


@dataclass
class _Compile:
    """A compiler child that has been started and not yet collected."""

    pid: int  # of the process that started it: a forked copy must not wait on it
    child: subprocess.Popen
    tmp: Path  # the compiler's output, renamed over ``target`` on success
    target: Path
    #: the starting thread and the CPU mask it had: it runs on its first CPU
    #: until the compile ends, then gets this mask back (None: never moved)
    caller: tuple[int, list[int]] | None = None

    def release_caller(self) -> None:
        if self.caller is not None:
            tid, cpus = self.caller
            self.caller = None
            with contextlib.suppress(OSError):  # the thread may be gone
                os.sched_setaffinity(tid, cpus)


_running: _Compile | None = None


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        path = Path(override)
        path.mkdir(parents=True, exist_ok=True)
        return path
    repo_root = Path(__file__).resolve().parents[2]
    candidate = repo_root / ".native_cache"
    try:
        candidate.mkdir(exist_ok=True)
        probe = candidate / f".probe-{os.getpid()}"
        probe.touch()
        probe.unlink()
        return candidate
    except OSError:
        fallback = Path(tempfile.gettempdir()) / "repro-native-cache"
        fallback.mkdir(parents=True, exist_ok=True)
        return fallback


def affinity() -> list[int]:
    """The CPUs the calling thread may run on, in order — empty where the
    platform has no thread affinity.  Whoever starts a helper thread or
    process binds it to one of these: the scheduler of the two-vCPU hosts
    this runs on leaves a new task on the CPU of the task that started it,
    for hundreds of milliseconds, while the other CPU idles."""
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []


def _mine() -> _Compile | None:
    """The compile this very process started, if it has one outstanding."""
    return _running if _running is not None and _running.pid == os.getpid() else None


@functools.cache
def _source() -> bytes:
    return SOURCE_PATH.read_bytes()


def _spawn(cache: Path, stem: str) -> _Compile:
    global _running
    pid = os.getpid()
    c_path = cache / f"{stem}.c"
    tmp_c = cache / f".{stem}.{pid}.c"
    try:
        tmp_c.write_bytes(_source())
        os.replace(tmp_c, c_path)  # every cold process shares this name: whole or absent
    except BaseException:
        tmp_c.unlink(missing_ok=True)
        raise
    tmp_so = cache / f".{stem}.{pid}.so"
    cpus = affinity()
    caller = (threading.get_native_id(), cpus) if len(cpus) > 1 else None
    if caller is not None:
        # the child inherits this thread's mask at fork: the compiler, and
        # every process it starts, runs on the last CPU from exec on
        os.sched_setaffinity(0, {cpus[-1]})
    try:
        child = subprocess.Popen(
            [
                os.environ.get("CC", "cc"), *_FLAGS, "-o", os.fspath(tmp_so), os.fspath(c_path),
            ],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
    except BaseException:
        if caller is not None:
            os.sched_setaffinity(0, cpus)
        raise
    if caller is not None:
        # and this thread on the first until the compile ends: left to the
        # scheduler, the imports it makes meanwhile share the compiler's CPU
        os.sched_setaffinity(0, {cpus[0]})
    _running = _Compile(pid, child, tmp_so, cache / f"{stem}.so", caller)
    return _running


def _collect(build: _Compile) -> Path:
    global _running
    _running = None
    try:
        try:
            _, stderr = build.child.communicate(timeout=_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            build.child.kill()
            build.child.communicate()
            raise
        finally:
            build.release_caller()
        if build.child.returncode:
            raise subprocess.CalledProcessError(
                build.child.returncode, build.child.args, stderr=stderr
            )
        os.replace(build.tmp, build.target)  # atomic: concurrent builders race benignly
    except BaseException:
        build.tmp.unlink(missing_ok=True)
        raise
    return build.target


def _abandon() -> None:
    """At exit: a compile nobody waited for is stopped and leaves nothing."""
    build = _mine()
    if build is not None:
        build.child.kill()
        build.child.communicate()
        build.release_caller()
        build.tmp.unlink(missing_ok=True)


atexit.register(_abandon)


def _locate() -> tuple[Path, str]:
    key = _source() + " ".join(_FLAGS).encode()
    stem = f"jem_kernels_{zlib.crc32(key):08x}{zlib.adler32(key):08x}"
    return _cache_dir(), stem


def _cached(cache: Path, stem: str) -> bool:
    """Whether ``{stem}.so`` was built from the shipped source: its ``.c``
    copy (written before every compile) must match byte for byte."""
    try:
        return (cache / f"{stem}.so").exists() and (cache / f"{stem}.c").read_bytes() == _source()
    except FileNotFoundError:
        return False


def start() -> None:
    """Begin compiling in a child process and return at once.

    Nothing happens when the kernels are switched off (``REPRO_NO_NATIVE``),
    the library is already cached, this process's compile is running, or
    there is no second CPU to give the compiler: sharing the caller's, it
    would finish no sooner than a compile run when :func:`library` asks,
    and the two would only spoil each other's cache.
    Raises ``OSError`` when the compiler cannot be started.
    """
    if os.environ.get("REPRO_NO_NATIVE") or _mine() is not None or len(affinity()) < 2:
        return
    cache, stem = _locate()
    if not _cached(cache, stem):
        _spawn(cache, stem)


def library() -> Path:
    """Path of the compiled library: cached, or compiled now — by the child
    :func:`start` began, if it did.  Raises what the compile raised
    (``CalledProcessError`` carrying the compiler's stderr, ``OSError``,
    ``TimeoutExpired``)."""
    build = _mine()
    if build is None:
        cache, stem = _locate()
        if _cached(cache, stem):
            return cache / f"{stem}.so"
        build = _spawn(cache, stem)
    return _collect(build)
