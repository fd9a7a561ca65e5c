"""The programs under test, run as real subprocesses and watched from outside.

``jem index`` / ``jem map`` run to completion under :func:`run_cli`;
``jem serve --listen`` lives inside :class:`Server`.  Both inherit an
environment that keeps every by-product (compiled kernels, logs) under
``ledger/.work``.

Peak RSS is the child's ``VmHWM`` from ``/proc/<pid>/status``, not
``ru_maxrss``: the kernel folds the forked copy of the *parent's*
memory into a child's ``ru_maxrss`` at exec, so that figure follows the
size of the benchmark process, not of the program under test.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import re
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(LEDGER_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
WORK_DIR = os.path.join(LEDGER_DIR, ".work")
OUT_DIR = os.path.join(LEDGER_DIR, "out")

_BANNER = re.compile(r"# jem-netserve listening on ([^\s:]+):(\d+) ")
_CLK_TCK = os.sysconf("SC_CLK_TCK")

#: SIGTERM grace before SIGKILL when stopping a server.
STOP_GRACE_S = 10.0
#: How often a running CLI child's VmHWM is read.
RSS_SAMPLE_S = 0.02


def native_cache_dir() -> str:
    return os.path.join(WORK_DIR, "native")


def child_env() -> dict[str, str]:
    """Environment of every program under test."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + inherited if inherited else "")
    env["REPRO_NATIVE_CACHE"] = native_cache_dir()
    return env


@dataclass
class CliRun:
    """One finished ``python -m repro.cli ...`` subprocess."""

    wall_s: float
    rss_mb: float
    returncode: int


def peak_rss_mb(pid: int) -> float | None:
    """``VmHWM`` of a live process in MB; None once it has no memory map."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0  # reported in kB
    except OSError:
        pass
    return None


def run_cli(args: list[str], log_path: str) -> CliRun:
    """Run one CLI command to completion; wall is spawn to exit.

    The exit is awaited on a pidfd, so it is seen at once, and the
    child's high-water mark is sampled every :data:`RSS_SAMPLE_S` while
    it runs (a peak reached in its last instants can be missed).
    """
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    rss = 0.0
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *args],
            env=child_env(), stdin=subprocess.DEVNULL, stdout=log, stderr=log,
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            while not select.select([pidfd], [], [], RSS_SAMPLE_S)[0]:
                rss = peak_rss_mb(proc.pid) or rss
            wall = time.perf_counter() - t0
        except BaseException:  # interrupted: the child does not outlive the run
            proc.kill()
            raise
        finally:
            os.close(pidfd)
            proc.wait()
    return CliRun(wall_s=wall, rss_mb=rss, returncode=proc.returncode)


@contextlib.contextmanager
def pinned():
    """Pin this process — the generator — to one core for the body.

    Yields ``{"server_cpu", "generator_cpu"}`` (the server gets the other
    core when it is spawned), or None on a host that cannot split them.
    In sizing runs pinning took the run-to-run p90 spread from 62 % to 12 %.
    """
    original = os.sched_getaffinity(0)
    cpus = sorted(original)
    plan = {"server_cpu": cpus[0], "generator_cpu": cpus[1]} if len(cpus) >= 2 else None
    if plan is not None:
        os.sched_setaffinity(0, {plan["generator_cpu"]})
    try:
        yield plan
    finally:
        os.sched_setaffinity(0, original)


class Server:
    """A ``jem serve --listen 127.0.0.1:0`` subprocess.

    Use as a context manager: the process is stopped on the way out
    (SIGTERM, then SIGKILL after :data:`STOP_GRACE_S`) whatever happened
    inside, and :attr:`rss_mb` / :attr:`returncode` are valid afterwards.
    """

    def __init__(self, serve_args: list[str], log_path: str, cpu: int | None) -> None:
        os.makedirs(os.path.dirname(log_path), exist_ok=True)
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--listen", "127.0.0.1:0", *serve_args],
            env=child_env(), stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=self._log,
        )
        if cpu is not None:
            # set while the child is still one thread: every thread it
            # starts later inherits the mask
            os.sched_setaffinity(self.proc.pid, {cpu})
        self.address: tuple[str, int] | None = None
        self.rss_mb = 0.0
        self.returncode: int | None = None

    def wait_ready(self, timeout: float = 120.0) -> tuple[str, int]:
        """Block until the listening banner appears in the server's log."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            with open(self.log_path, "r", encoding="utf-8", errors="replace") as fh:
                match = _BANNER.search(fh.read())
            if match:
                self.address = (match.group(1), int(match.group(2)))
                return self.address
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(
            f"jem serve did not come up (exit {self.proc.poll()}); see {self.log_path}"
        )

    def cpu_seconds(self) -> float:
        """utime + stime of the server so far, from /proc/<pid>/stat."""
        with open(f"/proc/{self.proc.pid}/stat", "r", encoding="ascii") as fh:
            fields = fh.read().rsplit(") ", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def stop(self) -> None:
        if self.returncode is not None:
            return
        try:
            self.rss_mb = peak_rss_mb(self.proc.pid) or 0.0
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.returncode = self.proc.wait(timeout=STOP_GRACE_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.returncode = self.proc.wait()
        finally:
            self._log.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def adopt_orphans() -> None:
    """Make this process the one that inherits its descendants' orphans.

    ``jem map --backend process`` and ``jem serve --replicas N`` start a
    ``multiprocessing`` resource tracker that ends a moment *after* its
    parent, so it is still there when ``Popen.wait`` returns.  As the
    subreaper the benchmark gets such a process as its own child and can
    wait for it in :func:`reap_descendants`.
    """
    PR_SET_CHILD_SUBREAPER = 36
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # no prctl: direct children are still waited for


def _children() -> list[int]:
    """PIDs whose parent is this process (zombies included)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="ascii", errors="replace") as fh:
                ppid = int(fh.read().rsplit(") ", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # exited while we looked
        if ppid == os.getpid():
            found.append(int(entry))
    return found


def reap_descendants(grace_s: float = STOP_GRACE_S) -> list[int]:
    """Wait until every process this run started has ended; returns the killed.

    Call it last, with every ``Popen`` already waited for: it collects any
    child.  A process still alive after ``grace_s`` is sent SIGKILL, and
    whatever it leaves behind is inherited and waited for in turn.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        # this process's own tracker (the traced run maps with worker
        # processes and shared memory in-process) ends when its pipe closes
        tracker._resource_tracker._stop()
    killed: list[int] = []
    deadline = time.perf_counter() + grace_s
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed  # no child left
        if pid:
            continue
        if time.perf_counter() > deadline:
            for child in _children():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(child, signal.SIGKILL)
                if child not in killed:
                    killed.append(child)
        time.sleep(0.002)


def stray_servers() -> list[int]:
    """PIDs of ``repro.cli serve`` processes alive on this host."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                argv = fh.read().split(b"\0")
        except OSError:
            continue  # exited while we looked
        if b"repro.cli" in argv and b"serve" in argv:
            found.append(int(entry))
    return found


def stray_segments() -> list[str]:
    """``jem-*`` shared-memory segments present in /dev/shm."""
    try:
        return sorted(n for n in os.listdir("/dev/shm") if n.startswith("jem-"))
    except OSError:
        return []


def leaks() -> str | None:
    """Why the host is not clean, or None.

    Two leaked idle servers took a sizing run's p50 from 10 to 28 ms, so
    the runner refuses to start next to one and fails if it leaves one.
    """
    servers = stray_servers()
    if servers:
        return f"repro.cli serve process(es) alive: {servers}"
    segments = stray_segments()
    if segments:
        return f"jem-* segment(s) in /dev/shm: {segments[:4]}"
    return None
