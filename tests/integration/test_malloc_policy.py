"""Every `jem` process gives freed arrays back to the kernel, and keeps
its threads on one malloc arena.

glibc raises its mmap threshold to the size of each mmapped chunk that is
freed, so after one freed batch buffer every batch-sized array comes from
the heap and stays resident.  ``repro.cli.main`` pins the threshold at
glibc's default (128 KiB); ``import repro`` does not.  Each check runs in a
fresh interpreter and reads ``mallinfo2().hblkhd`` — the bytes glibc holds
in mmapped chunks — around a 4-MiB allocation made after a 16-MiB array
was freed: an mmapped allocation raises it by 4 MiB, a heap one by 0.  A
chunk the heap already holds free is served before any threshold is asked
(the imports leave ≈ 2 MB of them), so the probe allocates more than the
heap holds free, and says so.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (ValueError, OSError):
        return False


pytestmark = pytest.mark.skipif(not _glibc(), reason="the policy is glibc's mallopt")

_PROBE = """
import ctypes, sys
import numpy as np

class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd",
        "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]

libc = ctypes.CDLL(None)
libc.mallinfo2.restype = Mallinfo2
{setup}
freed = np.ones(16 << 20, dtype=np.uint8)
del freed
before = libc.mallinfo2()
assert before.fordblks < 4 << 20, before.fordblks
kept = np.ones(4 << 20, dtype=np.uint8)
print(libc.mallinfo2().hblkhd - before.hblkhd)
"""


def _mmapped_rise(setup: str) -> int:
    """Bytes ``hblkhd`` rose by for the 4-MiB array, after ``setup``."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE.format(setup=setup)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return int(done.stdout.split()[-1])


@pytest.mark.parametrize("calls", [1, 2], ids=["once", "twice"])
def test_jem_processes_pin_the_mmap_threshold(calls):
    """After ``main()`` — for any subcommand, and again in the same process
    — a freed 16-MiB array no longer pulls a 4-MiB one onto the heap."""
    setup = "from repro.cli import main\n" + 'assert main(["datasets"]) == 0\n' * calls
    assert _mmapped_rise(setup) >= 4 << 20


def test_importing_repro_keeps_glibcs_dynamic_threshold():
    """The threshold is the program's policy, not the library's: a process
    that only imports ``repro`` (its CLI module included) keeps glibc's
    behaviour, and the 4-MiB array comes from the heap."""
    setup = "import repro, repro.cli, repro.sketch"
    assert _mmapped_rise(setup) == 0


_ARENAS = """
import ctypes, sys, threading
import numpy as np
{setup}
kept = []
worker = threading.Thread(target=lambda: kept.append(np.ones(64 << 10, dtype=np.uint8)))
worker.start()
worker.join()
sys.stdout.flush()
ctypes.CDLL(None).malloc_stats()  # one "Arena N:" paragraph per arena, on stderr
"""


def _arenas(setup: str) -> int:
    """Arenas glibc holds once a thread has allocated a heap-sized array."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", _ARENAS.format(setup=setup)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return sum(line.startswith("Arena ") for line in done.stderr.splitlines())


def test_jem_processes_keep_their_threads_on_the_main_arena():
    """What a kernel thread allocates and returns — S2's per-trial key
    lists — comes from the arena the main thread frees into, not from one
    of the thread's own; a process that only imports ``repro`` keeps
    glibc's arena per thread."""
    assert _arenas('from repro.cli import main\nassert main(["datasets"]) == 0') == 1
    assert _arenas("import repro, repro.cli, repro.sketch") == 2
