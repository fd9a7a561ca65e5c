"""How the kernels' C source — the one file ``repro/sketch/jem_kernels.c`` —
becomes a shared library (``repro._native_build``).

Everything here runs the real compiler in fresh interpreters against an empty
``REPRO_NATIVE_CACHE``: concurrent cold processes, a compiler that fails, a
compile started early (``jem index`` / ``map`` / ``serve`` start it before they
import numpy) and one nobody waited for — and after each, what is left in the
cache directory.
"""

from __future__ import annotations

import os
import shutil
import stat
import subprocess
import sys
import textwrap

import pytest

import repro
from repro import _native_build
from repro.sketch import _native

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

needs_compiler = pytest.mark.skipif(
    _native.load() is None, reason="no C compiler available"
)
needs_two_cpus = pytest.mark.skipif(
    len(_native_build.affinity()) < 2, reason="start() waits for a second CPU"
)


def child_env(cache, **env) -> dict[str, str]:
    """This process's environment, kernels on, caching into ``cache``."""
    full = {**os.environ, "PYTHONPATH": SRC, "REPRO_NATIVE_CACHE": str(cache)}
    full.pop("REPRO_NO_NATIVE", None)
    full.update(env)
    return full


def python(code: str, cache, **env) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-W", "always", "-c", textwrap.dedent(code)],
        env=child_env(cache, **env), capture_output=True, text=True, timeout=300,
    )


def cache_files(cache) -> list[str]:
    return sorted(os.listdir(cache)) if os.path.isdir(cache) else []


def assert_one_library_and_no_temp_file(cache) -> None:
    files = cache_files(cache)
    assert len(files) == 2 and not any(name.startswith(".") for name in files), files
    assert sorted(name.rsplit(".", 1)[1] for name in files) == ["c", "so"]


def fake_compiler(tmp_path, body: str) -> str:
    path = tmp_path / "fake-cc"
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


LOADED = """
    from repro.sketch import _native
    print("native_loaded", _native.load() is not None)
"""


@needs_compiler
def test_two_concurrent_cold_loads_into_one_empty_cache_both_load(tmp_path):
    cache = tmp_path / "cache"
    procs = [
        subprocess.Popen(
            [sys.executable, "-W", "error", "-c", textwrap.dedent(LOADED)],
            env=child_env(cache), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        assert out.split() == ["native_loaded", "True"]
    assert_one_library_and_no_temp_file(cache)


@needs_compiler
def test_the_shared_source_file_is_never_seen_half_written(tmp_path, monkeypatch):
    """The ``.c`` every cold process names alike appears by rename: while one
    process is still writing, another's compiler finds the old whole file or
    none — here, the writer dies mid-write and the name is never created."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)

    def dies(self, data):
        with open(self, "wb") as fh:
            fh.write(data[:100])
        raise OSError("disk full")

    monkeypatch.setattr(type(tmp_path), "write_bytes", dies)
    with pytest.raises(OSError, match="disk full"):
        _native_build.library()
    assert cache_files(tmp_path) == []


@needs_compiler
def test_the_cache_holds_the_shipped_source_under_a_stem_of_its_bytes_and_the_flags(
    tmp_path, monkeypatch
):
    """One file is what ``cc``, an editor and the sanitizer drivers read; an
    edit to it, or to the flags, is a new library, never a stale one."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    shipped = _native_build.SOURCE_PATH.read_bytes()
    assert _native_build.SOURCE_PATH.name == "jem_kernels.c" and b"jem_map_ctx" in shipped
    library = _native_build.library()
    assert library.with_suffix(".c").read_bytes() == shipped
    assert_one_library_and_no_temp_file(tmp_path)
    with monkeypatch.context() as other_flags:
        other_flags.setattr(_native_build, "_FLAGS", (*_native_build._FLAGS, "-DNDEBUG"))
        assert _native_build._locate()[1] != library.stem
    assert _native_build._locate()[1] == library.stem
    monkeypatch.setattr(_native_build, "_source", lambda: shipped + b"\n")
    assert _native_build._locate()[1] != library.stem


@needs_compiler
def test_a_cached_library_whose_source_copy_differs_is_rebuilt_not_loaded(
    tmp_path, monkeypatch
):
    """The stem is a 64-bit checksum, so a library under it is trusted only
    while the ``.c`` beside it is the shipped source byte for byte: a
    checksum collision recompiles instead of loading another source's code."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    cache, stem = _native_build._locate()
    (cache / f"{stem}.c").write_bytes(b"int another_source;\n")
    (cache / f"{stem}.so").write_bytes(b"a stale library")
    library = _native_build.library()
    assert library == cache / f"{stem}.so" and library.read_bytes()[:4] == b"\x7fELF"
    assert library.with_suffix(".c").read_bytes() == _native_build.SOURCE_PATH.read_bytes()
    assert_one_library_and_no_temp_file(tmp_path)
    built = library.stat().st_mtime_ns
    assert _native_build.library() == library and library.stat().st_mtime_ns == built


def test_a_failing_compiler_warns_once_leaves_no_temp_file_and_maps_on_numpy(tmp_path):
    cache = tmp_path / "cache"
    code = """
        import warnings
        import numpy as np
        from repro.core import JEMConfig, JEMMapper
        from repro.seq import SequenceSet, decode, random_codes
        from repro.sketch import _native
        rng = np.random.default_rng(4)
        contigs = SequenceSet.from_strings(
            [(f"c{i}", decode(random_codes(3_000, rng))) for i in range(5)])
        reads = SequenceSet.from_strings(
            [(f"r{i}", decode(contigs.codes_of(i % 5)[200:2_600])) for i in range(10)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            mapper = JEMMapper(JEMConfig(k=12, w=20, ell=500, trials=6))
            mapper.index(contigs)
            result = mapper.map_reads(reads)
        print(len(caught), caught[0].category.__name__, "|", caught[0].message)
        print(_native.load() is None, result.subject.tolist(), result.hit_count.tolist())
    """
    failed = python(code, cache, CC=fake_compiler(tmp_path, "echo 'fake-cc: no such header' >&2\nexit 1\n"))
    assert failed.returncode == 0, failed.stderr
    head, answer = failed.stdout.strip().splitlines()
    assert head.startswith("1 RuntimeWarning |")
    assert "compile failed" in head and "fake-cc: no such header" in head
    files = cache_files(cache)
    assert len(files) == 1 and files[0].endswith(".c") and not files[0].startswith(".")
    off = python(code.replace("print(len(caught), caught[0].category.__name__, \"|\", caught[0].message)", "print('-')"),
                 tmp_path / "unused", REPRO_NO_NATIVE="1")
    assert off.returncode == 0, off.stderr
    assert off.stdout.strip().splitlines()[1] == answer and answer.startswith("True [")


def test_cc_false_is_the_same_story(tmp_path):
    cache = tmp_path / "cache"
    done = python(LOADED, cache, CC="false")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["native_loaded", "False"]
    assert done.stderr.count("RuntimeWarning") == 1 and "compile failed (false)" in done.stderr
    assert [name for name in cache_files(cache) if name.startswith(".")] == []


def test_a_missing_compiler_is_reported_by_load_not_raised_by_the_cli(tmp_path):
    """``cli.main`` swallows start()'s OSError; load() meets it again and warns."""
    cache = tmp_path / "cache"
    done = python(
        """
        import contextlib
        from repro import _native_build
        with contextlib.suppress(OSError):
            _native_build.start()
        from repro.sketch import _native
        print("native_loaded", _native.load() is not None)
        """,
        cache, CC=str(tmp_path / "no-such-compiler"),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["native_loaded", "False"]
    assert done.stderr.count("RuntimeWarning") == 1 and "no-such-compiler" in done.stderr
    assert [name for name in cache_files(cache) if name.startswith(".")] == []


def test_a_compile_that_times_out_is_killed_and_removes_its_output(tmp_path):
    cache = tmp_path / "cache"
    slow = fake_compiler(tmp_path, 'for a; do out=$prev; prev=$a; done\ntouch "$out"\nexec sleep 30\n')
    done = python(
        """
        import time
        from repro import _native_build
        _native_build._TIMEOUT_S = 0.5
        from repro.sketch import _native
        t0 = time.perf_counter()
        print("native_loaded", _native.load() is not None, time.perf_counter() - t0 < 10)
        """,
        cache, CC=slow,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["native_loaded", "False", "True"]
    assert "TimeoutExpired" in done.stderr
    assert [name for name in cache_files(cache) if name.startswith(".")] == []


@needs_compiler
@needs_two_cpus
def test_start_returns_at_once_and_load_collects_the_running_compile(tmp_path):
    """What ``jem index`` does on a cold cache: the compiler is a live child
    while numpy is still unimported; load() then waits for that same child."""
    cache = tmp_path / "cache"
    done = python(
        """
        import os, sys, time
        from repro import _native_build
        mask = os.sched_getaffinity(0)
        t0 = time.perf_counter()
        _native_build.start()
        started = time.perf_counter() - t0
        build = _native_build._running
        print("numpy" in sys.modules, build.child.poll() is None, started < 0.2)
        _native_build.start()  # a second call changes nothing
        print(_native_build._running is build)
        from repro.sketch import _native
        print(_native.load() is not None, _native_build._running is None,
              build.child.returncode, os.sched_getaffinity(0) == mask)
        """,
        cache,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True", "True", "True", "True", "True", "0", "True"]
    assert_one_library_and_no_temp_file(cache)


@needs_compiler
@needs_two_cpus
def test_the_compiler_runs_on_the_last_cpu_and_the_caller_on_the_first_until_it_ends(tmp_path):
    """From exec on, the compiler and what it forks (here a ``grep`` the
    wrapper starts before it execs ``cc``) run on the caller's last CPU, and
    the caller on its first, so the imports it makes meanwhile have a CPU of
    their own; once the compile is collected the caller has its mask back."""
    cache, seen = tmp_path / "cache", tmp_path / "forked-mask"
    cc = shutil.which(os.environ.get("CC", "cc"))
    wrapper = fake_compiler(
        tmp_path, f'grep Cpus_allowed_list /proc/self/status > {seen}\nexec {cc} "$@"\n'
    )
    done = python(
        """
        import os
        from repro import _native_build
        mask = sorted(os.sched_getaffinity(0))
        _native_build.start()
        compiler = _native_build._running.child.pid
        print(sorted(os.sched_getaffinity(compiler)) == mask[-1:],
              sorted(os.sched_getaffinity(0)) == mask[:1])
        from repro.sketch import _native
        print(_native.load() is not None, sorted(os.sched_getaffinity(0)) == mask, mask[-1])
        """,
        cache, CC=wrapper,
    )
    assert done.returncode == 0, done.stderr
    *flags, last = done.stdout.split()
    assert flags == ["True"] * 4
    assert seen.read_text().split() == ["Cpus_allowed_list:", last]
    assert_one_library_and_no_temp_file(cache)


@needs_two_cpus
def test_a_compile_that_fails_or_is_abandoned_gives_the_caller_its_mask_back(tmp_path):
    done = python(
        """
        import os, subprocess
        from repro import _native_build
        mask = sorted(os.sched_getaffinity(0))
        _native_build.start()
        pinned = sorted(os.sched_getaffinity(0)) == mask[:1]
        try:
            _native_build.library()
        except subprocess.CalledProcessError:
            print(pinned, sorted(os.sched_getaffinity(0)) == mask)
        _native_build.start()  # nothing cached: a second compile starts
        pinned = sorted(os.sched_getaffinity(0)) == mask[:1]
        _native_build._abandon()  # what exit does to a compile nobody waited for
        print(pinned, sorted(os.sched_getaffinity(0)) == mask)
        """,
        tmp_path / "cache", CC=fake_compiler(tmp_path, "sleep 1\nexit 1\n"),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True"] * 4


@needs_compiler
def test_with_one_cpu_the_compile_is_not_started_early(tmp_path):
    """Under a one-CPU mask (`taskset -c 0`, the ledger's pinned servers) the
    order of work is the inline one: start() does nothing, load() compiles."""
    cache = tmp_path / "cache"
    done = python(
        """
        import os
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        from repro import _native_build
        _native_build.start()
        print(_native_build._running is None, os.path.exists(os.environ["REPRO_NATIVE_CACHE"]))
        from repro.sketch import _native
        print(_native.load() is not None)
        """,
        cache,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "False", "True"]
    assert_one_library_and_no_temp_file(cache)


@needs_compiler
@needs_two_cpus
def test_a_compile_nobody_waited_for_is_stopped_at_exit_and_leaves_nothing(tmp_path):
    cache = tmp_path / "cache"
    done = python(
        """
        from repro import _native_build
        _native_build.start()
        print(_native_build._running.child.pid)
        """,
        cache,
    )
    assert done.returncode == 0, done.stderr
    pid = int(done.stdout)
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)
    files = cache_files(cache)
    assert len(files) == 1 and files[0].endswith(".c") and not files[0].startswith(".")


@needs_compiler
@needs_two_cpus
def test_a_forked_copy_does_not_wait_on_its_parents_compiler(tmp_path, monkeypatch):
    """A worker forked between start() and load() inherits the record of a
    child that is not its own: it must build for itself."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    _native_build.start()
    parents = _native_build._running
    # this test is not a fork: its own compile would share the pid in the
    # temporary names, so the "parent's" is stopped before the "child" builds
    parents.child.kill()
    parents.child.communicate()
    parents.tmp.unlink(missing_ok=True)
    monkeypatch.setattr(parents, "pid", parents.pid + 1)  # as seen from a fork
    assert _native_build._mine() is None
    path = _native_build.library()  # waiting on `parents` would raise: it was killed
    assert path.exists() and _native_build._running is None
    assert_one_library_and_no_temp_file(tmp_path)


@pytest.mark.parametrize(
    "argv,env",
    [
        (["--help"], {}),
        (["index", "--help"], {}),
        (["datasets"], {}),
        (["index", "-s", "CONTIGS", "-o", "OUT"], {"REPRO_NO_NATIVE": "1"}),
    ],
    ids=["help", "index-help", "datasets", "no-native-index"],
)
def test_commands_that_need_no_kernels_start_no_compiler(tmp_path, argv, env):
    """No child process (the fake compiler would leave a marker) and a cache
    directory that is not even created."""
    contigs = tmp_path / "contigs.fasta"
    contigs.write_text(">c0\n" + "acgtgtcatgcatgactgacgt" * 40 + "\n")
    argv = [str(contigs) if a == "CONTIGS" else str(tmp_path / "out.npz") if a == "OUT" else a
            for a in argv]
    marker = tmp_path / "compiler-ran"
    cache = tmp_path / "cache"
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        env=child_env(cache, CC=fake_compiler(tmp_path, f"touch {marker}\nexit 1\n"), **env),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert not marker.exists() and not cache.exists()


@needs_compiler
def test_jem_index_on_a_cold_cache_compiles_once_beside_its_imports(tmp_path):
    contigs = tmp_path / "contigs.fasta"
    contigs.write_text(">c0\n" + "acgtgtcatgcatgactgacgt" * 200 + "\n")
    cache = tmp_path / "cache"
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "repro.cli", "index",
         "-s", str(contigs), "-o", str(tmp_path / "out.npz")],
        env=child_env(cache), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "[native=fused,threads=" in done.stdout
    assert_one_library_and_no_temp_file(cache)
