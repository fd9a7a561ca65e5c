"""What a `jem` process imports is what it runs.

Every module a process imports is compiled from source when no bytecode is
cached, so the package ``__init__``s re-export lazily and a serving fleet
imports its scatter router, its lanes' fault plans and retry policy, and the
WAL module only when it runs them — and the FASTA reader never.  (``jem
index`` and ``jem map`` are held to the same rule by ``test_cli.py::test_one_
shot_commands_load_no_serving_or_scaffolding_code``.)
"""

from __future__ import annotations

import json
import os
import re
import socket
import subprocess
import sys

import pytest

import repro
from repro.cli import main
from repro.seq import write_fasta

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
SKETCH_ARGV = ["--k", "12", "--w", "20", "--ell", "500", "--trials", "6"]

#: ``jem`` in a fresh interpreter, printing the repro modules it loaded.
_LOADED_AT_EXIT = (
    "import json, sys; from repro.cli import main; rc = main(sys.argv[1:]); "
    "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro')))); "
    "sys.exit(rc)"
)

#: What only a scatter fleet, or a durable index directory, runs.
SCATTER_AND_WAL = re.compile(r"repro\.netserve\.router|repro\.parallel(\.|$)|repro\.resilience(\.|$)")

#: The FASTA reader and the streamed loops: a server opens a built index only.
FASTA_READER = {"repro.core.streaming", "repro.seq.io_fasta"}


@pytest.fixture
def indexes(tmp_path, tiling_contigs):
    contigs = str(tmp_path / "contigs.fasta")
    write_fasta(contigs, tiling_contigs)
    bundle, mutable = str(tmp_path / "idx.npz"), str(tmp_path / "idx.lsm")
    assert main(["index", "-s", contigs, "-o", bundle, *SKETCH_ARGV]) == 0
    assert main(["index", "--mutable", "-s", contigs, "-o", mutable, *SKETCH_ARGV]) == 0
    return {"bundle": bundle, "mutable": mutable}


def served_modules(index: str, flags: list[str], read: str) -> list[str]:
    """The repro modules of a `jem serve` that has answered one map."""
    proc = subprocess.Popen(
        [sys.executable, "-c", _LOADED_AT_EXIT, "serve", "--index", index,
         "--listen", "127.0.0.1:0", *flags],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    try:
        banner = proc.stderr.readline().decode()
        port = re.search(r"listening on [^:]+:(\d+)", banner)
        assert port, banner
        with socket.create_connection(("127.0.0.1", int(port.group(1))), timeout=30) as sock:
            sock.sendall(json.dumps({"op": "map", "id": 0, "seq": read}).encode() + b"\n")
            reply = json.loads(sock.makefile("rb").readline())
            assert "error" not in reply, reply
    finally:
        proc.terminate()
        out, err = proc.communicate(timeout=30)
    assert proc.returncode == 0, err.decode()
    return json.loads(out)


@pytest.mark.parametrize("kind, flags, runs_them", [
    ("bundle", [], False),  # `jem serve`'s default fleet: replicate x1
    ("mutable", ["--replicas", "2", "--placement", "scatter"], True),  # the control
], ids=["bundle-replicate", "directory-scatter"])
def test_serve_imports_scatter_fault_and_wal_code_only_to_run_it(
    indexes, clean_reads, kind, flags, runs_them
):
    loaded = served_modules(indexes[kind], flags, clean_reads[0].sequence)
    found = sorted(m for m in loaded if SCATTER_AND_WAL.match(m))
    if runs_them:
        assert {"repro.netserve.router", "repro.parallel.faults", "repro.parallel.retry",
                "repro.resilience.checkpoint"} <= set(found), found
    else:
        assert found == [] and "repro.netserve.replica" in loaded, found
        assert FASTA_READER.isdisjoint(loaded), sorted(FASTA_READER & set(loaded))


@pytest.mark.parametrize("first", [
    "import repro.sketch.jem, repro.seq.records",  # what binds the submodules
    "import repro.sketch.minimizers, repro.seq.encode",
    "from repro.sketch import minimizers_set; from repro.seq import decode",
    "import repro.sketch, repro.seq",
])
def test_a_function_named_like_its_submodule_stays_the_function(first):
    """``repro.sketch.minimizers`` and ``repro.seq.encode`` are functions in
    modules of the same name: whichever import comes first, the package
    attribute is the function, as the eager ``__init__``s made it."""
    code = (
        f"{first}\n"
        "import types, repro.sketch, repro.seq\n"
        "from repro.sketch import minimizers\n"
        "from repro.seq import encode\n"
        "for f in (repro.sketch.minimizers, repro.seq.encode, minimizers, encode):\n"
        "    assert isinstance(f, types.FunctionType), f\n"
        "assert repro.seq.encode('ACGT').tolist() == [0, 1, 2, 3]\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
