"""A served process maps no OpenSSL.

``jem serve`` speaks plain NDJSON and never TLS, so nothing a server does
may map ``libcrypto`` or ``libssl`` into it: not ``asyncio``'s ``ssl``
import, not ``hashlib``'s ``_hashlib`` behind the result cache's key, on a
bundle or a mutable index, after any kind of request.  The
evidence is ``/proc/<pid>/maps``, so these tests run where ``/proc`` does.
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

pytestmark = pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"), reason="reads /proc/<pid>/maps"
)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
SKETCH_ARGV = ["--k", "12", "--w", "20", "--ell", "500", "--trials", "6"]
OPENSSL = re.compile(r"libcrypto|libssl|/_ssl\.|/_hashlib\.")


def openssl_mappings(pid) -> list[str]:
    with open(f"/proc/{pid}/maps", encoding="utf-8") as fh:
        return sorted({line.split()[-1] for line in fh if OPENSSL.search(line)})


@pytest.fixture
def sources(tmp_path, tiling_contigs, clean_reads):
    """A bundle and a mutable directory of the same contigs, and the reads."""
    contigs, reads = str(tmp_path / "contigs.fasta"), str(tmp_path / "reads.fasta")
    write_fasta(contigs, tiling_contigs)
    write_fasta(reads, clean_reads)
    bundle, mutable = str(tmp_path / "idx.npz"), str(tmp_path / "idx.lsm")
    assert main(["index", "-s", contigs, "-o", bundle, *SKETCH_ARGV]) == 0
    assert main(["index", "--mutable", "-s", contigs, "-o", mutable, *SKETCH_ARGV]) == 0
    return {"bundle": bundle, "mutable": mutable}, clean_reads, tiling_contigs


def every_op(reads, contigs) -> list[dict]:
    """One request of each kind a server answers: maps, probes, mutations
    (a bundle answers those with an error, which is a path too)."""
    return [
        *({"op": "map", "id": i, "name": reads.names[i], "seq": reads[i].sequence}
          for i in range(3)),
        {"op": "health"},
        {"op": "metrics"},
        {"op": "add_contigs", "names": ["extra"], "seqs": [contigs[0].sequence]},
        {"op": "remove_contigs", "names": ["extra"]},
        {"op": "flush"},
        {"op": "compact"},
    ]


def spawn_serve(index: str, *flags: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--index", index, *flags],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": SRC},
    )


def drive(wfile, rfile, requests) -> None:
    """Each request in turn, each answered before the next goes out."""
    for request in requests:
        wfile.write(json.dumps(request).encode() + b"\n")
        wfile.flush()
        line = rfile.readline()
        assert line, "the server closed while a reply was expected"
        reply = json.loads(line)
        assert reply.get("op", "map") == request["op"], reply
        if request["op"] == "map":
            assert "error" not in reply, reply


@pytest.mark.parametrize("kind, flags", [
    ("bundle", []),  # the default fleet: replicate x1
    ("mutable", ["--replicas", "2", "--placement", "scatter"]),  # serve-churn-M's fleet
    ("mutable", []),  # the default fleet owns the mutable handle
])
def test_tcp_server_maps_no_openssl(sources, kind, flags):
    indexes, reads, contigs = sources
    proc = spawn_serve(indexes[kind], "--listen", "127.0.0.1:0", *flags)
    try:
        banner = proc.stderr.readline().decode()
        port = re.search(r"listening on [^:]+:(\d+)", banner)
        assert port, banner
        with socket.create_connection(("127.0.0.1", int(port.group(1))), timeout=30) as sock:
            with sock.makefile("wb") as wfile, sock.makefile("rb") as rfile:
                drive(wfile, rfile, every_op(reads, contigs))
                assert openssl_mappings(proc.pid) == []
    finally:
        proc.terminate()
        _, err = proc.communicate(timeout=30)
    assert proc.returncode == 0, err.decode()
