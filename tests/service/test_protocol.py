"""NDJSON protocol tests: what one TCP session promises, plus the CLI.

The server side of the protocol is one state machine
(:class:`repro.netserve.NetFrontend`) in front of one backend type, a
:class:`repro.netserve.ReplicaSet`; :class:`TestServeTCP` states what a
session promises, and :class:`TestOneWireContract` holds one script's
transcript to its invariants, and two runs of it to line-for-line equal
transcripts, over either fleet.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys

import pytest
from conftest import serve_fleet, serve_session

from repro import JEMConfig, JEMMapper
from repro.cli import main
from repro.service import ServiceConfig

CONFIG = JEMConfig(k=12, w=20, ell=500, trials=6, seed=99)

SERVICE = ServiceConfig(max_batch_size=8)


def map_request(reads, i: int) -> dict:
    return {"op": "map", "id": i, "name": reads.names[i], "seq": reads[i].sequence}


class TestServeTCP:
    """What one serve session promises."""

    def session(self, tiling_contigs, requests, **frontend_kwargs):
        with serve_fleet(tiling_contigs, CONFIG, SERVICE) as fleet:
            return serve_session(fleet, requests, **frontend_kwargs)

    def test_map_responses_match_sequential_mapper(
        self, tiling_contigs, clean_reads
    ):
        mapper = JEMMapper(CONFIG)
        mapper.index(tiling_contigs)
        expected = mapper.map_reads(clean_reads)

        replies = self.session(tiling_contigs, [
            map_request(clean_reads, i) for i in range(len(clean_reads))
        ])

        drained = replies[-1]
        assert drained["op"] == "drained"
        assert drained["mapped"] == len(clean_reads)
        assert drained["errors"] == 0

        maps = [r for r in replies if "results" in r]
        assert [r["id"] for r in maps] == list(range(len(clean_reads)))
        for i, reply in enumerate(maps):
            for j, result in enumerate(reply["results"]):
                row = 2 * i + j
                assert result["segment"] == expected.segment_names[row]
                assert result["hits"] == int(expected.hit_count[row])

    def test_ping_metrics_and_unknown_op(self, tiling_contigs, clean_reads):
        replies = self.session(tiling_contigs, [
            {"op": "teleport"},
            {"op": "ping"},
            {**map_request(clean_reads, 0), "id": 7},
            {"op": "metrics"},
            {"op": "drain"},
        ])
        assert "unknown op" in replies[0]["error"]
        assert replies[1] == {"op": "pong"}
        # the metrics op is ordered behind the pending map
        assert replies[2]["id"] == 7 and "results" in replies[2]
        assert replies[3]["op"] == "metrics"
        assert replies[3]["aggregate"]["counters"]["requests_total"] == 1
        assert replies[3]["replicas"][0]["counters"]["responses_total"] == 1
        assert replies[-1]["op"] == "drained"

    def test_bad_json_line_reports_error_and_continues(
        self, tiling_contigs, clean_reads
    ):
        replies = self.session(
            tiling_contigs, ["this is not json", map_request(clean_reads, 0)]
        )
        assert "bad request line" in replies[0]["error"]
        assert replies[-1]["op"] == "drained" and replies[-1]["mapped"] == 1

    def test_empty_sequence_is_an_in_band_error(self, tiling_contigs):
        replies = self.session(tiling_contigs, [
            {"op": "map", "id": 0, "name": "empty", "seq": ""},
        ])
        errored = [r for r in replies if r.get("id") == 0]
        assert len(errored) == 1 and "error" in errored[0]
        assert replies[-1]["op"] == "drained"
        assert replies[-1]["errors"] == 1 and replies[-1]["mapped"] == 0

    def test_eof_is_an_implicit_drain(self, tiling_contigs, clean_reads):
        replies = self.session(
            tiling_contigs, [map_request(clean_reads, 0)]
        )  # no explicit drain op
        assert replies[-1]["op"] == "drained"
        assert replies[-1]["mapped"] == 1
        assert "aggregate" in replies[-1]["metrics"]


#: mutations whose names/seqs hold a non-string element
NON_STRING_MUTATIONS = [
    {"op": "add_contigs", "names": ["x"], "seqs": [None]},
    {"op": "add_contigs", "names": [None], "seqs": ["ACGT" * 200]},
    {"op": "add_contigs", "names": [7], "seqs": ["ACGT" * 200]},
    {"op": "remove_contigs", "names": [None]},
    {"op": "remove_contigs", "names": ["contig_0", 0]},
]


def test_non_string_contig_fields_are_a_typed_refusal(tiling_contigs):
    """A JSON null or number among ``names``/``seqs`` is refused in band and
    leaves the index untouched: never the contig ``'None'``."""
    with serve_fleet(tiling_contigs, CONFIG, SERVICE) as fleet:
        replies = serve_session(fleet, [*NON_STRING_MUTATIONS, {"op": "stats"}])
        names = list(fleet.subject_names)
        generation = fleet.index_generation
    for request, reply in zip(NON_STRING_MUTATIONS, replies):
        assert set(reply) == {"op", "error"} and reply["op"] == request["op"]
        assert "list of strings" in reply["error"]
    assert replies[len(NON_STRING_MUTATIONS)]["generation"] == 0
    assert generation == 0
    assert names == list(tiling_contigs.names)


#: timing-valued reply fields: latencies, and a gauge two threads set
#: (submit and the scheduler); nothing else may differ between two runs
_TIMED = {"histograms", "queue_depth"}

#: one read a batch: batch, lane-lookup and cache counters of a script are
#: then a function of the script alone, so the transcripts can be compared
ONE_BY_ONE = ServiceConfig(max_batch_size=1)


def masked(reply):
    """``reply`` with every timing-valued field replaced by its name."""
    if isinstance(reply, dict):
        return {k: f"<{k}>" if k in _TIMED else masked(v) for k, v in reply.items()}
    if isinstance(reply, list):
        return [masked(v) for v in reply]
    return reply


class TestOneWireContract:
    """One request script, run twice: the transcripts must be equal."""

    @pytest.fixture(params=["replicate-x1", "scatter-x2"])
    def make_backend(self, request, tiling_contigs):
        kind, n = request.param.split("-x")

        def make():  # fresh per run: the script mutates the index
            return serve_fleet(
                tiling_contigs, CONFIG, ONE_BY_ONE, kind=kind, n=int(n)
            )

        return make

    def test_transcript_is_deterministic(
        self, make_backend, clean_reads, rng
    ):
        late = "".join("ACGT"[c] for c in rng.integers(0, 4, size=900))
        script = [
            # answered off the ordered path: first, while nothing is pending
            {"op": "health"},
            "this is not json",
            {"op": "teleport"},
            *[map_request(clean_reads, i) for i in range(6)],
            {"op": "ping"},
            {"op": "map", "id": 90, "name": "empty", "seq": ""},
            {"op": "map", "id": 91, "seq": 5},
            {"op": "stats"},
            {"op": "map", "id": 92, "name": "late", "seq": late},
            {"op": "add_contigs", "names": ["late0"], "seqs": [late]},
            {"op": "map", "id": 93, "name": "late", "seq": late},
            {"op": "remove_contigs", "names": ["contig_0"]},
            {"op": "remove_contigs", "names": ["ghost"]},
            {"op": "flush"},
            {"op": "compact"},
            {"op": "stats"},
            {"op": "metrics"},
            {"op": "restart"},
            {"op": "drain"},
            {"op": "ping"},  # after drain: never read
        ]
        transcripts = []
        for _ in range(2):
            with make_backend() as backend:
                transcripts.append(
                    [masked(r) for r in serve_session(backend, script)]
                )
        first, second = transcripts
        assert len(first) == len(script) - 1  # one reply a line; `drained` last
        for line, (a, b) in enumerate(zip(first, second)):
            assert a == b, f"reply {line} differs between two runs"
        assert len(first) == len(second)
        assert [r["contig"] for r in first[13]["results"]] == [None, None]
        assert [r["contig"] for r in first[15]["results"]] == ["late0", "late0"]
        assert first[-1]["op"] == "drained" and first[-1]["mapped"] == 8


class TestClientCLI:
    def simulate(self, tmp_path):
        """A simulated data set and an index of its contigs at 8 trials."""
        data = tmp_path / "data"
        assert main([
            "simulate", "e_coli", "--scale", "0.0002", "--seed", "3",
            "--out", str(data),
        ]) == 0
        index = str(data / "contigs.idx.npz")
        assert main([
            "index", "-s", str(data / "e_coli_contigs.fasta"), "-o", index,
            "--trials", "8",
        ]) == 0
        return data, index

    def strip(self, path):
        return [l for l in path.read_text().splitlines() if not l.startswith("#")]

    def serve(self, *args):
        """The ``jem serve`` command line and its environment."""
        command = [sys.executable, "-m", "repro.cli", "serve", *args]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        return command, env

    def test_client_tsv_matches_one_shot_map(self, tmp_path):
        data, index = self.simulate(tmp_path)
        reads = str(data / "e_coli_reads.fastq")
        one_shot = tmp_path / "map.tsv"
        served = tmp_path / "client.tsv"
        metrics = tmp_path / "metrics.json"
        assert main(["map", "-q", reads, "--index", index, "-o", str(one_shot)]) == 0
        command, env = self.serve(
            "--index", index, "--listen", "127.0.0.1:0", "--max-batch", "16"
        )
        server = subprocess.Popen(command, env=env, stderr=subprocess.PIPE, text=True)
        try:
            port = None
            for line in server.stderr:  # until the banner names the bound port
                port = re.search(r"listening on [^:]+:(\d+)", line)
                if port:
                    break
            assert port, "jem serve --listen exited before it listened"
            assert main([
                "client", "-q", reads, "--connect", f"127.0.0.1:{port.group(1)}",
                "-o", str(served), "--metrics-out", str(metrics),
            ]) == 0
        finally:
            server.terminate()
            server.communicate(timeout=30)
        assert server.returncode == 0
        assert self.strip(one_shot) == self.strip(served)

        snapshot = json.loads(metrics.read_text())
        assert set(snapshot) == {"aggregate", "replicas"}
        counters = snapshot["aggregate"]["counters"]
        assert counters["requests_total"] > 0
        assert counters["responses_total"] == counters["requests_total"]
        assert "histograms" in snapshot["aggregate"]
        assert "gauges" in snapshot["replicas"][0]

    def test_bare_serve_listens_on_a_free_localhost_port(self, tmp_path):
        """No ``--listen``: the server binds 127.0.0.1 on a free port, names
        it in the banner, answers over TCP whatever stdin is, and exits 0
        on SIGTERM."""
        _, index = self.simulate(tmp_path)
        command, env = self.serve("--index", index)
        server = subprocess.Popen(
            command, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        try:
            banner = server.stderr.readline()
            bound = re.search(r"listening on 127\.0\.0\.1:(\d+) ", banner)
            assert bound, banner
            port = int(bound.group(1))
            assert port > 0
            with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
                sock.sendall(b'{"op": "ping"}\n')
                with sock.makefile("rb") as rfile:
                    assert json.loads(rfile.readline()) == {"op": "pong"}
        finally:
            server.send_signal(signal.SIGTERM)
            out, err = server.communicate(timeout=30)
        assert server.returncode == 0, err
        assert out == ""
        assert "# jem-netserve stopped" in err
