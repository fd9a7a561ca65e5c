"""What ``jem serve`` builds when ``--placement`` is not given.

The default door is ``replicate`` x1: the one replica maps every batch on
the store it shares with the fleet, through the fused kernel
(:meth:`ColumnarSketchStore.lookup_fused`) — no scatter-gather router and
no lookup lane in between.  ``--placement scatter`` stays available and
answers the same bytes.
"""

from __future__ import annotations

import pytest
from conftest import serve_session

from repro import JEMConfig, JEMMapper
from repro.cli import _engine_from, _fleet_from, build_parser
from repro.core.persist import save_index
from repro.core.store import ColumnarSketchStore
from repro.netserve import router
from repro.service.service import MappingService

CONFIG = JEMConfig(k=12, w=20, ell=500, trials=6, seed=99)


@pytest.fixture
def index_path(tmp_path, tiling_contigs):
    mapper = JEMMapper(CONFIG)
    mapper.index(tiling_contigs)
    return save_index(mapper, tmp_path / "idx")


def listen_fleet(index_path: str, *flags: str):
    """The fleet ``jem serve --index PATH FLAGS`` serves."""
    args = build_parser().parse_args(
        ["serve", "--index", index_path, "--max-batch", "8", *flags]
    )
    return _fleet_from(args, _engine_from(args))


def map_requests(reads) -> list[dict]:
    return [
        {"op": "map", "id": i, "name": reads.names[i], "seq": reads[i].sequence}
        for i in range(len(reads))
    ]


def answers(replies: list[dict]) -> list[dict]:
    return [r for r in replies if r.get("op") != "drained"]


def test_default_door_is_replicate_x1_and_votes_fused(
    index_path, clean_reads, monkeypatch
):
    built: list[str] = []
    for cls in (router.ScatterGatherStore, router.LookupLane):
        init = cls.__init__

        def spy_init(self, *args, _init=init, _name=cls.__name__, **kwargs):
            built.append(_name)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", spy_init)

    fused_on: list[ColumnarSketchStore] = []
    lookup_fused = ColumnarSketchStore.lookup_fused

    def spy_fused(self, *args, **kwargs):
        fused_on.append(self)
        return lookup_fused(self, *args, **kwargs)

    monkeypatch.setattr(ColumnarSketchStore, "lookup_fused", spy_fused)

    unvoted: list[int] = []
    map_misses = MappingService._map_misses

    def spy_batch(self, requests, view):
        before = len(fused_on)
        out = map_misses(self, requests, view)
        if len(fused_on) == before:
            unvoted.append(len(requests))
        return out

    monkeypatch.setattr(MappingService, "_map_misses", spy_batch)

    with listen_fleet(index_path) as fleet:
        assert fleet.healthz()["placement"] == {"kind": "replicate", "replicas": 1}
        replies = answers(serve_session(fleet, map_requests(clean_reads)))
        store = fleet.replicas[0].store
    assert len(replies) == len(clean_reads) and all("results" in r for r in replies)
    assert built == []
    assert fused_on, "no batch reached the fused kernel"
    assert unvoted == [], "a mapped batch skipped lookup_fused"
    assert all(s is store for s in fused_on)  # the one store the replica shares


@pytest.mark.parametrize("replicas", ["1", "3"])
def test_scatter_answers_the_same_bytes(index_path, clean_reads, replicas):
    requests = map_requests(clean_reads)
    with listen_fleet(index_path) as fleet:
        default = answers(serve_session(fleet, requests))
    with listen_fleet(
        index_path, "--placement", "scatter", "--replicas", replicas
    ) as fleet:
        assert fleet.healthz()["placement"] == {
            "kind": "scatter", "replicas": int(replicas)
        }
        scatter = answers(serve_session(fleet, requests))
    assert scatter == default
