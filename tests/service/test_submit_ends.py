"""`MappingService.submit` queues only a read's two ℓ-base ends.

A string longer than 2ℓ is encoded as ``seq[:ℓ] + seq[-ℓ:]`` and a longer
code array keeps a copy of its two ends; either way the answer, the content
key and every refusal are those of the whole read.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import JEMConfig, JEMMapper
from repro.errors import SequenceError
from repro.seq import INVALID_CODE, SequenceSet, decode
from repro.service import MappingService, ReadMapping, read_content_key
from repro.service import service as service_mod

CONFIG = JEMConfig(k=12, w=20, ell=500, trials=6, seed=99)
ELL = CONFIG.ell


@pytest.fixture
def queued(monkeypatch):
    """Every request ``submit`` queues, in order."""
    requests = []

    class Recorded(service_mod._MapRequest):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            requests.append(self)

    monkeypatch.setattr(service_mod, "_MapRequest", Recorded)
    return requests


@pytest.mark.parametrize("size", [ELL - 1, 2 * ELL, 2 * ELL + 1, 5_000])
@pytest.mark.parametrize("kind", ["str", "ndarray"])
def test_a_long_payload_queues_only_its_ends(tiling_contigs, small_genome, queued, size, kind):
    read = small_genome[3_000 : 3_000 + size].copy()
    read[::97] = INVALID_CODE  # an N now and then, in the kept ends and the dropped middle
    mapper = JEMMapper(CONFIG)
    mapper.index(tiling_contigs)
    whole = mapper.map_reads(SequenceSet(read, np.array([0, size]), ["r"]))
    subjects = tuple(whole.subject.tolist())
    want = ReadMapping(
        name="r", subject=subjects, hit_count=tuple(whole.hit_count.tolist()),
        subject_names=tuple(mapper.subject_names[s] if s >= 0 else None for s in subjects),
    )
    payload = decode(read).upper() if kind == "str" else read
    with MappingService.from_contigs(tiling_contigs, CONFIG) as service:
        got = service.submit("r", payload).result(30)
    (request,) = queued
    assert got == want
    assert request.codes.size == min(size, 2 * ELL)
    assert request.key == read_content_key(read[: min(ELL, size)], read[max(0, size - ELL) :])
    if kind == "ndarray" and size > 2 * ELL:
        assert not np.shares_memory(request.codes, payload)  # the caller's array is not pinned


def test_refusals_read_the_whole_payload(tiling_contigs, queued):
    with MappingService.from_contigs(tiling_contigs, CONFIG) as service:
        for empty in ("", np.empty(0, dtype=np.uint8)):
            with pytest.raises(SequenceError, match="'e' is empty"):
                service.submit("e", empty)
        for payload in (42, 4.5, ["acgt" * 300], {"seq": "acgt"}, None, b"acgt" * 300):
            with pytest.raises(SequenceError, match="must be a string of bases or a code array"):
                service.submit("x", payload)
        with pytest.raises(SequenceError, match="one flat sequence, got a 2-d array"):
            service.submit("m", np.zeros((2, 2 * ELL), dtype=np.uint8))
    assert queued == []


@pytest.mark.parametrize("route", ["p1", "p2", "no-native"])
def test_a_served_batch_maps_as_its_extracted_end_segments(
    tiling_contigs, small_genome, monkeypatch, route
):
    """A batch maps the queued codes as its segment buffer: reads below ℓ,
    of ℓ..2ℓ and past 2ℓ bases (trimmed to their ends by ``submit``) get
    the rows :func:`extract_end_segments` of the whole reads gets, one
    batch cut over two threads or none, compiled or numpy."""
    from repro.core.mapper import map_segment_batch
    from repro.core.segments import extract_end_segments
    from repro.service import ServiceConfig
    from repro.sketch import _native

    if route == "no-native":
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    else:
        monkeypatch.setenv("REPRO_NATIVE_THREADS", route[1:])
        monkeypatch.setattr(_native, "MIN_THREAD_MAP_BASES", 64)  # worth a thread
    sizes = [1, 13, ELL // 2, ELL - 1, ELL, ELL + 1, 3 * ELL // 2, 2 * ELL - 1,
             2 * ELL, 2 * ELL + 1, 3 * ELL, 5_000]
    starts = [1_517 * i % (small_genome.size - 5_000) for i in range(2 * len(sizes))]
    reads = SequenceSet.from_records(
        SequenceSet(small_genome[at : at + n].copy(), np.array([0, n]), [f"r{i}"])[0]
        for i, (n, at) in enumerate(zip(sizes * 2, starts))
    )
    mapper = JEMMapper(CONFIG)
    mapper.index(tiling_contigs)
    segments, _ = extract_end_segments(reads, ELL)
    want = map_segment_batch(mapper.table, segments, CONFIG, CONFIG.hash_family())
    assert (want.subject >= 0).sum() > len(reads)  # most ends map

    service = MappingService.from_contigs(
        tiling_contigs, CONFIG, ServiceConfig(max_batch_size=len(reads), cache_capacity=0),
        auto_start=False,
    )
    futures = [service.submit(reads.names[i], reads.codes_of(i)) for i in range(len(reads))]
    service.start()  # one batch: every read was queued before the scheduler ran
    got = [future.result(30) for future in futures]
    service.drain()
    assert service.metrics.batches_total.value == 1
    assert [g.subject for g in got] == list(zip(want.subject[0::2].tolist(), want.subject[1::2].tolist()))
    assert [g.hit_count for g in got] == list(
        zip(want.hit_count[0::2].tolist(), want.hit_count[1::2].tolist())
    )
