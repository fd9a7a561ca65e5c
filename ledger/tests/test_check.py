"""The checker must catch what it claims to catch."""

import json

import numpy as np
import pytest

from repro.core.mapper import JEMMapper
from repro.core.persist import save_index
from repro.eval.metrics import evaluate_mapping

from ledger import check, inputs, loadgen, workloads


@pytest.fixture(scope="module")
def indexed(tmp_path_factory):
    work = tmp_path_factory.mktemp("check")
    data = inputs.make_inputs("S", 2, 30, str(work))
    mapper = JEMMapper()
    mapper.index(data.contigs)
    path = save_index(mapper, str(work / "S.idx.npz"))
    reference, names = check.reference_answers(path, data.reads)
    return data, mapper, reference, names


def _response(request_id: int, answer: check.Answer) -> dict:
    return {
        "id": request_id, "name": "r", "cached": False,
        "results": [{"segment": f"r/{kind}", "contig": contig, "hits": hits}
                    for kind, (contig, hits) in zip(("prefix", "suffix"), answer)],
    }


def test_right_answer_passes(indexed):
    _, _, reference, _ = indexed
    assert check.classify_response(_response(4, reference[4]), 4, reference[4]) is None


def test_planted_wrong_contig_is_caught(indexed):
    _, _, reference, names = indexed
    (contig, hits), suffix = reference[4]
    other = next(n for n in names if n != contig)
    wrong = _response(4, ((other, hits), suffix))
    assert check.classify_response(wrong, 4, reference[4]) == "wrong"
    off_by_one = _response(4, ((contig, hits + 1), suffix))
    assert check.classify_response(off_by_one, 4, reference[4]) == "wrong"
    assert check.classify_response(_response(5, reference[4]), 4, reference[4]) == "wrong"


def test_planted_dropped_response_is_caught(indexed):
    _, _, reference, _ = indexed
    assert check.classify_response(None, 4, reference[4]) == "missing"


def test_planted_overloaded_refusal_is_caught(indexed):
    _, _, reference, _ = indexed
    refusal = {"id": 4, "name": "r", "error": "overloaded", "retry_after": 0.01}
    assert check.classify_response(refusal, 4, reference[4]) == "overloaded"
    failure = {"id": 4, "name": "r", "error": "deadline exceeded"}
    assert check.classify_response(failure, 4, reference[4]) == "error"


def test_every_failure_reaches_failed_frac():
    tally = check.Tally()
    for kind in (None, None, "wrong", "missing", "overloaded", None):
        tally.add(kind)
    assert (tally.attempted, tally.failed) == (6, 3)
    assert tally.failed_frac == 0.5
    assert "1 wrong" in tally.describe()


def test_tsv_round_trip_and_planted_row(indexed, tmp_path):
    _, _, reference, _ = indexed
    path = tmp_path / "out.tsv"
    rows = ["# jem-mapper 1.0.0 timing line\n", "segment\tcontig\thits\n"]
    for i, answer in enumerate(reference):
        for kind, (contig, hits) in zip(("prefix", "suffix"), answer):
            rows.append(f"r{i}/{kind}\t{contig if contig is not None else '*'}\t{hits}\n")
    path.write_text("".join(rows))
    body, answers = check.read_tsv(str(path))
    assert answers == reference and body[0].startswith("segment")
    rows[3] = rows[3].replace("\t", "\tplanted_", 1)
    path.write_text("".join(rows))
    assert check.read_tsv(str(path))[1] != reference


def test_quality_matches_evaluate_mapping(indexed):
    data, mapper, reference, names = indexed
    bench = data.truth()
    report = evaluate_mapping(mapper.map_reads(data.reads), bench)
    contig_id = {name: i for i, name in enumerate(names)}
    precision, recall = check.quality(bench, np.arange(len(reference)), reference, contig_id)
    assert precision == pytest.approx(report.precision)
    assert recall == pytest.approx(report.recall)
    # a subset scores only the reads that were answered
    sub_p, sub_r = check.quality(bench, [3, 7], [reference[3], reference[7]], contig_id)
    assert 0.0 <= sub_p <= 1.0 and 0.0 <= sub_r <= 1.0


def test_admin_probe_expectations():
    ops = [
        workloads._AdminOp(b"", "add"),
        workloads._AdminOp(b"", "probe", expect_contig="decoy", expect_hit=True),
        workloads._AdminOp(b"", "probe", expect_contig="decoy", expect_hit=False),
        workloads._AdminOp(b"", "probe", expect_contig="decoy", expect_hit=True),
        workloads._AdminOp(b"", "remove"),
    ]
    hit = {"results": [{"contig": "decoy"}, {"contig": "decoy"}]}
    miss = {"results": [{"contig": None}, {"contig": "ctg_000001"}]}
    lane = loadgen.Lane(None, lambda i: b"", count=len(ops))
    lane.sent = [0.0, 1.0, 2.0, 3.0, 4.0]
    lane.received = [0.05, 1.1, 2.1, 3.1]  # the remove was never answered
    lane.lines = [json.dumps(r).encode() for r in ({"op": "add_contigs"}, hit, hit, miss)]
    tally = check.Tally()
    mutate_ms = workloads._check_admin(ops, lane, tally)
    assert mutate_ms == [pytest.approx(50.0)]
    # probe 2 still maps to a removed decoy, probe 3 lost its decoy, op 4 is missing
    assert tally.failures == {"wrong": 2, "missing": 1}
