"""Answer checking: every output of a program under test is compared.

The reference for a read is what an in-process ``JEMMapper.map_reads``
on the *same saved index* says about its two end segments.  Served
responses and one-shot TSVs are both reduced to the same shape —
``((contig | None, hits), (contig | None, hits))`` per read — and
compared to it; mapping quality is then scored against the simulator's
ground truth, which shares no code with the mapper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.persist import load_index
from repro.eval.truth import Benchmark
from repro.seq.records import SequenceSet

Answer = tuple[tuple[str | None, int], tuple[str | None, int]]


def reference_answers(index_path: str, reads: SequenceSet) -> tuple[list[Answer], list[str]]:
    """(answer per read, contig names) from an in-process map on ``index_path``."""
    mapper = load_index(index_path)
    result = mapper.map_reads(reads)
    names = mapper.subject_names
    labels = [names[s] if s >= 0 else None for s in result.subject.tolist()]
    hits = result.hit_count.tolist()
    answers = [
        ((labels[2 * i], hits[2 * i]), (labels[2 * i + 1], hits[2 * i + 1]))
        for i in range(len(reads))
    ]
    return answers, list(names)


def response_answer(response: dict) -> Answer:
    """The (contig, hits) pair of a served ``map`` response's two segments."""
    prefix, suffix = response["results"]
    return ((prefix["contig"], int(prefix["hits"])),
            (suffix["contig"], int(suffix["hits"])))


def classify_response(response: dict | None, request_id: int, expected: Answer) -> str | None:
    """Failure kind of one served response, or None when it is right."""
    if response is None:
        return "missing"
    if response.get("error") == "overloaded":
        return "overloaded"
    if "error" in response or "results" not in response:
        return "error"
    if response.get("id") != request_id or response_answer(response) != expected:
        return "wrong"
    return None


def read_tsv(path: str) -> tuple[list[str], list[Answer]]:
    """(body lines below the ``#`` header, answer per read) of a ``jem map`` TSV."""
    with open(path, "r", encoding="utf-8") as fh:
        body = [line for line in fh if not line.startswith("#")]
    rows = [line.rstrip("\n").split("\t") for line in body[1:]]  # [0] = column names
    cells = [(None if contig == "*" else contig, int(hits)) for _, contig, hits in rows]
    if len(cells) % 2:
        raise ValueError(f"{path}: odd number of segment rows")
    return body, [(cells[i], cells[i + 1]) for i in range(0, len(cells), 2)]


@dataclass
class Tally:
    """Operations attempted and how the failed ones failed."""

    attempted: int = 0
    failures: dict[str, int] = field(default_factory=dict)

    def add(self, kind: str | None, n: int = 1) -> None:
        self.attempted += n
        if kind is not None:
            self.failures[kind] = self.failures.get(kind, 0) + n

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def describe(self) -> str:
        if not self.failures:
            return f"{self.attempted} attempted, 0 failed"
        kinds = ", ".join(f"{n} {k}" for k, n in sorted(self.failures.items()))
        return f"{self.attempted} attempted, {self.failed} failed ({kinds})"


def quality(
    bench: Benchmark, read_index, answers: list[Answer], contig_id: dict[str, int]
) -> tuple[float, float]:
    """(precision, recall) of ``answers`` for the reads ``read_index``.

    Same definitions as ``repro.eval.metrics.evaluate_mapping`` restricted
    to the answered reads: precision = true mapped segments / mapped
    segments; recall = true mapped segments / segments that have a true
    contig.
    """
    read_index = np.asarray(read_index, dtype=np.int64)
    segments = np.stack([2 * read_index, 2 * read_index + 1], axis=1).ravel()
    subjects = np.fromiter(
        (contig_id.get(contig, -1) if contig is not None else -1
         for answer in answers for contig, _ in answer),
        dtype=np.int64, count=2 * len(answers),
    )
    mapped = subjects >= 0
    true = np.zeros(segments.size, dtype=bool)
    true[mapped] = bench.contains(segments[mapped], subjects[mapped])
    tp = int(true.sum())
    n_mapped = int(mapped.sum())
    n_truth = int(bench.segment_has_truth[segments].sum())
    precision = tp / n_mapped if n_mapped else 0.0
    recall = tp / n_truth if n_truth else 0.0
    return precision, recall
