"""``--smoke`` end to end: real subprocesses, a real socket, every check."""

import json
import os
import shutil
import subprocess
import sys
import time

from ledger import procs, spec

RUN = os.path.join(procs.LEDGER_DIR, "run.py")
HISTORY = os.path.join(procs.LEDGER_DIR, "history.jsonl")


def _run(*args: str, cwd: str = procs.REPO_ROOT, script: str = RUN):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _history_size() -> int:
    return os.path.getsize(HISTORY) if os.path.exists(HISTORY) else 0


def test_smoke_runs_all_four_workloads_in_under_a_minute():
    before = _history_size()
    t0 = time.perf_counter()
    done = _run("--smoke")
    elapsed = time.perf_counter() - t0
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert elapsed < 60, f"smoke took {elapsed:.1f}s"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    for workload in spec.WORKLOADS:
        for metric in spec.END_TO_END:
            entry = result["metrics"][f"{workload}/{metric['name']}"]
            assert entry["unit"] == metric["unit"] and entry["value"] > 0
        block = done.stdout.split(f"== {workload}")[1].split("== ")[0]
        printed = {line.split()[0] for line in block.splitlines() if line.startswith("  ")}
        assert {m["name"] for m in spec.ledger_metrics(workload)} <= printed
    assert _history_size() == before  # tier S never enters the ledger
    assert procs.leaks() is None


def test_one_traced_workload_reports_every_per_layer_metric():
    done = _run("--smoke", "--workload", "serve-churn-M", "--trace", "1")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in spec.PER_LAYER}
    spans_line = next(l for l in done.stdout.splitlines() if l.startswith("spans: "))
    with open(spans_line.split(": ", 1)[1], "r", encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    assert {"name", "start", "end", "parent", "request_id"} <= set(spans[0])
    assert any(s["name"] == "netserve.tcp_request" for s in spans)
    assert procs.leaks() is None


def test_refuses_to_run_without_the_programs(tmp_path):
    """In a directory holding only BENCHMARK.json and ledger/: non-zero, no result."""
    shutil.copytree(
        procs.LEDGER_DIR, tmp_path / "ledger",
        ignore=shutil.ignore_patterns(".work", "out", "__pycache__", ".pytest_cache"),
    )
    shutil.copy(os.path.join(procs.REPO_ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "ledger/run.py", "--workload", "oneshot-L", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
