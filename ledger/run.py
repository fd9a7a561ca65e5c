#!/usr/bin/env python3
"""The ledger's one command.

    python ledger/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace 0|1] [--smoke]

Without ``--workload`` all four run.  Every metric is printed by name
with its unit, every answer is checked, one manifest row is appended to
``ledger/history.jsonl`` (never for ``--smoke``), and the last line of
standard output is one JSON object ``{correct, attempted, failed,
metrics}`` holding the metrics ``BENCHMARK.json`` lists: its
``end_to_end`` ones, or with ``--trace 1`` its ``per_layer`` ones.  Exit status: 0 ok, 1 an answer check or the quality floor
failed, 2 the environment is not fit to measure in.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(LEDGER_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
HISTORY_PATH = os.path.join(LEDGER_DIR, "history.jsonl")


def _bootstrap() -> None:
    """Make ``repro`` (from source) and the ``ledger`` package importable."""
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"error: {SRC_DIR}/repro not found — the ledger measures the "
              "programs of this repository and cannot run without them",
              file=sys.stderr)
        raise SystemExit(2)
    for path in (SRC_DIR, REPO_ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", REPO_ROOT, *args], capture_output=True, text=True, timeout=20,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _host() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "node": platform.node(),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "cpu_model": model,
        "cpus": len(os.sched_getaffinity(0)),
        "mem_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _manifest(args, run_id: str, results: list) -> dict:
    from repro.core.engine import native_summary

    status = _git("status", "--porcelain", "--", ".", ":!ledger/history.jsonl")
    return {
        "run_id": run_id,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git": {"sha": _git("rev-parse", "HEAD"),
                "dirty": None if status is None else bool(status)},
        "host": _host(),
        "native": native_summary(),
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "workloads": {
            r.workload: {
                "metrics": r.metrics,
                "attempted": r.tally.attempted,
                "failed": r.tally.failed,
                "failures": r.tally.failures,
                "correct": r.correct,
                "valid": not r.invalid,
                "problems": r.problems + r.invalid,
                "pinning": r.pinning,
            }
            for r in results
        },
    }


def _print_result(result, spec) -> None:
    """End-to-end metrics first, in the issue's order, then everything else."""
    units = spec.units()
    first = [m["name"] for m in spec.ledger_metrics(result.workload)]
    for name in first + [n for n in result.metrics if n not in first]:
        print(f"  {name:<40} {result.metrics[name]:>14.4f} {units.get(name, '')}")
    print(f"  checked: {result.tally.describe()}")
    for line in result.problems:
        print(f"  FAILED: {line}")
    for line in result.invalid:
        print(f"  INVALID (instrument, not program): {line}")


def main(argv: list[str] | None = None) -> int:
    _bootstrap()
    from ledger import procs, spec, trace, workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS), default=None,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS),
                        help=f"measured window per workload (default {spec.RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the traced replay (per-layer metrics) instead of "
                             "the end-to-end run")
    parser.add_argument("--smoke", action="store_true",
                        help="tier S, 3-second phases, nothing recorded (tests only)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 3.0
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # a terminated run must still unwind through the finally blocks that
    # stop its server
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    procs.adopt_orphans()
    try:
        return _run(args, procs, spec, trace, workloads)
    finally:
        procs.reap_descendants()  # on every path out: nothing outlives the run


def _run(args, procs, spec, trace, workloads) -> int:
    os.environ["REPRO_NATIVE_CACHE"] = procs.native_cache_dir()
    dirty_host = procs.leaks()
    if dirty_host:
        print(f"error: refusing to measure: {dirty_host}", file=sys.stderr)
        return 2

    run_id = time.strftime("%Y%m%dT%H%M%S", time.gmtime()) + f"-{os.getpid()}"
    run_dir = os.path.join(procs.OUT_DIR, run_id)
    tracer = trace.Tracer() if args.trace else None
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    results = []
    for name in names:
        ctx = workloads.Context(
            seed=args.seed, seconds=args.seconds, traced=bool(args.trace),
            smoke=args.smoke, out_dir=os.path.join(run_dir, name), tracer=tracer,
        )
        print(f"== {name}  seed={args.seed} seconds={ctx.window_s:g}"
              f"{' traced' if args.trace else ''}{' smoke' if args.smoke else ''}",
              flush=True)
        result = workloads.RUNNERS[name](ctx)
        leaked = procs.leaks()
        if leaked:
            result.problems.append(f"left behind: {leaked}")
        _print_result(result, spec)
        results.append(result)
    if tracer is not None:
        tracer.write(os.path.join(run_dir, "spans.jsonl"))
        print(f"spans: {os.path.join(run_dir, 'spans.jsonl')}")

    if not args.smoke:
        with open(HISTORY_PATH, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(_manifest(args, run_id, results)) + "\n")

    wanted = spec.PER_LAYER if args.trace else spec.END_TO_END
    metrics = {}
    for result in results:
        prefix = "" if args.workload else f"{result.workload}/"
        for metric in wanted:  # a KeyError here is a bug: every one is owed
            metrics[prefix + metric["name"]] = {
                "value": result.metrics[metric["name"]], "unit": metric["unit"],
            }
    # every process the run started has ended before the result is printed
    killed = procs.reap_descendants()
    if killed:
        print(f"error: had to kill process(es) the run left behind: {killed}",
              file=sys.stderr)
    correct = all(r.correct for r in results) and not killed
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.tally.attempted for r in results),
        "failed": sum(r.tally.failed for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
