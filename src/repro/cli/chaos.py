"""``jem chaos``: seeded kill-resume cycles against a checkpointed ``index`` /
``map`` run, or kill/wedge storms against a served fleet, each gated on
output parity with an undisturbed run."""

from __future__ import annotations

import argparse
import os
import sys

from .common import add_sketch_args, config_from, sketch_flags


def register(sub) -> None:
    p_chaos = sub.add_parser(
        "chaos",
        help="seeded kill-resume chaos cycles against index/map with "
             "output-parity verification (see docs/robustness.md)",
    )
    p_chaos.add_argument("target", choices=("index", "map", "serve"),
                         help="which surface to torture: a checkpointed "
                              "index/map run, or the supervised replica "
                              "fleet behind the network service")
    p_chaos.add_argument("-s", "--subjects", required=True, help="contigs FASTA")
    p_chaos.add_argument("-q", "--queries",
                         help="long reads FASTA/FASTQ (map and serve targets)")
    p_chaos.add_argument("--replicas", type=int, default=3,
                         help="scatter fleet size for the serve target "
                              "(default 3)")
    p_chaos.add_argument("--seeds", default="1,2,3,4,5",
                         help="comma list of chaos plan seeds (default 1,2,3,4,5)")
    p_chaos.add_argument("--workdir", default=None,
                         help="where per-seed run directories land "
                              "(default: a fresh temp dir)")
    add_sketch_args(p_chaos)
    p_chaos.set_defaults(run=_cmd_chaos)


def _chaos_fingerprint(target: str, path: str):
    """What parity means per target: TSV body for map, content checksum
    for index (the npz container bytes legitimately differ run to run)."""
    import numpy as np

    from ..resilience.chaos import read_tsv_body

    if target == "map":
        return read_tsv_body(path)
    with np.load(path, allow_pickle=False) as data:
        return int(data["checksum"])


def _cmd_chaos(args: argparse.Namespace) -> int:
    import shutil
    import tempfile

    from ..errors import ChaosError
    from ..resilience import ChaosPlan, run_kill_resume_cycle, unit_count
    from . import main

    if args.target in ("map", "serve") and args.queries is None:
        print(f"error: chaos {args.target} requires -q/--queries",
              file=sys.stderr)
        return 2
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError as exc:
        print(f"error: --seeds: {exc}", file=sys.stderr)
        return 2
    if not seeds:
        print("error: --seeds is empty", file=sys.stderr)
        return 2
    if args.target == "serve":
        return _chaos_serve(args, seeds)
    workdir = args.workdir or tempfile.mkdtemp(prefix="jem-chaos-")
    os.makedirs(workdir, exist_ok=True)

    def victim_argv(out: str, run_dir: str | None = None) -> list[str]:
        if args.target == "index":
            argv = ["index", "-s", args.subjects, "-o", out]
        else:
            argv = ["map", "-q", args.queries, "-s", args.subjects, "-o", out]
        argv += [item for name, value in sketch_flags(args).items()
                 for item in (f"--{name}", str(value))]
        if run_dir is not None:
            argv += ["--checkpoint-dir", run_dir]
        return argv

    # one checkpoint record lands per completed unit: the contig blocks, and
    # for map the read batches after them
    total_units = unit_count(args.subjects)
    if args.target == "map":
        total_units += unit_count(args.queries)

    ext = ".npz" if args.target == "index" else ".tsv"
    ref_out = os.path.join(workdir, "reference" + ext)
    if main(victim_argv(ref_out)) != 0:  # uninterrupted parity reference
        print("error: reference run failed", file=sys.stderr)
        return 1
    reference = _chaos_fingerprint(args.target, ref_out)

    failures = 0
    for seed in seeds:
        run_dir = os.path.join(workdir, f"seed{seed}")
        os.makedirs(run_dir, exist_ok=True)
        out = os.path.join(run_dir, "output" + ext)
        plan = ChaosPlan.seeded(seed, total_units=total_units)
        try:
            # the resume is the victim's own command line, run again
            cycle = run_kill_resume_cycle(victim_argv(out, run_dir), run_dir=run_dir, plan=plan)
        except ChaosError as exc:
            failures += 1
            print(f"seed {seed}: ERROR {exc}", file=sys.stderr)
            continue
        if not cycle.resumed_ok:
            failures += 1
            print(f"seed {seed}: FAIL resume rc={cycle.resume_returncode}\n"
                  f"{cycle.resume_stderr[-1000:]}", file=sys.stderr)
            continue
        story = (
            f"killed after record {plan.kill.after_records}"
            + (" (torn frame)" if plan.kill.kind == "torn_kill" else "")
            + f", {cycle.records_surviving} unit(s) survived"
            if cycle.killed
            else "finished before the kill point"
        )
        if cycle.damage_applied:
            story += "; " + "; ".join(cycle.damage_applied)
        parity = _chaos_fingerprint(args.target, out) == reference
        if not parity:
            failures += 1
        print(f"seed {seed}: {'ok' if parity else 'PARITY FAIL'} [{story}]")
    if args.workdir is None:
        shutil.rmtree(workdir, ignore_errors=True)
    what = "index content checksum" if args.target == "index" else "mapping TSV body"
    print(f"{len(seeds) - failures}/{len(seeds)} chaos cycles reproduced the "
          f"uninterrupted {what}" + ("" if args.workdir else
                                     " (run dirs removed; --workdir to inspect)"))
    return 1 if failures else 0


def _chaos_serve(args: argparse.Namespace, seeds: list[int]) -> int:
    """``jem chaos serve``: seeded fleet torture with a parity gate.

    Per seed: draw a :class:`ServeChaosPlan`, kill/wedge replicas of a
    supervised scatter fleet while the reads stream through it, and pass
    only on byte-identical output, zero dropped accepted requests, a
    fully recovered fleet, restored scatter throughput, and no leaked
    shm segments.
    """
    from ..core.engine import read_sequences
    from ..errors import ChaosError
    from ..resilience import ServeChaosPlan, run_serve_chaos
    from ..seq.io_fasta import read_fasta

    config = config_from(args)
    contigs = read_fasta(args.subjects, on_error="raise")
    reads = read_sequences(args.queries, on_error="raise")
    failures = 0
    for seed in seeds:
        plan = ServeChaosPlan.seeded(
            seed, n_replicas=args.replicas, total_reads=len(reads)
        )
        try:
            report = run_serve_chaos(
                contigs, reads, config, plan=plan, n_replicas=args.replicas,
            )
        except ChaosError as exc:
            failures += 1
            print(f"seed {seed}: ERROR {exc}", file=sys.stderr)
            continue
        if not report.ok:
            failures += 1
        print(f"seed {seed}: {report.story()}")
    print(
        f"{len(seeds) - failures}/{len(seeds)} serve-chaos cycles kept "
        f"{len(reads)} streamed reads byte-identical through kill/wedge "
        f"storms ({args.replicas} scatter replicas, supervised)"
    )
    return 1 if failures else 0
