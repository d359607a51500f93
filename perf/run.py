#!/usr/bin/env python3
"""The performance ledger: one command, every metric by name.

    python perf/run.py                                  # all workloads, untraced
    python perf/run.py --workload cold_small --seed 7 --seconds 20 --trace 0
    python perf/run.py --trace 1 --out spans.json       # per-layer metrics + spans
    python perf/run.py --compare A.json B.json          # A/A agreement check

Launches ``python -m repro serve`` as a subprocess, drives it through
the public ``ServeClient``, verifies every result, and prints each
metric with its unit.  With exactly one ``--workload`` the last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``) for the benchmark driver.  See perf/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
from typing import List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from ledger import PERF_DIR, REPO_ROOT, report  # noqa: E402

GOLDEN_PATH = os.path.join(PERF_DIR, "golden.json")
GOLDEN_ROUNDS = 8
DEFAULT_SEED = 0


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", "--workloads", default="all", metavar="A[,B...]",
                        help="workload name(s), comma-separated, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="request lists are a pure function of this (default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: alternate traced rounds and print the per-layer metrics")
    parser.add_argument("--out", metavar="FILE",
                        help="write the full result document (and spans, when traced)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two result documents and exit")
    parser.add_argument("--write-golden", action="store_true",
                        help=f"recompute perf/golden.json (seed {DEFAULT_SEED}, "
                             f"{GOLDEN_ROUNDS} rounds) without a server and exit")
    return parser.parse_args(argv)


def _write_golden() -> int:
    from ledger import measure
    from ledger.requests import WORKLOADS, round_requests

    golden = {"seed": DEFAULT_SEED, "workloads": {}}
    memo: dict = {}
    for workload in WORKLOADS.values():
        digests = []
        for index in range(1, GOLDEN_ROUNDS + 1):
            # The memo matters for warm_batch, which redraws the same
            # 1024 points all run long.
            stats = [
                measure.direct_stats(request, memo)
                for request in round_requests(workload, DEFAULT_SEED, index)
            ]
            digests.append(measure.digest(stats))
            print(f"{workload.name} round {index}: {digests[-1]}", flush=True)
        golden["workloads"][workload.name] = digests
    report.write_results(GOLDEN_PATH, golden)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    benchmark = report.load_benchmark(REPO_ROOT)
    if args.compare:
        return report.compare(args.compare[0], args.compare[1], benchmark)

    src = os.path.join(REPO_ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perf/run.py: no product to measure: {src}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.write_golden:
        return _write_golden()

    from ledger.protocol import Context, run_workload
    from ledger.requests import WORKLOADS
    from ledger.server import HarnessError, cpu_plan

    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"perf/run.py: unknown workload(s) {unknown}; known: {list(WORKLOADS)}",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    trace = bool(args.trace)

    golden = None
    if os.path.exists(GOLDEN_PATH):
        with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
            golden = json.load(fh)

    # SIGTERM must unwind like Ctrl-C does, or teardown never runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Servers, caches and scratch files live inside the checkout.
    work_root = os.path.join(REPO_ROOT, ".perf_work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    # This process (the client) and the servers it launches share the
    # front CPU; pool workers get the rest.
    front, worker_cpus = cpu_plan()
    os.sched_setaffinity(0, front)
    ctx = Context(REPO_ROOT, work_dir, worker_cpus, golden)
    records = {}
    try:
        for name in names:
            try:
                record = run_workload(WORKLOADS[name], args.seed, seconds, trace, ctx)
            except HarnessError as exc:
                # Could not measure at all: report, move to the next workload.
                print(f"perf/run.py: {name}: {exc}", file=sys.stderr)
                continue
            records[name] = record
            report.print_ledger(record, benchmark)
            sys.stdout.flush()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run is using it

    if args.out:
        report.write_results(args.out, {
            "schema": report.SCHEMA,
            "host": report.host_record(REPO_ROOT, len(worker_cpus)),
            "seed": args.seed,
            "seconds": seconds,
            "trace": trace,
            "workloads": records,
        })
    if len(names) == 1 and records and records[names[0]]["metrics"]:
        print(report.contract_line(records[names[0]], benchmark))
    ok = len(records) == len(names) and all(r["correct"] for r in records.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
