"""Printing the ledger, result files, the contract line, ``--compare``."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from typing import Any, Dict, List, Optional

SCHEMA = 1


def load_benchmark(repo_root: str) -> Dict[str, Any]:
    """``BENCHMARK.json``: the one place names, units and bounds live."""
    with open(os.path.join(repo_root, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit(repo_root: str) -> Optional[str]:
    """HEAD, or None where the checkout is not a git repository."""
    try:
        out = subprocess.run(
            ["git", "-C", repo_root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_record(repo_root: str, workers: int) -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(repo_root),
        "workers": workers,
    }


def _specs(benchmark: Dict[str, Any], trace: bool) -> List[Dict[str, Any]]:
    return benchmark["per_layer" if trace else "end_to_end"]


def print_ledger(record: Dict[str, Any], benchmark: Dict[str, Any]) -> None:
    """Every metric of one workload by name, with its unit."""
    name = record["workload"]
    print(
        f"== {name}: seed {record['seed']}, {record['rounds']} rounds, "
        f"{record['attempted']} requests attempted, {record['failed']} failed, "
        f"{record['latency_samples']} latency samples"
    )
    for spec in _specs(benchmark, record["trace"]):
        metric = record["metrics"].get(spec["name"])
        if metric is None:
            print(f"{name:15s} {spec['name']:36s} (not measured)")
            continue
        print(
            f"{name:15s} {spec['name']:36s} {metric['value']:>16.6g} {spec['unit']:8s}"
            f" iqr {metric['iqr']:.3g} (n={metric['n']})"
        )
    for key, value in record["exact"].items():
        print(f"{name:15s} exact.{key:30s} {value}")
    for message in record["failures"]:
        print(f"{name:15s} FAILED {message}", file=sys.stderr)


def contract_line(record: Dict[str, Any], benchmark: Dict[str, Any]) -> str:
    """The one-object last line the benchmark driver parses."""
    metrics = {
        spec["name"]: {"value": record["metrics"][spec["name"]]["value"],
                       "unit": spec["unit"]}
        for spec in _specs(benchmark, record["trace"])
    }
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


def write_results(path: str, document: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- A/A comparison -----------------------------------------------------


def compare(path_a: str, path_b: str, benchmark: Dict[str, Any]) -> int:
    """Print both runs side by side; 1 if any end-to-end pair differs
    by more than its bound or any exact count differs at all."""
    with open(path_a, "r", encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, "r", encoding="utf-8") as fh:
        b = json.load(fh)
    bad = 0
    header = (f"{'workload':15s} {'metric':16s} {'A median':>12s} {'A iqr':>10s} "
              f"{'B median':>12s} {'B iqr':>10s} {'rel diff':>9s} {'bound':>6s}")
    print(header)
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"{name:15s} missing from {path_b}")
            bad += 1
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for spec in benchmark["end_to_end"]:
            ma, mb = wa["metrics"].get(spec["name"]), wb["metrics"].get(spec["name"])
            if ma is None or mb is None:
                continue  # a traced result file carries no end-to-end metrics
            diff = (mb["value"] - ma["value"]) / ma["value"]
            verdict = "" if abs(diff) <= spec["bound"] else "  DIFFERS"
            bad += bool(verdict)
            print(
                f"{name:15s} {spec['name']:16s} {ma['value']:12.5g} {ma['iqr']:10.3g} "
                f"{mb['value']:12.5g} {mb['iqr']:10.3g} {diff:+9.2%} "
                f"{spec['bound']:6.2f}{verdict}"
            )
        for key in sorted(set(wa["exact"]) | set(wb["exact"])):
            if wa["exact"].get(key) != wb["exact"].get(key):
                bad += 1
                print(f"{name:15s} exact.{key}: {wa['exact'].get(key)!r} != "
                      f"{wb['exact'].get(key)!r}  DIFFERS")
        if wa["failed"] or wb["failed"]:
            bad += 1
            print(f"{name:15s} failed requests: A {wa['failed']}, B {wb['failed']}  DIFFERS")
    print("agree within bounds" if not bad else f"{bad} difference(s) beyond bounds")
    return 1 if bad else 0
