"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 dpbench/run.py --workload fw-paper --seed 1 --seconds 24 --trace 0
    python3 dpbench/run.py --workload all --seed 1 --seconds 24

Prints every metric with its unit, a ``record`` line with the run's
provenance, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced run.  ``--save FILE`` appends the full record to a JSON-lines
file that ``dpbench/compare.py`` reads.  Exits 1 when any output is
wrong, and 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".dpbench"


def _git_state() -> dict:
    """Revision and dirty flag, or nulls outside a git checkout."""
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return {"git_rev": None, "git_dirty": None}
    try:
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return {"git_rev": None, "git_dirty": None}
    return {"git_rev": rev, "git_dirty": bool(dirty)}


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's shared-memory tracker and wait for it.

    It is started on first use of shared memory and would otherwise
    outlive the run by a moment; every segment is already unlinked.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    from dpbench.metrics import END_TO_END, PER_LAYER
    from dpbench.workloads import run_workload

    result = run_workload(workload, seed, seconds, trace, WORKDIR)
    units = {k: v[0] for k, v in (PER_LAYER if trace else END_TO_END).items()}
    metrics = {
        name: {"value": float(result.metrics[name]), "unit": units[name]}
        for name in units
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "failed_frac": result.failed / result.attempted if result.attempted else 1.0,
        "metrics": metrics,
        "counters": result.counters,
        "params": result.params,
        "notes": result.notes,
        "host": {
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        **_git_state(),
    }
    print(f"# {workload} seed={seed} seconds={seconds} trace={int(trace)}")
    for name, m in metrics.items():
        print(f"{workload:12s} {name:28s} {m['value']:.6g} {m['unit']}")
    print(f"{workload:12s} {'failed_frac':28s} {record['failed_frac']:.6g} fraction"
          f"  ({result.failed} of {result.attempted} operations)")
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, default=None)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program under test ({ROOT / 'src' / 'repro'}) is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from dpbench.workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {WORKLOADS} or 'all'")
    if args.workload == "all":
        return run_all(WORKLOADS, args)
    try:
        record = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        _stop_resource_tracker()
        if WORKDIR.is_dir() and not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()
    print("record " + json.dumps(record, sort_keys=True))
    if args.save is not None:
        with open(args.save, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


def run_all(workloads, args) -> int:
    """Each workload in its own process, so peak memory stays its own;
    the last line merges the results, metrics prefixed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.save is not None:
            cmd += ["--save", str(args.save)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
