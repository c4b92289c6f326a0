"""Compare two benchmark result sets, or report the spread of one.

Usage (from the repository root)::

    python3 dpbench/compare.py BASE.jsonl NEW.jsonl
    python3 dpbench/compare.py RESULTS.jsonl

A result set is the JSON-lines file ``dpbench/run.py --save`` appends
to, one record per run (several seeds per workload).  For each workload
and end-to-end metric the command prints the median and quartiles of
each set and a verdict under the bounds in ``dpbench/metrics.py``:

* ``worse``: the new median is worse than the base median by more than
  the bound;
* ``better``: it is better by more than the bound, or every new run
  beats every base run;
* ``unresolved``: otherwise, when either set's quartile spread (as a
  share of its median) exceeds the bound;
* ``within``: otherwise.

It then lists every host-independent counter whose value differs,
between the sets or between runs of one set.  With one result set it
prints each metric's spread against its bound.  Exits 1 when any
verdict is ``worse`` or ``unresolved``, or a counter changed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from dpbench.metrics import END_TO_END, HOST_INDEPENDENT  # noqa: E402


def load(path: str) -> dict[str, list[dict]]:
    """Untraced records of a result set, grouped by workload."""
    runs: dict[str, list[dict]] = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    runs[record["workload"]].append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def verdict(metric: str, base: list[float], new: list[float]) -> str:
    _unit, better, bound = END_TO_END[metric]
    sign = 1.0 if better == "lower" else -1.0
    b, n = statistics.median(base), statistics.median(new)
    worse_by = sign * (n - b) / b
    separated = (max(new) < min(base)) if better == "lower" else (min(new) > max(base))
    if worse_by > bound:
        return "worse"
    if worse_by < -bound or separated:
        return "better"
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    return "within"


def counter_changes(base: list[dict], new: list[dict]) -> list[str]:
    """Host-independent counters that take more than one value.

    They depend on the workload's shape only, not on the seed (the
    benchmark's tests pin that), so one value per counter is expected
    across every run of both sets.
    """
    out = []
    for name in HOST_INDEPENDENT:
        values = {r["counters"][name] for r in base + new if name in r["counters"]}
        if len(values) > 1:
            out.append(f"{name}: {sorted(values)}")
    return out


def _fmt(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:11.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(p) for p in argv]
    bad = False
    for workload in sorted(set().union(*sets)):
        groups = [s.get(workload, []) for s in sets]
        if not all(groups):
            print(f"{workload}: missing from one result set")
            bad = True
            continue
        print(f"== {workload} ({' vs '.join(str(len(g)) for g in groups)} runs)")
        failed = sum(r["failed"] for g in groups for r in g)
        if failed:
            print(f"   {failed} failed operations")
            bad = True
        for metric, (unit, _better, bound) in END_TO_END.items():
            values = [[r["metrics"][metric]["value"] for r in g] for g in groups]
            if len(groups) == 1:
                s = spread(values[0])
                mark = "ok" if s <= bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
                print(f"   {metric:16s} {_fmt(values[0])} {unit:5s} spread {s:.3f}"
                      f" (bound {bound}) {mark}")
                continue
            v = verdict(metric, *values)
            bad |= v in ("worse", "unresolved")
            print(f"   {metric:16s} base {_fmt(values[0])}  new {_fmt(values[1])} {unit:5s} {v}")
        changes = counter_changes(groups[0], groups[-1])
        for line in changes:
            print(f"   counter changed: {line}")
        bad |= bool(changes)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
