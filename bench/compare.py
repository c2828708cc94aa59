"""Compare two sets of recorded runs, per workload and per end-to-end metric.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --record base.jsonl
    ...                                                            --record head.jsonl
    python3 bench/compare.py base.jsonl head.jsonl

For each metric it prints each side's median and quartiles over its runs and
a verdict against the bound in BENCHMARK.json:
  regression  the second side's median is worse by more than the bound;
  unresolved  a side's run-to-run spread (IQR / median) is wider than the
              bound, unless every run of one side beats every run of the other;
  ok          otherwise.
A workload is not compared when its runs differ in length (`--seconds`) or
tail percentile, within a side or between the sides; it is flagged when a
run on either side failed an op or was not correct.
Exit status 1 when any metric regresses or any workload is flagged or not
compared.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    runs = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record["meta"]["trace"] == 0:
                runs.setdefault(record["meta"]["workload"], []).append(record)
    return runs


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def settings(records) -> set:
    return {(r["meta"]["seconds"], r["extra"]["tail_percentile"]) for r in records}


def describe(records) -> str:
    keys = ("machine", "nproc", "python", "git_sha")
    parts = [f"{k}={sorted({str(r['meta'][k]) for r in records})}" for k in keys]
    seeds = sorted(r["meta"]["seed"] for r in records)
    failed = sum(r["result"]["failed"] for r in records)
    attempted = sum(r["result"]["attempted"] for r in records)
    return " ".join(parts) + f" seeds={seeds} failed_ratio={failed / attempted:.4f}"


def verdict(a, b, bound, higher_is_better) -> str:
    sign = 1 if higher_is_better else -1
    a_mid, b_mid = statistics.median(a), statistics.median(b)
    worse_by = sign * (a_mid - b_mid) / a_mid
    spread = max((q[2] - q[0]) / q[1] for q in (quartiles(a), quartiles(b)))
    separated = (min(sign * x for x in b) > max(sign * x for x in a)
                 or min(sign * x for x in a) > max(sign * x for x in b))
    if spread > bound and not separated:
        return "unresolved"
    return "regression" if worse_by > bound else "ok"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, head = load(argv[0]), load(argv[1])
    flagged = False
    for workload in sorted(set(base) & set(head)):
        print(f"== {workload}")
        print(f"  A: {describe(base[workload])}")
        print(f"  B: {describe(head[workload])}")
        sides = settings(base[workload]) | settings(head[workload])
        if len(sides) > 1:
            print(f"  not compared: runs differ in (seconds, tail percentile): {sorted(sides)}")
            flagged = True
            continue
        if not all(r["result"]["correct"] and r["result"]["failed"] == 0
                   for r in base[workload] + head[workload]):
            print("  flagged: a run failed ops or was not correct")
            flagged = True
        print(f"  {'metric':<17}{'A q1 / median / q3':>32}{'B q1 / median / q3':>32}"
              f"{'change':>9}{'bound':>7}  verdict")
        for m in spec["end_to_end"]:
            a = [r["result"]["metrics"][m["name"]]["value"] for r in base[workload]]
            b = [r["result"]["metrics"][m["name"]]["value"] for r in head[workload]]
            qa, qb = quartiles(a), quartiles(b)
            result = verdict(a, b, m["bound"], m["better"] == "higher")
            flagged |= result == "regression"
            change = (qb[1] - qa[1]) / qa[1]
            print(f"  {m['name']:<17}{'%.4g / %.4g / %.4g' % qa:>32}{'%.4g / %.4g / %.4g' % qb:>32}"
                  f"{change:>+9.1%}{m['bound']:>7}  {result}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
