"""Self-checks of the traced run.

    python3 bench/checks.py completeness --workload scans --seed 1
    python3 bench/checks.py determinism --workload certify --seed 1

completeness: runs each op of one traced pass (the workload's full request
cycle) once under cProfile and once under the span recorder, and requires the span count of every wrapped function to
equal cProfile's call count for it.
determinism: runs the traced benchmark twice in fresh processes with one
seed and requires every count metric to be identical.
Exit status 1 when a check fails.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import subprocess
import sys

import run


def completeness(args) -> bool:
    sys.path.insert(0, str(run.SRC))
    from spans import Recorder

    work = run.build(args.workload, run.raw_inputs(args.workload, args.seed),
                     json.loads((run.BENCH / "golden.json").read_text()))
    rec = Recorder()
    ok = True
    for i in range(work.trace_ops):
        work.in_process(i)  # first-call effects stay out of the comparison
        profile = cProfile.Profile()
        profile.runcall(work.in_process, i)
        profiled = {key: value[1] for key, value in pstats.Stats(profile).stats.items()}
        rec.reset()
        rec.install()
        try:
            work.in_process(i)
        finally:
            rec.uninstall()
        spans = rec.calls_by_code()
        for code, n in spans.items():
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            if profiled.get(key, 0) != n:
                ok = False
                print(f"op {i}: {code.co_name} ({code.co_filename}:{code.co_firstlineno}) "
                      f"spans {n}, cProfile {profiled.get(key, 0)}")
        print(f"op {i}: {sum(spans.values())} spans over "
              f"{sum(1 for n in spans.values() if n)} functions")
    return ok


def determinism(args) -> bool:
    results = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, str(run.BENCH / "run.py"), "--workload",
                               args.workload, "--seed", str(args.seed), "--seconds", "1",
                               "--trace", "1"], cwd=run.ROOT, capture_output=True,
                              text=True, check=True)
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        results.append({k: v["value"] for k, v in metrics.items() if run.is_count(k)})
    diff = {k: (results[0][k], results[1][k]) for k in results[0]
            if results[0][k] != results[1][k]}
    for name, (first, second) in sorted(diff.items()):
        print(f"{name}: {first} then {second}")
    print(f"{len(results[0]) - len(diff)} of {len(results[0])} counts identical")
    return not diff


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("check", choices=("completeness", "determinism"))
    parser.add_argument("--workload", choices=run.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    check = completeness if args.check == "completeness" else determinism
    return 0 if check(args) else 1


if __name__ == "__main__":
    sys.exit(main())
