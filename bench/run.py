"""mathieulab benchmark: one closed-loop client, one workload per run.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

`--trace 0` prints the end-to-end metrics of BENCHMARK.json; `--trace 1`
prints its per-layer metrics, from a traced run that replays a fixed set of
ops with every mathieulab entry point wrapped (see spans.py).  The last
stdout line is the JSON result; the lines before it are a readable summary.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5
SPAN_OPS = 2  # spans are kept for the first ops of the first traced pass
WORKLOADS = ("certify", "scans", "cli")
# latency_tail_ms: the highest of p99, p95, p90 that keeps ten samples beyond
# it in a 30 s run on the slow host mode.  It is fixed per workload, so every
# run reports the same percentile; the timed phase runs on until at least
# TAIL_SAMPLES samples lie beyond it, for at most EXTEND_LIMIT x --seconds.
TAIL_PERCENTILE = {"certify": 99.0, "scans": 95.0, "cli": 90.0}
TAIL_SAMPLES = 10
EXTEND_LIMIT = 3

# per-layer span name -> recorder site (a site prefix groups several dunders)
SPAN_SITES = {
    "poly.init": "poly.Polynomial.__init__",
    "poly.add": "poly.Polynomial.__add__",
    "poly.partial": "poly.Polynomial.partial",
    "poly.mul": "poly.Polynomial.__mul__",
    "poly.to_str": "poly.Polynomial.to_str",
    "imagemap.decompose": "imagemap.decompose",
    "imagemap.t_apply": "imagemap.t_apply",
    "imagemap.certify": "imagemap.certify_imD",
    "imagemap.verify": "imagemap.MembershipCertificate.verify",
    "imagemap.L_map": "imagemap.L_map",
    "imagemap.power_scan": "imagemap.power_scan",
    "rings.gaussian": "rings.GaussianRational",
    "rings.primefield": "rings.PrimeFieldElement",
    "weyl.compose": "weyl.WeylElement.compose",
    "weyl.apply": "weyl.WeylElement.apply",
    "harness.gvc_scan": "harness.gvc_scan",
    "harness.mathieu_scan": "harness.mathieu_scan",
    "harness.oracle": "harness.SubspaceOracle.__call__",
    "charp.willems_scan": "charp.willems_scan",
    "charp.lemma81": "charp.lemma81_nonvanishing",
    "parsing.parse": "parsing.parse_polynomial",
    "ortho.moments": "ortho.moments",
    "ortho.gram_schmidt": "ortho.gram_schmidt",
    "ortho.rodrigues": "ortho.rodrigues",
    "ortho.lambda_power": "ortho.lambda_power",
    "cli.main": "cli.main",
}

# per-layer metrics that count work; they must repeat exactly for one seed
COUNT_SUFFIXES = (".calls", ".terms_out", ".peak_terms", ".max_coeff_bits", ".chars",
                  ".emit_bytes", "kept_ratio", "useful_ratio")


def is_count(name: str) -> bool:
    return name.endswith(COUNT_SUFFIXES)


def percentile(sorted_xs, p):
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def tail_samples(workload: str, n: int) -> int:
    """Samples of n that lie beyond the workload's tail percentile."""
    return int(n * (100 - TAIL_PERCENTILE[workload]) / 100)


def spawn_seconds(argv, env=None) -> float:
    start = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, env=env, check=True, timeout=60,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def python_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def meta(args) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": f"{platform.node()} {platform.machine()}",
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": git_sha()}


# -- workloads ---------------------------------------------------------

def raw_inputs(workload: str, seed: int):
    """Stdlib-only input generation, done before the program is imported."""
    import inputs

    if workload == "certify":
        return inputs.certify_inputs(seed)
    if workload == "scans":
        return inputs.scan_inputs(seed)
    OUT.mkdir(exist_ok=True)
    exprs = inputs.lmap_inputs(seed)
    path = OUT / f"lmap-{seed}.txt"
    path.write_text("".join(e.text + "\n" for e in exprs))
    return inputs.cli_requests(str(path)), exprs


def build(workload: str, raw, golden):
    import ops

    if workload == "certify":
        return ops.Certify(raw, golden)
    if workload == "scans":
        return ops.Scans(raw, golden)
    requests, exprs = raw
    return ops.Cli(requests, exprs, ROOT, golden)


def setup_probe(args) -> None:
    """Child process: time importing mathieulab, preparing inputs and one op."""
    raw = raw_inputs(args.workload, args.seed)
    golden = json.loads((BENCH / "golden.json").read_text())
    start = time.perf_counter()
    work = build(args.workload, raw, golden)
    Outcomes().add(0, work.run)  # a failing op is counted by the timed run
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def measure_setup(args, speed) -> tuple:
    """Raw and host-speed-scaled set-up times, one per fresh process."""
    raw, starts = [], []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        starts.append(time.perf_counter())
        if args.workload == "cli":
            seconds = spawn_seconds([sys.executable, "-c", "import mathieulab.cli"],
                                    python_env())
        else:
            proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--setup-probe",
                                   "--workload", args.workload, "--seed", str(args.seed)],
                                  cwd=ROOT, capture_output=True, text=True, check=True,
                                  timeout=60)
            seconds = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        raw.append(seconds)
    speed.sample()
    # a cli set-up sample is nothing but a process start
    startup = float("inf") if args.workload == "cli" else 0.0
    return raw, [speed.scale(s, t, startup) for s, t in zip(raw, starts)]


class Outcomes:
    """Per-request distinct outputs, checked once each after timing ends."""

    def __init__(self):
        self.seen = {}  # request index -> {output: count}
        self.errors = []

    def add(self, i, run) -> str:
        try:
            out = run(i)
        except Exception:  # an op that raises counts as failed
            self.errors.append(f"request {i}: {traceback.format_exc()}")
            return ""
        bucket = self.seen.setdefault(i, {})
        bucket[out] = bucket.get(out, 0) + 1
        return out

    def failed(self, work) -> int:
        bad = len(self.errors)
        for i, bucket in self.seen.items():
            for out, count in bucket.items():
                try:
                    ok = work.check(i, out)
                except (ValueError, KeyError, TypeError, IndexError):
                    ok = False
                if not ok:
                    bad += count
                    self.errors.append(f"request {i}: output failed its check")
        return bad


def timed_run(args, work, speed, startup):
    outcomes = Outcomes()
    outcomes.add(0, work.run)  # warm-up
    latencies, starts = [], []
    start = time.perf_counter()
    deadline = start + args.seconds
    limit = start + EXTEND_LIMIT * args.seconds
    k = 0
    while True:
        speed.due()
        t0 = time.perf_counter()
        outcomes.add(k % len(work), work.run)
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        starts.append(t0)
        k += 1
        # whole cycles only, so every request has the same number of samples
        # and a percentile falls at the same place in the request mix
        if k % len(work) == 0 and (t1 >= limit or (
                t1 >= deadline and tail_samples(args.workload, k) >= TAIL_SAMPLES)):
            break
    wall = time.perf_counter() - start
    speed.sample()
    scaled = [speed.scale(x, t, startup) for x, t in zip(latencies, starts)]
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    rss_mib = resource.getrusage(who).ru_maxrss / 1024
    return latencies, scaled, wall, rss_mib, outcomes


def traced_run(args, work):
    from spans import Recorder

    rec = Recorder()
    passes = []
    outcomes = Outcomes()
    n_ops = work.trace_ops
    deadline = time.perf_counter() + args.seconds
    while True:
        t0 = time.perf_counter()
        for i in range(n_ops):
            outcomes.add(i, work.in_process)
        plain = time.perf_counter() - t0
        rec.reset()
        rec.install()
        emitted = 0
        try:
            t0 = time.perf_counter()
            for i in range(n_ops):
                rec.op = i
                rec.keep = not passes and i < SPAN_OPS
                emitted += len(outcomes.add(i, work.in_process).encode())
            traced = time.perf_counter() - t0
        finally:
            rec.keep = False
            rec.uninstall()
        values = layer_values(rec)
        values["cli.emit_bytes"] = emitted if args.workload == "cli" else 0
        passes.append((plain, traced, values))
        if time.perf_counter() >= deadline:
            break
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    rec.write_spans(spans_path)
    return passes, outcomes, spans_path, len(rec.spans)


def layer_values(rec) -> dict:
    values = {}
    for span, site in SPAN_SITES.items():
        calls, self_s = rec.group(site)
        values[f"{span}.calls"] = calls
        values[f"{span}.self_s"] = self_s
    c = rec.counters
    for name in ("poly.mul.terms_out", "poly.peak_terms", "poly.max_coeff_bits",
                 "parsing.parse.chars"):
        values[name] = c[name]
    tried, kept = c["imagemap.L_map.terms_in"], c["imagemap.L_map.terms_kept"]
    values["imagemap.L_map.kept_ratio"] = kept / tried if tried else 0.0
    tried, useful = c["charp.lemma81.primes_tried"], c["charp.lemma81.primes_certified"]
    values["charp.lemma81.useful_ratio"] = useful / tried if tried else 0.0
    return values


# -- reporting ---------------------------------------------------------

def e2e_values(latencies, elapsed, setup, rss_mib, tail_p) -> dict:
    xs = sorted(latencies)
    return {"ops_per_s": len(xs) / elapsed,
            "latency_p50_ms": percentile(xs, 50) * 1e3,
            "latency_tail_ms": percentile(xs, tail_p) * 1e3,
            "setup_s": statistics.median(setup),
            "peak_rss_mib": rss_mib}


def end_to_end(args, work, spec):
    from speed import NOMINAL, HostSpeed

    speed = HostSpeed()
    setup_raw, setup = measure_setup(args, speed)
    # each cli op starts with the process start its set-up samples measured
    startup = statistics.median(setup) if args.workload == "cli" else 0.0
    latencies, scaled, wall, rss_mib, outcomes = timed_run(args, work, speed, startup)
    attempted = len(latencies) + 1
    failed = outcomes.failed(work)
    tail_p = TAIL_PERCENTILE[args.workload]
    beyond = tail_samples(args.workload, len(latencies))
    # the scaled run's elapsed time is its ops' scaled time: the reference
    # samples between ops are not part of the workload
    values = e2e_values(scaled, sum(scaled), setup, rss_mib, tail_p)
    raw = e2e_values(latencies, wall, setup_raw, rss_mib, tail_p)
    n = len(latencies)
    samples = {"ops_per_s": n, "latency_p50_ms": n, "latency_tail_ms": n,
               "setup_s": len(setup), "peak_rss_mib": 1}
    print(f"workload {args.workload}, seed {args.seed}: {n} timed ops in "
          f"{wall:.2f} s, closed loop, 1 client")
    if args.workload == "certify":
        print(f"member share of inputs: {work.member_share():.3f}")
    print(f"latency_tail_ms is p{tail_p:g} ({beyond} samples beyond it)")
    if beyond < TAIL_SAMPLES:
        print(f"not correct: fewer than {TAIL_SAMPLES} samples beyond p{tail_p:g} after "
              f"{EXTEND_LIMIT} x {args.seconds:g} s")
    refs = speed.samples
    print(f"host speed: {len(refs)} reference samples, {min(refs) * 1e3:.3f}-"
          f"{max(refs) * 1e3:.3f} ms (scaled to {NOMINAL * 1e3:g} ms; "
          f"process start {startup * 1e3:.1f} ms)")
    print(f"{'metric':<18}{'scaled':>12}{'raw':>12}  {'unit':<6}{'samples':>8}")
    for m in spec["end_to_end"]:
        name = m["name"]
        print(f"{name:<18}{values[name]:>12.4f}{raw[name]:>12.4f}  {m['unit']:<6}"
              f"{samples[name]:>8}")
    print(f"{'failed_ratio':<18}{failed / attempted:>12.4f}{failed / attempted:>12.4f}  "
          f"{'ratio':<6}{attempted:>8}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    extra = {"tail_percentile": tail_p, "raw": raw, "failed_ratio": failed / attempted}
    return attempted, failed, beyond >= TAIL_SAMPLES, outcomes, metrics, extra


def per_layer(args, work, spec):
    interp = [spawn_seconds([sys.executable, "-c", "pass"]) for _ in range(SETUP_REPEATS)]
    imported = [spawn_seconds([sys.executable, "-c", "import mathieulab.cli"], python_env())
                for _ in range(SETUP_REPEATS)]
    passes, outcomes, spans_path, n_spans = traced_run(args, work)
    attempted = 2 * work.trace_ops * len(passes)
    failed = outcomes.failed(work)
    counts = passes[0][2]
    repeat_ok = all({k: v for k, v in p[2].items() if is_count(k)}
                    == {k: v for k, v in counts.items() if is_count(k)} for p in passes)
    values = {k: (statistics.median(p[2][k] for p in passes) if not is_count(k) else v)
              for k, v in counts.items()}
    values["cli.interp_s"] = statistics.median(interp)
    values["cli.import_s"] = statistics.median(imported) - values["cli.interp_s"]
    values["trace.overhead_ratio"] = (statistics.median(p[0] for p in passes)
                                      / statistics.median(p[1] for p in passes))
    print(f"workload {args.workload}, seed {args.seed}: traced run, {len(passes)} passes "
          f"of {work.trace_ops} ops (each untraced, then traced)")
    print(f"counts repeat across passes: {repeat_ok}; spans kept: {n_spans} in {spans_path}")
    print("Fraction is stdlib and is not wrapped: Q coefficient time is the caller's self time")
    for m in spec["per_layer"]:
        print(f"{m['name']:<34}{values[m['name']]:>16.6g}  {m['unit']}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer"]}
    extra = {"passes": len(passes), "counts_repeat": repeat_ok}
    return attempted, failed, repeat_ok, outcomes, metrics, extra


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None,
                        help="append the result with its metadata to this JSONL file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "mathieulab" / "__init__.py").is_file():
        print(f"error: no mathieulab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args)
        return 0
    golden = json.loads((BENCH / "golden.json").read_text())
    work = build(args.workload, raw_inputs(args.workload, args.seed), golden)
    report = per_layer if args.trace else end_to_end
    attempted, failed, ok, outcomes, metrics, extra = report(args, work, spec)
    for line in outcomes.errors[:5]:
        print(f"failure: {line}", file=sys.stderr)
    info = meta(args)
    print("meta " + json.dumps(info))
    result = {"correct": failed == 0 and ok, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.record:
        with open(args.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"meta": info, "extra": extra, "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
