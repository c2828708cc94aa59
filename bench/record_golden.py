"""Record golden.json: a digest of every unique-valued output the workloads can produce.

    python3 bench/record_golden.py

Covers every corpus slot and variant, so any run seed is checked in full:
L(f) for each certify/lmap polynomial (cross-checked here against the
independent term-dict L), every scan report, and the stdout of each fixed
CLI request.  Re-record only when an output string changes on purpose, and
say why in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import ops  # noqa: E402
from mathieulab import imagemap, parsing  # noqa: E402
from mathieulab.rings import QQ  # noqa: E402
from terms import lmap, pair_names, parse_output  # noqa: E402

# outputs that are not unique, or are checked entry by entry instead
UNDIGESTED = ("readme-certify", "lmap-bulk")


def expr_rows() -> list:
    rows = []
    for slot in range(inputs.CORPUS_SLOTS):
        row = ""
        for variant in range(inputs.VARIANTS):
            e = inputs.certify_expr(slot, variant)
            problem = imagemap.ImageProblem(e.n, QQ)
            f = parsing.parse_polynomial(e.text, QQ, problem.variables)
            text = imagemap.L_map(problem, f).to_str()
            if parse_output(text, pair_names(e.n)) != lmap(e.terms, e.n):
                raise SystemExit(f"L(f) disagrees with the term-dict L on slot {slot}")
            row += ops.digest(text)
        rows.append(row)
    return rows


def scan_rows() -> list:
    rows = []
    for slot in range(len(inputs.SCAN_SLOTS)):
        row = ""
        for variant in range(inputs.VARIANTS):
            call = ops._scan_call(inputs.scan_request(slot, variant))
            row += ops.digest(json.dumps(call(), sort_keys=True))
        rows.append(row)
    return rows


def cli_digests() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = {}
    for name, argv in inputs.CLI_REQUESTS:
        if name in UNDIGESTED:
            continue
        proc = subprocess.run([sys.executable, "-m", "mathieulab.cli"] + argv, cwd=ROOT,
                              env=env, capture_output=True, text=True, check=True)
        out[name] = ops.digest(proc.stdout)
    return out


def main():
    golden = {"digest": "sha256, first 10 hex digits, one per variant",
              "expr": expr_rows(), "scans": scan_rows(), "cli": cli_digests()}
    (BENCH / "golden.json").write_text(json.dumps(golden, indent=0) + "\n")


if __name__ == "__main__":
    main()
