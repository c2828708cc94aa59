"""The benchmark's golden outputs, checked in tier-1.

`bench/golden.json` holds digests of every `certify` and `scans` report,
Q(i) and F_p scans included, recorded from this program.  This test builds
those workloads exactly as `bench/run.py` does (seed 1) and checks every
request, so a change to printed output fails here and not only in a
benchmark run.
"""

import importlib
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("workload", ["certify", "scans"])
def test_outputs_match_golden_digests(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    golden = json.loads((BENCH / "golden.json").read_text())
    work = run.build(workload, run.raw_inputs(workload, 1), golden)
    mismatched = [i for i in range(len(work)) if not work.check(i, work.run(i))]
    assert not mismatched
