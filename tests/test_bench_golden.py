"""The benchmark's golden outputs, checked in tier-1.

`bench/golden.json` holds digests of every `certify` and `scans` report,
Q(i) and F_p scans included, and of the `cli` workload's stdout, recorded
from this program.  This test builds those workloads exactly as
`bench/run.py` does (seed 1) and checks every request, so a change to
printed output fails here and not only in a benchmark run.  The `cli`
requests run in this process, through `cli.main`, as a traced run replays
them.
"""

import importlib
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("workload", ["certify", "scans", "cli"])
def test_outputs_match_golden_digests(workload, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    monkeypatch.setattr(run, "OUT", tmp_path)  # where the cli workload writes its lmap file
    golden = json.loads((BENCH / "golden.json").read_text())
    work = run.build(workload, run.raw_inputs(workload, 1), golden)
    mismatched = [i for i in range(len(work)) if not work.check(i, work.in_process(i))]
    assert not mismatched
