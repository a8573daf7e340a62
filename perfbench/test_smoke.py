"""Smoke test of the benchmark itself, at ``test``-profile graph sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs once untraced and once traced in a subprocess, as the
benchmark is run for real; the test checks that every metric named in
``BENCHMARK.json`` is printed and that every job passed the oracle.  The
oracle gate is also fed a deliberately corrupted labelling.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pandas as pd
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--profile", "test"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def test_spec_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_printed(workload, trace):
    result, stdout = _run(workload, trace)
    key = "per_layer" if trace else "end_to_end"
    names = [m["name"] for m in SPEC[key]]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(names)
    for name in names:
        assert f"\n{name} = " in stdout
    if trace:
        assert (BENCH / "out" / f"{workload}-seed3-trace1-spans.jsonl").is_file()


def _truth(edges: pd.DataFrame) -> pd.DataFrame:
    from repro.analysis.union_find import components_pandas

    return components_pandas(edges).rename(columns={"c": "w"})


def test_oracle_gate_rejects_merged_components():
    edges = pd.DataFrame({"v": [1, 2, 10, 11], "w": [2, 3, 11, 12]})
    truth = _truth(edges)
    good = pd.DataFrame({"v": [1, 2, 3, 10, 11, 12], "r": [7, 7, 7, 9, 9, 9]})
    assert run.verify(good, truth) is None
    merged = good.assign(r=7)
    assert "disagree" in run.verify(merged, truth)
    split = good.assign(r=[7, 7, 8, 9, 9, 9])
    assert "disagree" in run.verify(split, truth)
    missing = good.iloc[1:]
    assert "disagree" in run.verify(missing, truth)
