"""Smoke test of the benchmark itself, at tiny scale.

Run from the root of a checkout:  python3 -m pytest layerbench -q

- Every workload, traced and untraced, prints every named metric with
  its unit and a finite value, and passes its own correctness checks.
- The correctness checks catch an estimate corrupted in its last bit.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from layerbench import checks  # noqa: E402
from layerbench.run import END_TO_END, PER_LAYER  # noqa: E402
from repro.datasets.streams import generate  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["mc-grid", "sweep", "stream"])
def test_every_metric_is_emitted(workload, trace):
    proc = subprocess.run(
        [sys.executable, "layerbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) == set(expected)
    for name, m in result["metrics"].items():
        assert m["unit"] == expected[name]
        assert math.isfinite(m["value"]), name
        assert any(line.startswith(f"{name} = ") and line.endswith(expected[name]) for line in lines), name
    assert any(line.startswith("failed_frac = 0 ") for line in lines)
    assert any(line.startswith("estimates_digest = ") for line in lines)


def test_benchmark_json_declares_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["mc-grid", "sweep", "stream"]


@pytest.fixture(scope="module")
def archie():
    return generate("archie", n_records=4_000, seg_len=1_000, seed=5)


def _grid_rows(stream, call, base_seed):
    rows = []
    for algo in call.algorithms:
        for trial in range(call.n_trials):
            res, truths, full_truth = checks.reference_trial(
                stream, call, algo, call.modes[0], call.budgets[0], trial, base_seed
            )
            key = (stream.name, algo, call.modes[0], call.budgets[0], trial)
            rows += [(*key, t, e, tr) for t, (e, tr) in enumerate(zip(res["seg_estimates"], truths))]
            rows.append((*key, -1, res["full_estimate"], full_truth))
    import pandas as pd

    return pd.DataFrame(rows, columns=["dataset", "algo", "mode", "budget", "trial", "segment", "estimate", "truth"])


def test_grid_check_catches_a_corrupted_estimate(archie):
    call = checks.GridCall(("archie",), ("inquest", "uniform"), (400,), 2, ("pred",), label="t")
    rows = _grid_rows(archie, call, base_seed=7)
    cells = [("archie", a, "pred", 400, t) for a in call.algorithms for t in range(2)]
    assert checks.check_grid_call(rows, {"archie": archie}, call, cells, 7) == (0, [])

    bad = rows.copy()
    i = bad.index[(bad["algo"] == "inquest") & (bad["trial"] == 1) & (bad["segment"] == 2)][0]
    bad.loc[i, "estimate"] = np.nextafter(bad.loc[i, "estimate"], np.inf)
    failed, msgs = checks.check_grid_call(bad, {"archie": archie}, call, cells, 7)
    assert failed == 1 and "inquest" in msgs[0]
    assert checks.digest(bad) != checks.digest(rows)

    short = rows.drop(index=i)
    assert checks.check_grid_call(short, {"archie": archie}, call, cells, 7)[0] == call.n_grid


def test_stream_check_catches_a_corrupted_or_missing_batch(archie):
    ref = np.array([0.25, 0.5, 0.75, 1.0])
    batches = [{"source_segment": t, "estimate": float(e)} for t, e in enumerate(ref)]
    assert checks.check_stream(batches, ref) == (0, [])
    bad = [dict(b) for b in batches]
    bad[2]["estimate"] = float(np.nextafter(ref[2], 0))
    assert checks.check_stream(bad, ref)[0] == 1
    assert checks.check_stream(batches[:3], ref)[0] == 1
