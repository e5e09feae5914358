"""Self-test of the benchmark: tiny runs of every workload, traced and not.

    python3 -m pytest -q perfbench

It checks that every metric named in BENCHMARK.json is emitted, that a
corrupted pinned answer is reported as a wrong verdict, that tracing puts
the original functions back, and that the benchmark refuses to run where
the program is missing.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = run.load_spec()
# Operations per group in the tiny runs.  Cells at 5 reaches 0 -> I, which
# raises at the pinned commit, so failure accounting is exercised too.
TINY = {"axioms": 2, "homotopy": 3, "complexes": 5, "cells": 5}


def names(kind):
    return [m["name"] for m in SPEC[kind]]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result, report = run.measure(workload, seed=1, seconds=0, trace=0, limit=TINY[workload])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["wrong"]
    assert list(result["metrics"]) == names("end_to_end")
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
    assert result["attempted"] == report["ops_per_pass"] * report["passes"] >= 1
    json.dumps(result)


def test_cells_failures_keep_their_exception_type():
    result, report = run.measure("cells", seed=1, seconds=0, trace=0, limit=TINY["cells"])
    assert report["failures"] == {"ValueError": 1, "possibly_infinite": 1}
    assert result["failed"] == 2


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run_emits_every_per_layer_metric(workload):
    result, report = run.measure(workload, seed=1, seconds=0, trace=1, limit=TINY[workload])
    assert result["correct"], report["wrong"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == names("per_layer")
    assert metrics["trace_overhead"] > 0
    linalg = [k for k in metrics if k.startswith("linalg.") and k.endswith(".calls")]
    if workload == "complexes":
        assert metrics["classify.calls"] == 0
        assert all(metrics[k] > 0 for k in linalg)
    else:
        assert all(metrics[k] == 0 for k in linalg)


def test_tracing_restores_the_originals():
    from modelbench import catmodel
    from modelbench.fincat.core import FinCat, Functor
    from modelbench.lifting import search

    before = (catmodel.classify, search.is_orthogonal, FinCat.__eq__, Functor.then,
              workloads.check_model_axioms)
    run.measure("axioms", seed=1, seconds=0, trace=1, limit=1)
    after = (catmodel.classify, search.is_orthogonal, FinCat.__eq__, Functor.then,
             workloads.check_model_axioms)
    assert all(a is b for a, b in zip(before, after))


@pytest.mark.parametrize("workload, corrupt", [
    ("axioms", lambda p: p["axioms"]["0+1"]["MC2-retracts"].__setitem__(1, 3)),
    ("cells", lambda p: p["cells"]["soa:0>K1#0"].__setitem__(1, 1)),
    ("homotopy", lambda p: p["hohom"]["0>0"].__setitem__(1, 2)),
])
def test_corrupted_pin_is_a_wrong_verdict(monkeypatch, workload, corrupt):
    pins = copy.deepcopy(workloads.PINS)
    corrupt(pins)
    monkeypatch.setattr(workloads, "PINS", pins)
    result, report = run.measure(workload, seed=1, seconds=0, trace=0, limit=TINY[workload])
    assert result["correct"] is False
    assert len(report["wrong"]) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "axioms", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert "correct" not in out.stdout
