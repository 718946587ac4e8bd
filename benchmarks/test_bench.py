"""Tests of the benchmark itself: ``python3 -m pytest benchmarks``."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from dsm.harness import PRESETS, run_cells  # noqa: E402
from workloads import certificate_violations  # noqa: E402

REPEATABLE_COUNTS = (
    "driver.steps",
    "operators.apply_calls",
    "regsolve.linear_solve_calls",
    "regsolve.newton_iters",
)


def _run(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmarks", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def test_certificate_checker_accepts_real_and_rejects_doctored_records():
    cell = next(iter(run_cells(PRESETS["exp2-const"].override(delta_rel=(0.05,)))))
    threshold = cell.rule.threshold(cell.delta_run)
    assert certificate_violations(cell.record, threshold) == []

    raised = cell.record.residuals.copy()
    raised[-1] = 2.0 * threshold
    doctored = [
        dataclasses.replace(cell.record, residuals=raised),
        dataclasses.replace(cell.record, residuals=np.full_like(raised, 0.5 * threshold)),
        dataclasses.replace(cell.record, residuals=raised[:-1]),
        dataclasses.replace(cell.record, stopped_by_discrepancy=False),
    ]
    for record in doctored:
        assert certificate_violations(record, threshold)


@pytest.mark.parametrize("workload", ["presets", "stiff", "lemmas"])
def test_counts_repeat_exactly_between_runs(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        per_layer = {m["name"] for m in json.load(fh)["per_layer"]}
    counts = []
    for _ in range(2):
        out = _run(workload, seed=3, trace=1)
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == per_layer
        counts.append({name: result["metrics"][name]["value"] for name in REPEATABLE_COUNTS})
    assert counts[0] == counts[1]
    assert all(isinstance(value, int) for value in counts[0].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run("presets", seed=0, trace=0, cwd=str(tmp_path))
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
