"""Tiny-size smoke tests of the benchmark.

Run with ``python -m pytest perfbench -q`` from the repository root
(the tier-1 suite collects ``tests/`` only, so these stay out of it).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_metrics_match_benchmark_json(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for name, metric in result["metrics"].items():
        assert np.isfinite(metric["value"]), name


def test_exact_counts_repeat_for_the_same_seed():
    counts = [name for name, unit in
              ((m["name"], m["unit"]) for m in SPEC["per_layer"])
              if unit in ("count", "ratio") and not name.startswith(
                  ("service.", "net.", "loadgen.", "trace."))]
    first, second = (_result(_run(WORKLOADS[0], 1, seed=5)) for _ in range(2))
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_broken_deletes_fail_the_run(monkeypatch, capsys):
    """A store that silently skips deletes must be reported as incorrect."""
    import run
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core.graphtinker import GraphTinker

    real = GraphTinker.delete_batch

    def lossy(self, edges, kernel=None):
        return real(self, np.asarray(edges)[:-1], kernel)

    monkeypatch.setattr(GraphTinker, "delete_batch", lossy)
    code = run.main(["--workload", WORKLOADS[0], "--seed", "3",
                     "--seconds", "2", "--trace", "0", "--size", "tiny"])
    out, err = capsys.readouterr()
    assert code == 1
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False
    assert "check failed: analytics" in err
    assert "check failed: ingest" in err


def test_serve_digest_check_flags_a_missing_write():
    import checks

    edges = np.array([[0, 1], [1, 2], [2, 0]])
    want = checks.edge_set_digest(edges)
    assert checks.check_digest(want, want, "serve") is None
    got = checks.edge_set_digest(edges[:2])
    assert "serve" in checks.check_digest(got, want, "serve")
