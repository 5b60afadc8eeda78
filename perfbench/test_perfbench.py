"""Tests of the benchmark itself, in tiny mode (seconds per workload).

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(trace: int) -> dict:
    done = _run("--workload", "all", "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize(
    "trace, declared", [(0, "end_to_end"), (1, "per_layer")]
)
def test_every_metric_is_reported_with_its_unit(trace, declared):
    metrics = _result(trace)["metrics"]
    expected = {
        f"{workload}/{metric['name']}": metric["unit"]
        for workload in WORKLOADS
        for metric in SPEC[declared]
    }
    assert {key: value["unit"] for key, value in metrics.items()} == expected
    for key, value in metrics.items():
        assert isinstance(value["value"], float), key
        if trace == 0:
            assert value["value"] > 0, key


def test_traced_run_writes_well_formed_spans():
    _result(1)
    for workload in WORKLOADS:
        path = ROOT / ".perfbench" / f"{workload}-seed3.spans.jsonl"
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        assert spans, workload
        by_id = {span["id"]: span for span in spans}
        assert len(by_id) == len(spans), "span ids repeat"
        roots = 0
        for span in spans:
            keys = {"id", "name", "parent", "request", "pid", "start", "end"}
            assert keys <= set(span)
            assert span["start"] <= span["end"]
            assert span["request"] is not None
            if span["parent"] is None:
                roots += 1
                assert span["name"].startswith("op."), span["name"]
                continue
            parent = by_id[span["parent"]]
            assert parent["request"] == span["request"]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
        assert roots >= 2, workload


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
