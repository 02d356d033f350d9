"""The benchmark's tracer wraps program functions by name; every name it
wraps must still exist and still be called as the per-layer metrics expect,
or only traced benchmark runs would notice. Likewise, each workload's
set-up must still build from the scenario parameters it sets."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bridgewatch.rules import RULE_NAMES
from bridgewatch.scenario import AnomalySpec, ScenarioParams, generate

ROOT = Path(__file__).resolve().parents[1]
PATH = os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")])


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclass() looks its module up there
    spec.loader.exec_module(module)
    return module


WORKLOADS = _bench_module("workloads")


@pytest.mark.parametrize("name", WORKLOADS.WORKLOADS)
def test_workload_sets_up_and_matches_its_reference(tmp_path, name):
    p = WORKLOADS.params(name, seed=1, scale=0.02)
    generated = WORKLOADS.set_up(name, p, tmp_path / "inputs")
    assert WORKLOADS.reference(name, p, generated, tmp_path / "reference")["problems"] == []


def test_tracer_instruments_every_layer():
    script = "import tracing; tracing.instrument(tracing.Tracer())"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": PATH}, cwd=ROOT / "bench")
    assert proc.returncode == 0, proc.stderr


def test_traced_eval_counts_every_rule_and_analytics_pass(tmp_path):
    anomalies = AnomalySpec(forged_release=1, replayed_id=1, finality_break=1,
                            direct_transfer=1, orphan_bridge_event=1)
    generate(ScenarioParams(seed=5, n_deposits=30, n_withdrawals=30, anomalies=anomalies)
             ).write_facts_dir(tmp_path / "facts")
    spans, report = tmp_path / "spans.json", tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracing.py"), "--spans", str(spans), "cli", "--",
         "eval", "--facts", str(tmp_path / "facts"), "--out", str(report)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": PATH},
    )
    assert proc.returncode == 1, proc.stderr  # the injected anomalies are found
    counts = json.loads(spans.read_text())["counts"]
    rule_counts = json.loads(report.read_text())["rule_counts"]
    for i, name in RULE_NAMES.items():
        assert counts[f"rules.eval_rule{i}.calls"] == 1
        assert counts[f"rules.rule{i}.tuples"] == rule_counts[name] > 0
    for name in _bench_module("tracing").ANALYTICS_PASSES:
        assert counts[f"analytics.{name}.calls"] >= 1
    assert counts["analytics.matched_projections.calls"] == 2
