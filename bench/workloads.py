"""Benchmark workloads: scenario parameters, input set-up and reference outputs.

Shared by ``run.py`` and ``tracing.py``, so that every set-up builds
identical inputs. ``bridgewatch`` must be importable.

Every input comes from ``ScenarioParams(seed=<bench seed>, ...)``. The
program under test only ever sees the files written by :func:`set_up`.

Run as a script it performs one timed set-up in a fresh process, so that
the benchmark's own process stays small and does not inflate the peak RSS
that the kernel reports for the CLI processes it starts::

    python3 bench/workloads.py --workload eval-clean --seed 1 --inputs DIR \
        [--reference DIR]

It prints ``{"setup_s": ...}`` and, with ``--reference``, also writes what
every CLI run must produce and prints the expectations and input size.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from bridgewatch import scenario
from bridgewatch.scenario import ANOMALY_KINDS, AnomalySpec, ScenarioParams

# Releases per replayed withdrawal id: the paper's forensic fan-out (382
# releases over 14 ids), as in acceptance criterion 5.
REPLAY_FANOUT = 28


@dataclass(frozen=True)
class Workload:
    command: str  # "eval" or "ingest"
    flows: int  # deposits, and also withdrawals, at scale 1
    attack: bool


# Why each workload exists is in README.md and BENCHMARK.json. The ingest
# workload is smaller because its set-up encodes receipts in pure-Python
# keccak, about 0.5 ms per receipt, and is repeated in every run.
WORKLOADS = {
    "eval-clean": Workload("eval", 5000, attack=False),
    "eval-attack": Workload("eval", 5000, attack=True),
    "ingest-receipts": Workload("ingest", 1200, attack=False),
}


def params(name: str, seed: int, scale: float = 1.0) -> ScenarioParams:
    """Scenario parameters of workload ``name`` for one seed and size scale."""
    w = WORKLOADS[name]
    flows = max(20, round(w.flows * scale))
    anomalies = AnomalySpec()
    if w.attack:
        few = max(1, flows * 3 // 100)
        anomalies = AnomalySpec(
            forged_release=few,
            replayed_id=max(1, flows // 100),
            finality_break=few,
            direct_transfer=few,
            orphan_bridge_event=few,
            replay_fanout=REPLAY_FANOUT,
        )
    return ScenarioParams(seed=seed, n_deposits=flows, n_withdrawals=flows,
                          anomalies=anomalies)


def set_up(name: str, p: ScenarioParams, inputs: Path) -> scenario.GeneratedScenario:
    """Generate the scenario and write the program's input files under ``inputs``.

    Calls go through module and class attributes so that ``tracing.py``
    can wrap them.
    """
    generated = scenario.generate(p)
    inputs.mkdir(parents=True, exist_ok=True)
    if WORKLOADS[name].command == "eval":
        generated.write_facts_dir(inputs / "facts")
    else:
        generated.write_receipts_jsonl(inputs / "receipts.jsonl")
        generated.write_config(inputs / "decoder_config.json")
    return generated


def input_size(p: ScenarioParams, generated: scenario.GeneratedScenario) -> dict:
    """Input size recorded with every result."""
    injected = {kind: getattr(p.anomalies, kind) for kind in ANOMALY_KINDS}
    return {
        "flows": p.n_deposits + p.n_withdrawals,
        "facts": generated.store.total_facts(),
        "receipts": generated.store.count("transaction"),
        "anomalies_injected": injected,
        "replay_fanout": p.anomalies.replay_fanout if p.anomalies.replayed_id else 0,
    }


def reference(name: str, p: ScenarioParams, generated: scenario.GeneratedScenario,
              out: Path) -> dict:
    """Write what every CLI run of workload ``name`` must produce under ``out``.

    ``eval``: ``generate → eval_all → build_report → report_to_json`` in
    memory, as ``out/report.json``; its rule and anomaly counts must equal
    ``scenario.describe``. ``ingest``: ``write_facts_dir`` of the same
    scenario, as ``out/facts``. Returns the CLI command, the expected exit
    code and receipt count, and any disagreement found.
    """
    # cli and oracle are imported so that every module is compiled before timing.
    from bridgewatch import analytics, cli, rules  # noqa: F401

    out.mkdir(parents=True, exist_ok=True)
    if WORKLOADS[name].command == "ingest":
        generated.write_facts_dir(out / "facts")
        return {"command": "ingest", "exit": 0, "problems": [],
                "receipts": generated.store.count("transaction")}
    report = analytics.build_report(generated.store, rules.eval_all(generated.store))
    (out / "report.json").write_text(analytics.report_to_json(report), encoding="utf-8")
    expected = scenario.describe(p)
    problems = [
        f"reference {key} {report[key]} != scenario.describe {expected[key]}"
        for key in ("rule_counts", "anomaly_counts") if report[key] != expected[key]
    ]
    return {"command": "eval", "exit": 1 if WORKLOADS[name].attack else 0, "problems": problems}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="one timed set-up of a benchmark workload")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--reference", type=Path)
    args = parser.parse_args(argv)
    p = params(args.workload, args.seed, args.scale)
    start = perf_counter()
    generated = set_up(args.workload, p, args.inputs)
    result = {"setup_s": perf_counter() - start}
    if args.reference is not None:
        result.update(reference(args.workload, p, generated, args.reference),
                      inputs=input_size(p, generated))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
