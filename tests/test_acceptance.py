"""Acceptance criteria for the full pipeline.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. Every tolerance is fixed here; nothing is deferred to
later calibration.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from bridgewatch import analytics, facts as f, rules
from bridgewatch.cli import main as cli_main
from bridgewatch.oracle import brute_force
from bridgewatch.scenario import (
    AnomalySpec,
    ScenarioParams,
    describe,
    generate,
)
from conftest import H1, H2, build_store, f1_facts, replace, static_facts
from randstores import random_store

MAX_ORACLE_SECONDS = 60.0
MAX_EVAL_SECONDS = 60.0
MAX_MEMORY_GIB = 4.0
PERF_TARGET_FACTS = 1_500_000


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_oracle_equivalence_50_stores():
    start = time.monotonic()
    checked = 0
    for seed in range(50):
        # every 5th store runs close to the 2,000-fact bound
        dense = seed % 5 == 0
        store = random_store(
            seed * 6_700_417 + 3,
            mutants=700 if dense else 150,
            noise=900 if dense else 200,
        )
        assert store.total_facts() <= 2_000, "store exceeds the 2,000-fact bound"
        outputs = rules.eval_all(store)
        for rule_id, engine_set in outputs.by_rule().items():
            oracle_set = brute_force(rule_id, store)
            assert engine_set == oracle_set, (
                f"seed {seed} rule {rule_id}: engine {len(engine_set)} "
                f"vs oracle {len(oracle_set)}"
            )
        checked += 1
    elapsed = time.monotonic() - start
    _report(
        1,
        checked == 50 and elapsed <= MAX_ORACLE_SECONDS,
        f"50 random stores, 8 rules each, engine == oracle exactly "
        f"({elapsed:.1f}s <= {MAX_ORACLE_SECONDS:.0f}s)",
    )


def test_criterion_2_clean_traffic_soundness():
    failures = []
    for seed in range(20):
        params = ScenarioParams(seed=seed, n_deposits=100, n_withdrawals=100)
        scenario = generate(params)
        outputs = rules.eval_all(scenario.store)
        report = analytics.build_report(scenario.store, outputs)
        if len(outputs.rule4) != 100 or len(outputs.rule8) != 100:
            failures.append(f"seed {seed}: cctx counts {len(outputs.rule4)}/{len(outputs.rule8)}")
        if analytics.total_anomalies(report) != 0:
            failures.append(f"seed {seed}: {report['anomaly_counts']}")
    _report(
        2,
        not failures,
        failures[0] if failures else
        "20 seeds x (100 deposits + 100 withdrawals): 0 anomalies, 100+100 cctxs each",
    )


@pytest.mark.parametrize("kind", [
    "forged_release", "replayed_id", "finality_break",
    "direct_transfer", "orphan_bridge_event",
])
@pytest.mark.parametrize("count", [1, 7, 23])
def test_criterion_3_attack_recall(kind, count):
    params = ScenarioParams(
        seed=1000 + count, n_deposits=25, n_withdrawals=25,
        anomalies=AnomalySpec(**{kind: count}),
    )
    scenario = generate(params)
    expected = describe(params)
    outputs = rules.eval_all(scenario.store)
    report = analytics.build_report(scenario.store, outputs)

    counts_match = report["anomaly_counts"] == expected["anomaly_counts"]
    rules_match = report["rule_counts"] == expected["rule_counts"]
    reported = {
        (anomaly_kind, tuple(item["tx_hashes"]))
        for anomaly_kind, items in report["anomalies"].items()
        for item in items
    }
    missed = [
        entry for entry in scenario.ground_truth
        if (entry["expected_anomaly"], tuple(entry["tx_hashes"])) not in reported
    ]
    recall_ok = not missed and len(scenario.ground_truth) == count
    _report(
        3,
        counts_match and rules_match and recall_ok,
        f"{kind} x{count}: recall {count - len(missed)}/{count}, "
        f"counts {'==' if counts_match else '!='} describe, "
        f"rule counts {'==' if rules_match else '!='} describe",
    )


def test_criterion_4_finality_strictness_boundary():
    window = 1800  # escrow chain (chain 1) window in the shared fixture
    escrow_ts = 1000

    def with_release_at(ts):
        def mutate(fact):
            if isinstance(fact, f.TransactionFact) and fact.tx_hash == H2:
                return replace(fact, timestamp=ts)
            return fact

        return build_store([mutate(x) for x in static_facts() + f1_facts()])

    at_window = with_release_at(escrow_ts + window)
    outputs_at = rules.eval_all(at_window)
    violations_at = analytics.finality_violations(outputs_at)

    past_window = with_release_at(escrow_ts + window + 1)
    outputs_past = rules.eval_all(past_window)
    violations_past = analytics.finality_violations(outputs_past)

    ok = (
        len(outputs_at.rule4) == 0
        and len(violations_at) == 1
        and len(outputs_past.rule4) == 1
        and len(violations_past) == 0
    )
    _report(
        4,
        ok,
        f"gap=window: cctx={len(outputs_at.rule4)}, violations={len(violations_at)}; "
        f"gap=window+1: cctx={len(outputs_past.rule4)}, violations={len(violations_past)}",
    )


def test_criterion_5_replay_forensics_at_attack_shape():
    # 382 release events over 14 withdrawal ids
    fanouts = (28,) * 4 + (27,) * 10
    assert sum(fanouts) == 382 and len(fanouts) == 14
    params = ScenarioParams(
        seed=2022_08_02, n_deposits=0, n_withdrawals=14,
        anomalies=AnomalySpec(replayed_id=14, replay_fanouts=fanouts),
    )
    scenario = generate(params)
    release_tuples = scenario.store.count("sc_token_withdrew")
    outputs = rules.eval_all(scenario.store)
    duplicates = [
        a for a in analytics.duplicate_ids(scenario.store, outputs)
        if a.kind == "DuplicateId"
    ]
    covered = sum(int(dict(a.evidence)["count"]) for a in duplicates)
    ok = release_tuples == 382 and len(duplicates) == 14 and covered == 382
    _report(
        5,
        ok,
        f"{release_tuples} release events, {len(duplicates)} DuplicateId anomalies "
        f"covering {covered} tuples",
    )


def test_criterion_6_performance_envelope():
    params = ScenarioParams(
        seed=3, n_deposits=PERF_TARGET_FACTS // 12, n_withdrawals=PERF_TARGET_FACTS // 12
    )
    scenario = generate(params)
    total = scenario.store.total_facts()
    assert total >= PERF_TARGET_FACTS, f"only {total} facts generated"

    start = time.monotonic()
    outputs = rules.eval_all(scenario.store)
    report = analytics.build_report(scenario.store, outputs)
    elapsed = time.monotonic() - start

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_gib = peak_kib / (1024**2)
    ok = (
        elapsed <= MAX_EVAL_SECONDS
        and peak_gib <= MAX_MEMORY_GIB
        and analytics.total_anomalies(report) == 0
    )
    _report(
        6,
        ok,
        f"{total:,} facts: eval+analytics {elapsed:.1f}s <= {MAX_EVAL_SECONDS:.0f}s, "
        f"peak rss {peak_gib:.2f} GiB <= {MAX_MEMORY_GIB:.0f} GiB "
        f"({peak_kib * 1024 / total:.0f} B per fact)",
    )


def test_criterion_7_accounting_identity_everywhere():
    checked = 0
    scenarios = [
        ScenarioParams(seed=5, n_deposits=20, n_withdrawals=20),
        ScenarioParams(
            seed=6, n_deposits=15, n_withdrawals=15,
            anomalies=AnomalySpec(forged_release=3, replayed_id=2, finality_break=2,
                                  direct_transfer=2, orphan_bridge_event=2),
        ),
        ScenarioParams(
            seed=7, n_deposits=10, n_withdrawals=10,
            anomalies=AnomalySpec(replayed_id=5, replay_fanout=4),
        ),
    ]
    stores = [generate(p).store for p in scenarios]
    stores.extend(random_store(9000 + i) for i in range(5))
    for store in stores:
        outputs = rules.eval_all(store)
        accounting = analytics.match_accounting(outputs)
        for rule_id, (matched, unmatched) in accounting.items():
            captured = len(outputs.by_rule()[rule_id])
            assert matched + unmatched == captured, (
                f"rule {rule_id}: {matched}+{unmatched} != {captured}"
            )
        checked += 1
    _report(7, checked == len(stores),
            f"captured == matched + unmatched for all local rules on {checked} stores")


def test_criterion_8_end_to_end_determinism(tmp_path):
    args = ["--seed", "88", "--deposits", "12", "--withdrawals", "12",
            "--anomalies", "replayed_id=2,finality_break=1"]

    def run_pipeline(label, emit):
        out = tmp_path / label
        assert cli_main(["simulate", *args, "--out", str(out), "--emit", emit]) == 0
        facts_dir = out
        if emit == "receipts":
            facts_dir = tmp_path / f"{label}_facts"
            assert cli_main([
                "ingest", "--receipts", str(out / "receipts.jsonl"),
                "--config", str(out / "decoder_config.json"),
                "--out", str(facts_dir),
            ]) == 0
        report = tmp_path / f"{label}.json"
        cli_main(["eval", "--facts", str(facts_dir), "--out", str(report)])
        return report.read_bytes()

    via_receipts_1 = run_pipeline("r1", "receipts")
    via_receipts_2 = run_pipeline("r2", "receipts")
    via_facts = run_pipeline("d1", "facts")

    # separate process (fresh string-hash seed) must reproduce the bytes too
    out = tmp_path / "sub"
    report = tmp_path / "sub.json"
    script = (
        "from bridgewatch.cli import main; "
        f"main(['simulate'] + {args!r} + ['--out', {str(out)!r}]); "
        f"main(['eval', '--facts', {str(out)!r}, '--out', {str(report)!r}])"
    )
    subprocess.run([sys.executable, "-c", script], check=True, capture_output=True)
    via_subprocess = report.read_bytes()

    ok = via_receipts_1 == via_receipts_2 == via_facts == via_subprocess
    _report(8, ok, "simulate->ingest->eval byte-identical across runs (including a "
                   "separate process) and equal to simulate(facts)->eval")


def test_criterion_9_latency_stats():
    def cctx(orig_ts, dst_ts):
        return rules.CctxValidDeposit(
            1, orig_ts, H1, 100, dst_ts, H2, "1",
            "0x" + "a" * 40, "0x" + "c" * 40, "0x" + "1" * 40, "0x" + "2" * 40, "10",
        )

    stats = analytics.latency_stats([cctx(0, 100), cctx(50, 250), cctx(100, 700)])
    hand_ok = (
        stats.min == 100 and stats.max == 600
        and stats.avg == "300.00" and stats.median == 200
    )

    def brute(latencies):
        n = len(latencies)
        ordered = sorted(latencies)
        mean = Fraction(sum(ordered), n)
        var = sum((Fraction(x) - mean) ** 2 for x in ordered) / n
        with localcontext() as ctx:
            ctx.prec = 60
            std = (Decimal(var.numerator) / Decimal(var.denominator)).sqrt()
            return {
                "min": ordered[0],
                "max": ordered[-1],
                "avg": str((Decimal(mean.numerator) / Decimal(mean.denominator))
                           .quantize(Decimal("0.01"))),
                "std": str(std.quantize(Decimal("0.01"))),
                "median": ordered[(n - 1) // 2],
            }

    cross_ok = True
    for seed in range(10):
        scenario = generate(ScenarioParams(seed=seed + 40, n_deposits=9, n_withdrawals=9))
        outputs = rules.eval_all(scenario.store)
        for cctx_set in (outputs.rule4, outputs.rule8):
            stats_set = analytics.latency_stats(cctx_set)
            expected = brute([c.dst_timestamp - c.orig_timestamp for c in cctx_set])
            got = {
                "min": stats_set.min, "max": stats_set.max, "avg": stats_set.avg,
                "std": stats_set.std, "median": stats_set.median,
            }
            if got != expected:
                cross_ok = False
    _report(
        9,
        hand_ok and cross_ok,
        "latencies {100,200,600} -> min 100, max 600, avg 300.00, median 200; "
        "brute-force agreement on 10 scenarios x 2 directions",
    )
