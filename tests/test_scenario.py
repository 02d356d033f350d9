"""Generator determinism, parameter validation, and detector agreement."""

from __future__ import annotations

import hashlib
import json
import re

import pytest

from bridgewatch import analytics, keccak
from bridgewatch.facts import RELATIONS, dump_facts_dir, load_facts_dir
from bridgewatch.ingest import BridgeDecoderConfig, ingest_jsonl, static_facts
from bridgewatch.rules import eval_all
from bridgewatch.scenario import (
    AnomalySpec,
    ParameterError,
    ScenarioParams,
    SplitMix64,
    describe,
    generate,
)
from conftest import assert_values_shared

# A small scenario with every attack kind, so that every fact type of the
# generator occurs.
SMALL_ATTACK = ScenarioParams(
    seed=21, n_deposits=6, n_withdrawals=6,
    anomalies=AnomalySpec(forged_release=1, replayed_id=1, finality_break=1,
                          direct_transfer=1, orphan_bridge_event=1),
)


class TestSplitMix64:
    def test_known_sequence_is_stable(self):
        rng = SplitMix64(0)
        first = [rng.next_u64() for _ in range(3)]
        rng2 = SplitMix64(0)
        assert first == [rng2.next_u64() for _ in range(3)]

    def test_different_seeds_differ(self):
        assert SplitMix64(1).next_u64() != SplitMix64(2).next_u64()

    def test_randint_bounds(self):
        rng = SplitMix64(9)
        draws = [rng.randint(3, 7) for _ in range(200)]
        assert min(draws) >= 3 and max(draws) <= 7
        assert set(draws) == {3, 4, 5, 6, 7}

    def test_sample_indexes_distinct(self):
        rng = SplitMix64(5)
        sample = rng.sample_indexes(50, 10)
        assert len(set(sample)) == 10

    def test_address_is_canonical(self):
        addr = SplitMix64(1).address()
        assert addr.startswith("0x") and len(addr) == 42


class TestValidation:
    def test_negative_counts_rejected(self):
        with pytest.raises(ParameterError):
            ScenarioParams(seed=1, n_deposits=-1, n_withdrawals=0).validate()

    def test_anomaly_counts_bounded_by_base_flows(self):
        params = ScenarioParams(
            seed=1, n_deposits=2, n_withdrawals=1,
            anomalies=AnomalySpec(replayed_id=2),
        )
        with pytest.raises(ParameterError, match="replayed_id"):
            params.validate()

    def test_fanout_minimum(self):
        params = ScenarioParams(
            seed=1, n_deposits=0, n_withdrawals=2,
            anomalies=AnomalySpec(replayed_id=1, replay_fanout=1),
        )
        with pytest.raises(ParameterError, match="fanout"):
            params.validate()

    @pytest.mark.parametrize("anomalies, message", [
        (AnomalySpec(direct_transfer=-1), "direct_transfer count must be non-negative"),
        (AnomalySpec(replayed_id=1, replay_fanouts=(3, 3)),
         "replay_fanouts length must equal replayed_id count"),
    ], ids=["negative-count", "fanouts-of-another-length"])
    def test_anomaly_spec_is_checked(self, anomalies, message):
        params = ScenarioParams(seed=1, n_deposits=2, n_withdrawals=2, anomalies=anomalies)
        with pytest.raises(ParameterError, match=message):
            params.validate()

    def test_spec_string_parsing(self):
        spec = AnomalySpec.from_spec_string("forged_release=2,finality_break=1")
        assert spec.forged_release == 2 and spec.finality_break == 1
        assert AnomalySpec.from_spec_string("") == AnomalySpec()
        with pytest.raises(ParameterError):
            AnomalySpec.from_spec_string("nonsense=1")

    @pytest.mark.parametrize("spec, message", [
        ("direct_transfer=1,direct_transfer=2", "anomaly kind 'direct_transfer' given twice"),
        ("direct_transfer=1_0", "direct_transfer: cannot parse unsigned integer from '1_0'"),
        ("orphan_bridge_event=+1", "cannot parse unsigned integer from '+1'"),
        ("direct_transfer=\u0663", "cannot parse unsigned integer from '\u0663'"),
        ("direct_transfer=-1", "direct_transfer: negative value -1"),
    ])
    def test_spec_string_counts_are_canonical_and_once(self, spec, message):
        with pytest.raises(ParameterError, match=re.escape(message)):
            AnomalySpec.from_spec_string(spec)


class TestDescribe:
    def test_clean_counts(self):
        d = describe(ScenarioParams(seed=1, n_deposits=10, n_withdrawals=5))
        assert d["rule_counts"]["CCTX_ValidDeposit"] == 10
        assert d["rule_counts"]["CCTX_ValidWithdrawal"] == 5
        assert d["anomaly_counts"] == {}

    def test_replay_adds_release_tuples(self):
        params = ScenarioParams(
            seed=1, n_deposits=0, n_withdrawals=4,
            anomalies=AnomalySpec(replayed_id=2, replay_fanout=3),
        )
        d = describe(params)
        assert d["anomaly_counts"]["DuplicateId"] == 2
        # 2 replayed ids continue 2 extra releases each
        assert d["rule_counts"]["SC_ValidERC20TokenWithdrawal"] == 4 + 2 * (3 - 1)
        assert d["rule_counts"]["CCTX_ValidWithdrawal"] == 4 + 2 * (3 - 1)

    def test_all_zero(self):
        d = describe(ScenarioParams(seed=1, n_deposits=0, n_withdrawals=0))
        assert all(v == 0 for v in d["rule_counts"].values())
        assert d["anomaly_counts"] == {}


class TestGeneration:
    def test_clean_scenario_matches_describe(self):
        params = ScenarioParams(seed=42, n_deposits=10, n_withdrawals=7)
        scenario = generate(params)
        outputs = eval_all(scenario.store)
        assert outputs.counts() == describe(params)["rule_counts"]
        report = analytics.build_report(scenario.store, outputs)
        assert analytics.total_anomalies(report) == 0
        assert scenario.ground_truth == []

    def test_determinism_byte_identical_dumps(self, tmp_path):
        params = ScenarioParams(
            seed=77, n_deposits=6, n_withdrawals=6,
            anomalies=AnomalySpec(forged_release=1, replayed_id=1),
        )
        generate(params).write_facts_dir(tmp_path / "a")
        generate(params).write_facts_dir(tmp_path / "b")
        files_a = sorted((tmp_path / "a").glob("*.facts"))
        files_b = sorted((tmp_path / "b").glob("*.facts"))
        assert [p.name for p in files_a] == [p.name for p in files_b]
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_different_seeds_differ(self):
        a = generate(ScenarioParams(seed=1, n_deposits=3, n_withdrawals=0))
        b = generate(ScenarioParams(seed=2, n_deposits=3, n_withdrawals=0))
        assert a.store != b.store

    def test_ground_truth_bijection(self):
        params = ScenarioParams(
            seed=9, n_deposits=8, n_withdrawals=8,
            anomalies=AnomalySpec(
                forged_release=2, replayed_id=2, finality_break=2,
                direct_transfer=2, orphan_bridge_event=2,
            ),
        )
        scenario = generate(params)
        by_kind = {}
        for entry in scenario.ground_truth:
            by_kind[entry["kind"]] = by_kind.get(entry["kind"], 0) + 1
        assert by_kind == {kind: 2 for kind in (
            "forged_release", "replayed_id", "finality_break",
            "direct_transfer", "orphan_bridge_event",
        )}

    def test_every_injected_anomaly_detected_with_expected_kind(self):
        params = ScenarioParams(
            seed=31, n_deposits=10, n_withdrawals=10,
            anomalies=AnomalySpec(
                forged_release=3, replayed_id=2, finality_break=2,
                direct_transfer=1, orphan_bridge_event=1,
            ),
        )
        scenario = generate(params)
        outputs = eval_all(scenario.store)
        report = analytics.build_report(scenario.store, outputs)
        assert report["anomaly_counts"] == describe(params)["anomaly_counts"]
        reported = {
            (kind, tuple(item["tx_hashes"]))
            for kind, items in report["anomalies"].items()
            for item in items
        }
        for entry in scenario.ground_truth:
            expected = (entry["expected_anomaly"], tuple(entry["tx_hashes"]))
            assert expected in reported, f"missed {entry}"

    def test_receipts_ingest_reproduces_store(self, tmp_path):
        params = ScenarioParams(
            seed=58, n_deposits=5, n_withdrawals=6,
            anomalies=AnomalySpec(replayed_id=1, finality_break=1),
        )
        scenario = generate(params)
        receipts_path = tmp_path / "receipts.jsonl"
        scenario.write_receipts_jsonl(receipts_path)
        config = BridgeDecoderConfig.from_json(scenario.config)
        store, report = ingest_jsonl(receipts_path, config)
        assert report.warnings == []
        assert store == scenario.store

    def test_receipts_hash_each_event_signature_once(self, monkeypatch):
        # topic0 comes from the decoder config's plans, not from each log
        calls = []

        def counting_event_topic(signature):
            calls.append(signature)
            return keccak.event_topic(signature)

        monkeypatch.setattr("bridgewatch.ingest.event_topic", counting_event_topic)
        monkeypatch.setattr("bridgewatch.scenario.event_topic", counting_event_topic)
        generated = generate(ScenarioParams(seed=3, n_deposits=8, n_withdrawals=8))
        calls.clear()
        receipts = generated.receipts()
        plans = len(generated.config["events"])
        assert sum(len(r["logs"]) for r in receipts) > plans
        assert len(calls) <= plans

    def test_generated_facts_pass_their_validating_constructors(self):
        # the generator builds its facts unchecked; this is where they are checked
        facts = list(generate(SMALL_ATTACK).store)
        assert {type(fact) for fact in facts} == set(RELATIONS.values())
        for fact in facts:
            assert type(fact)(*(getattr(fact, name) for name, _ in fact.COLUMNS)) == fact

    def test_generate_compiles_no_event_plan(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an event plan was compiled")

        monkeypatch.setattr("bridgewatch.ingest._event_plan", refuse)
        generated = generate(SMALL_ATTACK)
        monkeypatch.undo()
        statics = static_facts(generated.config)
        assert statics == BridgeDecoderConfig.from_json(generated.config).static
        assert set(statics) <= set(generated.store)

    def test_equal_values_are_one_object(self, tmp_path):
        generated = generate(SMALL_ATTACK)
        generated.write_facts_dir(tmp_path / "facts")
        generated.write_receipts_jsonl(tmp_path / "receipts.jsonl")
        loaded = load_facts_dir(tmp_path / "facts")
        ingested, _ = ingest_jsonl(tmp_path / "receipts.jsonl",
                                   BridgeDecoderConfig.from_json(generated.config))
        for store in (generated.store, loaded, ingested):
            assert_values_shared(store)
        assert_values_shared(generated.store, loaded, ingested)
        # sharing changes no byte: dump -> load -> dump is the identity
        dump_facts_dir(loaded, tmp_path / "again")
        for path in sorted((tmp_path / "facts").iterdir()):
            assert (tmp_path / "again" / path.name).read_bytes() == path.read_bytes()

    def test_facts_dir_round_trip(self, tmp_path):
        scenario = generate(ScenarioParams(seed=4, n_deposits=4, n_withdrawals=4))
        scenario.write_facts_dir(tmp_path)
        assert load_facts_dir(tmp_path) == scenario.store

    def test_timestamps_monotone_per_chain(self):
        scenario = generate(ScenarioParams(seed=12, n_deposits=20, n_withdrawals=20))
        per_chain: dict[int, list[tuple[int, int]]] = {}
        for tx in scenario.store.relation("transaction"):
            per_chain.setdefault(tx.chain_id, []).append((tx.block_number, tx.timestamp))
        for pairs in per_chain.values():
            pairs.sort()
            timestamps = [ts for _, ts in pairs]
            assert timestamps == sorted(timestamps)
            blocks = [b for b, _ in pairs]
            assert blocks == list(range(1, len(blocks) + 1))

    def test_ground_truth_json_is_deterministic(self, tmp_path):
        params = ScenarioParams(
            seed=66, n_deposits=3, n_withdrawals=3,
            anomalies=AnomalySpec(forged_release=1),
        )
        generate(params).write_ground_truth(tmp_path / "a.json")
        generate(params).write_ground_truth(tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        entries = json.loads((tmp_path / "a.json").read_text())
        assert entries[0]["expected_anomaly"] == "UnmatchedLocalWithdrawal"


# sha256 of the canonical report; a change here changes report bytes
PINNED_REPORTS = [
    (ScenarioParams(seed=11, n_deposits=60, n_withdrawals=60),
     "ab26dcbe01dd24ba259c26de0d816645b742af2e589b5929a9a296b2feac9e74"),
    (ScenarioParams(seed=12, n_deposits=60, n_withdrawals=60,
                    anomalies=AnomalySpec(forged_release=2, replayed_id=2, finality_break=2,
                                          direct_transfer=2, orphan_bridge_event=2)),
     "7d615fbaa31d64e8cad519a3249b5962fd814eeaedb58780890a9b240a60a76f"),
]


@pytest.mark.parametrize("params,digest", PINNED_REPORTS, ids=["clean", "all-attacks"])
def test_report_bytes_are_pinned(params, digest):
    store = generate(params).store
    report = analytics.report_to_json(analytics.build_report(store, eval_all(store)))
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == digest


# sha256 of write_receipts_jsonl for the same two scenarios
PINNED_RECEIPTS = [
    "a148b37a9f1536ca8ec1d9815f7c356826d3df7f3f450eca6b0d17458a49268a",
    "cb99c1fd7f75fcd55ecfb88183ca75f5d54461e8814e15fbf0a58a05be962454",
]


@pytest.mark.parametrize("params,digest",
                         [(p, d) for (p, _), d in zip(PINNED_REPORTS, PINNED_RECEIPTS)],
                         ids=["clean", "all-attacks"])
def test_receipt_bytes_are_pinned(tmp_path, params, digest):
    generate(params).write_receipts_jsonl(tmp_path / "receipts.jsonl")
    assert hashlib.sha256((tmp_path / "receipts.jsonl").read_bytes()).hexdigest() == digest


def _dir_digest(path) -> str:
    digest = hashlib.sha256()
    for file in sorted(path.iterdir()):
        digest.update(file.name.encode("utf-8") + b"\0" + file.read_bytes())
    return digest.hexdigest()


# sha256 of write_facts_dir (file names and bytes, in name order),
# write_config and write_ground_truth for the two pinned scenarios and one
# with uneven replay fan-outs
PINNED_OUTPUTS = [
    (PINNED_REPORTS[0][0],
     "680b92447983c0b9adf1fccbd6301abc01290c49470bb4674fc6de70dbe2ffc2",
     "d733c52774164faf494775fe5c9ee92a3281052e12e7efddc751d9ee14811161",
     "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    (PINNED_REPORTS[1][0],
     "4f6ddc91e61004211224ac63c1d2f0e1b2bcb8c8aaa0913e5dcc0f53451cb8ff",
     "753a3002cdacf50bd46d9de946b436757da188f33abb7ea1954397e0fbb44c89",
     "5b841cedc33908a8c3c874ee18db2d816457bfc4b252e848b2d71113d36f2415"),
    (ScenarioParams(seed=13, n_deposits=20, n_withdrawals=20,
                    anomalies=AnomalySpec(replayed_id=3, replay_fanouts=(2, 5, 9))),
     "15d9775278a3bb59cc88c38e0e67ec3bde591475f4d57feb5c514c16e380a54a",
     "c63089af5e16fd86f761efe2634e5f353c0a04bcb8c77f05263cbf3bb3e1f5e2",
     "5237a9b81487e6555ab016781fc2542025613c6b299a7ae424b15981027f008e"),
]


@pytest.mark.parametrize("params,facts,config,truth", PINNED_OUTPUTS,
                         ids=["clean", "all-attacks", "uneven-replays"])
def test_generator_outputs_are_pinned(tmp_path, params, facts, config, truth):
    generated = generate(params)
    generated.write_facts_dir(tmp_path / "facts")
    generated.write_config(tmp_path / "config.json")
    generated.write_ground_truth(tmp_path / "ground_truth.json")
    assert _dir_digest(tmp_path / "facts") == facts
    assert hashlib.sha256((tmp_path / "config.json").read_bytes()).hexdigest() == config
    assert hashlib.sha256((tmp_path / "ground_truth.json").read_bytes()).hexdigest() == truth
