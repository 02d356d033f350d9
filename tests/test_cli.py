"""Command-line surface: exit codes, flags, and pipe composition."""

from __future__ import annotations

import contextlib
import errno
import gc
import io
import json
import os
import re
import stat
import subprocess
import sys
import tempfile
import weakref
from collections import Counter
from datetime import timedelta
from itertools import cycle
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bridgewatch import analytics, cli, facts as facts_module, oracle
from bridgewatch.cli import (
    EXIT_ANOMALIES,
    EXIT_CLEAN,
    EXIT_INPUT_ERROR,
    main,
)
from bridgewatch.facts import load_facts_dir
from bridgewatch.ingest import ingest_jsonl, load_config
from bridgewatch.keccak import event_topic
from conftest import stop_writes


def run(*argv) -> int:
    return main(list(argv))


class TestSimulateEval:
    def test_clean_scenario_exits_zero(self, tmp_path, capsys):
        facts = tmp_path / "facts"
        assert run("simulate", "--seed", "1", "--deposits", "5", "--withdrawals", "5",
                   "--out", str(facts)) == EXIT_CLEAN
        report_path = tmp_path / "report.json"
        assert run("eval", "--facts", str(facts), "--out", str(report_path)) == EXIT_CLEAN
        report = json.loads(report_path.read_text())
        assert report["rule_counts"]["CCTX_ValidDeposit"] == 5
        assert report["rule_counts"]["CCTX_ValidWithdrawal"] == 5

    def test_forged_release_exits_one_with_two_anomalies(self, tmp_path):
        facts = tmp_path / "facts"
        assert run("simulate", "--seed", "2", "--deposits", "5", "--withdrawals", "5",
                   "--anomalies", "forged_release=2", "--out", str(facts)) == EXIT_CLEAN
        report_path = tmp_path / "report.json"
        assert run("eval", "--facts", str(facts), "--out", str(report_path)) == EXIT_ANOMALIES
        report = json.loads(report_path.read_text())
        assert report["anomaly_counts"] == {"UnmatchedLocalWithdrawal": 2}

    def test_missing_facts_dir_exits_two(self, tmp_path):
        assert run("eval", "--facts", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "r.json")) == EXIT_INPUT_ERROR

    def test_malformed_facts_file_exits_two(self, tmp_path, capsys):
        facts = tmp_path / "facts"
        facts.mkdir()
        (facts / "cctx_finality.facts").write_text("1\tabc\n")
        assert run("eval", "--facts", str(facts), "--out", str(tmp_path / "r.json")) == EXIT_INPUT_ERROR
        assert "cctx_finality.facts:1: finality_seconds:" in capsys.readouterr().err

    # a misnamed relation file once read as an empty relation: a clean report
    @pytest.mark.parametrize("command", ["eval", "check"])
    def test_facts_file_of_no_relation_exits_two(self, tmp_path, capsys, command):
        facts = tmp_path / "facts"
        run("simulate", "--seed", "1", "--deposits", "4", "--withdrawals", "4", "--out", str(facts))
        assert (facts / "ground_truth.json").exists()  # a file of another suffix is not read
        (facts / "transaction.facts").rename(facts / "transactions.facts")
        capsys.readouterr()
        argv = ["--out", str(tmp_path / "r.json")] * (command == "eval")
        assert run(command, "--facts", str(facts), *argv) == EXIT_INPUT_ERROR
        assert (f"{facts / 'transactions.facts'}: unknown relation 'transactions'"
                in capsys.readouterr().err)

    def test_non_utf8_facts_file_exits_two(self, tmp_path, capsys):
        facts = tmp_path / "facts"
        facts.mkdir()
        (facts / "cctx_finality.facts").write_bytes(b"1\t1800\n100\t4\xff5\n")
        assert run("eval", "--facts", str(facts), "--out", str(tmp_path / "r.json")) == EXIT_INPUT_ERROR
        assert "cctx_finality.facts:2: not UTF-8: invalid start byte" in capsys.readouterr().err

    # the first bad line in line order is named, whether its fault is a byte or a row
    def test_a_bad_row_before_a_bad_byte_is_named_first(self, tmp_path, capsys):
        facts = tmp_path / "facts"
        facts.mkdir()
        (facts / "cctx_finality.facts").write_bytes(b"1\t1800\n100\tabc\n5\t45\n7\t\xff\n")
        assert run("eval", "--facts", str(facts), "--out", str(tmp_path / "r.json")) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.endswith(
            "cctx_finality.facts:2: finality_seconds: cannot parse unsigned integer from 'abc'\n")

    def test_conflicting_finality_windows_exit_two(self, tmp_path, capsys):
        facts = tmp_path / "facts"
        run("simulate", "--seed", "1", "--deposits", "2", "--withdrawals", "2", "--out", str(facts))
        with open(facts / "cctx_finality.facts", "a", encoding="utf-8") as fh:
            fh.write("1\t1801\n")  # chain 1 has window 1800 on line 1
        capsys.readouterr()
        assert run("eval", "--facts", str(facts), "--out", str(tmp_path / "r.json")) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.endswith(
            "cctx_finality.facts:3: conflicting cctx_finality for chain 1: 1800 vs 1801\n")

    def test_bad_anomaly_spec_exits_two(self, tmp_path):
        assert run("simulate", "--seed", "1", "--deposits", "1", "--withdrawals", "1",
                   "--anomalies", "bogus=3", "--out", str(tmp_path / "x")) == EXIT_INPUT_ERROR

    # (flags over --seed 1 --deposits 1 --withdrawals 1, message): integers are
    # read as receipts read theirs, and each anomaly kind is given once
    @pytest.mark.parametrize("flags, message", [
        ({"--anomalies": "direct_transfer=1_0,direct_transfer=2, orphan_bridge_event=+1"},
         "error: direct_transfer: cannot parse unsigned integer from '1_0'"),
        ({"--anomalies": "direct_transfer=1,direct_transfer=2"},
         "error: anomaly kind 'direct_transfer' given twice"),
        ({"--anomalies": "orphan_bridge_event=+1"},
         "error: orphan_bridge_event: cannot parse unsigned integer from '+1'"),
        ({"--anomalies": "direct_transfer=\u0663"},  # ARABIC-INDIC DIGIT THREE
         "error: direct_transfer: cannot parse unsigned integer from '\u0663'"),
        ({"--deposits": "1_0"}, "error: --deposits: cannot parse unsigned integer from '1_0'"),
        ({"--withdrawals": " 1"}, "error: --withdrawals: cannot parse unsigned integer from ' 1'"),
        ({"--seed": "-1"}, "error: --seed: negative value -1"),
        ({"--replay-fanout": "\u0663"},
         "error: --replay-fanout: cannot parse unsigned integer from '\u0663'"),
        ({"--anomalies": "x" * 5000 + "=1"},
         f"error: unknown anomaly kind '{'x' * 37}...{'x' * 37}'"),  # the kind through shown()
        ({"--seed": str(2**64)}, "error: seed must fit in 64 bits"),
        ({"--deposits": "2", "--anomalies": "finality_break=3"},
         "error: finality_break count exceeds deposit count"),
    ])
    def test_non_canonical_simulate_input_exits_two(self, tmp_path, capsys, flags, message):
        flags = {"--seed": "1", "--deposits": "1", "--withdrawals": "1", **flags}
        argv = [arg for flag in flags.items() for arg in flag]
        assert run("simulate", *argv, "--out", str(tmp_path / "x")) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == message + "\n"

    def test_bad_flag_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run("simulate", "--seed", "1", "--out", str(tmp_path / "x"))
        assert excinfo.value.code == 2

    # a prefix of an option is refused, not read as the option
    @pytest.mark.parametrize("argv", [
        "simulate --seed 1 --deposit 4 --withdrawals 4 --out {tmp}/x",
        "eval --fact {tmp}/facts --out {tmp}/r.json",
    ], ids=["simulate-deposit", "eval-fact"])
    def test_abbreviated_flag_exits_two(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            run(*argv.format(tmp=tmp_path).split())
        assert excinfo.value.code == 2
        assert "error: the following arguments are required: --" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_stats_is_not_a_command(self, tmp_path):
        # the latency and value statistics are report["latency"] of eval --out
        with pytest.raises(SystemExit) as excinfo:
            run("stats", "--facts", str(tmp_path))
        assert excinfo.value.code == 2


class TestCheck:
    def test_store_above_the_reference_limit_exits_two(self, tmp_path, capsys):
        facts = tmp_path / "facts"
        assert run("simulate", "--seed", "4", "--deposits", "1000", "--withdrawals", "1000",
                   "--out", str(facts)) == EXIT_CLEAN
        capsys.readouterr()
        assert run("check", "--facts", str(facts)) == EXIT_INPUT_ERROR
        assert f"oracle limit is {oracle.MAX_FACTS}" in capsys.readouterr().err

    def test_check_passes_on_generated_facts(self, tmp_path, capsys):
        facts = tmp_path / "facts"
        run("simulate", "--seed", "3", "--deposits", "4", "--withdrawals", "4",
            "--anomalies", "replayed_id=1,finality_break=1", "--out", str(facts))
        assert run("check", "--facts", str(facts)) == EXIT_CLEAN
        out = capsys.readouterr()
        assert "matches" in out.err

    def test_engine_that_differs_from_the_oracle_exits_three(self, tmp_path, capsys,
                                                              monkeypatch):
        facts = tmp_path / "facts"
        run("simulate", "--seed", "3", "--deposits", "4", "--withdrawals", "4",
            "--out", str(facts))
        store = load_facts_dir(facts).seal()
        dropped = min(cli.eval_all(store).rule4)
        foreign = dropped._replace(id="999999")
        eval_all = cli.eval_all

        def skewed_eval_all(store):
            outputs = eval_all(store)
            return outputs._replace(rule4=outputs.rule4 - {dropped} | {foreign})

        monkeypatch.setattr(cli, "eval_all", skewed_eval_all)
        capsys.readouterr()
        assert run("check", "--facts", str(facts)) == cli.EXIT_INTERNAL
        out = capsys.readouterr()
        assert out.out.splitlines() == [f"CCTX_ValidDeposit: engine missing {dropped}",
                                        f"CCTX_ValidDeposit: engine extra {foreign}"]
        assert out.err == "2 differences between engine and reference evaluator\n"


class TestPipeComposition:
    def test_receipts_path_equals_facts_path(self, tmp_path):
        sim_facts = tmp_path / "direct"
        sim_receipts = tmp_path / "rcpt"
        args = ["--seed", "11", "--deposits", "6", "--withdrawals", "6",
                "--anomalies", "forged_release=1,replayed_id=1"]
        assert run("simulate", *args, "--out", str(sim_facts), "--emit", "facts") == 0
        assert run("simulate", *args, "--out", str(sim_receipts), "--emit", "receipts") == 0

        ingested = tmp_path / "ingested"
        assert run("ingest", "--receipts", str(sim_receipts / "receipts.jsonl"),
                   "--config", str(sim_receipts / "decoder_config.json"),
                   "--out", str(ingested)) == EXIT_CLEAN

        report_a = tmp_path / "a.json"
        report_b = tmp_path / "b.json"
        assert run("eval", "--facts", str(sim_facts), "--out", str(report_a)) == EXIT_ANOMALIES
        assert run("eval", "--facts", str(ingested), "--out", str(report_b)) == EXIT_ANOMALIES
        assert report_a.read_bytes() == report_b.read_bytes()

    def test_topic0_names_an_event_as_its_signature_does(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        run("simulate", "--seed", "1", "--deposits", "3", "--withdrawals", "3",
            "--anomalies", "forged_release=1,replayed_id=1", "--out", str(sim), "--emit", "receipts")
        config = json.loads((sim / "decoder_config.json").read_text())
        for entry in config["events"]:
            entry["topic0"] = event_topic(entry.pop("signature"))
        by_topic0 = tmp_path / "by_topic0.json"
        by_topic0.write_text(json.dumps(config))
        runs = []
        for config_path in (sim / "decoder_config.json", by_topic0):
            out_dir = tmp_path / config_path.stem
            capsys.readouterr()
            assert run("ingest", "--receipts", str(sim / "receipts.jsonl"),
                       "--config", str(config_path), "--out", str(out_dir)) == EXIT_CLEAN
            runs.append((capsys.readouterr().out,
                         {path.name: path.read_bytes() for path in out_dir.iterdir()}))
        assert runs[0] == runs[1]
        assert len(runs[0][1]) == 13

    def test_ingest_into_a_used_directory_keeps_no_old_relation(self, tmp_path):
        out_dir = tmp_path / "facts"
        for withdrawals in ("3", "0"):  # the second run has no withdrawal relations
            sim = tmp_path / f"sim{withdrawals}"
            run("simulate", "--seed", "9", "--deposits", "3", "--withdrawals", withdrawals,
                "--out", str(sim), "--emit", "receipts")
            assert run("ingest", "--receipts", str(sim / "receipts.jsonl"),
                       "--config", str(sim / "decoder_config.json"),
                       "--out", str(out_dir)) == EXIT_CLEAN
        store, _ = ingest_jsonl(sim / "receipts.jsonl", load_config(sim / "decoder_config.json"))
        assert store.count("tc_withdrawal") == 0
        assert load_facts_dir(out_dir) == store

    def test_native_deposit_with_its_bridge_log_at_log_index_zero_is_certified(self, tmp_path):
        """Native value moves before every log of its transaction, so a bridge
        log numbered 0, as receipts of real chains number their first log,
        pairs with the native escrow."""
        sim = tmp_path / "sim"
        run("simulate", "--seed", "1", "--deposits", "4", "--withdrawals", "0",
            "--out", str(sim), "--emit", "receipts")
        receipts_path = sim / "receipts.jsonl"
        receipts = [json.loads(line) for line in receipts_path.read_text().splitlines()]
        native = next(r for r in receipts if r["value"] != "0")
        for index, log in enumerate(native["logs"]):
            log["logIndex"] = index
        receipts_path.write_text("".join(json.dumps(r) + "\n" for r in receipts))
        facts, report_path = tmp_path / "facts", tmp_path / "report.json"
        assert run("ingest", "--receipts", str(receipts_path),
                   "--config", str(sim / "decoder_config.json"), "--out", str(facts)) == EXIT_CLEAN
        assert f"{native['txHash']}\t0\t" in (facts / "sc_token_deposited.facts").read_text()
        assert run("eval", "--facts", str(facts), "--out", str(report_path)) == EXIT_CLEAN
        report = json.loads(report_path.read_text())
        assert report["anomaly_counts"] == {}
        assert report["rule_counts"]["SC_ValidNativeTokenDeposit"] == 2
        assert run("check", "--facts", str(facts)) == EXIT_CLEAN

    def test_ingest_report_on_stdout(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        run("simulate", "--seed", "5", "--deposits", "2", "--withdrawals", "2",
            "--out", str(sim), "--emit", "receipts")
        out_dir = tmp_path / "facts"
        assert run("ingest", "--receipts", str(sim / "receipts.jsonl"),
                   "--config", str(sim / "decoder_config.json"),
                   "--out", str(out_dir)) == EXIT_CLEAN
        payload = json.loads(capsys.readouterr().out)
        assert payload["receipts"] == 8  # 2 txs per flow, 4 flows
        assert payload["warning_count"] == 0

    def test_ingest_warns_on_a_short_topic_and_drops_its_fact(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        run("simulate", "--seed", "7", "--deposits", "2", "--withdrawals", "2",
            "--out", str(sim), "--emit", "receipts")
        receipts_path = sim / "receipts.jsonl"
        receipts = [json.loads(line) for line in receipts_path.read_text().splitlines()]
        deposited = event_topic(DEPOSITED)
        receipt = next(r for r in receipts if any(g["topics"][0] == deposited for g in r["logs"]))
        log = next(g for g in receipt["logs"] if g["topics"][0] == deposited)
        log["topics"][1] = "0x01"  # deposit_id, without its zero padding
        receipts_path.write_text("".join(json.dumps(r) + "\n" for r in receipts))
        capsys.readouterr()
        out_dir = tmp_path / "facts"
        assert run("ingest", "--receipts", str(receipts_path),
                   "--config", str(sim / "decoder_config.json"),
                   "--out", str(out_dir)) == EXIT_CLEAN
        payload = json.loads(capsys.readouterr().out)
        assert payload["warning_count"] == 1
        assert payload["warnings"][0].endswith("deposit_id: topic 1 is not one 32-byte hex word")
        assert receipt["txHash"] not in (out_dir / "sc_token_deposited.facts").read_text()


DEPOSITED = "TokenDeposited(uint256,address,address,address,uint256,uint8,uint256)"


def deposit_fields(config):
    return config["events"][0]["fields"]  # TokenDeposited -> sc_token_deposited


def first_log(receipt):
    return receipt["logs"][0]


def name_first_event(config, **name):
    """Name the first event entry's event by ``name`` in place of its signature."""
    config["events"][0].pop("signature")
    config["events"][0].update(name)


# (file edited, edit, message): every one exits 2 naming the key, row or line
BAD_INGEST_INPUTS = [
    ("config", lambda c: deposit_fields(c).pop("amount"),
     "events[0]: field 'amount' has no plan"),
    ("config", lambda c: deposit_fields(c)["amount"].update(data=-1),
     "field 'amount': data index must be an integer >= 0, got -1"),
    ("config", lambda c: deposit_fields(c)["deposit_id"].update(topic=0),
     "field 'deposit_id': topic index must be an integer >= 1, got 0"),
    ("config", lambda c: deposit_fields(c)["amount"].update(type="uint8"),
     "field 'amount': unknown field type 'uint8'"),
    ("config", lambda c: deposit_fields(c)["standard"].pop("labels"),
     "field 'standard': enum needs 'labels'"),
    ("config", lambda c: deposit_fields(c)["amount"].update(topic=3),
     "field 'amount': needs exactly one of"),
    ("config", lambda c: deposit_fields(c).update(fee={"data": 5}),
     "field 'fee' is not a column of sc_token_deposited"),
    ("config", lambda c: c["chains"].update(x1=c["chains"].pop("1")),
     "chains: key 'x1' is not a positive integer chain id"),
    ("config", lambda c: c["token_mappings"][0].pop(), "token_mappings[0]: expected a list of 5 values"),
    ("config", lambda c: c["wrapped_native_tokens"][1].append("x"),
     "wrapped_native_tokens[1]: expected a list of 2 values"),
    ("receipts", lambda r: first_log(r).update(data=None),
     "receipts.jsonl:1: log data: expected a hex string, got None"),
    ("receipts", lambda r: first_log(r).update(topics=None),
     "receipts.jsonl:1: log topics: expected a list of hex strings, got None"),
    ("receipts", lambda r: r.update(logs="x"),
     "receipts.jsonl:1: logs: expected a list of log objects, got 'x'"),
    ("receipts", lambda r: r.update(status=7), "receipts.jsonl:1: status: expected 0 or 1, got 7"),
    # a chain drops the logs of a reverted transaction
    ("receipts", lambda r: r.update(status=0),
     "receipts.jsonl:1: status: a reverted transaction (status 0) has no logs, got 2"),
    ("config", lambda c: c["events"].append({**c["events"][0], "fields": {
        **deposit_fields(c), "amount": {"data": 3, "type": "uint"}}}),
     f"events[5]: repeats the topic0 {event_topic(DEPOSITED)} of events[0]"),
    ("config", lambda c: deposit_fields(c)["amount"].update(type="address"),
     "events[0]: field 'amount': type 'address' does not suit column kind Amount (use uint or id)"),
    ("receipts", lambda r: r.update(chainId=7777),
     "receipts.jsonl:1: receipt chain 7777 not in decoder config"),
    ("config", lambda c: deposit_fields(c).update(amount={"source": "log_address"}),
     "events[0]: field 'amount': source 'log_address' does not suit column kind Amount"),
    ("config", lambda c: deposit_fields(c)["standard"]["labels"].update({"0": 5}),
     "field 'standard': label 0: expected string, got int"),
    ("config", lambda c: deposit_fields(c)["standard"]["labels"].update({"1": "ER\tC20"}),
     "field 'standard': label 1: must not contain tab or newline"),
    # a lone surrogate, which JSON can escape and no UTF-8 file can hold
    ("config", lambda c: deposit_fields(c)["standard"]["labels"].update({"1": "\ud800"}),
     "field 'standard': label 1: cannot be written as UTF-8: '\\ud800'"),
    ("config", lambda c: c["token_mappings"][0].__setitem__(4, "\ud800"),
     "token_mappings[0]: standard: cannot be written as UTF-8: '\\ud800'"),
    ("config", lambda c: deposit_fields(c)["amount"].update(labels={"0": "ERC20"}),
     "field 'amount': key 'labels' does not apply to a data field of type 'uint'"),
    ("receipts", lambda r: r.update(blockNumber="-5"), "receipts.jsonl:1: blockNumber: negative value -5"),
    ("receipts", lambda r: r.update(gasUsed="1_000"),
     "receipts.jsonl:1: gasUsed: cannot parse unsigned integer from '1_000'"),
    ("receipts", lambda r: r.update(gasUsed=" +7 "),
     "receipts.jsonl:1: gasUsed: cannot parse unsigned integer from ' +7 '"),
    ("receipts", lambda r: r.update(gasUsed="0x_1f"),
     "receipts.jsonl:1: gasUsed: cannot parse unsigned integer from '0x_1f'"),
    ("receipts", lambda r: r.update(gasUsed="\u0663"),  # ARABIC-INDIC DIGIT THREE
     "receipts.jsonl:1: gasUsed: cannot parse unsigned integer from '\u0663'"),
    ("receipts", lambda r: r.pop("logs"), "receipts.jsonl:1: receipt missing field 'logs'"),
    ("receipts", lambda r: first_log(r).pop("data"), "receipts.jsonl:1: log entry missing field 'data'"),
    ("receipts text", lambda line: "{bad\n",
     "receipts.jsonl:1: not valid JSON: Expecting property name enclosed in double quotes"),
    ("config text", lambda text: "{bad",
     "decoder_config.json: not valid JSON: Expecting property name enclosed in double quotes"),
    # integers longer than any uint256, as JSON numbers, decimal text and hex text
    ("receipts text", lambda line: re.sub(r'"blockTimestamp": \d+', '"blockTimestamp": ' + "9" * 5000, line),
     "receipts.jsonl:1: blockTimestamp: out of uint256 range"),
    ("receipts", lambda r: r.update(blockTimestamp="9" * 5000),
     "receipts.jsonl:1: blockTimestamp: out of uint256 range"),
    ("receipts", lambda r: r.update(blockTimestamp="0x" + "f" * 5000),
     "receipts.jsonl:1: blockTimestamp: out of uint256 range"),
    ("config", lambda c: c["chains"].update({"9" * 5000: c["chains"].pop("1")}),
     "9" * 20 + "' is not a positive integer chain id"),
    ("config", lambda c: deposit_fields(c)["standard"]["labels"].update({"9" * 5000: "X"}),
     "field 'standard': labels: out of uint256 range"),
    ("config text", lambda text: text.replace('"finality_seconds": 1800', '"finality_seconds": ' + "9" * 5000),
     "decoder_config.json: chains.1.finality_seconds: out of uint256 range"),
    ("receipts text", lambda line: "[" * 100_000, "receipts.jsonl:1: JSON nested too deeply"),
    # a repeated key is refused, as json.loads alone would read its last value
    ("receipts text", lambda line: line.replace('"status": 1', '"status": 7, "status": 1', 1),
     "receipts.jsonl:1: duplicate key 'status'"),
    # an integer too long to convert is named by its key also when the key repeats
    ("receipts text", lambda line: line.replace('"gasUsed": ', f'"gasUsed": {"9" * 5000}, "gasUsed": '),
     "receipts.jsonl:1: gasUsed: out of uint256 range"),
    ("config text", lambda text: "[" * 100_000, "decoder_config.json: JSON nested too deeply"),
    # a byte-order mark is named, as json.loads names it
    ("receipts text", lambda line: "\ufeff" + line,
     "receipts.jsonl:1: not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    ("config text", lambda text: "\ufeff" + text,
     "decoder_config.json: not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    # keys a config does not read, and shapes it cannot read
    ("config", lambda c: [spec.update(bridge_address=spec.pop("bridge_addresses"))
                          for spec in c["chains"].values()],
     "chain 1: unknown key 'bridge_address' (expected role, finality_seconds, bridge_addresses)"),
    ("config", lambda c: c.update(token_mapping=c.pop("token_mappings")),
     "config: unknown key 'token_mapping'"),
    ("config", lambda c: c["events"][1].update(name="TokenReleased"), "events[1]: unknown key 'name'"),
    ("config", lambda c: c["chains"]["1"].update(bridge_addresses=5),
     "chain 1: bridge_addresses: expected a JSON list"),
    ("config", lambda c: c["chains"]["1"].update(bridge_addresses=None),
     "chain 1: bridge_addresses: expected a JSON list"),
    ("config", lambda c: c["chains"]["1"].update(bridge_addresses=c["chains"]["1"]["bridge_addresses"][0]),
     "chain 1: bridge_addresses: expected a JSON list"),
    ("config", lambda c: c["events"][0].update(signature="TokenD\u00e9posited(uint256)"),
     "events[0]: signature is not ASCII: 'TokenD\u00e9posited(uint256)'"),
    # an entry is named by its index, not by its signature, which may be long
    ("config", lambda c: c["events"][0].update(signature=f"X({'uint256,' * 1000}uint256)", fields={}),
     "events[0]: field 'amount' has no plan"),
    # an event is named by its topic0 or by its signature, never by both
    ("config", lambda c: c["events"][0].update(topic0=event_topic("Other(uint256)")),
     "events[0]: names its event by both 'topic0' and 'signature'"),
    ("config", lambda c: name_first_event(c, topic0=event_topic(DEPOSITED), signature=5),
     "events[0]: names its event by both 'topic0' and 'signature'"),
    ("config", lambda c: name_first_event(c, topic0="0x12"),
     "events[0]: topic0: not a canonical 32-byte hex hash: '0x12'"),
    ("config", name_first_event, "events[0]: event entry needs 'topic0' or 'signature'"),
    ("config", lambda c: c["events"][0].update(signature=5),
     "events[0]: signature must be a string, got 5"),
    # the Transfer topic has one decoder, erc20_transfer, whatever emits it
    ("config", lambda c: name_first_event(c, topic0=event_topic("Transfer(address,address,uint256)")),
     "events[0]: names the ERC-20 Transfer event, which is decoded from every emitter as erc20_transfer"),
    ("config text", lambda text: "[]", "error: config must be a JSON object"),
    ("config text", lambda text: text.replace('"100": {', '"1": {', 1),
     "decoder_config.json: duplicate key '1'"),
    ("config", lambda c: c["events"].__setitem__(0, 5), "events[0]: expected an object"),
    ("config", lambda c: c["chains"].update({"1": 5}), "chain 1: expected an object"),
    ("config", lambda c: c["chains"]["1"].update(role="middle"),
     "chain 1: role must be source|target"),
    ("config", lambda c: c["chains"]["1"].pop("finality_seconds"),
     "chain 1: finality_seconds: expected unsigned integer, got None"),
    ("config", lambda c: c["events"][0].update(fields=[]), "events[0]: 'fields' must be an object"),
    ("config", lambda c: deposit_fields(c).update(amount=5),
     "events[0]: field 'amount': expected an object"),
    ("config", lambda c: deposit_fields(c).update(amount={"source": "block"}),
     "events[0]: field 'amount': unknown source 'block'"),
    # a const must suit its column, and a const or source field reads no word to type
    ("config", lambda c: deposit_fields(c).update(standard={"const": 5}),
     "events[0]: field 'standard': const: expected string, got int"),
    ("config", lambda c: deposit_fields(c).update(standard={"const": "ERC20", "type": "enum"}),
     "events[0]: field 'standard': key 'type' does not apply to a const field"),
    ("config", lambda c: c["events"][4]["fields"]["bridge_addr"].update(type="address"),
     "events[4]: field 'bridge_addr': key 'type' does not apply to a source field"),
    ("receipts text", lambda line: "[]\n", "receipts.jsonl:1: expected a receipt object, got list"),
    ("receipts", lambda r: r["logs"].reverse(),
     "receipts.jsonl:1: logIndex values must be strictly increasing"),
]


# The longest stderr line of a BAD_INGEST_INPUTS row, without its directory:
# 139 characters (171 while config messages named an events entry by its
# signature), while the rows with 5000-digit input repeated it in full. The
# bad price tables are held to it too.
MAX_ERROR_CHARS = 200


@pytest.mark.parametrize("target, edit, message", BAD_INGEST_INPUTS)
def test_bad_ingest_input_exits_two(tmp_path, capsys, target, edit, message):
    sim = tmp_path / "sim"
    run("simulate", "--seed", "7", "--deposits", "2", "--withdrawals", "2",
        "--out", str(sim), "--emit", "receipts")
    config_path, receipts_path = sim / "decoder_config.json", sim / "receipts.jsonl"
    if target == "config":
        config = json.loads(config_path.read_text())
        edit(config)
        config_path.write_text(json.dumps(config))
    elif target == "config text":
        config_path.write_text(edit(config_path.read_text()))
    elif target == "receipts text":
        first, *rest = receipts_path.read_text().splitlines(keepends=True)
        receipts_path.write_text(edit(first) + "".join(rest))
    else:
        first, *rest = receipts_path.read_text().splitlines(keepends=True)
        receipt = json.loads(first)
        edit(receipt)
        receipts_path.write_text(json.dumps(receipt) + "\n" + "".join(rest))
    capsys.readouterr()
    assert run("ingest", "--receipts", str(receipts_path), "--config", str(config_path),
               "--out", str(tmp_path / "facts")) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert message in err
    # one line however long the bad input, which is shown cut (facts.shown)
    assert err.count("\n") == 1 and len(err.replace(str(tmp_path), "")) <= MAX_ERROR_CHARS


def _bad_byte_on_line(path: Path, line_no: int) -> None:
    """Put a byte that is not UTF-8 at the start of line ``line_no`` of ``path``."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[line_no - 1] = b"\xff" + lines[line_no - 1]
    path.write_bytes(b"".join(lines))


# (argument, edit of the file or directory it names, message): each exits 2
# naming the file, and for a file that is not UTF-8 also its first bad line
UNREADABLE_INGEST_INPUTS = [
    ("--receipts", lambda p: p.write_bytes(p.read_bytes().replace(b"\n", b"\n\xff", 1)),
     "receipts.jsonl:2: not UTF-8: invalid start byte"),
    ("--config", lambda p: p.write_bytes(b"\xff" + p.read_bytes()),
     "decoder_config.json:1: not UTF-8: invalid start byte"),
    ("--receipts", lambda p: (p.unlink(), p.mkdir()), "Is a directory: '{path}'"),
    ("--out", lambda p: p.write_text("x"), "File exists: '{path}'"),
    ("--config", lambda p: _bad_byte_on_line(p, 7),
     "decoder_config.json:7: not UTF-8: invalid start byte"),
]


@pytest.mark.parametrize("argument, edit, message", UNREADABLE_INGEST_INPUTS,
                         ids=["receipts-not-utf8", "config-not-utf8", "receipts-is-a-directory",
                              "out-is-a-file", "config-not-utf8-on-line-7"])
def test_unreadable_ingest_input_exits_two(tmp_path, capsys, argument, edit, message):
    sim = tmp_path / "sim"
    run("simulate", "--seed", "7", "--deposits", "2", "--withdrawals", "2",
        "--out", str(sim), "--emit", "receipts")
    paths = {"--receipts": sim / "receipts.jsonl", "--config": sim / "decoder_config.json",
             "--out": tmp_path / "facts"}
    edit(paths[argument])
    capsys.readouterr()
    argv = [arg for key, path in paths.items() for arg in (key, str(path))]
    assert run("ingest", *argv) == EXIT_INPUT_ERROR
    assert message.format(path=paths[argument]) in capsys.readouterr().err


# (command, input file, its edit, whether the command fails): each input
# file that a command reads is opened once, also when it is bad
READ_ONCE_CASES = {
    "eval-good": ("eval", None, None, False),
    "eval-bad-row": ("eval", "transaction.facts",
                     lambda p: p.write_bytes(p.read_bytes().replace(b"\n", b"\nnot a row\n", 1)), True),
    "eval-bad-byte": ("eval", "transaction.facts",
                      lambda p: p.write_bytes(p.read_bytes().replace(b"\t", b"\t\xff", 1)), True),
    "eval-bad-prices": ("eval", "prices.json", lambda p: p.write_text("[{bad"), True),
    "ingest-bad-receipts": ("ingest", "receipts.jsonl", lambda p: _bad_byte_on_line(p, 2), True),
    "ingest-bad-config": ("ingest", "decoder_config.json", lambda p: _bad_byte_on_line(p, 7), True),
}


@pytest.mark.parametrize("command, name, edit, fails", READ_ONCE_CASES.values(),
                         ids=READ_ONCE_CASES)
def test_each_input_file_is_opened_once(tmp_path, monkeypatch, command, name, edit, fails):
    sim = tmp_path / "sim"
    run("simulate", "--seed", "7", "--deposits", "2", "--withdrawals", "2",
        "--out", str(sim), "--emit", "facts" if command == "eval" else "receipts")
    (sim / "prices.json").write_text("[]")
    if edit is not None:
        edit(sim / name)
    if command == "eval":
        inputs = [sim / "prices.json", *sorted(sim.glob("*.facts"))]
        argv = ["--prices", str(sim / "prices.json"), "--facts", str(sim)]
    else:
        inputs = [sim / "decoder_config.json", sim / "receipts.jsonl"]
        argv = ["--config", str(inputs[0]), "--receipts", str(inputs[1])]
    if fails:  # the inputs read up to the bad one, in the order that they are read
        inputs = inputs[:inputs.index(sim / name) + 1]
    opened = Counter()

    def counting_open(file, mode="r", *args, **kwargs):
        if "r" in mode:
            opened[Path(file)] += 1
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(facts_module, "open", counting_open, raising=False)
    code = run(command, *argv, "--out", str(tmp_path / "out"))
    assert code == (EXIT_INPUT_ERROR if fails else EXIT_CLEAN)
    assert opened == dict.fromkeys(inputs, 1)


SRC = Path(__file__).resolve().parents[1] / "src"


# ingest is the one command that writes to stdout when it succeeds
@pytest.mark.parametrize("command", ["ingest"])
def test_closed_stdout_keeps_the_exit_code(tmp_path, command):
    sim, facts = tmp_path / "sim", tmp_path / "facts"
    run("simulate", "--seed", "9", "--deposits", "3", "--withdrawals", "3",
        "--out", str(sim), "--emit", "receipts")
    argv = [command, "--receipts", str(sim / "receipts.jsonl"),
            "--config", str(sim / "decoder_config.json"), "--out", str(facts)]
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout fails with EPIPE
    try:
        proc = subprocess.run([sys.executable, "-m", "bridgewatch.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_CLEAN, proc.stderr
    assert "error" not in proc.stderr.lower() and "Traceback" not in proc.stderr
    assert (facts / "transaction.facts").exists()


# A pipe is read once, so the bad line is named from that one read.
@pytest.mark.parametrize("command", ["ingest", "eval"])
def test_an_input_read_from_a_pipe_names_its_bad_line(tmp_path, command):
    sim = tmp_path / "sim"
    run("simulate", "--seed", "7", "--deposits", "2", "--withdrawals", "2",
        "--out", str(sim), "--emit", "receipts" if command == "ingest" else "facts")
    if command == "ingest":
        piped = (sim / "receipts.jsonl").read_bytes().replace(b"\n", b"\n\xff", 1)
        argv = ["--receipts", "/dev/stdin", "--config", str(sim / "decoder_config.json")]
    else:
        piped = b"[\n\xff]\n"
        argv = ["--facts", str(sim), "--prices", "/dev/stdin"]
    proc = subprocess.run([sys.executable, "-m", "bridgewatch.cli", command, *argv,
                           "--out", str(tmp_path / "out")], input=piped, capture_output=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == EXIT_INPUT_ERROR, proc.stderr
    assert b"error: /dev/stdin:2: not UTF-8: invalid start byte" in proc.stderr


class TestPrices:
    def test_eval_with_price_table(self, tmp_path):
        facts = tmp_path / "facts"
        run("simulate", "--seed", "6", "--deposits", "3", "--withdrawals", "0",
            "--out", str(facts))
        # price every deposited token at 2 usd per whole unit, 0 decimals
        tokens = set()
        for line in (facts / "sc_token_deposited.facts").read_text().splitlines():
            tokens.add(line.split("\t")[5])
        prices = [
            {"chain_id": 1, "token": token, "usd_per_unit": "2", "decimals": 0}
            for token in sorted(tokens)
        ]
        prices_path = tmp_path / "prices.json"
        prices_path.write_text(json.dumps(prices))
        report_path = tmp_path / "report.json"
        assert run("eval", "--facts", str(facts), "--out", str(report_path),
                   "--prices", str(prices_path)) == EXIT_CLEAN
        report = json.loads(report_path.read_text())
        deposits = report["latency"]["deposits"]
        assert deposits["total_usd"] == f"{int(deposits['total_value']) * 2}.00"

    @pytest.mark.parametrize("prices, message", [
        ([{"chain_id": 1, "token": "0x00"}], "entry 0: missing key 'usd_per_unit'"),
        ({"a": 1}, "expected a JSON list"),
        ([[1, "0x00", "2", 0]], "entry 0: expected an object"),
        ([{"chain_id": "1", "token": "0x" + "a" * 40, "usd_per_unit": "2", "decimals": 0}],
         "entry 0: chain_id: expected unsigned integer, got '1'"),
        ([{"chain_id": 1, "token": "0x" + "a" * 40, "usd_per_unit": "2", "decimals": 1.5}],
         "entry 0: decimals: expected unsigned integer, got 1.5"),
        ([{"chain_id": 1, "token": "0x00", "usd_per_unit": "2", "decimals": 0}], "entry 0: token:"),
        ([{"chain_id": 1, "token": "0x" + "a" * 40, "usd_per_unit": "two", "decimals": 0}],
         "entry 0: usd_per_unit: not a number: 'two'"),
        (b'[{"chain_id": 1, "token": "\xff"}]', "prices.json:1: not UTF-8: invalid start byte"),
        (b"{bad", "prices.json: not valid JSON: Expecting property name enclosed in double quotes"),
        pytest.param(b'[{"chain_id": 1, "token": "0x' + b"a" * 40 + b'", "usd_per_unit": "2", "decimals": '
                     + b"9" * 5000 + b"}]", "prices.json: [0].decimals: out of uint256 range",
                     id="decimals-of-5000-digits"),
        ([{"chain_id": 1, "token": "0x" + "a" * 40, "usd_per_unit": "2", "decimals": 256}],
         "entry 0: decimals: must be at most 255, got 256"),
        ([{"chain_id": 2**256, "token": "0x" + "a" * 40, "usd_per_unit": "2", "decimals": 0}],
         "entry 0: chain_id: out of uint256 range"),
        # Fraction("1e10000000") alone takes seconds: the exponent is refused first
        ([{"chain_id": 1, "token": "0x" + "a" * 40, "usd_per_unit": "1e10000000", "decimals": 0}],
         "entry 0: usd_per_unit: must be 0 or of magnitude 1e-78 to below 1e79, got '1e10000000'"),
        ([{"chain_id": 1, "token": "0x" + "a" * 40, "usd_per_unit": "1e-79", "decimals": 0}],
         "entry 0: usd_per_unit: must be 0 or of magnitude"),
        ([{"chain_id": 1, "token": "0x" + "a" * 40, "usd_per_unit": 1e79, "decimals": 0}],
         "entry 0: usd_per_unit: must be 0 or of magnitude"),
        ([{"chain_id": 1, "token": "0x" + "a" * 40, "usd_per_unit": "1" + "0" * 79 + "/1", "decimals": 0}],
         "entry 0: usd_per_unit: must be 0 or of magnitude"),
        ([{"chain_id": 1, "token": "0x" + "a" * 40, "usd_per_unit": True, "decimals": 0}],
         "entry 0: usd_per_unit: not a number: True"),
        # one price per (chain, token), whatever the case of the token's hex
        ([{"chain_id": 1, "token": "0x" + "a" * 40, "usd_per_unit": "2", "decimals": 0},
          {"chain_id": 100, "token": "0x" + "a" * 40, "usd_per_unit": "3", "decimals": 0},
          {"chain_id": 1, "token": "0x" + "A" * 40, "usd_per_unit": "5", "decimals": 0}],
         f"prices.json: entries 0 and 2 both price token 0x{'a' * 40} on chain 1"),
        (b'[{"chain_id": 1, "token": "0x' + b"a" * 40 + b'", "usd_per_unit": "2", "decimals": 0, '
         b'"usd_per_unit": "5"}]', "prices.json: duplicate key 'usd_per_unit'"),
        pytest.param([{"chain_id": 1, "token": "0x" + "a" * 40, "usd_per_unit": "2", "decimal": 18,
                       "decimals": 0, "note": "x"}],
                     "entry 0: unknown key 'decimal' (expected chain_id, token, usd_per_unit, "
                     "decimals)", id="unknown-keys"),
        # a long bad value is shown cut, as in every other input format (facts.shown)
        pytest.param([{"chain_id": 1, "token": "0x" + "a" * 40, "usd_per_unit": "9" * 5000,
                       "decimals": 0}], "entry 0: usd_per_unit: must be 0 or of magnitude",
                     id="usd-of-5000-digits"),
        pytest.param([{"chain_id": [1] * 3000, "token": "0x" + "a" * 40, "usd_per_unit": "2",
                       "decimals": 0}], "entry 0: chain_id: expected unsigned integer, got [1, 1",
                     id="chain-id-list-of-3000"),
        pytest.param([{"chain_id": 1, "token": "0x" + "a" * 40, "usd_per_unit": "2",
                       "decimals": "9" * 4000}], "entry 0: decimals: expected unsigned integer, got '99",
                     id="decimals-text-of-4000-digits"),
        pytest.param([{"chain_id": 1, "token": "0x" + "a" * 40, "usd_per_unit": [1] * 3000,
                       "decimals": 0}], "entry 0: usd_per_unit: not a number: [1, 1",
                     id="usd-list-of-3000"),
        pytest.param(b'[{"chain_id": -' + b"9" * 4000 + b', "token": "0x' + b"a" * 40
                     + b'", "usd_per_unit": "2", "decimals": 0}]',
                     "entry 0: chain_id: negative value -99", id="chain-id-of-minus-4000-digits"),
        # the key path of an integer too long to read is cut like a value
        pytest.param(b'[{"' + b"k" * 3000 + b'": ' + b"9" * 5000 + b"}]", "prices.json: [0].kkk",
                     id="too-long-integer-under-a-long-key"),
        pytest.param(b'[\n  {"chain_id": 1,\n   "token": "\xff"}\n]',
                     "prices.json:3: not UTF-8: invalid start byte", id="not-utf8-on-line-3"),
        # a price is read as written: as a float, 1e-400 is 0.0
        pytest.param(b'[{"chain_id": 1, "token": "0x' + b"a" * 40 + b'", "usd_per_unit": 1e-400, '
                     b'"decimals": 0}]', "entry 0: usd_per_unit: must be 0 or of magnitude 1e-78 to "
                     "below 1e79, got 1e-400", id="json-number-below-1e-78"),
        # a price per unit has no sign, whatever it is written as
        *(pytest.param([{"chain_id": 1, "token": "0x" + "a" * 40, "usd_per_unit": usd, "decimals": 0}],
                       f"entry 0: usd_per_unit: must have no minus sign, got {shown}",
                       id=f"usd-{type(usd).__name__}-{usd}")
          for usd, shown in [("-0.5", "'-0.5'"), (-0.5, "-0.5"), ("-1/3", "'-1/3'"),
                             ("-1e10000000", "'-1e10000000'")]),
        # only ASCII text in the price grammar, which Decimal and Fraction would widen
        *(pytest.param([{"chain_id": 1, "token": "0x" + "a" * 40, "usd_per_unit": usd, "decimals": 0}],
                       f"entry 0: usd_per_unit: not a number: {usd!r}", id=f"usd-{usd.strip()}")
          for usd in ["1_000", "\u0661\u0662", " 1.5 ", "+2", "2.", ".5", "1/0", "1/-3"]),
    ])
    def test_bad_price_table_exits_two(self, tmp_path, capsys, prices, message):
        facts = tmp_path / "facts"
        run("simulate", "--seed", "6", "--deposits", "1", "--withdrawals", "0",
            "--out", str(facts))
        prices_path = tmp_path / "prices.json"
        if isinstance(prices, bytes):
            prices_path.write_bytes(prices)
        else:
            prices_path.write_text(json.dumps(prices))
        capsys.readouterr()
        assert run("eval", "--facts", str(facts), "--out", str(tmp_path / "r.json"),
                   "--prices", str(prices_path)) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert message in err
        assert err.count("\n") == 1 and len(err.replace(str(tmp_path), "")) <= MAX_ERROR_CHARS

    def test_prices_within_the_bounds_are_accepted(self, tmp_path):
        facts = tmp_path / "facts"
        run("simulate", "--seed", "6", "--deposits", "1", "--withdrawals", "0",
            "--out", str(facts))
        prices = [{"chain_id": chain, "token": "0x" + "a" * 40, "usd_per_unit": usd, "decimals": decimals}
                  for chain, (usd, decimals) in enumerate(
                      [("1e-78", 0), ("9.99e78", 255), (0, 7), ("1/3", 18), (2.5, 6),
                       ("0e-400", 0), ("0E+10000000", 0), ("0/7", 0)], start=1)]
        prices_path = tmp_path / "prices.json"
        prices_path.write_text(json.dumps(prices))
        assert run("eval", "--facts", str(facts), "--out", str(tmp_path / "r.json"),
                   "--prices", str(prices_path)) == EXIT_CLEAN

    @pytest.mark.parametrize("command", ["eval"])
    def test_price_table_is_read_before_the_facts(self, tmp_path, capsys, command):
        facts = tmp_path / "facts"
        run("simulate", "--seed", "6", "--deposits", "1", "--withdrawals", "0",
            "--out", str(facts))
        (facts / "transaction.facts").write_text("not a row\n")
        prices_path = tmp_path / "prices.json"
        prices_path.write_text("{bad")
        capsys.readouterr()
        assert run(command, "--facts", str(facts), "--out", str(tmp_path / "r.json"),
                   "--prices", str(prices_path)) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "prices.json: not valid JSON" in err and "transaction.facts" not in err


class TestCollector:
    """Each command runs with the cyclic collector off and leaves it as it
    found it, whatever the exit code."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("anomalies, broken, expected", [
        ("", False, EXIT_CLEAN),
        ("forged_release=2", False, EXIT_ANOMALIES),
        ("", True, EXIT_INPUT_ERROR),
    ], ids=["exit-0", "exit-1", "exit-2"])
    def test_eval_runs_without_it_and_restores_it(self, tmp_path, monkeypatch, enabled,
                                                   anomalies, broken, expected):
        facts = tmp_path / "facts"
        run("simulate", "--seed", "2", "--deposits", "5", "--withdrawals", "5",
            "--anomalies", anomalies, "--out", str(facts))
        if broken:
            (facts / "transaction.facts").write_text("not a row\n")
        during = []
        eval_all = cli.eval_all
        monkeypatch.setattr(cli, "eval_all", lambda store: during.append(gc.isenabled())
                            or eval_all(store))
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            code = run("eval", "--facts", str(facts), "--out", str(tmp_path / "r.json"))
            after = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        assert code == expected
        assert after is enabled
        assert during == ([] if broken else [False])


# With the collector off, reference counting alone must free the store
# before the report renders, so that the render reuses the memory it held.
def test_eval_frees_the_store_before_it_renders(tmp_path, monkeypatch):
    facts = tmp_path / "facts"
    run("simulate", "--seed", "2", "--deposits", "5", "--withdrawals", "5",
        "--anomalies", "forged_release=2", "--out", str(facts))
    stores, freed = [], []
    load, render = cli.load_facts_dir, analytics.report_to_json

    def loading(path):
        store = load(path)
        stores.append(weakref.ref(store))
        return store

    def rendering(report):
        freed.append(stores[0]() is None)
        return render(report)

    monkeypatch.setattr(cli, "load_facts_dir", loading)
    monkeypatch.setattr(analytics, "report_to_json", rendering)
    assert run("eval", "--facts", str(facts), "--out", str(tmp_path / "r.json")) == EXIT_ANOMALIES
    assert freed == [True]


def test_eval_write_that_fails_part_way_keeps_the_old_report(tmp_path, monkeypatch, capsys):
    facts, report_path = tmp_path / "facts", tmp_path / "r.json"
    run("simulate", "--seed", "2", "--deposits", "5", "--withdrawals", "5",
        "--anomalies", "forged_release=2", "--out", str(facts))
    report_path.write_bytes(b"the old report\n")
    # the disk fills once the report's first 64 characters are written
    stop_writes(monkeypatch, lambda name: 64 if name.startswith("r.json") else None,
                OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)))
    assert run("eval", "--facts", str(facts), "--out", str(report_path)) == EXIT_INPUT_ERROR
    assert "No space left on device" in capsys.readouterr().err
    assert report_path.read_bytes() == b"the old report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["facts", "r.json"]
    monkeypatch.undo()
    # a link is written through, as a plain write would
    (tmp_path / "link.json").symlink_to(report_path)
    assert run("eval", "--facts", str(facts), "--out", str(tmp_path / "link.json")) == EXIT_ANOMALIES
    assert json.loads(report_path.read_text())["anomaly_counts"] == {"UnmatchedLocalWithdrawal": 2}
    assert (tmp_path / "link.json").is_symlink()


def test_eval_writes_through_an_out_it_must_not_replace(tmp_path):
    facts = tmp_path / "facts"
    run("simulate", "--seed", "2", "--deposits", "5", "--withdrawals", "5",
        "--anomalies", "forged_release=2", "--out", str(facts))
    counts = {"UnmatchedLocalWithdrawal": 2}
    # a FIFO stays a FIFO, and its reader gets the report (one pipe buffer)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run("eval", "--facts", str(facts), "--out", str(fifo)) == EXIT_ANOMALIES
        got = b"".join(iter(lambda: os.read(reader, 1 << 16), b""))
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert json.loads(got)["anomaly_counts"] == counts
    # /dev/stdout on a pipe
    proc = subprocess.run([sys.executable, "-m", "bridgewatch.cli", "eval", "--facts", str(facts),
                           "--out", "/dev/stdout"], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == EXIT_ANOMALIES, proc.stderr
    assert json.loads(proc.stdout)["anomaly_counts"] == counts
    # a file with another hard link keeps the link; a replaced file keeps its mode
    linked, other, single = tmp_path / "linked.json", tmp_path / "other.json", tmp_path / "s.json"
    linked.write_bytes(b"the old report\n")
    os.link(linked, other)
    single.write_bytes(b"the old report\n")
    single.chmod(0o640)
    for out in (linked, single):
        assert run("eval", "--facts", str(facts), "--out", str(out)) == EXIT_ANOMALIES
        assert json.loads(out.read_text())["anomaly_counts"] == counts
    assert os.path.samefile(linked, other) and other.stat().st_nlink == 2
    assert stat.S_IMODE(single.stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "facts", "fifo", "linked.json", "other.json", "s.json"]


def imported_by(tmp_path, command: str, modules: tuple[str, ...]) -> list[str]:
    """Those of ``modules`` that a new interpreter has imported once it has
    run ``command`` (``eval`` or ``ingest``) on a small simulated input."""
    sim = tmp_path / "sim"
    run("simulate", "--seed", "9", "--deposits", "3", "--withdrawals", "3",
        "--out", str(sim), "--emit", "receipts")
    ingest = ["ingest", "--receipts", str(sim / "receipts.jsonl"),
              "--config", str(sim / "decoder_config.json"), "--out", str(tmp_path / "facts")]
    if command == "eval":
        run(*ingest)
    argv = ingest if command == "ingest" else [
        "eval", "--facts", str(tmp_path / "facts"), "--out", str(tmp_path / "r.json")]
    script = ("import sys; from bridgewatch import cli; code = cli.main(sys.argv[2:]); "
              "print(*sorted(m for m in sys.argv[1].split(',') if m in sys.modules)); "
              "sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", script, ",".join(modules), *argv],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == EXIT_CLEAN, proc.stderr
    return proc.stdout.splitlines()[-1].split()


@pytest.mark.parametrize("command", ["eval", "ingest"])
def test_eval_and_ingest_import_neither_generator_nor_oracle(tmp_path, command):
    assert imported_by(tmp_path, command, ("bridgewatch.scenario", "bridgewatch.oracle")) == []


# dataclasses imports inspect, which imports ast, dis and tokenize: start-up
# that every command would pay for. No module of the program imports either.
@pytest.mark.parametrize("command", ["eval", "ingest"])
def test_eval_and_ingest_import_neither_dataclasses_nor_inspect(tmp_path, command):
    assert imported_by(tmp_path, command, ("dataclasses", "inspect")) == []


# Each command imports what it runs and nothing more.
@pytest.mark.parametrize("command, unused", [
    ("eval", ("bridgewatch.ingest", "bridgewatch.keccak", "csv")),
    ("ingest", ("bridgewatch.rules", "bridgewatch.analytics", "decimal", "fractions")),
], ids=["eval", "ingest"])
def test_command_imports_only_what_it_runs(tmp_path, command, unused):
    assert imported_by(tmp_path, command, unused) == []


def test_package_import_leaves_rules_unimported():
    script = "import sys, bridgewatch; print('bridgewatch.rules' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


# The mutation fuzz below edits one JSON path of the decoder config or of one
# receipt line; a value too long to write as JSON is written in its place.
HUGE = "9" * 5000


def json_paths(value, path=()):
    """The path, as a tuple of keys, of every value inside a JSON document."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield path + (key,)
        yield from json_paths(item, path + (key,))


def mutate(document, path, mutation):
    """``document`` as JSON text, with the value at ``path`` dropped,
    replaced, or, for a dictionary key, renamed."""
    *parents, key = path
    parent = document
    for step in parents:
        parent = parent[step]
    if mutation == "drop":
        del parent[key]
    elif mutation == "truncate":
        parent[key] = parent[key][:len(parent[key]) // 2]
    elif mutation in ("rename to huge", "rename to non-ASCII") and isinstance(parent, dict):
        parent[HUGE if mutation == "rename to huge" else "été"] = parent.pop(key)
    else:
        parent[key] = {"null": None, "list": [], "bool": True, "huge": "HUGE",
                       "non-ASCII": "été", "lone surrogate": "\ud800"}.get(mutation, "été")
    return json.dumps(document).replace('"HUGE"', HUGE)


# Where an input error is: a receipt line, or a key of the decoder config.
INPUT_LOCATION = re.compile(r"receipts\.jsonl:\d+: |\b(chains?|events?|token_mappings|wrapped_native_tokens)\b"
                            r"|config: unknown key")


@pytest.fixture(scope="module")
def simulated_receipts(tmp_path_factory):
    sim = tmp_path_factory.mktemp("sim")
    assert run("simulate", "--seed", "7", "--deposits", "2", "--withdrawals", "2",
               "--out", str(sim), "--emit", "receipts") == EXIT_CLEAN
    return ((sim / "decoder_config.json").read_text(),
            (sim / "receipts.jsonl").read_text().splitlines(keepends=True))


@settings(max_examples=100, deadline=timedelta(seconds=5),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_ingest_input_exits_at_most_two(simulated_receipts, data):
    """Each receipt line and config key an ingest can read, mutated: the
    command exits 0, 1 or 2, and an exit 2 names the line or the key."""
    config_text, receipt_lines = simulated_receipts
    line = data.draw(st.sampled_from([None, *range(len(receipt_lines))]), label="receipt line")
    document = json.loads(config_text if line is None else receipt_lines[line])
    path = data.draw(st.sampled_from(list(json_paths(document))), label="path")
    mutations = ["drop", "null", "list", "bool", "huge", "non-ASCII", "lone surrogate",
                 "rename to huge", "rename to non-ASCII"]
    mutation = data.draw(st.sampled_from(mutations + ["truncate"] * isinstance(
        eval_path(document, path), str)), label="mutation")
    text = mutate(document, path, mutation)
    with tempfile.TemporaryDirectory() as tmp:
        config_path, receipts_path = Path(tmp, "decoder_config.json"), Path(tmp, "receipts.jsonl")
        config_path.write_text(config_text if line is not None else text)
        receipts_path.write_text("".join(
            text + "\n" if i == line else receipt for i, receipt in enumerate(receipt_lines)))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run("ingest", "--receipts", str(receipts_path), "--config", str(config_path),
                       "--out", str(Path(tmp, "facts")))
    assert code in (EXIT_CLEAN, EXIT_ANOMALIES, EXIT_INPUT_ERROR), err.getvalue()
    if code == EXIT_INPUT_ERROR:
        assert INPUT_LOCATION.search(err.getvalue()), err.getvalue()


def eval_path(document, path):
    for key in path:
        document = document[key]
    return document


@pytest.fixture(scope="module")
def priced_facts(tmp_path_factory):
    """A small clean facts directory, and a price table for each token of
    its token mappings that it evaluates with (exit 0)."""
    facts = tmp_path_factory.mktemp("priced") / "facts"
    assert run("simulate", "--seed", "1", "--deposits", "2", "--withdrawals", "2",
               "--out", str(facts)) == EXIT_CLEAN
    priced = set()
    for row in (facts / "token_mapping.facts").read_text().splitlines():
        orig_chain, dst_chain, orig_token, dst_token, _ = row.split("\t")
        priced |= {(int(orig_chain), orig_token), (int(dst_chain), dst_token)}
    prices = [("2", 0), (2.5, 6), ("1/3", 18), (0, 255)]
    table = [{"chain_id": chain, "token": token, "usd_per_unit": usd, "decimals": decimals}
             for (chain, token), (usd, decimals) in zip(sorted(priced), cycle(prices))]
    prices_path, report_path = facts.parent / "prices.json", facts.parent / "r.json"
    prices_path.write_text(json.dumps(table))
    assert run("eval", "--facts", str(facts), "--out", str(report_path),
               "--prices", str(prices_path)) == EXIT_CLEAN
    assert json.loads(report_path.read_text())["latency"]["deposits"]["total_usd"] != "0.00"
    return facts, table


# Values the price fuzz below puts into a table: long ones half the time.
# "HUGE" is written as an integer of 5000 digits, too long to read, and
# "-LONG" as one of -4000 digits.
JSON_VALUES = st.one_of(
    st.sampled_from(["HUGE", "-LONG", "9" * 5000, "1e99999999", "x" * 3000, [1] * 3000]),
    st.recursive(
        st.none() | st.booleans() | st.integers(-2**260, 2**260) | st.floats() | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                    max_size=3),
        max_leaves=4))


@settings(max_examples=100, deadline=timedelta(seconds=5),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_price_table_exits_at_most_two(priced_facts, data):
    """A valid price table with one entry's key dropped, added or given
    another JSON value, a pair repeated in another hex case, or a top level
    that is not a list: eval exits 0, 1 or 2, and an exit 2 is one line of
    at most MAX_ERROR_CHARS that names the price table."""
    facts, table = priced_facts
    table = json.loads(json.dumps(table))
    i = data.draw(st.integers(0, len(table) - 1), label="entry")
    mutation = data.draw(st.sampled_from(["drop", "add", "value", "repeat", "top level"]),
                         label="mutation")
    if mutation == "drop":
        del table[i][data.draw(st.sampled_from(sorted(table[i])), label="key")]
    elif mutation in ("add", "value"):
        keys = (st.text(max_size=6) | st.just("k" * 3000) if mutation == "add"
                else st.sampled_from(sorted(table[i])))
        table[i][data.draw(keys, label="key")] = data.draw(JSON_VALUES, label="value")
    elif mutation == "repeat":
        table.append({**table[i], "token": "0x" + table[i]["token"][2:].upper(),
                      "usd_per_unit": "5"})
    else:
        table = data.draw(JSON_VALUES.filter(lambda value: not isinstance(value, list)),
                          label="top level")
    text = json.dumps(table).replace('"HUGE"', HUGE).replace('"-LONG"', "-" + "9" * 4000)
    with tempfile.TemporaryDirectory() as tmp:
        prices_path = Path(tmp, "prices.json")
        prices_path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run("eval", "--facts", str(facts), "--out", str(Path(tmp, "r.json")),
                       "--prices", str(prices_path))
    assert code in (EXIT_CLEAN, EXIT_ANOMALIES, EXIT_INPUT_ERROR), err.getvalue()
    if code == EXIT_INPUT_ERROR:
        message = err.getvalue().replace(tmp, "")
        assert message.startswith("error: /prices.json: "), message
        assert message.count("\n") == 1 and len(message) <= MAX_ERROR_CHARS, message
