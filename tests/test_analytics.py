"""Anomaly taxonomy, accounting identity, and latency statistics."""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bridgewatch import analytics, facts as f, oracle, rules
from conftest import (
    AA, B1, B2, CC, H1, H2, H3, H4, RELAYER, S_CHAIN, T_CHAIN, U1, U2,
    addr, build_store, f1_facts, f2_facts, replace, static_facts, txh,
)
from bridgewatch.scenario import ANOMALY_KINDS, AnomalySpec, ScenarioParams, generate
from randstores import random_store


def outputs_for(store):
    return rules.eval_all(store)


def test_a_store_reads_the_same_before_seal_and_after():
    # the first read of an index builds them all, as seal() does
    store, sealed = random_store(3), random_store(3).seal()
    assert "by_tx" not in vars(store)
    expected = rules.eval_all(sealed)
    assert {i: oracle.brute_force(i, store) for i in range(1, 9)} == expected.by_rule()
    outputs = rules.eval_all(store)
    assert outputs == expected and any(outputs)
    assert analytics.build_report(store, outputs) == analytics.build_report(sealed, expected)


class TestLocalMismatches:
    def test_transfer_into_bridge_without_bridge_event(self):
        extra = [
            f.TransactionFact(100, S_CHAIN, txh("aa"), 1, U1, AA, "0", 1, 21_000),
            f.Erc20TransferFact(txh("aa"), S_CHAIN, 1, AA, U1, B1, "5"),
        ]
        store = build_store(static_facts(), extra)
        anomalies = analytics.local_mismatches(store)
        assert len(anomalies) == 1
        assert anomalies[0].kind == "SingleTokenEvent"
        assert anomalies[0].amount == "5"

    def test_bridge_event_without_transfer(self):
        extra = [
            f.TransactionFact(100, S_CHAIN, txh("ab"), 1, U1, B1, "0", 1, 21_000),
            f.ScTokenDepositedFact(txh("ab"), 1, "77", U2, CC, AA, T_CHAIN, "ERC20", "4"),
        ]
        store = build_store(static_facts(), extra)
        anomalies = analytics.local_mismatches(store)
        assert len(anomalies) == 1
        assert anomalies[0].kind == "SingleBridgeEvent"

    def test_fully_matched_transaction_is_clean(self, f1_store):
        assert analytics.local_mismatches(f1_store) == []

    def test_bridge_event_without_any_transaction_fact_has_unknown_chain(self):
        # bridge facts carry no chain id, and there is no transaction fact
        store = build_store(static_facts(), [
            f.ScTokenDepositedFact(txh("ad"), 1, "78", U2, CC, AA, T_CHAIN, "ERC20", "4"),
        ])
        anomalies = analytics.local_mismatches(store)
        assert [a.kind for a in anomalies] == ["SingleBridgeEvent"]
        assert anomalies[0].as_dict()["chain_ids"] == []

    def test_transfer_without_any_transaction_fact_has_its_own_chain(self):
        # without a transaction fact, the chain is the one the transfer names
        transfer = f.Erc20TransferFact(txh("ae"), T_CHAIN, 1, AA, U1, B2, "6")
        anomalies = analytics.local_mismatches(build_store(static_facts(), [transfer]))
        assert [a.kind for a in anomalies] == ["SingleTokenEvent"]
        assert anomalies[0].as_dict()["chain_ids"] == [T_CHAIN]

    def test_transfer_out_of_bridge_counts_as_touching(self):
        extra = [
            f.TransactionFact(100, S_CHAIN, txh("ac"), 1, U1, B1, "0", 1, 21_000),
            f.Erc20TransferFact(txh("ac"), S_CHAIN, 1, AA, B1, U1, "9"),
        ]
        store = build_store(static_facts(), extra)
        anomalies = analytics.local_mismatches(store)
        assert [a.kind for a in anomalies] == ["SingleTokenEvent"]


# The two sides of a transaction that local_mismatches pairs: its token or
# native movements, and its bridge events.
_MOVEMENTS = ("erc20_transfer", "sc_deposit", "tc_withdrawal", "sc_withdrawal")
_BRIDGE_EVENTS = ("sc_token_deposited", "tc_token_deposited", "tc_token_withdrew",
                  "sc_token_withdrew")


def naive_local_mismatches(store: f.FactStore) -> list[dict]:
    """``analytics.local_mismatches``'s docstring, transcribed with nested
    loops over the relations and no index: per tx hash, the movements that
    touch a bridge-controlled address (a transfer into or out of one; every
    native escrow or release) and the bridge events. One side without the
    other is one anomaly, of the side's kind, its amount the sum of the
    side's amounts and its chain the least of the transactions' chains,
    else of the side's own."""
    bridge = [(fact.chain_id, fact.address) for fact in store.relation("bridge_controlled_address")]

    def touches(name, fact) -> bool:
        return name != "erc20_transfer" or any(
            chain == fact.chain_id and address in (fact.to_address, fact.from_address)
            for chain, address in bridge)

    hashes = {fact.tx_hash for name in _MOVEMENTS + _BRIDGE_EVENTS for fact in store.relation(name)}
    out = []
    for tx_hash in hashes:
        sides = [[fact for name in names for fact in store.relation(name)
                  if fact.tx_hash == tx_hash and touches(name, fact)]
                 for names in (_MOVEMENTS, _BRIDGE_EVENTS)]
        for (kind, severity), found, other in ((("SingleTokenEvent", "low"), *sides),
                                               (("SingleBridgeEvent", "medium"), *sides[::-1])):
            if found and not other:
                chains = [tx.chain_id for tx in store.relation("transaction")
                          if tx.tx_hash == tx_hash]
                chains = chains or [fact.chain_id for fact in found if hasattr(fact, "chain_id")]
                out.append({"kind": kind, "severity": severity,
                            "chain_ids": [min(chains)] if chains else [], "tx_hashes": [tx_hash],
                            "amount": str(sum(int(x.amount) for x in found)),
                            "evidence": {"event_count": str(len(found))}})
    return sorted(out, key=lambda a: (a["kind"], a["chain_ids"], a["tx_hashes"]))


def _attack_store(kind: str, count: int) -> f.FactStore:
    return generate(ScenarioParams(seed=1000 + count, n_deposits=25, n_withdrawals=25,
                                   anomalies=AnomalySpec(**{kind: count}))).store


def test_local_mismatches_equal_a_naive_reference():
    stores = [random_store(seed * 6_113 + 29) for seed in range(20)]
    stores += [_attack_store(kind, count) for kind in ANOMALY_KINDS for count in (1, 7, 23)]
    kinds = set()
    for store in stores:
        expected = naive_local_mismatches(store)
        assert [a.as_dict() for a in analytics.local_mismatches(store)] == expected
        kinds.update(a["kind"] for a in expected)
    assert kinds == {"SingleTokenEvent", "SingleBridgeEvent"}


class TestUnmatchedLocal:
    def test_deposit_without_target_side(self):
        store = build_store(static_facts(), f1_facts()[:3])  # S side only
        anomalies = analytics.unmatched_local(outputs_for(store))
        assert len(anomalies) == 1
        anomaly = anomalies[0]
        assert anomaly.kind == "UnmatchedLocalDeposit"
        assert dict(anomaly.evidence)["side"] == "escrow"
        assert anomaly.tx_hashes == (H1,)

    def test_forged_release_is_release_side_critical(self):
        # release-side facts with no escrow anywhere: the dangerous direction
        release = [
            f.TransactionFact(100, S_CHAIN, txh("d1"), 1, U1, B1, "0", 1, 21_000),
            f.Erc20TransferFact(txh("d1"), S_CHAIN, 1, AA, B1, U1, "5"),
            f.ScTokenWithdrewFact(txh("d1"), 2, "55", U1, AA, "5"),
        ]
        store = build_store(static_facts(), release)
        anomalies = analytics.unmatched_local(outputs_for(store))
        assert len(anomalies) == 1
        anomaly = anomalies[0]
        assert anomaly.kind == "UnmatchedLocalWithdrawal"
        assert dict(anomaly.evidence)["side"] == "release"
        assert anomaly.severity == "critical"

    def test_complete_scenario_is_clean(self, full_store):
        assert analytics.unmatched_local(outputs_for(full_store)) == []

    def test_accounting_identity(self):
        store = random_store(808)
        outputs = outputs_for(store)
        accounting = analytics.match_accounting(outputs)
        for rule_id, (matched, unmatched) in accounting.items():
            assert matched + unmatched == len(outputs.by_rule()[rule_id])


class TestFinalityViolations:
    def violation_store(self, release_ts, window=1800):
        def mutate(fact):
            if isinstance(fact, f.TransactionFact) and fact.tx_hash == H2:
                return replace(fact, timestamp=release_ts)
            if isinstance(fact, f.CctxFinalityFact) and fact.chain_id == S_CHAIN:
                return replace(fact, finality_seconds=window)
            return fact

        all_facts = [mutate(x) for x in static_facts() + f1_facts()]
        return build_store(all_facts)

    def test_gap_87_against_window_1800(self):
        store = self.violation_store(release_ts=1087)
        violations = analytics.finality_violations(outputs_for(store))
        assert len(violations) == 1
        evidence = dict(violations[0].evidence)
        assert evidence["gap"] == "87"
        assert evidence["window"] == "1800"

    def test_gap_66_against_window_78(self):
        store = self.violation_store(release_ts=1066, window=78)
        violations = analytics.finality_violations(outputs_for(store))
        assert len(violations) == 1
        evidence = dict(violations[0].evidence)
        assert evidence["gap"] == "66"
        assert evidence["window"] == "78"

    def test_withdrawal_gap_11_against_window_45(self):
        def mutate(fact):
            if isinstance(fact, f.TransactionFact) and fact.tx_hash == H4:
                return replace(fact, timestamp=5011)
            return fact

        all_facts = [mutate(x) for x in static_facts() + f2_facts()]
        store = build_store(all_facts)
        violations = analytics.finality_violations(outputs_for(store))
        assert len(violations) == 1
        evidence = dict(violations[0].evidence)
        assert evidence["gap"] == "11" and evidence["window"] == "45"
        assert violations[0].kind == "FinalityViolation"

    def test_compliant_scenario_is_clean(self, full_store):
        assert analytics.finality_violations(outputs_for(full_store)) == []

    def test_shifting_origin_earlier_by_window_minus_gap_plus_one_validates(self):
        # escrow at 10000, release at 10087: gap 87 within window 1800
        def mutate(fact):
            if isinstance(fact, f.TransactionFact) and fact.tx_hash == H1:
                return replace(fact, timestamp=10_000)
            if isinstance(fact, f.TransactionFact) and fact.tx_hash == H2:
                return replace(fact, timestamp=10_087)
            return fact

        all_facts = [mutate(x) for x in static_facts() + f1_facts()]
        store = build_store(all_facts)
        outputs = outputs_for(store)
        assert outputs.rule4 == frozenset()
        violations = analytics.finality_violations(outputs)
        assert len(violations) == 1
        gap = int(dict(violations[0].evidence)["gap"])
        window = int(dict(violations[0].evidence)["window"])
        shift = window - gap + 1

        def shift_mutate(fact):
            if isinstance(fact, f.TransactionFact) and fact.tx_hash == H1:
                return replace(fact, timestamp=10_000 - shift)
            if isinstance(fact, f.TransactionFact) and fact.tx_hash == H2:
                return replace(fact, timestamp=10_087)
            return fact

        shifted = build_store([shift_mutate(x) for x in static_facts() + f1_facts()])
        shifted_outputs = outputs_for(shifted)
        assert len(shifted_outputs.rule4) == 1
        assert analytics.finality_violations(shifted_outputs) == []

    def test_escrow_certified_by_rules_1_and_2_is_one_violation(self):
        # a zero-amount deposit with both a native escrow and a token
        # transfer into the bridge: rules 1 and 2 derive the same tuple
        store = build_store(static_facts(), [
            f.TransactionFact(1000, S_CHAIN, H1, 10, U1, B1, "0", 1, 21_000),
            f.ScDepositFact(H1, 0, U1, B1, "0"),
            f.Erc20TransferFact(H1, S_CHAIN, 1, AA, U1, B1, "0"),
            f.ScTokenDepositedFact(H1, 2, "7", U2, CC, AA, T_CHAIN, "ERC20", "0"),
            f.TransactionFact(1087, T_CHAIN, H2, 20, RELAYER, B2, "0", 1, 60_000),
            f.Erc20TransferFact(H2, T_CHAIN, 0, CC, B2, U2, "0"),
            f.TcTokenDepositedFact(H2, 1, "7", U2, CC, "0"),
        ])
        outputs = outputs_for(store)
        assert len(outputs.rule1) == 1 and outputs.rule1 == outputs.rule2
        report = analytics.build_report(store, outputs)
        assert report["anomaly_counts"] == {"FinalityViolation": 1}


class TestDuplicateIds:
    def release_facts(self, tag, withdrawal_id, amount="5"):
        h = txh(tag)
        return [
            f.TransactionFact(100, S_CHAIN, h, 1, U1, B1, "0", 1, 21_000),
            f.Erc20TransferFact(h, S_CHAIN, 1, AA, B1, U1, amount),
            f.ScTokenWithdrewFact(h, 2, withdrawal_id, U1, AA, amount),
        ]

    def test_two_releases_one_id(self):
        store = build_store(
            static_facts(), self.release_facts("e1", "3"), self.release_facts("e2", "3")
        )
        anomalies = analytics.duplicate_ids(store, outputs_for(store))
        assert len(anomalies) == 1
        assert anomalies[0].kind == "DuplicateId"
        assert dict(anomalies[0].evidence)["count"] == "2"

    def test_unique_ids_are_clean(self):
        store = build_store(
            static_facts(), self.release_facts("e1", "3"), self.release_facts("e2", "4")
        )
        assert analytics.duplicate_ids(store, outputs_for(store)) == []

    def test_occurrence_sum_equals_nonunique_tuples(self):
        groups = [("a1", "3"), ("a2", "3"), ("a3", "3"), ("b1", "9"), ("b2", "9"), ("c1", "4")]
        store = build_store(
            static_facts(), *[self.release_facts(tag, wid) for tag, wid in groups]
        )
        anomalies = analytics.duplicate_ids(store, outputs_for(store))
        total = sum(int(dict(a.evidence)["count"]) for a in anomalies)
        nonunique = 5  # three with id 3, two with id 9
        assert total == nonunique

    def test_ambiguous_match_for_multi_derivation_cctx(self):
        # one escrow on T joined by two releases on S under the same id
        escrow = f2_facts()
        extra_release = [
            f.TransactionFact(5100, S_CHAIN, txh("f9"), 41, U1, B1, "0", 1, 21_000),
            f.ScWithdrawalFact(txh("f9"), 0, B1, U1, "5"),
            f.ScTokenWithdrewFact(txh("f9"), 1, "9", U1, AA, "5"),
        ]
        store = build_store(static_facts(), escrow, extra_release)
        outputs = outputs_for(store)
        assert len(outputs.rule8) == 2
        anomalies = analytics.duplicate_ids(store, outputs)
        kinds = sorted(a.kind for a in anomalies)
        assert kinds == ["AmbiguousMatch", "DuplicateId"]


def hub_store(extra_facts=()) -> f.FactStore:
    """Two clean routes of 40 deposits and 40 withdrawals from chain 1, each
    numbering its ids from 1: seed 1's to chain 100, and seed 2's with
    chain 100 renamed 200, and ``extra_facts``."""
    first, second = (generate(ScenarioParams(seed=seed, n_deposits=40, n_withdrawals=40)).store
                     for seed in (1, 2))
    renamed = [replace(fact, **{name: 200 for name, kind in fact.COLUMNS
                                if kind.name == "ChainId" and getattr(fact, name) == T_CHAIN})
               for fact in second]
    return build_store(first, renamed, extra_facts)


class TestRouteScopedIds:
    def test_two_routes_from_one_chain_share_no_deposit_id(self):
        store = hub_store()
        report = analytics.build_report(store, outputs_for(store))
        assert report["rule_counts"]["CCTX_ValidDeposit"] == 80
        assert report["rule_counts"]["CCTX_ValidWithdrawal"] == 80
        # the release-side ids are still grouped by id alone
        assert report["anomaly_counts"] == {"DuplicateId": 40}
        assert {a["evidence"]["relation"] for a in report["anomalies"]["DuplicateId"]} == {
            "sc_token_withdrew"}

    def test_a_replayed_id_inside_one_route_is_flagged(self):
        route = generate(ScenarioParams(seed=1, n_deposits=40, n_withdrawals=40)).store
        escrow_tx = next(e.tx_hash for e in route.relation("sc_token_deposited")
                         if e.deposit_id == "5")
        replay = [replace(fact, tx_hash=txh("feed")) for fact in route
                  if getattr(fact, "tx_hash", None) == escrow_tx]
        store = hub_store(replay)
        anomalies = analytics.duplicate_ids(store, outputs_for(store))
        deposit_side = [a for a in anomalies
                        if dict(a.evidence).get("relation") == "sc_token_deposited"]
        assert [(a.chain_ids, dict(a.evidence)) for a in deposit_side] == [
            ((S_CHAIN,), {"count": "2", "deposit_id": "5", "relation": "sc_token_deposited"})]
        ambiguous = [a for a in anomalies if a.kind == "AmbiguousMatch"]
        assert [(a.chain_ids, dict(a.evidence)) for a in ambiguous] == [
            ((S_CHAIN, T_CHAIN), {"deposit_id": "5", "derivations": "2"})]

    def test_an_event_on_no_declared_route_keeps_its_id_in_one_group(self):
        route = generate(ScenarioParams(seed=1, n_deposits=40, n_withdrawals=40)).store
        event = next(e for e in route.relation("sc_token_deposited") if e.deposit_id == "5")
        # a target chain that no token mapping declares; a transaction with no fact
        for stray in ([replace(event, event_index=event.event_index + 1, dst_chain_id=999),
                       f.CctxFinalityFact(999, 1800)],
                      [replace(event, tx_hash=txh("feed"))]):
            store = hub_store(stray)
            anomalies = analytics.duplicate_ids(store, outputs_for(store))
            assert [dict(a.evidence) for a in anomalies
                    if dict(a.evidence).get("relation") == "sc_token_deposited"] == [
                {"count": "3", "deposit_id": "5", "relation": "sc_token_deposited"}]


class TestLatencyStats:
    def cctx(self, orig_ts, dst_ts, amount="10", token=AA):
        return rules.CctxValidDeposit(
            S_CHAIN, orig_ts, H1, T_CHAIN, dst_ts, H2, "1", token, CC, U1, U2, amount
        )

    def test_reference_latencies(self):
        stats = analytics.latency_stats(
            [self.cctx(0, 100), self.cctx(10, 210), self.cctx(40, 640)]
        )
        assert stats.count == 3
        assert stats.min == 100
        assert stats.max == 600
        assert stats.avg == "300.00"
        assert stats.median == 200
        # population standard deviation of {100, 200, 600}
        expected_std = math.sqrt(((100 - 300) ** 2 + (200 - 300) ** 2 + (600 - 300) ** 2) / 3)
        assert stats.std == f"{expected_std:.2f}"

    def test_single_element(self):
        stats = analytics.latency_stats([self.cctx(0, 45)])
        assert (stats.min, stats.max, stats.median) == (45, 45, 45)
        assert stats.avg == "45.00"
        assert stats.std == "0.00"

    def test_empty_set(self):
        stats = analytics.latency_stats([])
        assert stats.count == 0
        assert stats.min is None and stats.avg is None

    def test_even_count_median_is_lower_middle(self):
        stats = analytics.latency_stats(
            [self.cctx(0, 100), self.cctx(0, 200), self.cctx(0, 300), self.cctx(0, 400)]
        )
        assert stats.median == 200

    def test_total_value_and_usd(self):
        prices = {(S_CHAIN, AA): ("2.5", 1)}
        stats = analytics.latency_stats(
            [self.cctx(0, 100, amount="10"), self.cctx(0, 200, amount="30")],
            prices=prices,
        )
        assert stats.total_value == "40"
        assert stats.total_usd == "10.00"  # (10+30)/10^1 * 2.5

    def test_a_json_number_price_is_read_as_written(self, tmp_path):
        # as a float, 1.0000000000000000001 is 1.0, and the total loses 10 usd
        path = tmp_path / "prices.json"
        path.write_text(f'[{{"chain_id": {S_CHAIN}, "token": "{AA}", '
                        f'"usd_per_unit": 1.0000000000000000001, "decimals": 0}}]')
        stats = analytics.latency_stats([self.cctx(0, 100, amount=str(10**20))],
                                        prices=analytics.load_prices(str(path)))
        assert stats.total_usd == "100000000000000000010.00"

    def test_a_zero_price_of_any_exponent_prices_at_once(self, tmp_path):
        # Fraction("0e-10000000") alone takes seconds: a zero is kept as "0"
        path = tmp_path / "prices.json"
        path.write_text(f'[{{"chain_id": {S_CHAIN}, "token": "{AA}", "usd_per_unit": 0e-10000000, '
                        f'"decimals": 0}}, {{"chain_id": {T_CHAIN}, "token": "{CC}", '
                        f'"usd_per_unit": "0E+10000000", "decimals": 0}}]')
        prices = analytics.load_prices(str(path))
        assert list(prices.values()) == [("0", 0), ("0", 0)]
        start = time.perf_counter()
        stats = analytics.latency_stats([self.cctx(0, 100)] * 50, prices=prices)
        assert stats.total_usd == "0.00" and time.perf_counter() - start < 1

    def test_usd_absent_token_is_best_effort(self):
        prices = {(S_CHAIN, addr("ff")): ("1", 0)}
        stats = analytics.latency_stats([self.cctx(0, 100)], prices=prices)
        assert stats.total_usd == "0.00"

    def test_no_price_table_gives_null_usd(self):
        stats = analytics.latency_stats([self.cctx(0, 100)])
        assert stats.total_usd is None

    def test_values_beyond_sixty_digits_render_in_full(self):
        amount = 2**256 - 1
        stats = analytics.latency_stats(
            [self.cctx(0, 0, amount=str(amount)), self.cctx(0, 2 * 10**70)],
            prices={(S_CHAIN, AA): ("1", 0)},
        )
        assert stats.total_usd == f"{amount + 10}.00"
        assert stats.avg == f"{10**70}.00"
        assert stats.std == f"{10**70}.00"

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_a_per_item_fraction_reference(self, data):
        keys = [(chain, token) for chain in (S_CHAIN, T_CHAIN) for token in (AA, CC, addr("dd"))]
        timestamps = st.integers(0, 2**40)  # dst before orig gives a negative latency
        items = data.draw(st.lists(st.builds(
            lambda orig, dst, amount, key: rules.CctxValidDeposit(
                key[0], orig, H1, T_CHAIN, dst, H2, "1", key[1], CC, U1, U2, str(amount)),
            timestamps, timestamps, st.integers(0, 2**256 - 1), st.sampled_from(keys),
        ), min_size=1, max_size=40))
        usd = st.decimals(min_value=0, max_value=10**9, places=6).map(str)
        prices = data.draw(st.dictionaries(  # prices some of the tokens drawn, not all
            st.sampled_from(keys[:-1]), st.tuples(usd, st.integers(0, 40)), max_size=4))

        latencies = sorted(c.dst_timestamp - c.orig_timestamp for c in items)
        mean = Fraction(sum(latencies), len(latencies))
        variance = sum((Fraction(x) - mean) ** 2 for x in latencies) / len(latencies)
        usd_total = Fraction(0)
        for c in items:
            if (c.orig_chain_id, c.orig_token) in prices:
                per_unit, decimals = prices[c.orig_chain_id, c.orig_token]
                usd_total += Fraction(int(c.amount), 10**decimals) * Fraction(per_unit)

        stats = analytics.latency_stats(items, prices)
        assert stats.avg == analytics._two_decimals(mean)
        assert stats.std == analytics._two_decimals(variance, sqrt=True)
        assert stats.median == latencies[(len(latencies) - 1) // 2]
        assert stats.total_value == str(sum(int(c.amount) for c in items))
        assert stats.total_usd == analytics._two_decimals(usd_total)


# Rationals to render: any, long whole parts with a short fraction, exact
# ties between two hundredths, and near ties
RATIONALS = st.one_of(
    st.builds(Fraction, st.integers(-10**70, 10**70), st.integers(1, 10**40)),
    st.builds(lambda whole, part: whole + part, st.integers(-10**70, 10**70),
              st.fractions(0, 1, max_denominator=10**7)),
    st.integers(-10**9, 10**9).map(lambda k: Fraction(2 * k + 1, 200)),
    # near a tie after a long whole part, where rounding twice goes wrong
    st.builds(lambda whole, k, digits, sign: whole + Fraction(2 * k + 1, 200) + sign * Fraction(1, 10**digits),
              st.integers(10**50, 10**70), st.integers(0, 99), st.integers(3, 80), st.sampled_from([-1, 1])),
)
# Squares to take the root of, with exact ties between two hundredths
SQUARES = st.one_of(
    RATIONALS.map(abs),
    st.integers(0, 10**9).map(lambda k: Fraction((2 * k + 1) ** 2, 40000)),
)


class TestTwoDecimals:
    def test_a_long_whole_part_is_rounded_once(self):
        assert analytics._two_decimals(10**55 + Fraction(134997, 10**6)) == f"{10**55}.13"

    def test_a_small_negative_keeps_its_sign(self):
        assert analytics._two_decimals(Fraction(-1, 1000)) == "-0.00"
        assert analytics._two_decimals(Fraction(0)) == "0.00"

    @settings(max_examples=300, deadline=None)
    @given(RATIONALS)
    def test_value_is_rounded_half_even(self, value):
        text = analytics._two_decimals(value)
        assert re.fullmatch(r"-?(0|[1-9][0-9]*)\.[0-9]{2}", text)
        assert text.startswith("-") == (value < 0)
        assert abs(Fraction(text)) * 100 == round(abs(value) * 100)  # Fraction rounds half-even

    @settings(max_examples=300, deadline=None)
    @given(SQUARES)
    def test_root_is_rounded_half_even(self, square):
        text = analytics._two_decimals(square, sqrt=True)
        assert re.fullmatch(r"(0|[1-9][0-9]*)\.[0-9]{2}", text)
        hundredths = int(Fraction(text) * 100)
        # (hundredths -+ 1/2)**2 bound the square of the root in hundredths; on a bound, it is even
        low, high = Fraction(2 * hundredths - 1, 2) ** 2, Fraction(2 * hundredths + 1, 2) ** 2
        scaled = square * 10000
        assert (hundredths == 0 or low <= scaled) and scaled <= high
        if scaled == high or hundredths and scaled == low:
            assert hundredths % 2 == 0


class TestReport:
    def test_clean_report_shape(self, full_store):
        outputs = outputs_for(full_store)
        report = analytics.build_report(full_store, outputs)
        assert report["schema_version"] == 1
        assert report["rule_counts"]["CCTX_ValidDeposit"] == 1
        assert report["rule_counts"]["CCTX_ValidWithdrawal"] == 1
        assert report["anomaly_counts"] == {}
        assert analytics.total_anomalies(report) == 0
        for entry in report["local_rule_accounting"].values():
            assert entry["captured"] == entry["matched"] + entry["unmatched"]

    def test_report_is_byte_identical_across_runs(self, full_store):
        outputs = outputs_for(full_store)
        first = analytics.report_to_json(analytics.build_report(full_store, outputs))
        second = analytics.report_to_json(
            analytics.build_report(full_store, rules.eval_all(full_store))
        )
        assert first == second

    def test_finality_violation_suppresses_unmatched(self):
        def mutate(fact):
            if isinstance(fact, f.TransactionFact) and fact.tx_hash == H2:
                return replace(fact, timestamp=1087)
            return fact

        store = build_store([mutate(x) for x in static_facts() + f1_facts()])
        report = analytics.build_report(store, outputs_for(store))
        assert report["anomaly_counts"] == {"FinalityViolation": 1}
        # raw accounting still sees the unmatched legs
        accounting = report["local_rule_accounting"]
        assert accounting["SC_ValidNativeTokenDeposit"]["unmatched"] == 1
        assert accounting["TC_ValidERC20TokenDeposit"]["unmatched"] == 1

    def test_finality_violation_hides_no_leg_of_the_other_direction(self):
        # H1 escrows a deposit whose release lands inside the finality
        # window, and also releases a withdrawal that no escrow backs; both
        # carry id "7"
        store = build_store(static_facts(), [
            f.TransactionFact(1000, S_CHAIN, H1, 10, U1, B1, "0", 1, 21_000),
            f.Erc20TransferFact(H1, S_CHAIN, 0, AA, U1, B1, "5"),
            f.ScTokenDepositedFact(H1, 1, "7", U2, CC, AA, T_CHAIN, "ERC20", "5"),
            f.Erc20TransferFact(H1, S_CHAIN, 2, AA, B1, U1, "5"),
            f.ScTokenWithdrewFact(H1, 3, "7", U1, AA, "5"),
            f.TransactionFact(1100, T_CHAIN, H2, 20, RELAYER, B2, "0", 1, 60_000),
            f.Erc20TransferFact(H2, T_CHAIN, 0, CC, B2, U2, "5"),
            f.TcTokenDepositedFact(H2, 1, "7", U2, CC, "5"),
        ])
        report = analytics.build_report(store, outputs_for(store))
        assert report["anomaly_counts"] == {"FinalityViolation": 1, "UnmatchedLocalWithdrawal": 1}
        [forged] = report["anomalies"]["UnmatchedLocalWithdrawal"]
        assert (forged["severity"], forged["tx_hashes"]) == ("critical", [H1])

    def test_report_bytes_do_not_depend_on_the_hash_seed(self):
        # two unmatched releases that differ only in amount, and token
        # movements on two chains in a transaction with no transaction fact
        script = textwrap.dedent("""\
            import sys
            from bridgewatch import analytics, facts as f, rules
            from conftest import AA, B1, B2, CC, H2, S_CHAIN, T_CHAIN, U1, U2
            from conftest import build_store, static_facts, txh
            store = build_store(static_facts(), [
                f.TransactionFact(2900, T_CHAIN, H2, 20, U1, B2, "0", 1, 60_000),
                f.Erc20TransferFact(H2, T_CHAIN, 0, CC, B2, U2, "3"),
                f.Erc20TransferFact(H2, T_CHAIN, 1, CC, B2, U2, "70000"),
                f.TcTokenDepositedFact(H2, 2, "7", U2, CC, "3"),
                f.TcTokenDepositedFact(H2, 3, "7", U2, CC, "70000"),
                f.Erc20TransferFact(txh("05"), S_CHAIN, 0, AA, U1, B1, "1"),
                f.Erc20TransferFact(txh("05"), T_CHAIN, 0, CC, U2, B2, "2"),
            ])
            report = analytics.build_report(store, rules.eval_all(store))
            sys.stdout.write(analytics.report_to_json(report))
        """)
        tests = Path(__file__).resolve().parent
        path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
        reports = {
            subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            ).stdout
            # without a total order, CPython 3.11 orders both cases
            # differently under these two seeds
            for seed in ("0", "4")
        }
        assert len(reports) == 1
        counts = json.loads(reports.pop())["anomaly_counts"]
        assert counts == {"SingleTokenEvent": 1, "UnmatchedLocalDeposit": 2}

    def test_empty_store_report(self):
        store = build_store(static_facts())
        report = analytics.build_report(store, outputs_for(store))
        assert analytics.total_anomalies(report) == 0
        assert all(v == 0 for v in report["rule_counts"].values())
