"""Hash-join engine vs brute-force reference evaluator, plus the engine's
algebraic properties (monotonicity, permutation invariance, join-key
soundness)."""

from __future__ import annotations

from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

from bridgewatch.facts import FactStore
from bridgewatch.oracle import MAX_FACTS, OracleSizeError, brute_force
from bridgewatch.rules import (
    RULE_TYPES, Escrow, Release,
    eval_all,
    eval_rule1, eval_rule2, eval_rule3, eval_rule4,
    eval_rule5, eval_rule6, eval_rule7, eval_rule8,
)
from randstores import random_facts, random_store

EVALUATORS = {
    1: eval_rule1, 2: eval_rule2, 3: eval_rule3, 4: eval_rule4,
    5: eval_rule5, 6: eval_rule6, 7: eval_rule7, 8: eval_rule8,
}


class TestOracleBasics:
    def test_rule4_definitional_on_reference_fixture(self, f1_store):
        assert brute_force(4, f1_store) == eval_rule4(f1_store)

    def test_size_guard(self):
        store = FactStore()
        from bridgewatch.facts import WrappedNativeTokenFact

        for i in range(MAX_FACTS + 1):
            store.insert(WrappedNativeTokenFact(i + 1, "0x" + format(i, "040x")))
        store.seal()
        with pytest.raises(OracleSizeError):
            brute_force(1, store)

    def test_rejects_bad_rule_id(self, f1_store):
        with pytest.raises(ValueError):
            brute_force(9, f1_store)


@pytest.mark.parametrize("seed", range(10))
def test_engine_equals_oracle_on_random_stores(seed):
    store = random_store(seed * 7919 + 13)
    for rule_id, evaluator in EVALUATORS.items():
        assert evaluator(store) == brute_force(rule_id, store), f"rule {rule_id}"


@pytest.mark.parametrize("seed", range(6))
def test_monotonicity_adding_facts_never_removes_tuples(seed):
    facts = random_facts(seed * 104_729 + 7, mutants=60, noise=80)
    cut = int(len(facts) * 0.7)
    small = FactStore()
    small.insert_all(facts[:cut])
    small.seal()
    big = FactStore()
    big.insert_all(facts)
    big.seal()
    for rule_id, evaluator in EVALUATORS.items():
        assert evaluator(small) <= evaluator(big), f"rule {rule_id} lost tuples"


@settings(max_examples=20, deadline=None)
@given(st.randoms(use_true_random=False))
def test_permutation_invariance_of_outputs(rand):
    facts = random_facts(20_250_101, mutants=40, noise=50)
    shuffled = list(facts)
    rand.shuffle(shuffled)
    a = FactStore()
    a.insert_all(facts)
    b = FactStore()
    b.insert_all(shuffled)
    a.seal()
    b.seal()
    assert a == b
    for evaluator in EVALUATORS.values():
        assert evaluator(a) == evaluator(b)


# By leg side: the columns that a cross-chain tuple copies from its leg,
# read off the leg and off the cross-chain tuple, in the same order.
LEG_COLUMNS = {
    Escrow: attrgetter("timestamp", "tx_hash", "id", "sender", "beneficiary", "orig_token",
                       "dst_token", "orig_chain_id", "dst_chain_id", "amount"),
    Release: attrgetter("timestamp", "tx_hash", "id", "beneficiary", "dst_token", "chain_id",
                        "amount"),
}
CCTX_COLUMNS = {
    Escrow: attrgetter("orig_timestamp", "orig_tx_hash", "id", "sender", "beneficiary",
                       "orig_token", "dst_token", "orig_chain_id", "dst_chain_id", "amount"),
    Release: attrgetter("dst_timestamp", "dst_tx_hash", "id", "beneficiary", "dst_token",
                        "dst_chain_id", "amount"),
}


@pytest.mark.parametrize("seed", range(5))
def test_join_key_soundness(seed):
    outputs = eval_all(random_store(seed * 31_337 + 101)).by_rule()
    for cctx_rule in (4, 8):
        cctxs = outputs[cctx_rule]
        assert list(cctxs.unmatched) == [cctx_rule - 3, cctx_rule - 2, cctx_rule - 1]
        captured = {Escrow: set(), Release: set()}
        for rule_id, unmatched in cctxs.unmatched.items():
            side = RULE_TYPES[rule_id]
            legs = set(map(LEG_COLUMNS[side], outputs[rule_id]))
            captured[side] |= legs
            # the unmatched legs that the join keeps for a local rule are
            # those of its tuples that no cross-chain tuple projects back onto
            projected = set(map(CCTX_COLUMNS[side], cctxs))
            assert unmatched == {t for t in outputs[rule_id]
                                 if LEG_COLUMNS[side](t) not in projected}
        for c in cctxs:  # each leg of a cross-chain tuple is a local rule's tuple
            for side, columns in CCTX_COLUMNS.items():
                assert columns(c) in captured[side]


def test_finality_strictness_on_every_cctx():
    store = random_store(424_242)
    outputs = eval_all(store)
    for c in outputs.rule4 | outputs.rule8:
        window = store.finality[c.orig_chain_id]
        assert c.dst_timestamp - c.orig_timestamp > window


def test_reference_fixture_union(full_store):
    for rule_id, evaluator in EVALUATORS.items():
        assert evaluator(full_store) == brute_force(rule_id, full_store)
