"""Hash-join engine vs brute-force reference evaluator, plus the engine's
algebraic properties (monotonicity, permutation invariance, join-key
soundness)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from bridgewatch.facts import FactStore
from bridgewatch.oracle import MAX_FACTS, OracleSizeError, brute_force
from bridgewatch.rules import (
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


@pytest.mark.parametrize("seed", range(5))
def test_join_key_soundness(seed):
    store = random_store(seed * 31_337 + 101)
    outputs = eval_all(store)
    escrow_keys = {
        (t.timestamp, t.tx_hash, t[2], t.sender, t.beneficiary, t.dst_token,
         t.orig_token, t.orig_chain_id, t.dst_chain_id, t.amount)
        for t in list(outputs.rule1) + list(outputs.rule2)
    }
    release_keys = {
        (t.timestamp, t.tx_hash, t[2], t.beneficiary, t.dst_token, t.chain_id, t.amount)
        for t in outputs.rule3
    }
    for c in outputs.rule4:
        assert (c.orig_timestamp, c.orig_tx_hash, c.id, c.sender, c.beneficiary,
                c.dst_token, c.orig_token, c.orig_chain_id, c.dst_chain_id, c.amount) in escrow_keys
        assert (c.dst_timestamp, c.dst_tx_hash, c.id, c.beneficiary,
                c.dst_token, c.dst_chain_id, c.amount) in release_keys
    wdr_escrow_keys = {
        (t.timestamp, t.tx_hash, t[2], t.sender, t.beneficiary, t.orig_token,
         t.dst_token, t.dst_chain_id, t.orig_chain_id, t.amount)
        for t in list(outputs.rule5) + list(outputs.rule6)
    }
    wdr_release_keys = {
        (t.timestamp, t.tx_hash, t[2], t.beneficiary, t.dst_token, t.chain_id, t.amount)
        for t in outputs.rule7
    }
    for c in outputs.rule8:
        assert (c.orig_timestamp, c.orig_tx_hash, c.id, c.sender, c.beneficiary,
                c.orig_token, c.dst_token, c.dst_chain_id, c.orig_chain_id, c.amount) in wdr_escrow_keys
        assert (c.dst_timestamp, c.dst_tx_hash, c.id, c.beneficiary,
                c.dst_token, c.dst_chain_id, c.amount) in wdr_release_keys
    # the unmatched legs the join reports are those its outputs do not project
    # back onto
    for cctxs, escrows, releases in (
        (outputs.rule4, outputs.rule1 | outputs.rule2, outputs.rule3),
        (outputs.rule8, outputs.rule5 | outputs.rule6, outputs.rule7),
    ):
        escrow_projections = {
            (c.orig_timestamp, c.orig_tx_hash, c[6], c.sender, c.beneficiary, c.orig_token,
             c.dst_token, c.orig_chain_id, c.dst_chain_id, c.amount) for c in cctxs
        }
        release_projections = {
            (c.dst_timestamp, c.dst_tx_hash, c[6], c.beneficiary, c.dst_token,
             c.dst_chain_id, c.amount) for c in cctxs
        }
        assert cctxs.unmatched_escrows == {
            t for t in escrows
            if (t.timestamp, t.tx_hash, t[2], t.sender, t.beneficiary, t.orig_token,
                t.dst_token, t.orig_chain_id, t.dst_chain_id, t.amount) not in escrow_projections
        }
        assert cctxs.unmatched_releases == {
            t for t in releases
            if (t.timestamp, t.tx_hash, t[2], t.beneficiary, t.dst_token, t.chain_id,
                t.amount) not in release_projections
        }


def test_finality_strictness_on_every_cctx():
    store = random_store(424_242)
    outputs = eval_all(store)
    for c in outputs.rule4 | outputs.rule8:
        window = store.finality[c.orig_chain_id]
        assert c.dst_timestamp - c.orig_timestamp > window


def test_reference_fixture_union(full_store):
    for rule_id, evaluator in EVALUATORS.items():
        assert evaluator(full_store) == brute_force(rule_id, full_store)
