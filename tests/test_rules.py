"""Rule semantics on the reference deposit/withdrawal scenario.

Each test flips exactly one conjunct of a rule body and asserts the
derivation appears or disappears accordingly. Expected tuples are written
out in full so the field order stays pinned.
"""

from __future__ import annotations


import pytest

from bridgewatch import facts as f
from bridgewatch import rules
from bridgewatch.oracle import brute_force
from conftest import (
    AA, B1, B2, CC, H1, H2, H3, H4, RELAYER, S_CHAIN, T_CHAIN, U1, U2,
    addr, build_store, f1_facts, f2_facts, replace, static_facts,
)
from randstores import random_store

R1_TUPLE = rules.ScValidNativeTokenDeposit(
    1000, H1, "7", U1, B1, U2, CC, AA, S_CHAIN, T_CHAIN, "ERC20", "5"
)
R3_TUPLE = rules.TcValidErc20TokenDeposit(2900, H2, "7", U2, CC, T_CHAIN, "5")
R4_TUPLE = rules.CctxValidDeposit(
    S_CHAIN, 1000, H1, T_CHAIN, 2900, H2, "7", AA, CC, U1, U2, "5"
)
R5_TUPLE = rules.TcValidNativeTokenWithdrawal(
    5000, H3, "9", U2, B2, U1, AA, CC, T_CHAIN, S_CHAIN, "ERC20", "5"
)
R7_TUPLE = rules.ScValidErc20TokenWithdrawal(5050, H4, "9", U1, AA, S_CHAIN, "5")
R8_TUPLE = rules.CctxValidWithdrawal(
    T_CHAIN, 5000, H3, S_CHAIN, 5050, H4, "9", CC, AA, U2, U1, "5"
)

# Every column that names a chain, outside cctx_finality.
CHAIN_ID_COLUMNS = [
    (f.TransactionFact, "chain_id"),
    (f.Erc20TransferFact, "chain_id"),
    (f.ScTokenDepositedFact, "dst_chain_id"),
    (f.TcTokenWithdrewFact, "dst_chain_id"),
    (f.BridgeControlledAddressFact, "chain_id"),
    (f.TokenMappingFact, "orig_chain_id"),
    (f.TokenMappingFact, "dst_chain_id"),
    (f.WrappedNativeTokenFact, "chain_id"),
]


def store_with(mutate=None, extra=None, drop=None):
    all_facts = static_facts() + f1_facts() + f2_facts()
    if mutate:
        all_facts = [mutate(fact) for fact in all_facts]
    if drop:
        all_facts = [fact for fact in all_facts if not drop(fact)]
    if extra:
        all_facts.extend(extra)
    return build_store(all_facts)


def bridge_event_before_escrow(fact):
    """Swap the order of the native escrow and the deposit event of F1."""
    if isinstance(fact, f.ScDepositFact):
        return replace(fact, event_index=1)
    return bridge_event_at_escrow(fact)


def bridge_event_at_escrow(fact):
    """Give F1's deposit event the native escrow's pseudo index 0."""
    if isinstance(fact, f.ScTokenDepositedFact) and fact.tx_hash == H1:
        return replace(fact, event_index=0)
    return fact


def bridge_event_before_release(fact):
    """Swap the order of F1's release transfer and its bridge event."""
    if fact.RELATION in ("erc20_transfer", "tc_token_deposited") and fact.tx_hash == H2:
        return replace(fact, event_index=1 - fact.event_index)
    return fact


def source_wrapped_native(fact) -> bool:
    return isinstance(fact, f.WrappedNativeTokenFact) and fact.chain_id == S_CHAIN


class TestRule1:
    def test_reference_deposit(self, f1_store):
        assert rules.eval_rule1(f1_store) == {R1_TUPLE}

    def test_failed_transaction_blocks(self):
        def mutate(fact):
            if isinstance(fact, f.TransactionFact) and fact.tx_hash == H1:
                return replace(fact, status=0)
            return fact

        assert rules.eval_rule1(store_with(mutate)) == frozenset()

    def test_bridge_event_at_or_before_native_escrow_is_certified(self):
        """Native value moves before every log of its transaction, so the
        escrow's pseudo index does not order it against the bridge event."""
        assert rules.eval_rule1(store_with(bridge_event_at_escrow)) == {R1_TUPLE}
        assert rules.eval_rule1(store_with(bridge_event_before_escrow)) == {R1_TUPLE}

    def test_value_mismatch_blocks(self):
        def mutate(fact):
            if isinstance(fact, f.TransactionFact) and fact.tx_hash == H1:
                return replace(fact, value="6")
            return fact

        assert rules.eval_rule1(store_with(mutate)) == frozenset()

    def test_missing_wrapped_native_blocks(self):
        assert rules.eval_rule1(store_with(drop=source_wrapped_native)) == frozenset()


class TestRule2:
    def erc20_variant(self):
        """F1 with the native escrow replaced by an ERC-20 escrow."""
        def mutate(fact):
            if isinstance(fact, f.TransactionFact) and fact.tx_hash == H1:
                return replace(fact, value="0")
            return fact

        def drop(fact):
            return isinstance(fact, f.ScDepositFact)

        extra = [f.Erc20TransferFact(H1, S_CHAIN, 0, AA, U1, B1, "5")]
        return mutate, drop, extra

    def test_erc20_escrow_accepted(self):
        mutate, drop, extra = self.erc20_variant()
        expected = rules.ScValidErc20TokenDeposit(
            1000, H1, "7", U1, B1, U2, CC, AA, S_CHAIN, T_CHAIN, "ERC20", "5"
        )
        assert rules.eval_rule2(store_with(mutate, extra, drop)) == {expected}

    def test_transfer_to_non_bridge_blocks(self):
        mutate, drop, _ = self.erc20_variant()
        extra = [f.Erc20TransferFact(H1, S_CHAIN, 0, AA, U1, addr("99"), "5")]
        assert rules.eval_rule2(store_with(mutate, extra, drop)) == frozenset()

    def test_amount_mismatch_blocks(self):
        mutate, drop, _ = self.erc20_variant()
        extra = [f.Erc20TransferFact(H1, S_CHAIN, 0, AA, U1, B1, "6")]
        assert rules.eval_rule2(store_with(mutate, extra, drop)) == frozenset()


class TestRule3:
    def test_reference_release(self, f1_store):
        assert rules.eval_rule3(f1_store) == {R3_TUPLE}

    def test_transfer_from_non_bridge_blocks(self):
        def mutate(fact):
            if isinstance(fact, f.Erc20TransferFact) and fact.tx_hash == H2:
                return replace(fact, from_address=addr("99"))
            return fact

        assert rules.eval_rule3(store_with(mutate)) == frozenset()

    def test_nonzero_value_blocks(self):
        def mutate(fact):
            if isinstance(fact, f.TransactionFact) and fact.tx_hash == H2:
                return replace(fact, value="3")
            return fact

        assert rules.eval_rule3(store_with(mutate)) == frozenset()

    def test_native_release_does_not_count(self):
        # a bridge release of native value, as rule 7 accepts it around
        # sc_token_withdrew (H4), certifies no deposit around tc_token_deposited
        def drop(fact):
            return isinstance(fact, f.Erc20TransferFact) and fact.tx_hash == H2

        store = store_with(drop=drop, extra=[f.ScWithdrawalFact(H2, 0, B2, U2, "5")])
        assert rules.eval_rule3(store) == frozenset()
        assert rules.eval_rule7(store) == {R7_TUPLE}
        assert brute_force(3, store) == frozenset()


class TestRule4:
    def test_reference_cctx(self, f1_store):
        assert rules.eval_rule4(f1_store) == {R4_TUPLE}

    def test_boundary_gap_equal_to_window_blocks(self):
        # escrow at 1000, window 1800: release at exactly 2800 is not valid
        def mutate(fact):
            if isinstance(fact, f.TransactionFact) and fact.tx_hash == H2:
                return replace(fact, timestamp=2800)
            return fact

        assert rules.eval_rule4(store_with(mutate)) == frozenset()

    def test_gap_far_inside_window_blocks(self):
        # an 87-second gap violates the 1800-second window
        def mutate(fact):
            if isinstance(fact, f.TransactionFact) and fact.tx_hash == H2:
                return replace(fact, timestamp=1087)
            return fact

        assert rules.eval_rule4(store_with(mutate)) == frozenset()


class TestWithdrawalRules:
    def test_rule5_native_escrow(self, f2_store):
        assert rules.eval_rule5(f2_store) == {R5_TUPLE}

    def test_rule7_native_release_branch(self, f2_store):
        assert rules.eval_rule7(f2_store) == {R7_TUPLE}

    def test_rule7_erc20_release_branch(self):
        def drop(fact):
            return isinstance(fact, f.ScWithdrawalFact)

        extra = [f.Erc20TransferFact(H4, S_CHAIN, 0, AA, B1, U1, "5")]
        assert rules.eval_rule7(store_with(drop=drop, extra=extra)) == {R7_TUPLE}

    def test_rule5_and_6_need_token_mapping(self):
        def drop(fact):
            return isinstance(fact, f.TokenMappingFact)

        store = store_with(drop=drop)
        assert rules.eval_rule5(store) == frozenset()
        assert rules.eval_rule6(store) == frozenset()

    def test_rule6_erc20_escrow(self):
        def mutate(fact):
            if isinstance(fact, f.TransactionFact) and fact.tx_hash == H3:
                return replace(fact, value="0")
            return fact

        def drop(fact):
            return isinstance(fact, f.TcWithdrawalFact)

        extra = [f.Erc20TransferFact(H3, T_CHAIN, 0, CC, U2, B2, "5")]
        expected = rules.TcValidErc20TokenWithdrawal(
            5000, H3, "9", U2, B2, U1, AA, CC, T_CHAIN, S_CHAIN, "ERC20", "5"
        )
        assert rules.eval_rule6(store_with(mutate, extra, drop)) == {expected}


class TestRule8:
    def test_reference_cctx(self, f2_store):
        assert rules.eval_rule8(f2_store) == {R8_TUPLE}

    def test_gap_below_window_blocks(self):
        # an 11-second gap violates the 45-second window
        def mutate(fact):
            if isinstance(fact, f.TransactionFact) and fact.tx_hash == H4:
                return replace(fact, timestamp=5011)
            return fact

        assert rules.eval_rule8(store_with(mutate)) == frozenset()

    def test_mismatched_withdrawal_id_blocks(self):
        def mutate(fact):
            if isinstance(fact, f.ScTokenWithdrewFact):
                return replace(fact, withdrawal_id="10")
            return fact

        assert rules.eval_rule8(store_with(mutate)) == frozenset()


class TestHashOnlyJoin:
    def test_same_hash_on_two_chains_derives_twice(self):
        # the transaction conjunct binds its chain from the hash join alone;
        # a second chain with the same hash and satisfied static conjuncts
        # yields a second derivation (literal conjunctive semantics)
        extra = [
            f.TransactionFact(1000, T_CHAIN, H1, 99, U1, B1, "5", 1, 21_000),
            f.TokenMappingFact(T_CHAIN, T_CHAIN, AA, CC, "ERC20"),
            f.WrappedNativeTokenFact(T_CHAIN, AA),
            f.BridgeControlledAddressFact(T_CHAIN, B1),
        ]
        store = build_store(static_facts(), f1_facts(), extra)
        tuples = rules.eval_rule1(store)
        assert {t.orig_chain_id for t in tuples} == {S_CHAIN, T_CHAIN}
        assert len(tuples) == 2
        assert tuples == brute_force(1, store)


class TestEvalAll:
    def test_combined_scenario_counts(self, full_store):
        outputs = rules.eval_all(full_store)
        assert {i: len(s) for i, s in outputs.by_rule().items()} == {
            1: 1, 2: 0, 3: 1, 4: 1, 5: 1, 6: 0, 7: 1, 8: 1,
        }
        assert outputs.rule4 == {R4_TUPLE}
        assert outputs.rule8 == {R8_TUPLE}

    def test_static_only_store_is_empty(self):
        outputs = rules.eval_all(build_store(static_facts()))
        assert all(len(s) == 0 for s in outputs.by_rule().values())

    def test_missing_finality_is_configuration_error(self):
        # the cross-chain rules need the window of their escrow's chain
        for evaluate, chain in ((rules.eval_all, T_CHAIN), (rules.eval_rule4, S_CHAIN),
                                (rules.eval_rule8, T_CHAIN)):
            store = store_with(
                drop=lambda fact: isinstance(fact, f.CctxFinalityFact) and fact.chain_id == chain
            )
            with pytest.raises(rules.ConfigurationError, match=rf"chain\(s\): {chain}$"):
                evaluate(store)

    @pytest.mark.parametrize("fact_type, column", CHAIN_ID_COLUMNS,
                             ids=[f"{t.RELATION}.{c}" for t, c in CHAIN_ID_COLUMNS])
    def test_chain_named_in_one_column_needs_finality(self, fact_type, column):
        fact = next(x for x in static_facts() + f1_facts() + f2_facts() if type(x) is fact_type)
        store = store_with(extra=[replace(fact, **{column: 777})])
        with pytest.raises(rules.ConfigurationError, match=r"chain\(s\): 777$"):
            rules.eval_all(store)

    def test_requires_sealed_store(self):
        store = f.FactStore()
        with pytest.raises(RuntimeError, match="sealed"):
            rules.eval_rule1(store)


def test_every_conjunct_is_needed(monkeypatch):
    """The engine compiled with any one conjunct left out differs from the
    oracle on some seeded random store. The reference scenario with the
    release transfer after its bridge event, or without the source chain's
    wrapped-native token, tells the ``order`` or ``wrapped_native``
    conjunct apart on its own, too."""
    evaluators = [getattr(rules, f"eval_rule{i}") for i in range(1, 9)]

    def case(store) -> tuple:
        return store, [brute_force(i, store) for i in range(1, 9)]

    def agrees(cases) -> bool:
        return all(evaluate(store) == expected for store, outputs in cases
                   for evaluate, expected in zip(evaluators, outputs))

    fixtures = {"order": case(store_with(bridge_event_before_release)),
                "wrapped_native": case(store_with(drop=source_wrapped_native))}
    # value is the rarest: its mutant must replace a native escrow's transaction
    randoms = [case(random_store(seed * 7919 + 13)) for seed in range(20)]
    assert agrees([*fixtures.values(), *randoms])
    for name in rules.CONJUNCTS:
        conjuncts = {**rules.CONJUNCTS, name: "True"}
        bodies = {i: rules.compile_rule(i, conjuncts) for i in rules.RULE_TYPES}
        monkeypatch.setattr(rules, "_body", bodies.__getitem__)
        assert not agrees(randoms), f"no random store needs the conjunct {name!r}"
        if name in fixtures:
            assert not agrees([fixtures[name]]), f"its fixture store does not need {name!r}"
