"""Reference rule evaluator: naive nested loops, no indexes.

Each rule body is transcribed conjunct by conjunct so the code can be
audited line by line. This evaluator is the semantic ground truth for the
hash-join engine in ``rules``; any divergence between the two is an
engine bug by definition. A size guard refuses stores that would make the
cubic loops unusable in CI.
"""

from __future__ import annotations

from .facts import FactStore
from .rules import (
    CctxValidDeposit,
    CctxValidWithdrawal,
    ScValidErc20TokenDeposit,
    ScValidErc20TokenWithdrawal,
    ScValidNativeTokenDeposit,
    TcValidErc20TokenDeposit,
    TcValidErc20TokenWithdrawal,
    TcValidNativeTokenWithdrawal,
)

__all__ = ["OracleSizeError", "brute_force"]

MAX_FACTS = 10_000


class OracleSizeError(RuntimeError):
    """Store too large for the index-free evaluator."""


def _guard(store: FactStore) -> None:
    total = store.total_facts()
    if total > MAX_FACTS:
        raise OracleSizeError(f"store has {total} facts, oracle limit is {MAX_FACTS}")


def _rule1(store: FactStore) -> set:
    out = set()
    for dep in store.relation("sc_token_deposited"):
        for esc in store.relation("sc_deposit"):
            if esc.tx_hash != dep.tx_hash:
                continue
            if esc.amount != dep.amount:
                continue
            for tx in store.relation("transaction"):
                if tx.tx_hash != dep.tx_hash:
                    continue
                if tx.from_address != esc.sender:
                    continue
                if tx.value != dep.amount:
                    continue
                if tx.status != 1:
                    continue
                for mapping in store.relation("token_mapping"):
                    if mapping.orig_chain_id != tx.chain_id:
                        continue
                    if mapping.dst_chain_id != dep.dst_chain_id:
                        continue
                    if mapping.orig_token != dep.orig_token:
                        continue
                    if mapping.dst_token != dep.dst_token:
                        continue
                    if mapping.standard != dep.standard:
                        continue
                    for wrapped in store.relation("wrapped_native_token"):
                        if wrapped.chain_id != tx.chain_id:
                            continue
                        if wrapped.token != dep.orig_token:
                            continue
                        for bca in store.relation("bridge_controlled_address"):
                            if bca.chain_id != tx.chain_id:
                                continue
                            if bca.address != esc.bridge_addr:
                                continue
                            out.add(
                                ScValidNativeTokenDeposit(
                                    tx.timestamp, dep.tx_hash, dep.deposit_id,
                                    esc.sender, esc.bridge_addr, dep.beneficiary,
                                    dep.dst_token, dep.orig_token, tx.chain_id,
                                    dep.dst_chain_id, dep.standard, dep.amount,
                                )
                            )
    return out


def _rule2(store: FactStore) -> set:
    out = set()
    for dep in store.relation("sc_token_deposited"):
        for tr in store.relation("erc20_transfer"):
            if tr.tx_hash != dep.tx_hash:
                continue
            if tr.token != dep.orig_token:
                continue
            if tr.amount != dep.amount:
                continue
            for tx in store.relation("transaction"):
                if tx.tx_hash != dep.tx_hash:
                    continue
                if tx.chain_id != tr.chain_id:
                    continue
                if tx.value != "0":
                    continue
                if tx.status != 1:
                    continue
                for mapping in store.relation("token_mapping"):
                    if mapping.orig_chain_id != tr.chain_id:
                        continue
                    if mapping.dst_chain_id != dep.dst_chain_id:
                        continue
                    if mapping.orig_token != dep.orig_token:
                        continue
                    if mapping.dst_token != dep.dst_token:
                        continue
                    if mapping.standard != dep.standard:
                        continue
                    for bca in store.relation("bridge_controlled_address"):
                        if bca.chain_id != tr.chain_id:
                            continue
                        if bca.address != tr.to_address:
                            continue
                        if not dep.event_index > tr.event_index:
                            continue
                        out.add(
                            ScValidErc20TokenDeposit(
                                tx.timestamp, dep.tx_hash, dep.deposit_id,
                                tx.from_address, tr.to_address, dep.beneficiary,
                                dep.dst_token, dep.orig_token, tr.chain_id,
                                dep.dst_chain_id, dep.standard, dep.amount,
                            )
                        )
    return out


def _rule3(store: FactStore) -> set:
    out = set()
    for dep in store.relation("tc_token_deposited"):
        for tr in store.relation("erc20_transfer"):
            if tr.tx_hash != dep.tx_hash:
                continue
            if tr.token != dep.dst_token:
                continue
            if tr.to_address != dep.beneficiary:
                continue
            if tr.amount != dep.amount:
                continue
            for tx in store.relation("transaction"):
                if tx.tx_hash != dep.tx_hash:
                    continue
                if tx.chain_id != tr.chain_id:
                    continue
                if tx.value != "0":
                    continue
                if tx.status != 1:
                    continue
                for bca in store.relation("bridge_controlled_address"):
                    if bca.chain_id != tr.chain_id:
                        continue
                    if bca.address != tr.from_address:
                        continue
                    if not dep.event_index > tr.event_index:
                        continue
                    out.add(
                        TcValidErc20TokenDeposit(
                            tx.timestamp, dep.tx_hash, dep.deposit_id,
                            dep.beneficiary, dep.dst_token, tr.chain_id, dep.amount,
                        )
                    )
    return out


def _rule4(store: FactStore) -> set:
    out = set()
    escrows = list(_rule1(store)) + list(_rule2(store))
    finality = store.relation("cctx_finality")
    for rel in _rule3(store):
        for esc in escrows:
            if esc.id != rel.id:
                continue
            if esc.beneficiary != rel.beneficiary:
                continue
            if esc.dst_token != rel.dst_token:
                continue
            if esc.dst_chain_id != rel.chain_id:
                continue
            if esc.amount != rel.amount:
                continue
            for fin in finality:
                if fin.chain_id != esc.orig_chain_id:
                    continue
                if not esc.timestamp + fin.finality_seconds < rel.timestamp:
                    continue
                out.add(
                    CctxValidDeposit(
                        esc.orig_chain_id, esc.timestamp, esc.tx_hash,
                        rel.chain_id, rel.timestamp, rel.tx_hash,
                        rel.id, esc.orig_token, esc.dst_token,
                        esc.sender, rel.beneficiary, rel.amount,
                    )
                )
    return out


def _rule5(store: FactStore) -> set:
    out = set()
    for wdr in store.relation("tc_token_withdrew"):
        for esc in store.relation("tc_withdrawal"):
            if esc.tx_hash != wdr.tx_hash:
                continue
            if esc.amount != wdr.amount:
                continue
            for tx in store.relation("transaction"):
                if tx.tx_hash != wdr.tx_hash:
                    continue
                if tx.from_address != esc.sender:
                    continue
                if tx.value != wdr.amount:
                    continue
                if tx.status != 1:
                    continue
                for mapping in store.relation("token_mapping"):
                    if mapping.orig_chain_id != wdr.dst_chain_id:
                        continue
                    if mapping.dst_chain_id != tx.chain_id:
                        continue
                    if mapping.orig_token != wdr.dst_token:
                        continue
                    if mapping.dst_token != wdr.orig_token:
                        continue
                    if mapping.standard != wdr.standard:
                        continue
                    for wrapped in store.relation("wrapped_native_token"):
                        if wrapped.chain_id != tx.chain_id:
                            continue
                        if wrapped.token != wdr.orig_token:
                            continue
                        for bca in store.relation("bridge_controlled_address"):
                            if bca.chain_id != tx.chain_id:
                                continue
                            if bca.address != esc.bridge_addr:
                                continue
                            out.add(
                                TcValidNativeTokenWithdrawal(
                                    timestamp=tx.timestamp, tx_hash=wdr.tx_hash,
                                    id=wdr.withdrawal_id, sender=esc.sender,
                                    bridge_addr=esc.bridge_addr, beneficiary=wdr.beneficiary,
                                    orig_token=wdr.orig_token, dst_token=wdr.dst_token,
                                    dst_chain_id=wdr.dst_chain_id, orig_chain_id=tx.chain_id,
                                    standard=wdr.standard, amount=wdr.amount,
                                )
                            )
    return out


def _rule6(store: FactStore) -> set:
    out = set()
    for wdr in store.relation("tc_token_withdrew"):
        for tr in store.relation("erc20_transfer"):
            if tr.tx_hash != wdr.tx_hash:
                continue
            if tr.token != wdr.orig_token:
                continue
            if tr.amount != wdr.amount:
                continue
            for tx in store.relation("transaction"):
                if tx.tx_hash != wdr.tx_hash:
                    continue
                if tx.chain_id != tr.chain_id:
                    continue
                if tx.value != "0":
                    continue
                if tx.status != 1:
                    continue
                for mapping in store.relation("token_mapping"):
                    if mapping.orig_chain_id != wdr.dst_chain_id:
                        continue
                    if mapping.dst_chain_id != tr.chain_id:
                        continue
                    if mapping.orig_token != wdr.dst_token:
                        continue
                    if mapping.dst_token != wdr.orig_token:
                        continue
                    if mapping.standard != wdr.standard:
                        continue
                    for bca in store.relation("bridge_controlled_address"):
                        if bca.chain_id != tr.chain_id:
                            continue
                        if bca.address != tr.to_address:
                            continue
                        if not wdr.event_index > tr.event_index:
                            continue
                        out.add(
                            TcValidErc20TokenWithdrawal(
                                timestamp=tx.timestamp, tx_hash=wdr.tx_hash,
                                id=wdr.withdrawal_id, sender=tx.from_address,
                                bridge_addr=tr.to_address, beneficiary=wdr.beneficiary,
                                orig_token=wdr.orig_token, dst_token=wdr.dst_token,
                                dst_chain_id=wdr.dst_chain_id, orig_chain_id=tr.chain_id,
                                standard=wdr.standard, amount=wdr.amount,
                            )
                        )
    return out


def _rule7(store: FactStore) -> set:
    out = set()
    for wdr in store.relation("sc_token_withdrew"):
        # disjunct 1: ERC-20 release
        for tr in store.relation("erc20_transfer"):
            if tr.tx_hash != wdr.tx_hash:
                continue
            if tr.token != wdr.dst_token:
                continue
            if tr.to_address != wdr.beneficiary:
                continue
            if tr.amount != wdr.amount:
                continue
            for tx in store.relation("transaction"):
                if tx.tx_hash != wdr.tx_hash:
                    continue
                if tx.chain_id != tr.chain_id:
                    continue
                if tx.value != "0":
                    continue
                if tx.status != 1:
                    continue
                for bca in store.relation("bridge_controlled_address"):
                    if bca.chain_id != tx.chain_id:
                        continue
                    if bca.address != tr.from_address:
                        continue
                    if not wdr.event_index > tr.event_index:
                        continue
                    out.add(
                        ScValidErc20TokenWithdrawal(
                            tx.timestamp, wdr.tx_hash, wdr.withdrawal_id,
                            wdr.beneficiary, wdr.dst_token, tx.chain_id, wdr.amount,
                        )
                    )
        # disjunct 2: native release
        for nat in store.relation("sc_withdrawal"):
            if nat.tx_hash != wdr.tx_hash:
                continue
            if nat.beneficiary != wdr.beneficiary:
                continue
            if nat.amount != wdr.amount:
                continue
            for tx in store.relation("transaction"):
                if tx.tx_hash != wdr.tx_hash:
                    continue
                if tx.value != "0":
                    continue
                if tx.status != 1:
                    continue
                for bca in store.relation("bridge_controlled_address"):
                    if bca.chain_id != tx.chain_id:
                        continue
                    if bca.address != nat.bridge_addr:
                        continue
                    if not wdr.event_index > nat.event_index:
                        continue
                    out.add(
                        ScValidErc20TokenWithdrawal(
                            tx.timestamp, wdr.tx_hash, wdr.withdrawal_id,
                            wdr.beneficiary, wdr.dst_token, tx.chain_id, wdr.amount,
                        )
                    )
    return out


def _rule8(store: FactStore) -> set:
    out = set()
    escrows = list(_rule5(store)) + list(_rule6(store))
    finality = store.relation("cctx_finality")
    for rel in _rule7(store):
        for esc in escrows:
            if esc.id != rel.id:
                continue
            if esc.beneficiary != rel.beneficiary:
                continue
            if esc.dst_token != rel.dst_token:
                continue
            if esc.dst_chain_id != rel.chain_id:
                continue
            if esc.amount != rel.amount:
                continue
            for fin in finality:
                if fin.chain_id != esc.orig_chain_id:
                    continue
                if not esc.timestamp + fin.finality_seconds < rel.timestamp:
                    continue
                out.add(
                    CctxValidWithdrawal(
                        esc.orig_chain_id, esc.timestamp, esc.tx_hash,
                        rel.chain_id, rel.timestamp, rel.tx_hash,
                        rel.id, esc.orig_token, esc.dst_token,
                        esc.sender, rel.beneficiary, rel.amount,
                    )
                )
    return out


_RULES = {
    1: _rule1,
    2: _rule2,
    3: _rule3,
    4: _rule4,
    5: _rule5,
    6: _rule6,
    7: _rule7,
    8: _rule8,
}


def brute_force(rule_id: int, store: FactStore) -> frozenset:
    """Evaluate one rule by exhaustive nested loops.

    ``rule_id`` is 1..8. Refuses stores above :data:`MAX_FACTS` facts.
    """
    if rule_id not in _RULES:
        raise ValueError(f"rule_id must be 1..8, got {rule_id}")
    _guard(store)
    return frozenset(_RULES[rule_id](store))
