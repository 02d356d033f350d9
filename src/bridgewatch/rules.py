"""Cross-chain rule evaluation over a sealed fact store.

Eight rules validate bridge traffic. Rules 1-3 certify the two legs of a
token deposit (escrow on the source chain, release on the target chain);
rule 4 correlates them into cross-chain deposit transactions. Rules 5-8
mirror them for withdrawals. Every rule is a conjunctive query with set
semantics: a tuple is derived exactly when every conjunct holds, and a
single local event participates in as many cross-chain tuples as the data
supports (identifier reuse yields multiple derivations by design; the
analytics layer flags the reuse).

The two cross-chain rules additionally require the release to land
strictly after the origin chain's finality window:

    orig_timestamp + finality(orig_chain) < dst_timestamp

Boundary equality is a non-match.

Implementation is hand-coded hash joins keyed on tx_hash for the local
rules. Rules 4/8 join on (id, beneficiary, dst_token, dst_chain, amount),
through an index on the id and a check of the other fields per candidate
pair; that join is the only place that pairs legs (see ``CctxSet``). The
six local rules share one body per leg shape: rules 1/5 (native escrow),
2/6 (token escrow) and 3/7 (release) differ only in their relations, the
field order of their escrow tuples and the key of the token mapping. The
``oracle`` module re-derives every rule with naive nested loops; the test
suite holds the two evaluators equal.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import NamedTuple

from .facts import FactStore, InputError, index_by

__all__ = [
    "ConfigurationError",
    "DepositEscrow",
    "WithdrawalEscrow",
    "CctxSet",
    "ScValidNativeTokenDeposit",
    "ScValidErc20TokenDeposit",
    "TcValidErc20TokenDeposit",
    "CctxValidDeposit",
    "TcValidNativeTokenWithdrawal",
    "TcValidErc20TokenWithdrawal",
    "ScValidErc20TokenWithdrawal",
    "CctxValidWithdrawal",
    "RuleOutputs",
    "eval_rule1",
    "eval_rule2",
    "eval_rule3",
    "eval_rule4",
    "eval_rule5",
    "eval_rule6",
    "eval_rule7",
    "eval_rule8",
    "eval_all",
    "write_rule_outputs_csv",
]


class ConfigurationError(InputError):
    """The store references chains without a finality window."""


class DepositEscrow(NamedTuple):
    """A valid source-chain deposit escrow (rules 1 and 2)."""

    timestamp: int
    tx_hash: str
    deposit_id: str
    sender: str
    bridge_addr: str
    beneficiary: str
    dst_token: str
    orig_token: str
    orig_chain_id: int
    dst_chain_id: int
    standard: str
    amount: str


ScValidNativeTokenDeposit = ScValidErc20TokenDeposit = DepositEscrow


class TcValidErc20TokenDeposit(NamedTuple):
    timestamp: int
    tx_hash: str
    deposit_id: str
    beneficiary: str
    dst_token: str
    chain_id: int
    amount: str


class CctxValidDeposit(NamedTuple):
    orig_chain_id: int
    orig_timestamp: int
    orig_tx_hash: str
    dst_chain_id: int
    dst_timestamp: int
    dst_tx_hash: str
    deposit_id: str
    orig_token: str
    dst_token: str
    sender: str
    beneficiary: str
    amount: str


class WithdrawalEscrow(NamedTuple):
    """A valid target-chain withdrawal escrow (rules 5 and 6)."""

    timestamp: int
    tx_hash: str
    withdrawal_id: str
    sender: str
    bridge_addr: str
    beneficiary: str
    orig_token: str
    dst_token: str
    dst_chain_id: int
    orig_chain_id: int
    standard: str
    amount: str


TcValidNativeTokenWithdrawal = TcValidErc20TokenWithdrawal = WithdrawalEscrow


class ScValidErc20TokenWithdrawal(NamedTuple):
    timestamp: int
    tx_hash: str
    withdrawal_id: str
    beneficiary: str
    dst_token: str
    chain_id: int
    amount: str


class CctxValidWithdrawal(NamedTuple):
    orig_chain_id: int
    orig_timestamp: int
    orig_tx_hash: str
    dst_chain_id: int
    dst_timestamp: int
    dst_tx_hash: str
    withdrawal_id: str
    orig_token: str
    dst_token: str
    sender: str
    beneficiary: str
    amount: str


RULE_NAMES = {
    1: "SC_ValidNativeTokenDeposit",
    2: "SC_ValidERC20TokenDeposit",
    3: "TC_ValidERC20TokenDeposit",
    4: "CCTX_ValidDeposit",
    5: "TC_ValidNativeTokenWithdrawal",
    6: "TC_ValidERC20TokenWithdrawal",
    7: "SC_ValidERC20TokenWithdrawal",
    8: "CCTX_ValidWithdrawal",
}

RULE_TYPES = {
    1: DepositEscrow,
    2: DepositEscrow,
    3: TcValidErc20TokenDeposit,
    4: CctxValidDeposit,
    5: WithdrawalEscrow,
    6: WithdrawalEscrow,
    7: ScValidErc20TokenWithdrawal,
    8: CctxValidWithdrawal,
}


class CctxSet(frozenset):
    """The cross-chain tuples of rule 4 or 8, plus what the same join saw:
    the escrow and release tuples that formed a valid pair, and the
    key-matched pairs inside the finality window as ``(escrow, release,
    window)``. Equal to a plain frozenset of the same tuples."""

    __slots__ = ("matched_escrows", "matched_releases", "early")


def _require_sealed(store: FactStore) -> None:
    if not store.sealed:
        raise RuntimeError("store must be sealed before evaluation")


# Escrow legs look token mappings up as (escrow_chain, event.dst_chain_id,
# event.orig_token, event.dst_token, event.standard). A withdrawal runs its
# deposit's mapping backwards, so rules 5 and 6 read the mappings with
# chains and tokens swapped; a builder per direction orders the tuple.


def _deposit_escrow(ev, timestamp, sender, bridge_addr, chain) -> DepositEscrow:
    return DepositEscrow(
        timestamp, ev.tx_hash, ev.deposit_id, sender, bridge_addr, ev.beneficiary,
        ev.dst_token, ev.orig_token, chain, ev.dst_chain_id, ev.standard, ev.amount,
    )


def _withdrawal_escrow(ev, timestamp, sender, bridge_addr, chain) -> WithdrawalEscrow:
    return WithdrawalEscrow(
        timestamp, ev.tx_hash, ev.withdrawal_id, sender, bridge_addr, ev.beneficiary,
        ev.orig_token, ev.dst_token, ev.dst_chain_id, chain, ev.standard, ev.amount,
    )


def _withdrawal_mappings(store: FactStore) -> set[tuple]:
    return {
        (dst_chain, orig_chain, dst_token, orig_token, standard)
        for orig_chain, dst_chain, orig_token, dst_token, standard in store.token_mappings
    }


def _native_escrows(store: FactStore, event: str, escrow: str, mappings: set, make) -> frozenset:
    """Rules 1 and 5: a bridge event paired with a native value escrow."""
    out = set()
    escrow_by_tx = store.by_tx[escrow]
    for ev in store.relation(event):
        for esc in escrow_by_tx.get(ev.tx_hash, ()):
            if esc.amount != ev.amount or ev.event_index <= esc.event_index:
                continue
            for tx in store.transactions_by_hash.get(ev.tx_hash, ()):
                if tx.status != 1 or tx.from_address != esc.sender or tx.value != ev.amount:
                    continue
                chain = tx.chain_id
                if (chain, ev.dst_chain_id, ev.orig_token, ev.dst_token, ev.standard) not in mappings:
                    continue
                if (chain, ev.orig_token) not in store.wrapped_native:
                    continue
                if (chain, esc.bridge_addr) not in store.bridge_addresses:
                    continue
                out.add(make(ev, tx.timestamp, esc.sender, esc.bridge_addr, chain))
    return frozenset(out)


def _erc20_escrows(store: FactStore, event: str, mappings: set, make) -> frozenset:
    """Rules 2 and 6: a bridge event paired with a token transfer into the
    bridge."""
    out = set()
    transfers_by_tx = store.by_tx["erc20_transfer"]
    for ev in store.relation(event):
        for tr in transfers_by_tx.get(ev.tx_hash, ()):
            if (tr.token != ev.orig_token or tr.amount != ev.amount
                    or ev.event_index <= tr.event_index):
                continue
            if (tr.chain_id, tr.to_address) not in store.bridge_addresses:
                continue
            if (tr.chain_id, ev.dst_chain_id, ev.orig_token, ev.dst_token, ev.standard) not in mappings:
                continue
            for tx in store.transactions_by_hash.get(ev.tx_hash, ()):
                if tx.chain_id != tr.chain_id or tx.status != 1 or tx.value != "0":
                    continue
                out.add(make(ev, tx.timestamp, tx.from_address, tr.to_address, tr.chain_id))
    return frozenset(out)


def _releases(store: FactStore, event: str, native_by_tx: dict, result_type) -> frozenset:
    """Rules 3 and 7: a bridge event paired with a token transfer out of
    the bridge to the beneficiary, or with a native value release from
    ``native_by_tx`` (rule 3 has none), in a zero-value transaction."""
    out = set()
    transfers_by_tx = store.by_tx["erc20_transfer"]
    id_field = result_type._fields[2]  # the event's id column has the same name
    for ev in store.relation(event):
        releases = []
        for tr in transfers_by_tx.get(ev.tx_hash, ()):
            if (tr.token == ev.dst_token and tr.to_address == ev.beneficiary
                    and tr.amount == ev.amount and ev.event_index > tr.event_index):
                releases.append((tr.chain_id, tr.from_address))
        for nat in native_by_tx.get(ev.tx_hash, ()):
            if (nat.beneficiary == ev.beneficiary and nat.amount == ev.amount
                    and ev.event_index > nat.event_index):
                releases.append((None, nat.bridge_addr))
        if not releases:
            continue
        for tx in store.transactions_by_hash.get(ev.tx_hash, ()):
            if tx.status != 1 or tx.value != "0":
                continue
            for rel_chain, bridge_addr in releases:
                if rel_chain is not None and rel_chain != tx.chain_id:
                    continue
                if (tx.chain_id, bridge_addr) not in store.bridge_addresses:
                    continue
                out.add(result_type(tx.timestamp, ev.tx_hash, getattr(ev, id_field),
                                    ev.beneficiary, ev.dst_token, tx.chain_id, ev.amount))
    return frozenset(out)


def eval_rule1(store: FactStore) -> frozenset[DepositEscrow]:
    """Native-token deposits on the source chain.

    A bridge deposit event must pair, within the same transaction, with a
    native value escrow into a bridge-controlled address, a successful
    transaction whose value equals the escrowed amount, a registered token
    mapping, and the source chain's wrapped-native token; the bridge event
    must come after the escrow.
    """
    _require_sealed(store)
    return _native_escrows(
        store, "sc_token_deposited", "sc_deposit", store.token_mappings, _deposit_escrow
    )


def eval_rule2(store: FactStore) -> frozenset[DepositEscrow]:
    """ERC-20 deposits on the source chain: the escrow is a token transfer
    into a bridge-controlled address and the transaction moves no native
    value."""
    _require_sealed(store)
    return _erc20_escrows(store, "sc_token_deposited", store.token_mappings, _deposit_escrow)


def eval_rule3(store: FactStore) -> frozenset[TcValidErc20TokenDeposit]:
    """Deposit releases on the target chain: a bridge deposit event paired
    with a token transfer from a bridge-controlled address to the
    beneficiary, inside a successful zero-value transaction."""
    _require_sealed(store)
    return _releases(store, "tc_token_deposited", {}, TcValidErc20TokenDeposit)


# The join key beside the id, as the escrow tuples name it; a release tuple
# holds the same values as ``rel[3:]``.
_ESCROW_KEY = attrgetter("beneficiary", "dst_token", "dst_chain_id", "amount")


def _cctx_join(native: frozenset, erc20: frozenset, releases: frozenset, finality: dict,
               result_type) -> CctxSet:
    """Join the escrow tuples of both kinds and the release tuples on (id,
    beneficiary, dst_token, dst_chain, amount). A pair strictly after the
    origin chain's finality window is a cross-chain tuple; a pair at or
    inside it is ``early``."""
    escrows_by_id = index_by(native | erc20, itemgetter(2))  # the union is let go at once
    out, matched_escrows, matched_releases, early = set(), set(), set(), set()
    for rel in releases:
        key = rel[3:]
        for esc in escrows_by_id.get(rel[2], ()):
            window = finality.get(esc.orig_chain_id)
            if window is None or _ESCROW_KEY(esc) != key:
                continue
            if esc.timestamp + window >= rel.timestamp:
                early.add((esc, rel, window))
                continue
            matched_escrows.add(esc)
            matched_releases.add(rel)
            out.add(
                result_type(
                    esc.orig_chain_id, esc.timestamp, esc.tx_hash,
                    rel.chain_id, rel.timestamp, rel.tx_hash,
                    rel[2], esc.orig_token, esc.dst_token,
                    esc.sender, rel.beneficiary, rel.amount,
                )
            )
    # Each set is copied into the compact frozenset that is kept and let go
    # before the next copy, so that at most one set is held twice at a time.
    del escrows_by_id
    result = CctxSet(out)
    del out
    result.matched_escrows = frozenset(matched_escrows)
    del matched_escrows
    result.matched_releases = frozenset(matched_releases)
    del matched_releases
    result.early = frozenset(early)
    return result


def eval_rule4(
    store: FactStore,
    rule1: frozenset | None = None,
    rule2: frozenset | None = None,
    rule3: frozenset | None = None,
) -> CctxSet:
    """Cross-chain deposits: a target-chain release matching a source-chain
    escrow (native or ERC-20) on id, beneficiary, token, chain and amount,
    strictly after the source chain's finality window."""
    _require_sealed(store)
    r1 = eval_rule1(store) if rule1 is None else rule1
    r2 = eval_rule2(store) if rule2 is None else rule2
    r3 = eval_rule3(store) if rule3 is None else rule3
    return _cctx_join(r1, r2, r3, store.finality, CctxValidDeposit)


def eval_rule5(store: FactStore) -> frozenset[WithdrawalEscrow]:
    """Native-token withdrawal escrows on the target chain (inverse of the
    native deposit rule, with the token mapping looked up in the deposit
    direction)."""
    _require_sealed(store)
    return _native_escrows(
        store, "tc_token_withdrew", "tc_withdrawal", _withdrawal_mappings(store), _withdrawal_escrow
    )


def eval_rule6(store: FactStore) -> frozenset[WithdrawalEscrow]:
    """ERC-20 withdrawal escrows on the target chain."""
    _require_sealed(store)
    return _erc20_escrows(store, "tc_token_withdrew", _withdrawal_mappings(store), _withdrawal_escrow)


def eval_rule7(store: FactStore) -> frozenset[ScValidErc20TokenWithdrawal]:
    """Withdrawal releases on the source chain.

    The release is either a token transfer from a bridge-controlled
    address to the beneficiary or a native value release recorded by the
    bridge; the enclosing transaction succeeds with zero value. Unlike the
    escrow rules there is no token-mapping conjunct.
    """
    _require_sealed(store)
    return _releases(
        store, "sc_token_withdrew", store.by_tx["sc_withdrawal"], ScValidErc20TokenWithdrawal
    )


def eval_rule8(
    store: FactStore,
    rule5: frozenset | None = None,
    rule6: frozenset | None = None,
    rule7: frozenset | None = None,
) -> CctxSet:
    """Cross-chain withdrawals: a source-chain release matching a
    target-chain escrow, strictly after the target chain's finality
    window."""
    _require_sealed(store)
    r5 = eval_rule5(store) if rule5 is None else rule5
    r6 = eval_rule6(store) if rule6 is None else rule6
    r7 = eval_rule7(store) if rule7 is None else rule7
    return _cctx_join(r5, r6, r7, store.finality, CctxValidWithdrawal)


@dataclass(frozen=True)
class RuleOutputs:
    """All eight rule outputs for one store."""

    rule1: frozenset[DepositEscrow]
    rule2: frozenset[DepositEscrow]
    rule3: frozenset[TcValidErc20TokenDeposit]
    rule4: CctxSet
    rule5: frozenset[WithdrawalEscrow]
    rule6: frozenset[WithdrawalEscrow]
    rule7: frozenset[ScValidErc20TokenWithdrawal]
    rule8: CctxSet

    def by_rule(self) -> dict[int, frozenset]:
        return {i: getattr(self, f"rule{i}") for i in range(1, 9)}

    def counts(self) -> dict[str, int]:
        return {RULE_NAMES[i]: len(s) for i, s in self.by_rule().items()}


def eval_all(store: FactStore) -> RuleOutputs:
    """Evaluate all eight rules.

    Raises :class:`ConfigurationError` if any chain referenced by the
    store's facts has no finality window.
    """
    _require_sealed(store)
    missing = sorted(store.chain_ids() - set(store.finality))
    if missing:
        raise ConfigurationError(
            f"no cctx_finality fact for chain(s): {', '.join(map(str, missing))}"
        )
    r1, r2, r3 = eval_rule1(store), eval_rule2(store), eval_rule3(store)
    r5, r6, r7 = eval_rule5(store), eval_rule6(store), eval_rule7(store)
    return RuleOutputs(
        r1, r2, r3, eval_rule4(store, r1, r2, r3), r5, r6, r7, eval_rule8(store, r5, r6, r7)
    )


def write_rule_outputs_csv(outputs: RuleOutputs, path: str | Path) -> list[Path]:
    """Write one ``<RuleName>.csv`` per rule (header row, rows sorted) for
    diffing against an external Datalog engine run on the same facts."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    written = []
    for rule_id, tuples in outputs.by_rule().items():
        file_path = root / f"{RULE_NAMES[rule_id]}.csv"
        with open(file_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(RULE_TYPES[rule_id]._fields)
            for row in sorted(tuples):
                writer.writerow(row)
        written.append(file_path)
    return written
