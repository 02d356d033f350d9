"""Cross-chain rule evaluation over a sealed fact store.

Eight rules validate bridge traffic, as the paper's Datalog clauses do.
Rules 1-3 certify the two legs of a token deposit (escrow on the source
chain, release on the target chain); rule 4 pairs them into cross-chain
deposits. Rules 5-8 mirror them for withdrawals. Every rule is a
conjunctive query with set semantics: a tuple is derived exactly when every
conjunct holds, and one local event takes part in as many cross-chain
tuples as the data supports (identifier reuse yields several derivations
by design; the analytics layer flags the reuse).

Both directions share one result type per leg role: :class:`Escrow`
(rules 1, 2, 5 and 6), :class:`Release` (rules 3 and 7) and :class:`Cctx`
(rules 4 and 8). Each names its deposit or withdrawal id ``id``, and its
chains and tokens by the direction of the transfer: a withdrawal escrow's
``orig_chain_id`` is the target chain that it escrows on. The per-rule
names (``ScValidNativeTokenDeposit`` and the others) are aliases.

Each conjunct is written once, by name, in :data:`CONJUNCTS`. A local rule
is a list of leg shapes (native escrow, token escrow, token release, native
release), and each shape lists its conjuncts. :func:`compile_rule`
generates every rule body from these tables as nested loops over the
store's indexes by tx hash. Rules 4/8 index the escrows by id, and pair an
escrow and a release that hold ``join_key`` (beneficiary, dst_token,
dst_chain, amount) strictly after the origin chain's finality window:

    orig_timestamp + finality(orig_chain) < dst_timestamp

Boundary equality is a non-match. The join keeps what failed, not what
matched: per local rule, the legs that formed no pair, and the key-matched
pairs inside the window (:class:`CctxSet`). The analytics layer reads that
record as it is: a leg belongs to the join that keeps it, and only an early
pair of that join takes precedence over it. The ``oracle`` module
re-derives every rule with naive nested loops; the test suite holds the
two evaluators equal.
"""

from __future__ import annotations

import re
from functools import cache
from operator import attrgetter
from typing import Callable, NamedTuple

from .facts import FactStore, InputError, _compile, index_by

__all__ = [
    "ConfigurationError",
    "Escrow",
    "Release",
    "Cctx",
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
]


class ConfigurationError(InputError):
    """The store references chains without a finality window."""


class Escrow(NamedTuple):
    """A valid escrow leg: a deposit's on the source chain (rules 1 and 2)
    or a withdrawal's on the target chain (rules 5 and 6)."""

    timestamp: int
    tx_hash: str
    id: str
    sender: str
    bridge_addr: str
    beneficiary: str
    dst_token: str
    orig_token: str
    orig_chain_id: int
    dst_chain_id: int
    standard: str
    amount: str


class Release(NamedTuple):
    """A valid release leg: a deposit's on the target chain (rule 3) or a
    withdrawal's on the source chain (rule 7)."""

    timestamp: int
    tx_hash: str
    id: str
    beneficiary: str
    dst_token: str
    chain_id: int
    amount: str


class Cctx(NamedTuple):
    """A cross-chain transaction: an escrow and a release joined by rule 4
    (deposits) or rule 8 (withdrawals)."""

    orig_chain_id: int
    orig_timestamp: int
    orig_tx_hash: str
    dst_chain_id: int
    dst_timestamp: int
    dst_tx_hash: str
    id: str
    orig_token: str
    dst_token: str
    sender: str
    beneficiary: str
    amount: str


ScValidNativeTokenDeposit = ScValidErc20TokenDeposit = Escrow
TcValidNativeTokenWithdrawal = TcValidErc20TokenWithdrawal = Escrow
TcValidErc20TokenDeposit = ScValidErc20TokenWithdrawal = Release
CctxValidDeposit = CctxValidWithdrawal = Cctx


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


class CctxSet(frozenset):
    """The cross-chain tuples of rule 4 or 8, plus what failed in the same
    join: ``unmatched``, each local rule that feeds the join (1, 2 and 3,
    or 5, 6 and 7) to its tuples that formed no valid pair, and ``early``,
    the key-matched pairs inside the finality window as ``(escrow, release,
    window)``. Equal to a plain frozenset of the same tuples."""

    __slots__ = ("unmatched", "early")


def _no_finality(chains) -> ConfigurationError:
    return ConfigurationError(
        f"no cctx_finality fact for chain(s): {', '.join(map(str, sorted(chains)))}"
    )


# Every conjunct of the eight rule bodies, once, by name. A local conjunct
# reads the bridge event ``ev``, the same-transaction fact ``leg`` that it
# pairs with and the transaction ``tx``; the leg shape fills in ``{chain}``,
# ``{bridge}``, ``{token}`` and ``{recipient}``, and ``mappings`` is the
# direction's token mapping set. The cross-chain conjuncts read an escrow
# tuple ``esc`` and a release tuple ``rel`` with the same id, and ``window``,
# the finality window of the escrow's chain.
CONJUNCTS = {
    "token": "leg.token == {token}",
    "beneficiary": "{recipient} == ev.beneficiary",
    "amount": "leg.amount == ev.amount",
    "order": "ev.event_index > leg.event_index",
    "chain": "tx.chain_id == leg.chain_id",
    "success": "tx.status == 1",
    "sender": "tx.from_address == leg.sender",
    "value": "tx.value == ev.amount",
    "zero_value": 'tx.value == "0"',
    "bridge": "({chain}, {bridge}) in bridges",
    "mapping": "({chain}, ev.dst_chain_id, ev.orig_token, ev.dst_token, ev.standard) in mappings",
    "wrapped_native": "({chain}, ev.orig_token) in wrapped",
    "join_key": "esc.beneficiary == rel.beneficiary and esc.dst_token == rel.dst_token"
                " and esc.dst_chain_id == rel.chain_id and esc.amount == rel.amount",
    "finality": "esc.timestamp + window < rel.timestamp",
}


class _Shape(NamedTuple):
    """A kind of same-transaction leg that certifies a bridge event."""

    legs: tuple[str | None, str | None]  # its relation for deposits, for withdrawals
    conjuncts: tuple[str, ...]  # in evaluation order
    chain: str  # the chain of the leg
    bridge: str  # the bridge address that the leg's funds pass
    sender: str = ""  # who escrows
    token: str = ""  # the event's token that a token leg moves
    recipient: str = ""  # who a release pays


_NATIVE_ESCROW = _Shape(
    ("sc_deposit", "tc_withdrawal"),
    ("amount", "success", "sender", "value", "mapping", "wrapped_native", "bridge"),
    chain="tx.chain_id", bridge="leg.bridge_addr", sender="leg.sender",
)
_TOKEN_ESCROW = _Shape(
    ("erc20_transfer", "erc20_transfer"),
    ("token", "amount", "order", "bridge", "mapping", "chain", "success", "zero_value"),
    chain="leg.chain_id", bridge="leg.to_address", sender="tx.from_address",
    token="ev.orig_token",
)
_TOKEN_RELEASE = _Shape(
    ("erc20_transfer", "erc20_transfer"),
    ("token", "beneficiary", "amount", "order", "success", "zero_value", "chain", "bridge"),
    chain="tx.chain_id", bridge="leg.from_address", token="ev.dst_token",
    recipient="leg.to_address",
)
_NATIVE_RELEASE = _Shape(
    (None, "sc_withdrawal"),
    ("beneficiary", "amount", "order", "success", "zero_value", "bridge"),
    chain="tx.chain_id", bridge="leg.bridge_addr", recipient="leg.beneficiary",
)

# The six local rules: (direction, bridge event, leg shapes, head). The
# direction, 0 for deposits and 1 for withdrawals, picks each shape's leg
# relation and the token mappings: a withdrawal runs its deposit's mapping
# backwards, so rules 5 and 6 read the mappings with chains and tokens
# swapped. Rule 7 derives its tuple from a leg of either shape; rule 3 has
# no native release, so a native release never certifies a deposit.
_LOCAL_RULES = {
    1: (0, "sc_token_deposited", (_NATIVE_ESCROW,), Escrow),
    2: (0, "sc_token_deposited", (_TOKEN_ESCROW,), Escrow),
    3: (0, "tc_token_deposited", (_TOKEN_RELEASE,), Release),
    5: (1, "tc_token_withdrew", (_NATIVE_ESCROW,), Escrow),
    6: (1, "tc_token_withdrew", (_TOKEN_ESCROW,), Escrow),
    7: (1, "sc_token_withdrew", (_TOKEN_RELEASE, _NATIVE_RELEASE), Release),
}

RULE_TYPES = {rule_id: spec[3] for rule_id, spec in _LOCAL_RULES.items()}
RULE_TYPES.update({4: Cctx, 8: Cctx})

_READS_TX = re.compile(r"\btx\.").search

# The items of an index value named ``{0}``, as facts.group reads them but
# inline: a call would add a Python frame to every probe.
_GROUP = "({0} if {0}.__class__ is tuple else ({0},))"


def _local_body(rule_id: int, conjuncts: dict[str, str]) -> tuple[str, list[str]]:
    """For each bridge event and shape: a loop over the shape's legs in the
    event's transaction and, inside it, over the transactions with that
    hash. Each conjunct sits in the innermost loop whose variable it reads,
    in the shape's order. The head takes its timestamp from ``tx``, its
    sender, bridge address and chain (an escrow's ``orig_chain_id``, a
    release's ``chain_id``) from the shape, its ``id`` from the event's
    deposit or withdrawal id, and every other column from the event's column
    of the same name."""
    direction, _, shapes, head = _LOCAL_RULES[rule_id]
    lines = ["out = set()", "add = out.add", "for ev in events:"]
    for n, shape in enumerate(shapes):
        texts = [conjuncts[name].format_map(shape._asdict()) for name in shape.conjuncts]
        on_leg = [text for text in texts if not _READS_TX(text)]
        on_tx = [text for text in texts if _READS_TX(text)]
        taken = {"timestamp": "tx.timestamp", "sender": shape.sender, "bridge_addr": shape.bridge,
                 "orig_chain_id": shape.chain, "chain_id": shape.chain,
                 "id": ("ev.deposit_id", "ev.withdrawal_id")[direction]}
        columns = ", ".join(taken.get(name, f"ev.{name}") for name in head._fields)
        lines += [
            f"  legs_hit = legs{n}.get(ev.tx_hash, ())",
            f"  for leg in {_GROUP.format('legs_hit')}:",
            f"    if {' and '.join(on_leg) or 'True'}:",
            "      txs_hit = txs.get(ev.tx_hash, ())",
            f"      for tx in {_GROUP.format('txs_hit')}:",
            f"        if {' and '.join(on_tx) or 'True'}:",
            f"          add(_new(_head, ({columns})))",
        ]
    legs = ", ".join(f"legs{n}" for n in range(len(shapes)))
    return (f"rule{rule_id}(events, txs, bridges, mappings, wrapped, {legs})",
            [*lines, "return frozenset(out)"])


def _join_body(rule_id: int, conjuncts: dict[str, str]) -> tuple[str, list[str]]:
    """Each release against the escrows with its id: a pair with the same
    ``join_key`` is a cross-chain tuple if it holds ``finality``, and
    ``early`` if not. Returns the cross-chain tuples, the escrows and the
    releases that formed one, each as the keys of a dict, and the set of
    early pairs. CPython keeps a dict's entries in a compact array beside a
    small index, so a dict of 20,000 keys takes 576 KiB where a set grown
    one ``add`` at a time takes 2 MiB. A chain without a window raises
    ``KeyError``."""
    return f"rule{rule_id}(releases, escrows_by_id, finality)", [
        "out, paired_escrows, paired_releases, early = {}, {}, {}, set()",
        "for rel in releases:",
        "  escrows_hit = escrows_by_id.get(rel.id, ())",
        f"  for esc in {_GROUP.format('escrows_hit')}:",
        f"    if {conjuncts['join_key']}:",
        "      window = finality[esc.orig_chain_id]",
        f"      if {conjuncts['finality']}:",
        "        paired_escrows[esc] = None",
        "        paired_releases[rel] = None",
        "        out[_new(_head, (esc.orig_chain_id, esc.timestamp, esc.tx_hash, rel.chain_id,"
        " rel.timestamp, rel.tx_hash, rel.id, esc.orig_token, esc.dst_token, esc.sender,"
        " rel.beneficiary, rel.amount))] = None",
        "      else:",
        "        early.add((esc, rel, window))",
        "return out, paired_escrows, paired_releases, early",
    ]


def compile_rule(rule_id: int, conjuncts: dict[str, str] = CONJUNCTS) -> Callable:
    """The body of rule ``rule_id``, compiled from ``conjuncts``."""
    body = _local_body if rule_id in _LOCAL_RULES else _join_body
    head = RULE_TYPES[rule_id]
    return _compile(head, {"_head": head, "_new": tuple.__new__}, *body(rule_id, conjuncts))


# Each body is compiled on its rule's first evaluation, so that a caller of
# one rule (``eval_rule1``) compiles one body, and an importer of the head
# types alone (``oracle``) compiles none.
_body = cache(compile_rule)


def _eval_local(store: FactStore, rule_id: int) -> frozenset:
    store.require_sealed()
    direction, event, shapes, _ = _LOCAL_RULES[rule_id]
    mappings = store.token_mappings
    if direction:
        mappings = {(dst_chain, orig_chain, dst_token, orig_token, standard)
                    for orig_chain, dst_chain, orig_token, dst_token, standard in mappings}
    return _body(rule_id)(
        store.relation(event), store.by_tx["transaction"], store.bridge_addresses, mappings,
        store.wrapped_native, *(store.by_tx[shape.legs[direction]] for shape in shapes),
    )


def eval_rule1(store: FactStore) -> frozenset[Escrow]:
    """Native-token deposits on the source chain: a bridge deposit event
    paired with a native value escrow into the bridge in the same
    transaction (the native escrow shape)."""
    return _eval_local(store, 1)


def eval_rule2(store: FactStore) -> frozenset[Escrow]:
    """ERC-20 deposits on the source chain: the escrow is a token transfer
    into a bridge-controlled address and the transaction moves no native
    value."""
    return _eval_local(store, 2)


def eval_rule3(store: FactStore) -> frozenset[Release]:
    """Deposit releases on the target chain: a bridge deposit event paired
    with a token transfer from a bridge-controlled address to the
    beneficiary, inside a successful zero-value transaction."""
    return _eval_local(store, 3)


def _cctx_join(store: FactStore, rule_id: int, legs: tuple | None) -> CctxSet:
    """Join the escrow tuples of both kinds and the release tuples of rule
    ``rule_id``, the ``legs`` of its local rules ``rule_id - 3`` to
    ``rule_id - 1`` if given, else evaluated here, through an index of the
    escrows by id, and keep what failed: each local rule's tuples that
    formed no valid pair, and the early pairs. Raises
    :class:`ConfigurationError` for a pair whose escrow chain has no
    finality window."""
    store.require_sealed()
    native, erc20, releases = legs or [_eval_local(store, leg_rule)
                                       for leg_rule in range(rule_id - 3, rule_id)]
    escrows_by_id = index_by((*native, *erc20), attrgetter("id"))  # the tuple is let go at once
    try:
        out, paired_escrows, paired_releases, early = _body(rule_id)(
            releases, escrows_by_id, store.finality)
    except KeyError as missing:
        raise _no_finality(missing.args) from None
    # Each dict is let go as soon as what is kept of it is built, so that
    # the paired legs, which nothing reads later, are held only here.
    del escrows_by_id
    result = CctxSet(out)
    del out
    result.unmatched = {rule_id - 3: native.difference(paired_escrows),
                        rule_id - 2: erc20.difference(paired_escrows),
                        rule_id - 1: releases.difference(paired_releases)}
    del paired_escrows, paired_releases
    result.early = frozenset(early)
    return result


def eval_rule4(store: FactStore, legs: tuple | None = None) -> CctxSet:
    """Cross-chain deposits: a target-chain release matching a source-chain
    escrow (native or ERC-20) on id, beneficiary, token, chain and amount,
    strictly after the source chain's finality window. ``legs``: the
    outputs of rules 1, 2 and 3, evaluated here if not given."""
    return _cctx_join(store, 4, legs)


def eval_rule5(store: FactStore) -> frozenset[Escrow]:
    """Native-token withdrawal escrows on the target chain (inverse of the
    native deposit rule, with the token mapping looked up in the deposit
    direction)."""
    return _eval_local(store, 5)


def eval_rule6(store: FactStore) -> frozenset[Escrow]:
    """ERC-20 withdrawal escrows on the target chain."""
    return _eval_local(store, 6)


def eval_rule7(store: FactStore) -> frozenset[Release]:
    """Withdrawal releases on the source chain: a bridge withdrawal event
    paired with a token transfer or a native value release from the bridge
    to the beneficiary (the token or the native release shape)."""
    return _eval_local(store, 7)


def eval_rule8(store: FactStore, legs: tuple | None = None) -> CctxSet:
    """Cross-chain withdrawals: a source-chain release matching a
    target-chain escrow, strictly after the target chain's finality
    window. ``legs``: the outputs of rules 5, 6 and 7, evaluated here if
    not given."""
    return _cctx_join(store, 8, legs)


class RuleOutputs(NamedTuple):
    """All eight rule outputs for one store."""

    rule1: frozenset[Escrow]
    rule2: frozenset[Escrow]
    rule3: frozenset[Release]
    rule4: CctxSet
    rule5: frozenset[Escrow]
    rule6: frozenset[Escrow]
    rule7: frozenset[Release]
    rule8: CctxSet

    def by_rule(self) -> dict[int, frozenset]:
        return dict(enumerate(self, 1))

    def counts(self) -> dict[str, int]:
        return {RULE_NAMES[i]: len(s) for i, s in self.by_rule().items()}


def eval_all(store: FactStore) -> RuleOutputs:
    """Evaluate all eight rules.

    Raises :class:`ConfigurationError` if any chain referenced by the
    store's facts has no finality window.
    """
    store.require_sealed()
    missing = store.chain_ids() - set(store.finality)
    if missing:
        raise _no_finality(missing)
    r1, r2, r3 = eval_rule1(store), eval_rule2(store), eval_rule3(store)
    r5, r6, r7 = eval_rule5(store), eval_rule6(store), eval_rule7(store)
    return RuleOutputs(
        r1, r2, r3, eval_rule4(store, (r1, r2, r3)), r5, r6, r7, eval_rule8(store, (r5, r6, r7))
    )
