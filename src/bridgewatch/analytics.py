"""Deviation taxonomy and statistics over rule outputs and raw facts.

Seven anomaly kinds cover the deviations the monitor can witness:

* ``SingleTokenEvent`` / ``SingleBridgeEvent``: inside one transaction, a
  token-level movement touching the bridge without the paired bridge
  event, or vice versa (lost user funds, inconsistent bridge behavior,
  phishing bait).
* ``UnmatchedLocalDeposit`` / ``UnmatchedLocalWithdrawal``: a locally
  valid leg that never joined a cross-chain transaction. Release-side
  unmatched tuples are the dangerous direction (funds leave the bridge
  with no escrow backing them) and are graded ``critical``.
* ``FinalityViolation``: both legs match on every join key but the time
  gap is inside the origin chain's finality window.
* ``DuplicateId``: one deposit id reused across several source-chain
  deposit events of one declared route (the escrow side; all of them
  when one names no declared route), or one withdrawal id across several
  source-chain withdrawal events (the release side); the replay
  signature.
* ``AmbiguousMatch``: one identifier participating in more than one
  cross-chain derivation of one route.

Unmatched legs and early pairs are read as the rule-4/8 join keeps them.
A leg of an early pair of its own join is reported as that
``FinalityViolation`` only, not as unmatched; the raw matched/unmatched
accounting (matched + unmatched = captured, per local rule) is kept
separately and is unaffected by that precedence.
"""

from __future__ import annotations

import json
import math
import re
from collections import defaultdict, deque
from decimal import Decimal
from fractions import Fraction
from itertools import chain, filterfalse, repeat
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple

from .facts import (EncodingError, FactStore, InputError, _chain_id, _cut, _uint, canonical_address,
                    group, known_keys, read_json, shared, shown)
from .rules import RULE_NAMES, RULE_TYPES, Escrow, Release, RuleOutputs

__all__ = [
    "Anomaly",
    "LatencyStats",
    "PriceTable",
    "PriceTableError",
    "load_prices",
    "local_mismatches",
    "unmatched_local",
    "finality_violations",
    "duplicate_ids",
    "latency_stats",
    "build_report",
    "report_to_json",
]

# The severity of each kind that has one; an unmatched local tuple is graded
# by its side (unmatched_local).
SEVERITY = {
    "SingleTokenEvent": "low",
    "SingleBridgeEvent": "medium",
    "FinalityViolation": "high",
    "DuplicateId": "critical",
    "AmbiguousMatch": "high",
}


class Anomaly(NamedTuple):
    kind: str
    chain_ids: tuple[int, ...]
    tx_hashes: tuple[str, ...]
    amount: str
    evidence: tuple[tuple[str, str], ...]
    severity: str

    def sort_key(self):
        return (self.kind, self.chain_ids, self.tx_hashes, self.evidence, int(self.amount),
                self.severity)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "severity": self.severity,
            "chain_ids": list(self.chain_ids),
            "tx_hashes": list(self.tx_hashes),
            "amount": self.amount,
            "evidence": {k: v for k, v in self.evidence},
        }


def _evidence(**kv) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in kv.items()))


# ---------------------------------------------------------------------------
# per-transaction token/bridge event pairing
# ---------------------------------------------------------------------------

_TOKEN_EVENTS = ("erc20_transfer", "sc_deposit", "tc_withdrawal", "sc_withdrawal")
_BRIDGE_EVENTS = ("sc_token_deposited", "tc_token_deposited", "tc_token_withdrew",
                  "sc_token_withdrew")


def local_mismatches(store: FactStore) -> list[Anomaly]:
    """Flag transactions where token-level and bridge-level events do not
    come in pairs.

    For every transaction with at least one event touching a
    bridge-controlled address: token/native movements without any bridge
    event yield one ``SingleTokenEvent``; bridge events without any
    token/native movement yield one ``SingleBridgeEvent``. Amounts are
    aggregated over the offending side.
    """
    by_tx, bridge = store.by_tx, store.bridge_addresses

    def touches(tr) -> bool:
        # a transfer counts when it moves funds into or out of the bridge
        return (tr.chain_id, tr.to_address) in bridge or (tr.chain_id, tr.from_address) in bridge

    def events(tx_hash: str, relations: tuple[str, ...]) -> list:
        return [e for name in relations for e in group(by_tx[name], tx_hash)
                if name != "erc20_transfer" or touches(e)]

    # The tx hashes of every transaction with a token event, as the keys of
    # one dict: 405 KiB at 20,000 hashes, where a set grown one add at a
    # time takes 2 MiB. The bridge indexes' keys are looked up and dropped
    # in C.
    token_txs = dict.fromkeys(chain(
        (tr.tx_hash for tr in store.relation("erc20_transfer") if touches(tr)),
        *(by_tx[name] for name in _TOKEN_EVENTS if name != "erc20_transfer")))
    bridge_indexes = [by_tx[name] for name in _BRIDGE_EVENTS]
    single_bridge = set(filterfalse(token_txs.__contains__, chain.from_iterable(bridge_indexes)))
    deque(map(token_txs.pop, chain.from_iterable(bridge_indexes), repeat(None)), maxlen=0)
    out: list[Anomaly] = []
    for kind, tx_hashes, relations in (
        ("SingleTokenEvent", token_txs, _TOKEN_EVENTS),
        ("SingleBridgeEvent", single_bridge, _BRIDGE_EVENTS),
    ):
        for tx_hash in tx_hashes:
            found = events(tx_hash, relations)
            # without a transaction fact, fall back to the events' own chains;
            # bridge and escrow facts carry none, so the chain may be unknown
            chains = [t.chain_id for t in group(by_tx["transaction"], tx_hash)] or [
                e.chain_id for e in found if hasattr(e, "chain_id")
            ]
            out.append(
                Anomaly(
                    kind=kind,
                    chain_ids=(min(chains),) if chains else (),
                    tx_hashes=(tx_hash,),
                    amount=str(sum(int(e.amount) for e in found)),
                    evidence=_evidence(event_count=len(found)),
                    severity=SEVERITY[kind],
                )
            )
    return sorted(out, key=Anomaly.sort_key)


# ---------------------------------------------------------------------------
# matched/unmatched accounting over rule outputs
# ---------------------------------------------------------------------------

def matched_projections(outputs: RuleOutputs) -> dict[int, dict[int, frozenset]]:
    """The ``unmatched`` map of each join, by cross-chain rule (4 and 8):
    each local rule that feeds the join to its tuples that formed no valid
    pair there. The join keeps what failed rather than what matched; the
    name stays because the benchmark's tracing wraps this function by
    name."""
    return {4: outputs.rule4.unmatched, 8: outputs.rule8.unmatched}


def match_accounting(outputs: RuleOutputs) -> dict[int, tuple[int, int]]:
    """(matched, unmatched) per local rule; matched + unmatched = captured."""
    by_rule = outputs.by_rule()
    return {rule_id: (len(by_rule[rule_id]) - len(legs), len(legs))
            for unmatched in matched_projections(outputs).values()
            for rule_id, legs in unmatched.items()}


def unmatched_local(outputs: RuleOutputs) -> list[Anomaly]:
    """One anomaly per local tuple that joined no cross-chain derivation and
    is no leg of an early pair of its own join (its ``FinalityViolation``).

    Rules 1/2 and 5/6 are the escrow side; rules 3 and 7 are the release
    side (loss-of-funds direction, graded ``critical``).
    """
    by_rule = outputs.by_rule()
    out: list[Anomaly] = []
    for cctx_rule, unmatched in matched_projections(outputs).items():
        early = by_rule[cctx_rule].early
        explained = {Escrow: {esc for esc, _, _ in early}, Release: {rel for _, rel, _ in early}}
        kind = "UnmatchedLocalDeposit" if cctx_rule == 4 else "UnmatchedLocalWithdrawal"
        for rule_id, legs in unmatched.items():
            escrow = RULE_TYPES[rule_id] is Escrow
            for t in legs - explained[RULE_TYPES[rule_id]]:
                out.append(
                    Anomaly(
                        kind=kind,
                        chain_ids=(t.orig_chain_id if escrow else t.chain_id,),
                        tx_hashes=(t.tx_hash,),
                        amount=t.amount,
                        evidence=_evidence(side="escrow" if escrow else "release",
                                           rule=RULE_NAMES[rule_id], id=t.id),
                        severity="medium" if escrow else "critical",
                    )
                )
    return sorted(out, key=Anomaly.sort_key)


# ---------------------------------------------------------------------------
# finality violations
# ---------------------------------------------------------------------------

def finality_violations(outputs: RuleOutputs) -> list[Anomaly]:
    """Pairs of local tuples that agree on every cross-chain join key but
    sit inside the origin chain's finality window.

    Each anomaly carries the observed gap and the required window; the
    pair would be a valid cross-chain transaction had the origin leg been
    ``window - gap + 1`` seconds earlier. The pairs are the ``early`` pairs
    of the rule-4/8 join.
    """
    out = [
        Anomaly(
            kind="FinalityViolation",
            chain_ids=(esc.orig_chain_id, rel.chain_id),
            tx_hashes=tuple(sorted((esc.tx_hash, rel.tx_hash))),
            amount=rel.amount,
            evidence=_evidence(
                direction=direction, id=rel.id, gap=rel.timestamp - esc.timestamp,
                window=window, escrow_tx=esc.tx_hash, release_tx=rel.tx_hash,
            ),
            severity=SEVERITY["FinalityViolation"],
        )
        for cctxs, direction in ((outputs.rule4, "deposit"), (outputs.rule8, "withdrawal"))
        for esc, rel, window in cctxs.early
    ]
    return sorted(out, key=Anomaly.sort_key)


# ---------------------------------------------------------------------------
# identifier reuse
# ---------------------------------------------------------------------------

def duplicate_ids(store: FactStore, outputs: RuleOutputs) -> list[Anomaly]:
    """Identifier reuse across bridge events, plus multi-derivation
    cross-chain transactions.

    A deposit id shared by several source-chain deposit events, or a
    withdrawal id shared by several source-chain (release side) withdrawal
    events, yields one ``DuplicateId`` with the occurrence count. When each
    deposit event of an id names a route that a token mapping declares (the
    chain of its transaction, and its ``dst_chain_id``), only the events of
    one route share the id; otherwise they share it as one group. An id
    with more than one cross-chain derivation of one route (origin and
    destination chain) in ``outputs`` yields one ``AmbiguousMatch``. The
    pass groups the events and the derivations itself
    (:func:`facts.shared`), so the groups live only while it runs.
    """
    txs = store.by_tx["transaction"]
    routes = {mapping[:2] for mapping in store.token_mappings}

    def tx_chains(fct) -> frozenset[int]:
        return frozenset(tx.chain_id for tx in group(txs, fct.tx_hash))

    def route(event) -> tuple[int, int] | None:
        """The declared route that an event's transaction chain and target
        chain name; None for no such route or no one chain, and for every
        release-side event, which names no target chain."""
        key = (*tx_chains(event), getattr(event, "dst_chain_id", None))
        return key if key in routes else None

    out: list[Anomaly] = []
    for relation, id_field in (("sc_token_deposited", "deposit_id"),
                               ("sc_token_withdrew", "withdrawal_id")):
        for same in shared(store.relation(relation), attrgetter(id_field)):
            # an id's events are told apart by route only when each names one
            for facts_list in (same,) if None in map(route, same) else shared(same, route):
                out.append(
                    Anomaly(
                        kind="DuplicateId",
                        chain_ids=tuple(sorted(frozenset().union(*map(tx_chains, facts_list)))),
                        tx_hashes=tuple(sorted({fct.tx_hash for fct in facts_list})),
                        amount=str(sum(int(fct.amount) for fct in facts_list)),
                        evidence=_evidence(**{id_field: getattr(facts_list[0], id_field),
                                              "relation": relation, "count": len(facts_list)}),
                        severity=SEVERITY["DuplicateId"],
                    )
                )
    cctx_route = attrgetter("orig_chain_id", "dst_chain_id")
    for cctx_set, id_field in ((outputs.rule4, "deposit_id"), (outputs.rule8, "withdrawal_id")):
        for same in shared(cctx_set, attrgetter("id")):
            for cctxs in shared(same, cctx_route):
                hashes = sorted({c.orig_tx_hash for c in cctxs} | {c.dst_tx_hash for c in cctxs})
                chains = sorted({c.orig_chain_id for c in cctxs} | {c.dst_chain_id for c in cctxs})
                out.append(
                    Anomaly(
                        kind="AmbiguousMatch",
                        chain_ids=tuple(chains),
                        tx_hashes=tuple(hashes),
                        amount=str(sum(int(c.amount) for c in cctxs)),
                        evidence=_evidence(**{id_field: cctxs[0].id, "derivations": len(cctxs)}),
                        severity=SEVERITY["AmbiguousMatch"],
                    )
                )
    return sorted(out, key=Anomaly.sort_key)


# ---------------------------------------------------------------------------
# latency and value statistics
# ---------------------------------------------------------------------------

PriceTable = Mapping[tuple[int, str], tuple[str, int]]  # (chain, token) -> (usd per unit, decimals)


class PriceTableError(InputError):
    """Malformed price table (names the file, entry index and key)."""


_PRICE_KEYS = ("chain_id", "token", "usd_per_unit", "decimals")
_MAX_DECIMALS = 255  # an ERC-20 token's decimals is a uint8
_MAX_EXPONENT = 78  # a nonzero usd_per_unit is at least 1e-78 and below 1e79


# A price as written: a JSON number (RFC 8259 section 6) without its minus
# sign, or a fraction of ASCII digits over a nonzero denominator
_PRICE_TEXT = re.compile(r"(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?"
                         r"|[0-9]+/[0-9]*[1-9][0-9]*")


def _check_price(usd) -> str:
    """The text of the price ``usd``: a string's own, or a JSON number's
    literal, and ``"0"`` for any zero. Raise unless it is a number as
    written in the price grammar that is zero or of a magnitude in the
    exponent range."""
    text = usd if isinstance(usd, str) else getattr(usd, "text", str(usd))
    # a JSON number is shown as written: 1e-400 is no float but 0.0
    got = shown(usd) if isinstance(usd, str) else _cut(text)
    if text.startswith("-"):
        raise EncodingError("usd_per_unit", f"must have no minus sign, got {got}")
    try:
        if not _PRICE_TEXT.fullmatch(text):
            raise ValueError(text)
        # Decimal reads any exponent at once; Fraction("1e10000000") or
        # Fraction("0e-10000000") alone takes seconds
        if "/" in text:
            magnitude = Fraction(text)
        elif Decimal(text).is_zero():
            magnitude = 0
        else:
            magnitude = Fraction(text) if abs(Decimal(text).adjusted()) <= _MAX_EXPONENT else math.inf
    except ValueError:  # not in the grammar, or more digits than int() converts
        raise EncodingError("usd_per_unit", f"not a number: {shown(usd)}") from None
    if magnitude and not Fraction(1, 10**_MAX_EXPONENT) <= magnitude < 10 ** (_MAX_EXPONENT + 1):
        raise EncodingError("usd_per_unit", f"must be 0 or of magnitude 1e-{_MAX_EXPONENT} "
                            f"to below 1e{_MAX_EXPONENT + 1}, got {got}")
    return text if magnitude else "0"


def load_prices(path: str | None) -> PriceTable | None:
    """The price table in the JSON file ``path``, or None without a path."""
    if path is None:
        return None
    entries = read_json(path, PriceTableError)
    if not isinstance(entries, list):
        raise PriceTableError(f"{path}: expected a JSON list of price entries")
    table: dict[tuple[int, str], tuple[str, int]] = {}  # the j-th key is entry j's
    for i, entry in enumerate(entries):
        where = f"{path}: entry {i}"
        if not isinstance(entry, dict):
            raise PriceTableError(f"{where}: expected an object with keys {', '.join(_PRICE_KEYS)}")
        known_keys(entry, where, PriceTableError, *_PRICE_KEYS)
        for key in _PRICE_KEYS:
            if key not in entry:
                raise PriceTableError(f"{where}: missing key {key!r}")
        chain_id, token, usd, decimals = (entry[key] for key in _PRICE_KEYS)
        try:
            _chain_id(chain_id, "chain_id")
            if _uint(decimals, "decimals") > _MAX_DECIMALS:
                raise EncodingError("decimals", f"must be at most {_MAX_DECIMALS}, got {decimals}")
            token = canonical_address(token, "token")
            usd = _check_price(usd)
        except EncodingError as exc:
            raise PriceTableError(f"{where}: {exc}") from exc
        key = (chain_id, token)
        if key in table:
            raise PriceTableError(f"{path}: entries {list(table).index(key)} and {i} both price "
                                  f"token {token} on chain {chain_id}")
        table[key] = (usd, decimals)
    return table


class LatencyStats(NamedTuple):
    count: int
    min: int | None = None
    max: int | None = None
    avg: str | None = None
    std: str | None = None
    median: int | None = None
    total_value: str = "0"
    total_usd: str | None = None


def _two_decimals(value: Fraction, sqrt: bool = False) -> str:
    """``value``, or its square root, rounded half-even to two decimals in
    exact integer arithmetic. A negative value keeps its sign, as ``-0.00``."""
    n, d = abs(value.numerator), value.denominator
    if sqrt:  # hundredths below the root, and its square against (hundredths + 1/2)**2
        hundredths = math.isqrt(10000 * n // d)
        excess = 40000 * n - d * (2 * hundredths + 1) ** 2
    else:
        hundredths, rest = divmod(100 * n, d)
        excess = 2 * rest - d
    if excess > 0 or excess == 0 and hundredths % 2:
        hundredths += 1
    return f"{'-' * (value < 0)}{hundredths // 100}.{hundredths % 100:02d}"


def latency_stats(cctxs: Iterable, prices: PriceTable | None = None) -> LatencyStats:
    """Exact latency statistics over one set of cross-chain tuples.

    Latency is ``dst_timestamp - orig_timestamp``. Average and standard
    deviation (population) are computed as exact rationals and rendered
    to two decimals; the median of an even-sized set is the lower-middle
    element. USD totals are best-effort from the optional price table.
    """
    items = list(cctxs)
    if not items:
        return LatencyStats(count=0)
    latencies = sorted([c.dst_timestamp - c.orig_timestamp for c in items])
    n = len(latencies)
    total = sum(latencies)
    mean = Fraction(total, n)
    # population variance sum((x - mean)^2) / n, kept in integers until the end
    variance = Fraction(n * sum(x * x for x in latencies) - total * total, n * n)
    total_usd = None
    if prices is not None:
        amounts: dict[tuple[int, str], int] = defaultdict(int)  # (chain, token) -> summed amount
        for c in items:
            amounts[c.orig_chain_id, c.orig_token] += int(c.amount)
        acc = Fraction(0)
        for key, amount in amounts.items():
            entry = prices.get(key)
            if entry is not None:
                usd_per_unit, decimals = entry
                acc += Fraction(amount, 10**decimals) * Fraction(usd_per_unit)
        total_usd = _two_decimals(acc)
    return LatencyStats(
        count=n,
        min=latencies[0],
        max=latencies[-1],
        avg=_two_decimals(mean),
        std=_two_decimals(variance, sqrt=True),
        median=latencies[(n - 1) // 2],
        total_value=str(sum(int(c.amount) for c in items)),
        total_usd=total_usd,
    )


# ---------------------------------------------------------------------------
# composed report
# ---------------------------------------------------------------------------

def build_report(
    store: FactStore,
    outputs: RuleOutputs,
    prices: PriceTable | None = None,
) -> dict:
    """Compose the full deterministic analysis report.

    Anomalies are grouped by kind; a leg of a finality violation appears
    only under ``FinalityViolation`` (:func:`unmatched_local`). The raw
    Table-style accounting (captured/matched/unmatched per local rule) is
    reported separately and keeps the identity captured = matched +
    unmatched.
    """
    grouped: dict[str, list[dict]] = {}
    for find in (lambda: local_mismatches(store), lambda: unmatched_local(outputs),
                 lambda: finality_violations(outputs), lambda: duplicate_ids(store, outputs)):
        # each pass returns its own kinds sorted by Anomaly.sort_key, and its
        # list is let go before the next pass runs
        for a in find():
            grouped.setdefault(a.kind, []).append(a.as_dict())

    accounting = match_accounting(outputs)
    table = {
        RULE_NAMES[rule_id]: {
            "captured": matched + unmatched_count,
            "matched": matched,
            "unmatched": unmatched_count,
        }
        for rule_id, (matched, unmatched_count) in sorted(accounting.items())
    }

    report = {
        "schema_version": 1,
        "relation_counts": {
            name: count for name, count in sorted(store.relation_counts().items()) if count
        },
        "rule_counts": outputs.counts(),
        "local_rule_accounting": table,
        "anomaly_counts": {kind: len(items) for kind, items in sorted(grouped.items())},
        "anomalies": {kind: items for kind, items in sorted(grouped.items())},
        "latency": {
            "deposits": latency_stats(outputs.rule4, prices)._asdict(),
            "withdrawals": latency_stats(outputs.rule8, prices)._asdict(),
        },
        "ingest": None,  # always null: the ingest report goes to ingest's stdout
    }
    return report


def total_anomalies(report: dict) -> int:
    return sum(report["anomaly_counts"].values())


def report_to_json(report: dict) -> str:
    """Canonical JSON rendering (stable key order, 2-space indent)."""
    return json.dumps(report, indent=2, sort_keys=True, ensure_ascii=True) + "\n"
