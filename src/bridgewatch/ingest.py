"""Receipt decoding: JSONL transaction receipts -> fact store.

The decoder is configuration-driven so it can be pointed at any bridge
without code changes. A config JSON document provides:

* per-chain settings: role (``source``/``target``), finality window,
  bridge-controlled addresses;
* static relations: token mappings and wrapped-native tokens;
* an event map: topic0 (or a human-readable event signature, hashed with
  keccak-256) -> target bridge relation plus a declarative field
  extraction plan over the log's topics and data words.

Field extraction plan entries::

    {"topic": N, "type": T}        value from topics[N]
    {"data": N, "type": T}         value from the N-th 32-byte data word
    {"const": "..."}               literal value
    {"source": "log_address"}      the emitting contract address

with ``type`` one of ``address`` (32-byte word that must be a left-padded
20-byte address), ``uint`` (decimal string, the default), ``id`` (decimal
string), ``chain_id`` (integer), or ``enum`` (requires ``"labels": {"0": "..."}``),
and suited to its column: ``address`` for addresses, ``chain_id`` for chain
ids, ``uint`` or ``id`` for amounts, and ``id``, ``uint`` or ``enum`` for
identifiers and token standards. A plan covers exactly its relation's
columns but ``tx_hash`` and ``event_index``; two entries may not share a topic0.
Plans are checked once, on load; :func:`encode_log` is their inverse.

ERC-20 ``Transfer`` logs are decoded unconditionally (any emitter is a
token contract). Bridge events are decoded only from logs emitted by a
configured bridge address. A receipt moving native value into a bridge
address yields a native escrow fact with pseudo event index 0, ordering
it before every log of the transaction.

Decoding problems that affect a single log (wrong topic arity, a 32-byte
beneficiary that is not a valid address) produce a warning and suppress
that fact only; the rest of the receipt still decodes.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from . import facts as f
from .keccak import TRANSFER_TOPIC, event_topic

__all__ = [
    "IngestError",
    "ConfigError",
    "LogEntry",
    "TransactionReceipt",
    "BridgeDecoderConfig",
    "IngestReport",
    "decode_erc20_transfer",
    "decode_receipt",
    "encode_erc20_transfer",
    "encode_log",
    "ingest_jsonl",
    "load_config",
]

NATIVE_EVENT_INDEX = 0  # native value transfers precede all logs

# Bridge relations a config event entry may target.
_DECODABLE = ("sc_token_deposited", "tc_token_deposited", "tc_token_withdrew",
              "sc_token_withdrew", "sc_withdrawal")


class IngestError(ValueError):
    """Malformed receipt input (carries file/line context in the message)."""


class ConfigError(ValueError):
    """Malformed or incomplete decoder configuration."""


def _as_uint(value: Any, name: str) -> int:
    if isinstance(value, bool):
        raise IngestError(f"{name}: expected unsigned integer, got bool")
    if isinstance(value, int):
        if value < 0:
            raise IngestError(f"{name}: negative value {value}")
        return value
    if isinstance(value, str):
        try:
            return int(value, 16) if value.startswith("0x") else int(value, 10)
        except ValueError:
            pass
    raise IngestError(f"{name}: cannot parse unsigned integer from {value!r}")


def _as_amount(value: Any, name: str) -> str:
    return f.canonical_amount(_as_uint(value, name), name)


def _hex_bytes(value: str, name: str) -> bytes:
    if not isinstance(value, str) or not value.startswith("0x"):
        raise IngestError(f"{name}: expected 0x-prefixed hex, got {value!r}")
    try:
        return bytes.fromhex(value[2:])
    except ValueError as exc:
        raise IngestError(f"{name}: invalid hex: {value!r}") from exc


@dataclass(frozen=True)
class LogEntry:
    address: str
    topics: tuple[str, ...]
    data: str
    log_index: int

    @classmethod
    def from_json(cls, obj: dict) -> "LogEntry":
        try:
            topics, data = obj["topics"], obj.get("data", "0x")
            if not isinstance(topics, list):
                raise IngestError(f"log topics: expected a list of hex strings, got {topics!r}")
            if not isinstance(data, str):
                raise IngestError(f"log data: expected a hex string, got {data!r}")
            return cls(
                address=f.canonical_address(obj["address"], "log address"),
                topics=tuple(map(str.lower, topics)),
                data=data.lower(),
                log_index=_as_uint(obj["logIndex"], "logIndex"),
            )
        except KeyError as exc:
            raise IngestError(f"log entry missing field {exc.args[0]!r}") from exc
        except TypeError as exc:  # not an object, or a topic that is not a string
            raise IngestError(f"log entry: expected an object with string topics, got {obj!r}") from exc


@dataclass(frozen=True)
class TransactionReceipt:
    chain_id: int
    tx_hash: str
    block_number: int
    block_timestamp: int
    from_address: str
    to_address: str
    value: str
    status: int
    gas_used: int
    logs: tuple[LogEntry, ...]

    @classmethod
    def from_json(cls, obj: dict) -> "TransactionReceipt":
        if not isinstance(obj, dict):
            raise IngestError(f"expected a receipt object, got {type(obj).__name__}")
        try:
            entries = obj.get("logs", [])
            if not isinstance(entries, list):
                raise IngestError(f"logs: expected a list of log objects, got {entries!r}")
            logs = tuple(LogEntry.from_json(entry) for entry in entries)
            indexes = [entry.log_index for entry in logs]
            if indexes != sorted(set(indexes)):
                raise IngestError("logIndex values must be strictly increasing")
            status = _as_uint(obj["status"], "status")
            if status > 1:
                raise IngestError(f"status: expected 0 or 1, got {status}")
            return cls(
                chain_id=_as_uint(obj["chainId"], "chainId"),
                tx_hash=f.canonical_tx_hash(obj["txHash"], "txHash"),
                block_number=_as_uint(obj["blockNumber"], "blockNumber"),
                block_timestamp=_as_uint(obj["blockTimestamp"], "blockTimestamp"),
                from_address=f.canonical_address(obj["from"], "from"),
                to_address=f.canonical_address(obj["to"], "to"),
                value=_as_amount(obj["value"], "value"),
                status=status,
                gas_used=_as_uint(obj["gasUsed"], "gasUsed"),
                logs=logs,
            )
        except KeyError as exc:
            raise IngestError(f"receipt missing field {exc.args[0]!r}") from exc
        except f.EncodingError as exc:
            raise IngestError(str(exc)) from exc


@dataclass(frozen=True)
class EventPlan:
    """One decodable event: topic0 -> relation + field plan."""

    topic0: str
    relation: str
    fields: dict[str, dict]


# ERC-20 ``Transfer(address,address,uint256)``, decoded from any emitter;
# its ``chain_id`` comes from the receipt.
_TRANSFER = EventPlan(TRANSFER_TOPIC, "erc20_transfer", {
    "token": {"source": "log_address"},
    "from_address": {"topic": 1, "type": "address"},
    "to_address": {"topic": 2, "type": "address"},
    "amount": {"data": 0, "type": "uint"},
})


@dataclass(frozen=True)
class ChainConfig:
    chain_id: int
    role: str  # "source" | "target"
    bridge_addresses: tuple[str, ...]


@dataclass(frozen=True)
class BridgeDecoderConfig:
    chains: dict[int, ChainConfig]
    events: dict[str, EventPlan]  # keyed by topic0
    static: tuple  # finality windows, bridge addresses, token tables

    def static_facts(self) -> list:
        return list(self.static)

    @classmethod
    def from_json(cls, obj: dict) -> "BridgeDecoderConfig":
        """Build a config, checking all of it up front: every problem is a
        ``ConfigError`` naming the chain key, event field or table row."""
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        chains: dict[int, ChainConfig] = {}
        static: list = []
        for key, spec in _table(obj, "chains", dict).items():
            if not _CHAIN_KEY.match(key):
                raise ConfigError(f"chains: key {key!r} is not a positive integer chain id")
            chain_id = int(key)
            if not isinstance(spec, dict):
                raise ConfigError(f"chain {chain_id}: expected an object")
            role = spec.get("role", "source")
            if role not in ("source", "target"):
                raise ConfigError(f"chain {chain_id}: role must be source|target")
            try:
                static.append(f.CctxFinalityFact(chain_id, spec.get("finality_seconds")))
                bridges = [f.BridgeControlledAddressFact(chain_id, a)
                           for a in spec.get("bridge_addresses", [])]
            except f.EncodingError as exc:
                raise ConfigError(f"chain {chain_id}: {exc}") from exc
            static += bridges
            chains[chain_id] = ChainConfig(chain_id, role, tuple(b.address for b in bridges))
        if not chains:
            raise ConfigError("config declares no chains")
        events: dict[str, EventPlan] = {}
        entry_of: dict[str, int] = {}  # topic0 -> index of its events entry
        for i, entry in enumerate(_table(obj, "events", list)):
            if not isinstance(entry, dict):
                raise ConfigError(f"events[{i}]: expected an object")
            if "topic0" in entry:
                try:
                    topic0 = f.canonical_tx_hash(entry["topic0"], "topic0")
                except f.EncodingError as exc:
                    raise ConfigError(f"events[{i}]: {exc}") from exc
            elif isinstance(entry.get("signature"), str):
                topic0 = event_topic(entry["signature"])
            else:
                raise ConfigError(f"events[{i}]: event entry needs 'topic0' or 'signature'")
            if topic0 in entry_of:
                raise ConfigError(
                    f"events[{i}]: repeats the topic0 {topic0} of events[{entry_of[topic0]}]"
                )
            entry_of[topic0] = i
            event = entry.get("signature") or topic0
            relation = entry.get("fact")
            if relation not in _DECODABLE:
                raise ConfigError(f"event {event}: targets unknown relation {relation!r}")
            events[topic0] = EventPlan(topic0, relation, _field_plans(event, relation, entry.get("fields")))
        static += _static_rows(obj, "token_mappings", f.TokenMappingFact)
        static += _static_rows(obj, "wrapped_native_tokens", f.WrappedNativeTokenFact)
        return cls(chains, events, tuple(static))


_CHAIN_KEY = re.compile(r"[1-9][0-9]*\Z")
_LABEL_CODE = re.compile(r"(0|[1-9][0-9]*)\Z")
# The field types that can fill a column, by the column's kind.
_FIELD_TYPES = {
    "Address": ("address",),
    "ChainId": ("chain_id",),
    "Amount": ("uint", "id"),
    "Opaque": ("id", "uint", "enum"),
}


def _table(obj: dict, key: str, kind: type):
    value = obj.get(key, kind())
    if not isinstance(value, kind):
        raise ConfigError(f"{key}: expected a JSON {'object' if kind is dict else 'list'}")
    return value


def _static_rows(obj: dict, key: str, fact_type: type) -> list:
    """One fact per row of a static table; a row lists the fact's columns."""
    width = len(fact_type.COLUMNS)
    rows = []
    for i, row in enumerate(_table(obj, key, list)):
        if not isinstance(row, list) or len(row) != width:
            raise ConfigError(f"{key}[{i}]: expected a list of {width} values, got {row!r}")
        try:
            rows.append(fact_type(*row))
        except f.EncodingError as exc:
            raise ConfigError(f"{key}[{i}]: {exc}") from exc
    return rows


def _field_plans(event: str, relation: str, fields) -> dict[str, dict]:
    """Check one event's field plan against the columns of its relation.

    A ``const`` is stored canonical, as the fact would hold it, so that the
    encoder can compare facts against it.
    """
    if not isinstance(fields, dict):
        raise ConfigError(f"event {event}: 'fields' must be an object")
    columns = {name: kind for name, kind in f.RELATIONS[relation].COLUMNS
               if name not in ("tx_hash", "event_index")}
    for name in sorted(fields.keys() ^ columns.keys()):
        problem = "has no plan" if name in columns else f"is not a column of {relation}"
        raise ConfigError(f"event {event}: field {name!r} {problem}")
    plans: dict[str, dict] = {}
    for name, plan in fields.items():
        what = f"event {event}: field {name!r}"
        if not isinstance(plan, dict):
            raise ConfigError(f"{what}: expected an object")
        given = [key for key in ("topic", "data", "const", "source") if key in plan]
        if len(given) != 1:
            raise ConfigError(f"{what}: needs exactly one of 'topic', 'data', 'const' or 'source'")
        if given[0] == "const":
            try:
                plan = {**plan, "const": columns[name].check(plan["const"], "const")}
            except f.EncodingError as exc:
                raise ConfigError(f"{what}: {exc}") from exc
        elif given[0] == "source":
            if plan["source"] != "log_address":
                raise ConfigError(f"{what}: unknown source {plan['source']!r}")
        else:
            index, low = plan[given[0]], 1 if given[0] == "topic" else 0
            if isinstance(index, bool) or not isinstance(index, int) or index < low:
                raise ConfigError(f"{what}: {given[0]} index must be an integer >= {low}, got {index!r}")
            ftype, kind = plan.get("type", "uint"), columns[name].name
            if all(ftype not in types for types in _FIELD_TYPES.values()):
                raise ConfigError(f"{what}: unknown field type {ftype!r}")
            if ftype not in _FIELD_TYPES[kind]:
                raise ConfigError(f"{what}: type {ftype!r} does not suit column kind {kind} "
                                  f"(use {' or '.join(_FIELD_TYPES[kind])})")
            labels = plan.get("labels")
            if ftype == "enum" and not (
                isinstance(labels, dict) and labels and all(_LABEL_CODE.match(c) for c in labels)
            ):
                raise ConfigError(f"{what}: enum needs 'labels', an object keyed by decimal codes")
        plans[name] = plan
    return plans


def load_config(path: str | Path) -> BridgeDecoderConfig:
    with open(path, encoding="utf-8") as fh:
        return BridgeDecoderConfig.from_json(json.load(fh))


@dataclass
class IngestReport:
    receipts: int = 0
    facts_per_relation: dict[str, int] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "receipts": self.receipts,
            "facts_per_relation": dict(sorted(self.facts_per_relation.items())),
            "warning_count": len(self.warnings),
            "warnings": list(self.warnings),
        }


class _FieldError(ValueError):
    pass


def _word_to_address(word: bytes, what: str) -> str:
    if len(word) != 32:
        raise _FieldError(f"{what}: expected 32 bytes, got {len(word)}")
    if any(word[:12]):
        raise _FieldError(f"{what}: 32-byte value is not a valid 20-byte address")
    return "0x" + word[12:].hex()


def _extract_field(plan: dict, log: LogEntry, what: str):
    if "const" in plan:
        return plan["const"]
    if "source" in plan:
        return log.address
    if "topic" in plan:
        idx = plan["topic"]
        if idx >= len(log.topics):
            raise _FieldError(f"{what}: topic {idx} missing (log has {len(log.topics)})")
        word = _hex_bytes(log.topics[idx], what)
    else:
        data = _hex_bytes(log.data, what)
        off = 32 * plan["data"]
        word = data[off : off + 32]
        if len(word) != 32:
            raise _FieldError(f"{what}: data word {plan['data']} out of range")
    ftype = plan.get("type", "uint")
    if ftype == "address":
        return _word_to_address(word, what)
    value = int.from_bytes(word, "big")
    if ftype == "chain_id":
        return value
    if ftype == "enum":
        try:
            return plan["labels"][str(value)]
        except KeyError:
            raise _FieldError(f"{what}: no enum label for value {value}")
    return str(value)


# The 32-byte word layout, inverse of ``_word_to_address`` and ``int.from_bytes``.
def _address_word(address: str) -> str:
    return "0" * 24 + address[2:]


def _uint_word(value: int | str, what: str) -> str:
    return format(int(f.canonical_amount(value, what)), "064x")


def encode_log(plan: EventPlan, fact, address: str) -> dict:
    """The log entry that ``plan`` decodes back to ``fact``.

    ``address`` is the emitter unless a field is read from
    ``log_address``. A fact that cannot round-trip raises ``ValueError``:
    a value other than a ``const`` field's, an enum value without a code,
    or an integer that is not a canonical uint256.
    """
    topics, data = {0: plan.topic0}, {}
    for name, fplan in plan.fields.items():
        value = getattr(fact, name)
        what = f"{plan.relation}.{name}"
        if "const" in fplan:
            if value != fplan["const"]:
                raise ValueError(f"{what}: {value!r} is not the constant {fplan['const']!r}")
            continue
        if "source" in fplan:
            address = value
            continue
        ftype = fplan.get("type", "uint")
        if ftype == "address":
            word = _address_word(value)
        elif ftype == "enum":
            codes = [code for code, label in fplan["labels"].items() if label == value]
            if not codes:
                raise ValueError(f"{what}: no enum code for {value!r}")
            word = _uint_word(codes[0], what)
        else:
            word = _uint_word(value, what)
        if "topic" in fplan:
            topics[fplan["topic"]] = "0x" + word
        else:
            data[fplan["data"]] = word
    zero = "0" * 64
    return {
        "address": address,
        "topics": [topics.get(i, "0x" + zero) for i in range(max(topics) + 1)],
        "data": "0x" + "".join(data.get(i, zero) for i in range(max(data, default=-1) + 1)),
        "logIndex": fact.event_index,
    }


def encode_erc20_transfer(fact: f.Erc20TransferFact) -> dict:
    """The ``Transfer`` log that :func:`decode_erc20_transfer` decodes to ``fact``."""
    return encode_log(_TRANSFER, fact, fact.token)


def decode_erc20_transfer(log: LogEntry, receipt: TransactionReceipt):
    """Decode one log as an ERC-20 Transfer, if it is one.

    Returns ``(fact, None)`` on success, ``(None, warning)`` for a
    malformed Transfer log, and ``(None, None)`` when topic0 does not
    match.
    """
    if not log.topics or log.topics[0] != TRANSFER_TOPIC:
        return None, None
    if len(log.topics) != 3:
        return None, (
            f"tx {receipt.tx_hash} log {log.log_index}: Transfer with "
            f"{len(log.topics)} topics (expected 3)"
        )
    return _decode_event(_TRANSFER, log, receipt, chain_id=receipt.chain_id)


def _decode_event(
    plan: EventPlan, log: LogEntry, receipt: TransactionReceipt, **known: Any
) -> tuple[Any, str | None]:
    kwargs: dict[str, Any] = {"tx_hash": receipt.tx_hash, "event_index": log.log_index, **known}
    try:
        for name, fplan in plan.fields.items():
            kwargs[name] = _extract_field(fplan, log, name)
        return f.RELATIONS[plan.relation](**kwargs), None
    except (_FieldError, f.EncodingError, IngestError) as exc:
        return None, (
            f"tx {receipt.tx_hash} log {log.log_index} ({plan.relation}): {exc}"
        )


def decode_receipt(
    receipt: TransactionReceipt, config: BridgeDecoderConfig
) -> tuple[list, list[str]]:
    """Decode one receipt into facts.

    Always emits a transaction fact; adds one erc20_transfer per Transfer
    log, bridge facts per the config event map (bridge-emitted logs only),
    and a native escrow fact when the receipt moves value onto a bridge
    address. Returns ``(facts, warnings)``.
    """
    chain = config.chains.get(receipt.chain_id)
    if chain is None:
        raise ConfigError(f"receipt chain {receipt.chain_id} not in decoder config")
    out: list = []
    warnings: list[str] = []
    out.append(
        f.TransactionFact(
            timestamp=receipt.block_timestamp,
            chain_id=receipt.chain_id,
            tx_hash=receipt.tx_hash,
            block_number=receipt.block_number,
            from_address=receipt.from_address,
            to_address=receipt.to_address,
            value=receipt.value,
            status=receipt.status,
            gas_used=receipt.gas_used,
        )
    )
    bridge_addrs = set(chain.bridge_addresses)
    for log in receipt.logs:
        fact, warning = decode_erc20_transfer(log, receipt)
        if warning:
            warnings.append(warning)
        if fact is not None:
            out.append(fact)
            continue
        if log.topics and log.address in bridge_addrs:
            plan = config.events.get(log.topics[0])
            if plan is not None:
                fact, warning = _decode_event(plan, log, receipt)
                if warning:
                    warnings.append(warning)
                if fact is not None:
                    out.append(fact)
    if receipt.value != "0" and receipt.to_address in bridge_addrs:
        escrow_type = f.ScDepositFact if chain.role == "source" else f.TcWithdrawalFact
        out.append(
            escrow_type(
                tx_hash=receipt.tx_hash,
                event_index=NATIVE_EVENT_INDEX,
                sender=receipt.from_address,
                bridge_addr=receipt.to_address,
                amount=receipt.value,
            )
        )
    return out, warnings


def ingest_jsonl(
    receipts_path: str | Path, config: BridgeDecoderConfig | str | Path
) -> tuple[f.FactStore, IngestReport]:
    """Decode a JSONL receipts file into a sealed store plus a report.

    The store contains the union of all decoded facts and the config's
    static facts. A malformed JSON line fails fast with its line number.
    """
    if not isinstance(config, BridgeDecoderConfig):
        config = load_config(config)
    store = f.FactStore()
    report = IngestReport()
    store.insert_all(config.static_facts())
    path = Path(receipts_path)
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise IngestError(f"{path}:{line_no}: malformed JSON: {exc.msg}") from exc
            try:
                receipt = TransactionReceipt.from_json(obj)
                decoded, warnings = decode_receipt(receipt, config)
            except (IngestError, ConfigError) as exc:  # ConfigError: a chain the config lacks
                raise IngestError(f"{path}:{line_no}: {exc}") from exc
            report.receipts += 1
            report.warnings.extend(warnings)
            store.insert_all(decoded)
    store.seal()
    report.facts_per_relation = {
        name: count for name, count in store.relation_counts().items() if count
    }
    return store, report
