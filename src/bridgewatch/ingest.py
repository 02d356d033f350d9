"""Receipt decoding: JSONL transaction receipts -> fact store.

The decoder is configuration-driven so it can be pointed at any bridge
without code changes. A config JSON document provides:

* per-chain settings: role (``source``/``target``), finality window,
  bridge-controlled addresses;
* static relations: token mappings and wrapped-native tokens;
* an event map: topic0 (or, in its place, a human-readable event signature,
  hashed with keccak-256) -> target bridge relation plus a declarative field
  extraction plan over the log's topics and data words.

Any other key, at the top level, in a chain or in an event entry, is a
``ConfigError``, so that a misspelt key cannot silently drop a table.

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
identifiers and token standards; ``log_address`` suits addresses,
identifiers and token standards. A plan covers exactly its relation's columns but ``tx_hash`` and
``event_index``, holds no key its kind of entry does not read (``labels``
only beside ``"type": "enum"``, ``type`` only beside ``topic`` or
``data``), and gives enum labels that the column accepts; two entries may
not share a topic0, and none may name the ERC-20 ``Transfer`` topic,
which has a decoder of its own.

Plans are checked once, on load, and each is then compiled into one
straight-line decoder; its inverse encoder, which only the generator
calls, is compiled on its first call (:class:`EventPlan`). The
decoder checks the words of the fields in plan order and returns either
the fact, built from the checked words without checking them again, or
the reason it refuses the log. It is the only code that accepts or refuses
a log, and the only source of the reasons.

ERC-20 ``Transfer`` logs are decoded unconditionally (any emitter is a
token contract). Bridge events are decoded only from logs emitted by a
configured bridge address. A receipt moving native value into a bridge
address yields a native escrow fact with pseudo event index 0. Native
value moves before every log of the transaction, so no rule compares
that index with a log's, and a bridge log at ``logIndex`` 0 pairs with
the escrow as well as one at any other index.

Receipts and the config are read by :mod:`facts`, which opens every input
file (:func:`facts.read_jsonl`, :func:`facts.read_json`): a receipt line
whose object names one key twice is refused, as a config that does is,
and a file that is not UTF-8 is refused naming its first bad line. The
receipt's status is checked by the facts' check of the ``status`` column
(``status: expected 0 or 1, got N``), and a receipt with status 0 that
has logs is refused: a chain drops the logs of a reverted transaction. A
contract address (a receipt's ``to``, a log's emitter) repeats across
receipts, so each distinct text of one is checked once per
:func:`ingest_jsonl` call; a ``value`` that is canonical decimal text is
kept as it is.

A log that a decoder refuses yields one warning and no fact; the rest of
the receipt still decodes. The warning is the decoder's reason after the
transaction, the log and the relation. The reason names the first field,
in plan order, whose word is missing or not allowed by its type: ``topic
N missing (log has M)``, ``data word N out of range``, ``topic N is not
one 32-byte hex word``, ``data is not whole 32-byte hex words``,
``32-byte value is not a valid 20-byte address``, ``chain id must be
nonzero`` or ``no enum label for value V``.
A topic after topic0 that no field reads must still be one 32-byte word;
if every field is read, the warning names the first such topic that is
not (``topic N is not one 32-byte hex word``).
"""

from __future__ import annotations

import re
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple

from . import facts as f
from .keccak import TRANSFER_TOPIC, event_topic

__all__ = [
    "IngestError",
    "ConfigError",
    "BridgeDecoderConfig",
    "IngestReport",
    "decode_receipt",
    "encode_receipt",
    "ingest_jsonl",
    "load_config",
    "static_facts",
]

NATIVE_EVENT_INDEX = 0  # no rule orders a native escrow against the logs it precedes

# Bridge relations a config event entry may target.
_DECODABLE = ("sc_token_deposited", "tc_token_deposited", "tc_token_withdrew",
              "sc_token_withdrew", "sc_withdrawal")


class IngestError(f.InputError):
    """Malformed receipt input (carries file/line context in the message)."""


class ConfigError(f.InputError):
    """Malformed or incomplete decoder configuration."""


_HEX_UINT = re.compile(r"0x[0-9a-fA-F]+\Z")
# Decimal text that is canonical as it is: all within uint256 (facts._DECIMAL)
_DECIMAL_TEXT = re.compile(rf"(?:{f._DECIMAL})\Z").match


def _as_uint(value: Any, name: str) -> int:
    """A receipt integer: a JSON integer, ``0x`` hex text or decimal text
    by the facts' integer rule, within uint256. Raises ``EncodingError``."""
    if type(value) is int and 0 <= value <= f.MAX_UINT256:  # the common case first
        return value
    if isinstance(value, str) and _HEX_UINT.match(value):
        value = int(value, 16)  # no digit limit in a power-of-two base
    return f.uint_text(value, name) if isinstance(value, str) else f._uint(value, name)


class ChainConfig(NamedTuple):
    role: str  # "source" | "target"
    bridge_addresses: tuple[str, ...]


class BridgeDecoderConfig(NamedTuple):
    chains: dict[int, ChainConfig]
    events: dict[str, EventPlan]  # keyed by topic0
    static: tuple  # finality windows, bridge addresses, token tables

    @classmethod
    def from_json(cls, obj: dict) -> "BridgeDecoderConfig":
        """Build a config, checking all of it up front: every problem is a
        ``ConfigError`` naming the chain key, event field or table row."""
        chains, static = _chains(obj)
        events: dict[str, EventPlan] = {}
        entry_of: dict[str, int] = {}  # topic0 -> index of its events entry
        for i, entry in enumerate(_table(obj, "events", list)):
            if not isinstance(entry, dict):
                raise ConfigError(f"events[{i}]: expected an object")
            f.known_keys(entry, f"events[{i}]", ConfigError,
                         "topic0", "signature", "fact", "fields")
            if "topic0" in entry and "signature" in entry:
                raise ConfigError(f"events[{i}]: names its event by both 'topic0' and 'signature'")
            if "topic0" in entry:
                try:
                    topic0 = f.canonical_tx_hash(entry["topic0"], "topic0")
                except f.EncodingError as exc:
                    raise ConfigError(f"events[{i}]: {exc}") from exc
            elif "signature" in entry:
                signature = entry["signature"]
                if not isinstance(signature, str):
                    raise ConfigError(
                        f"events[{i}]: signature must be a string, got {f.shown(signature)}")
                if not signature.isascii():
                    raise ConfigError(f"events[{i}]: signature is not ASCII: {f.shown(signature)}")
                topic0 = event_topic(signature)
            else:
                raise ConfigError(f"events[{i}]: event entry needs 'topic0' or 'signature'")
            if topic0 == TRANSFER_TOPIC:
                raise ConfigError(f"events[{i}]: names the ERC-20 Transfer event, which is "
                                  "decoded from every emitter as erc20_transfer")
            if topic0 in entry_of:
                raise ConfigError(
                    f"events[{i}]: repeats the topic0 {topic0} of events[{entry_of[topic0]}]"
                )
            entry_of[topic0] = i
            relation = entry.get("fact")
            if relation not in _DECODABLE:
                raise ConfigError(f"events[{i}]: targets unknown relation {f.shown(relation)}")
            plans = _field_plans(f"events[{i}]", relation, entry.get("fields"))
            events[topic0] = _event_plan(topic0, relation, plans)
        return cls(chains, events, static + _tables(obj))


def static_facts(obj: dict) -> tuple:
    """The static facts of the config ``obj`` (finality windows, bridge
    addresses and the token tables), checked as :meth:`BridgeDecoderConfig.from_json`
    checks them, without compiling its event plans."""
    return _chains(obj)[1] + _tables(obj)


def _chains(obj: dict) -> tuple[dict[int, ChainConfig], tuple]:
    """The checked chains of the config ``obj`` and their static facts."""
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    f.known_keys(obj, "config", ConfigError,
                 "chains", "events", "token_mappings", "wrapped_native_tokens")
    chains: dict[int, ChainConfig] = {}
    static: list = []
    for key, spec in _table(obj, "chains", dict).items():
        try:
            chain_id = f._chain_id(f.uint_text(key, "chains"), "chains")
        except f.EncodingError as exc:
            raise ConfigError(
                f"chains: key {f.shown(key)} is not a positive integer chain id") from exc
        if not isinstance(spec, dict):
            raise ConfigError(f"chain {chain_id}: expected an object")
        f.known_keys(spec, f"chain {chain_id}", ConfigError,
                     "role", "finality_seconds", "bridge_addresses")
        role = spec.get("role", "source")
        if role not in ("source", "target"):
            raise ConfigError(f"chain {chain_id}: role must be source|target")
        try:
            static.append(f.CctxFinalityFact(chain_id, spec.get("finality_seconds")))
            bridges = [f.BridgeControlledAddressFact(chain_id, a) for a in
                       _table(spec, "bridge_addresses", list, f"chain {chain_id}: ")]
        except f.EncodingError as exc:
            raise ConfigError(f"chain {chain_id}: {exc}") from exc
        static += bridges
        chains[chain_id] = ChainConfig(role, tuple(b.address for b in bridges))
    if not chains:
        raise ConfigError("config declares no chains")
    return chains, tuple(static)


def _tables(obj: dict) -> tuple:
    """The static facts of the token tables of the config ``obj``."""
    return (*_static_rows(obj, "token_mappings", f.TokenMappingFact),
            *_static_rows(obj, "wrapped_native_tokens", f.WrappedNativeTokenFact))


# The field types that can fill a column, by the column's kind. The emitter
# of the log counts as the type ``log_address``, which only the entry
# ``{"source": "log_address"}`` has.
_FIELD_TYPES = {
    "Address": ("address", "log_address"),
    "ChainId": ("chain_id",),
    "Amount": ("uint", "id"),
    "Opaque": ("id", "uint", "enum", "log_address"),
}


def _table(obj: dict, key: str, kind: type, where: str = ""):
    value = obj.get(key, kind())
    if not isinstance(value, kind):
        raise ConfigError(f"{where}{key}: expected a JSON {'object' if kind is dict else 'list'}")
    return value


def _static_rows(obj: dict, key: str, fact_type: type) -> list:
    """One fact per row of a static table; a row lists the fact's columns."""
    width = len(fact_type.COLUMNS)
    rows = []
    for i, row in enumerate(_table(obj, key, list)):
        if not isinstance(row, list) or len(row) != width:
            raise ConfigError(f"{key}[{i}]: expected a list of {width} values, got {f.shown(row)}")
        try:
            rows.append(fact_type(*row))
        except f.EncodingError as exc:
            raise ConfigError(f"{key}[{i}]: {exc}") from exc
    return rows


def _field_plans(entry: str, relation: str, fields) -> dict[str, dict]:
    """Check the field plan of the events entry named ``entry``
    (``events[i]``) against the columns of its relation.

    A ``const`` and the enum labels are stored canonical, as the fact would
    hold them, so that the compiled decoder can put them into facts
    unchecked and the encoder can compare facts against them.
    """
    if not isinstance(fields, dict):
        raise ConfigError(f"{entry}: 'fields' must be an object")
    columns = {name: kind for name, kind in f.RELATIONS[relation].COLUMNS
               if name not in ("tx_hash", "event_index")}
    for name in sorted(fields.keys() ^ columns.keys()):
        problem = "has no plan" if name in columns else f"is not a column of {relation}"
        raise ConfigError(f"{entry}: field {f.shown(name)} {problem}")
    plans: dict[str, dict] = {}
    for name, plan in fields.items():
        what, kind = f"{entry}: field {name!r}", columns[name]
        if not isinstance(plan, dict):
            raise ConfigError(f"{what}: expected an object")
        given = [key for key in ("topic", "data", "const", "source") if key in plan]
        if len(given) != 1:
            raise ConfigError(f"{what}: needs exactly one of 'topic', 'data', 'const' or 'source'")
        source, keys, ftype = given[0], set(given), None
        try:
            if source == "const":
                plan = {**plan, "const": kind.check(plan["const"], "const")}
            elif source == "source":
                if plan["source"] != "log_address":
                    raise ConfigError(f"{what}: unknown source {f.shown(plan['source'])}")
                ftype = "log_address"
            else:
                index, low = plan[source], 1 if source == "topic" else 0
                if isinstance(index, bool) or not isinstance(index, int) or index < low:
                    raise ConfigError(
                        f"{what}: {source} index must be an integer >= {low}, got {f.shown(index)}")
                ftype = plan.get("type", "uint")
                if ftype == "log_address" or all(ftype not in t for t in _FIELD_TYPES.values()):
                    raise ConfigError(f"{what}: unknown field type {f.shown(ftype)}")
                keys.add("type")
            suits = _FIELD_TYPES[kind.name]
            if ftype is not None and ftype not in suits:
                raise ConfigError(f"{what}: {'source' if source == 'source' else 'type'} {ftype!r} "
                                  f"does not suit column kind {kind.name} (use {' or '.join(suits)})")
            if ftype == "enum":
                labels = plan.get("labels")
                if not (isinstance(labels, dict) and labels):
                    raise ConfigError(f"{what}: enum needs 'labels', an object keyed by decimal codes")
                for code in labels:
                    f.uint_text(code, "labels")
                plan = {**plan, "labels": {code: kind.check(label, f"label {code}")
                                           for code, label in labels.items()}}
                keys.add("labels")
        except f.EncodingError as exc:
            raise ConfigError(f"{what}: {exc}") from exc
        for key in sorted(plan.keys() - keys):
            typed = f" of type {ftype!r}" if "type" in keys else ""
            raise ConfigError(f"{what}: key {f.shown(key)} does not apply to a {source} field{typed}")
        plans[name] = plan
    return plans


def load_config(path: str | Path) -> BridgeDecoderConfig:
    return BridgeDecoderConfig.from_json(f.read_json(path, ConfigError))


class IngestReport(NamedTuple):
    receipts: int
    facts_per_relation: dict[str, int]
    warnings: list[str]

    def as_dict(self) -> dict:
        return {
            "receipts": self.receipts,
            "facts_per_relation": dict(sorted(self.facts_per_relation.items())),
            "warning_count": len(self.warnings),
            "warnings": list(self.warnings),
        }


class EventPlan(NamedTuple):
    """One decodable event, keyed by its topic0 in the config's ``events``:
    relation and field plan, and the decoder and encoder that
    :func:`_event_plan` compiles from the plan, the encoder on its first
    call.

    ``decode(topics, data, address, tx_hash, event_index, chain_id)``
    returns the fact, or for a log that it refuses the reason, a string:
    ``"<field>: <reason>"`` for the first field, in plan order, whose word
    is missing or not allowed by its type, or else ``"topic N is not one
    32-byte hex word"`` for the first topic that no field reads and that
    is not one word. ``encode(fact, address)`` returns the log entry that
    ``decode`` turns back into ``fact``; ``address`` is the emitter unless
    a field is read from ``log_address``. A fact that cannot round-trip
    raises ``ValueError``: a value other than a ``const`` field's, an enum
    value without a code, or an integer that is not a canonical uint256.
    """

    relation: str
    fields: dict[str, dict]
    decode: Callable
    encode: Callable


# For each field type: the condition on its 64-digit hex word ``{w}`` that
# refuses it (None: every word is admitted), and why; and the expression
# turning the word into the column value. ``enum`` builds all three from its
# labels.
_WORD = {
    "address": ("{w} > _MAX_ADDRESS", "32-byte value is not a valid 20-byte address",
                '"0x" + {w}[24:]'),
    "chain_id": ("{w} == _ZERO_WORD", "chain id must be nonzero", "int({w}, 16)"),
    **dict.fromkeys(("uint", "id"), (None, None, "str(int({w}, 16))")),
}
_HEX_WORDS = re.compile(r"0x(?:[0-9a-f]{64})*\Z").match
_ZERO_WORD = "0" * 64
_MAX_ADDRESS = "0" * 24 + "f" * 40  # the greatest word whose top 12 bytes are zero


def _uint_word(value: int | str, what: str) -> str:
    """The data word of an amount or identifier: its text read by
    ``facts.uint_text``, an integer checked by ``facts._uint``."""
    return format(f.uint_text(value, what) if isinstance(value, str) else f._uint(value, what),
                  "064x")


def _enum_word(codes: dict, label: str, what: str) -> str:
    if label not in codes:
        raise ValueError(f"{what}: no enum code for {label!r}")
    return _uint_word(codes[label], what)


def _runs(slots: dict[int, Any]) -> list[tuple[int, int]]:
    """``(unfilled positions before it, position)`` for each position of
    ``slots``, in order."""
    order = sorted(slots)
    return [(i - j - 1, i) for j, i in zip([-1, *order], order)]


def _event_plan(topic0: str, relation: str, fields: dict[str, dict]) -> EventPlan:
    """Compile a checked field plan into its decoder, and its encoder on
    the encoder's first call.

    The decoder checks each field in plan order: its topic exists and is
    one word, or the data is whole words (checked once) and holds its word;
    then the word meets its type's condition (a left-padded address, a
    nonzero chain id, a labelled enum code). The topics that no field reads
    are checked last. It returns the reason of the first check that fails,
    or the fact built unchecked from the words; columns without a plan are
    its arguments of the same name. The encoder is its inverse; it takes
    the fields in plan order, so that an error names the first field that
    cannot be encoded.
    """
    fact_type = f.RELATIONS[relation]
    env: dict[str, Any] = {"_make": fact_type._unchecked, "_uint_word": _uint_word,
                           "_enum_word": _enum_word, "_topic": f._TX_HASH_RE.fullmatch,
                           "_hex_words": _HEX_WORDS, "_ZERO_WORD": _ZERO_WORD,
                           "_MAX_ADDRESS": _MAX_ADDRESS}
    values: dict[str, str] = {}  # column -> decoded value
    words = {"topic": {0: repr(topic0)}, "data": {}}  # index -> encoded word
    decode: list[str] = []
    encode: list[str] = []

    def refuse(condition: str, reason: str) -> None:  # reason: an f-string body
        decode.append(f"if {condition}: return f{reason!r}")

    for name, plan in fields.items():
        what, word = repr(f"{relation}.{name}"), f"word_{name}"
        if "const" in plan:
            env[f"_const_{name}"], values[name] = plan["const"], f"_const_{name}"
            encode += [f"if fact.{name} != _const_{name}:",
                       f"  raise ValueError(f'{relation}.{name}: {{fact.{name}!r}} "
                       f"is not the constant {{_const_{name}!r}}')"]
            continue
        if "source" in plan:
            values[name] = "address"
            encode.append(f"address = fact.{name}")
            continue
        source = "topic" if "topic" in plan else "data"
        i, ftype = plan[source], plan.get("type", "uint")
        if source == "topic":
            refuse(f"len(topics) <= {i}", f"{name}: topic {i} missing (log has {{len(topics)}})")
            refuse(f"not _topic(topics[{i}])", f"{name}: topic {i} is not one 32-byte hex word")
            decode.append(f"{word} = topics[{i}][2:]")
        else:
            if not words["data"]:
                refuse("not _hex_words(data)", f"{name}: data is not whole 32-byte hex words")
            refuse(f"len(data) < {66 + 64 * i}", f"{name}: data word {i} out of range")
            decode.append(f"{word} = data[{2 + 64 * i}:{66 + 64 * i}]")
        if ftype == "enum":
            labels = {format(int(code), "064x"): label for code, label in plan["labels"].items()}
            codes: dict = {}
            for code, label in plan["labels"].items():
                codes.setdefault(label, code)
            env[f"_labels_{name}"], env[f"_codes_{name}"] = labels, codes
            refuse(f"{word} not in _labels_{name}",
                   f"{name}: no enum label for value {{int({word}, 16)}}")
            value = f"_labels_{name}[{{w}}]"
            encoded = f"_enum_word(_codes_{name}, fact.{name}, {what})"
        else:
            condition, reason, value = _WORD[ftype]
            if condition is not None:
                refuse(condition.format(w=word), f"{name}: {reason}")
            encoded = (f"{'0' * 24!r} + fact.{name}[2:]" if ftype == "address"
                       else f"_uint_word(fact.{name}, {what})")
        values[name] = value.format(w=word)
        encode.append(f"{word} = {encoded}")
        words[source][i] = f"'0x' + {word}" if source == "topic" else word
    # the topics after topic0 that no field reads must be words as well
    read = sorted(words["topic"])
    for after, before in zip(read, [*read[1:], None]):
        if before != after + 1:
            decode += [f"for i in range({after + 1}, {before or 'len(topics)'}):",
                       "  if not _topic(topics[i]):",
                       "    return f'topic {i} is not one 32-byte hex word'"]
    decode.append(f"return _make({', '.join(values.get(c, c) for c, _ in fact_type.COLUMNS)})")
    # positions that no field fills are zero words
    topics = ", ".join(f"*[{'0x' + _ZERO_WORD!r}] * {gap}, " * bool(gap) + words["topic"][i]
                       for gap, i in _runs(words["topic"]))
    data = " + ".join(["'0x'", *(f"{_ZERO_WORD!r} * {gap} + " * bool(gap) + words["data"][i]
                                 for gap, i in _runs(words["data"]))])
    encode.append(f"return {{'address': address, 'topics': [{topics}], "
                  f"'data': {data}, 'logIndex': fact.event_index}}")
    decoder = f._compile(fact_type, env,
                         "decode(topics, data, address, tx_hash, event_index, chain_id)", decode)
    # only the generator encodes, so that ingest never compiles an encoder
    encoder = f._FirstUse(fact_type, env, "encode(fact, address)", encode)
    return EventPlan(relation, fields, decoder, encoder)


# ERC-20 ``Transfer(address,address,uint256)``, decoded from any emitter;
# its ``chain_id`` comes from the receipt.
_TRANSFER = _event_plan(TRANSFER_TOPIC, "erc20_transfer", {
    "token": {"source": "log_address"},
    "from_address": {"topic": 1, "type": "address"},
    "to_address": {"topic": 2, "type": "address"},
    "amount": {"data": 0, "type": "uint"},
})


def _contract(contracts: dict[str, str], value: Any, field: str) -> str:
    """``f.canonical_address(value, field)`` for the address of a contract,
    which many receipts name: ``contracts`` maps each canonical address
    text met so far to itself, so that each is checked once."""
    canonical = contracts.get(value) if type(value) is str else None
    if canonical is None:
        canonical = f.canonical_address(value, field)
        if canonical == value:
            contracts[canonical] = canonical
    return canonical


def _log_fields(obj, contracts: dict[str, str]) -> tuple[str, list[str], str, int]:
    """The checked ``(address, topics, data, logIndex)`` of one log object,
    with its hex text lowercased; the emitter through :func:`_contract`."""
    try:
        topics, data = obj["topics"], obj["data"]
        if not isinstance(topics, list):
            raise IngestError(f"log topics: expected a list of hex strings, got {f.shown(topics)}")
        if not isinstance(data, str):
            raise IngestError(f"log data: expected a hex string, got {f.shown(data)}")
        return (
            _contract(contracts, obj["address"], "log address"),
            list(map(str.lower, topics)),
            data.lower(),
            _as_uint(obj["logIndex"], "logIndex"),
        )
    except KeyError as exc:
        raise IngestError(f"log entry missing field {exc.args[0]!r}") from exc
    except TypeError as exc:  # not an object, or a topic that is not a string
        raise IngestError(
            f"log entry: expected an object with string topics, got {f.shown(obj)}") from exc


def decode_receipt(obj: Any, config: BridgeDecoderConfig,
                   contracts: dict[str, str] | None = None) -> tuple[list, list[str]]:
    """Check one receipt object (a parsed JSONL line) and decode it into facts.

    Always emits a transaction fact; adds one erc20_transfer per Transfer
    log, bridge facts per the config event map (bridge-emitted logs only),
    and a native escrow fact when the receipt moves value onto a bridge
    address. Returns ``(facts, warnings)``. A malformed receipt raises
    :class:`IngestError`, a receipt of a chain the config lacks
    :class:`ConfigError`. Each field is checked once, here or by a
    compiled decoder, and the facts are built from the checked values by
    their unchecked builders, which share each text value. A contract
    address is checked through :func:`_contract` and its memo
    ``contracts``, which :func:`ingest_jsonl` shares among the receipts of
    a file; a sender is a user, and takes the plain check.
    """
    if contracts is None:
        contracts = {}
    if not isinstance(obj, dict):
        raise IngestError(f"expected a receipt object, got {type(obj).__name__}")
    try:
        entries = obj["logs"]
        if not isinstance(entries, list):
            raise IngestError(f"logs: expected a list of log objects, got {f.shown(entries)}")
        logs = [_log_fields(entry, contracts) for entry in entries]
        indexes = [log[3] for log in logs]
        if indexes != sorted(set(indexes)):
            raise IngestError("logIndex values must be strictly increasing")
        status = f._status(_as_uint(obj["status"], "status"), "status")
        if status == 0 and logs:
            raise IngestError("status: a reverted transaction (status 0) has no logs, "
                              f"got {len(logs)}")
        chain_id = _as_uint(obj["chainId"], "chainId")
        tx_hash = f.canonical_tx_hash(obj["txHash"], "txHash")
        block_number = _as_uint(obj["blockNumber"], "blockNumber")
        timestamp = _as_uint(obj["blockTimestamp"], "blockTimestamp")
        sender = f.canonical_address(obj["from"], "from")
        to = _contract(contracts, obj["to"], "to")
        value = obj["value"]
        if not (type(value) is str and _DECIMAL_TEXT(value)):
            value = str(_as_uint(value, "value"))
        gas_used = _as_uint(obj["gasUsed"], "gasUsed")
    except KeyError as exc:
        raise IngestError(f"receipt missing field {exc.args[0]!r}") from exc
    except f.EncodingError as exc:
        raise IngestError(str(exc)) from exc
    chain = config.chains.get(chain_id)
    if chain is None:
        raise ConfigError(f"receipt chain {chain_id} not in decoder config")
    # a configured chain id is positive, and every other value was checked above
    out = [f.TransactionFact._unchecked(timestamp, chain_id, tx_hash, block_number,
                                        sender, to, value, status, gas_used)]
    warnings: list[str] = []
    bridges, events = chain.bridge_addresses, config.events
    # each topic0 has one decoder, as no config entry names the Transfer topic
    for address, topics, data, index in logs:
        topic0 = topics[0] if topics else None
        if topic0 == TRANSFER_TOPIC:
            if len(topics) != 3:
                warnings.append(f"tx {tx_hash} log {index}: Transfer with "
                                f"{len(topics)} topics (expected 3)")
                continue
            plan = _TRANSFER
        elif topic0 in events and address in bridges:
            plan = events[topic0]
        else:
            continue
        fact = plan.decode(topics, data, address, tx_hash, index, chain_id)
        if type(fact) is str:
            warnings.append(f"tx {tx_hash} log {index} ({plan.relation}): {fact}")
        else:
            out.append(fact)
    if value != "0" and to in bridges:
        escrow_type = f.ScDepositFact if chain.role == "source" else f.TcWithdrawalFact
        out.append(escrow_type._unchecked(tx_hash, NATIVE_EVENT_INDEX, sender, to, value))
    return out, warnings


def encode_receipt(tx: f.TransactionFact, facts: Iterable, config: BridgeDecoderConfig) -> dict:
    """The receipt object that :func:`decode_receipt` decodes back to ``tx``
    and ``facts``, the event facts of that transaction.

    A native escrow has no log: the receipt's value carries it. Every other
    fact is encoded by the plan of its relation, and a bridge log is
    emitted by the first bridge address of ``tx``'s chain.
    """
    plans = {plan.relation: plan for plan in (_TRANSFER, *config.events.values())}
    bridge = config.chains[tx.chain_id].bridge_addresses[0]
    logs = [plans[fact.RELATION].encode(fact, bridge)
            for fact in sorted(facts, key=attrgetter("event_index"))
            if not isinstance(fact, (f.ScDepositFact, f.TcWithdrawalFact))]
    return {"chainId": tx.chain_id, "txHash": tx.tx_hash, "blockNumber": tx.block_number,
            "blockTimestamp": tx.timestamp, "from": tx.from_address, "to": tx.to_address,
            "value": tx.value, "status": tx.status, "gasUsed": tx.gas_used, "logs": logs}


def ingest_jsonl(
    receipts_path: str | Path, config: BridgeDecoderConfig
) -> tuple[f.FactStore, IngestReport]:
    """Decode a JSONL receipts file into a store plus a report.

    The store is built once (:class:`facts.FactStore`) from the config's
    static facts and then each receipt's decoded facts, in file order. It
    is returned unsealed, without the indexes that only evaluation reads:
    call ``seal()`` on it before evaluating rules. The lines are read by
    :func:`facts.read_jsonl`: a line that is not JSON, that is not UTF-8,
    whose object names one key twice or that is not a receipt fails fast
    with its line number.
    """
    facts, receipts, warnings, contracts = list(config.static), 0, [], {}
    for where, obj in f.read_jsonl(receipts_path, IngestError):
        try:
            decoded, found = decode_receipt(obj, config, contracts)
        except (IngestError, ConfigError) as exc:  # ConfigError: a chain the config lacks
            raise IngestError(f"{where}: {exc}") from exc
        receipts += 1
        warnings += found
        facts += decoded
    store = f.FactStore(facts)
    counts = {name: count for name, count in store.relation_counts().items() if count}
    return store, IngestReport(receipts, counts, warnings)
