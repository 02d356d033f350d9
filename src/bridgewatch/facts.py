"""Typed fact relations and the in-memory fact store.

Thirteen relations describe everything the monitor knows about a pair of
bridged chains: per-transaction envelopes, token/native value movements,
bridge-emitted deposit/withdrawal events, and four static relations
(bridge addresses, token mappings, wrapped-native tokens, per-chain
finality windows).

Facts are immutable, hashable values with canonical field encodings:

* addresses: ``0x`` + 40 lowercase hex digits
* transaction hashes: ``0x`` + 64 lowercase hex digits
* amounts: base-10 strings over unsigned 256-bit integers, no leading zeros
* other integers: unsigned and at most 2**256 - 1, too (:func:`uint_text`)
* identifiers (deposit/withdrawal ids, token standards): opaque strings,
  compared by equality, free of tabs and newlines

Equal values are shared: every fact holds one ``str`` object per distinct
address, hash, amount and identifier, so a value repeated across facts and
relations is stored once and equal values compare by identity. Only the
fact builders share them, each column by its kind's ``load``.

Each fact class annotates its columns with a kind (``Address``, ``Uint``,
...). That one table of (name, kind) per relation yields the validating
constructor; the unchecked builder, which :func:`load_facts_dir` calls
with a matched row's text, and the receipt decoder and the generator with
canonical values; and the row renderer of :func:`dump_facts_dir`. These
are generated source, each compiled on its first use per class
(:class:`_FirstUse`): a command compiles only what it runs. The table also
yields what makes each fact a value (:func:`_relation`): one slot per
column and no ``__dict__``, and a getter of the column tuple, over which
:class:`_Fact` defines the value methods, none of them generated: equal
only to a fact of its own class with equal columns; hashed as the tuple of
its columns; shown as ``Name(col=value, ...)``; pickled through the
validating constructor. No field can be assigned or deleted
(``AttributeError``).

Each canonical form is checked by one rule, which the constructors, the
``.facts`` row patterns and the receipt decoder share.

The store keeps each relation as the tuple of its distinct facts, so that
reading a relation hashes no fact and copies nothing. It is built once,
from its facts (``FactStore(facts)``), or loaded (:func:`load_facts_dir`,
which alone sets the relations of the new store it fills directly), and
then only read; :func:`_windows` builds its ``finality`` either way.
:meth:`FactStore.require_sealed` is the one check that rules and
analytics make before they read its indexes; no other module touches the
relations.
Secondary indexes are built when the store is sealed, each a dict from key
to the key's fact when it has one, and to the tuple of its facts when
several share the key (:func:`index_by`, read through :func:`group` and
:func:`shared`).
Persistence is one tab-separated ``<relation>.facts`` file per relation,
compatible with common Datalog engine fact-file layouts. Every file the
package reads or writes is opened here. An input is read once, as bytes
that are decoded as UTF-8 here (:func:`load_facts_dir`, :func:`read_json`,
:func:`read_jsonl`); its lines end at LF alone, and its first bad line,
whether of a bad byte or of bad content, is named from what was read. Its
JSON is read by :func:`parse_json`. An output is written whole by
:func:`write_whole`; a dump holds :data:`DUMP_MARKER` until it ends, and
:func:`load_facts_dir` refuses it.
"""

from __future__ import annotations

import json
import os
import re
import stat
import sys
from itertools import compress
from operator import attrgetter, is_not
from pathlib import Path
from typing import Any, Callable, ClassVar, Iterable, Iterator, NamedTuple

__all__ = [
    "InputError",
    "EncodingError",
    "FactsParseError",
    "FactStoreError",
    "TransactionFact",
    "Erc20TransferFact",
    "ScDepositFact",
    "ScTokenDepositedFact",
    "TcTokenDepositedFact",
    "TcWithdrawalFact",
    "TcTokenWithdrewFact",
    "ScWithdrawalFact",
    "ScTokenWithdrewFact",
    "BridgeControlledAddressFact",
    "TokenMappingFact",
    "WrappedNativeTokenFact",
    "CctxFinalityFact",
    "RELATIONS",
    "FactStore",
    "canonical_address",
    "canonical_tx_hash",
    "canonical_amount",
    "uint_text",
    "read_json",
    "read_jsonl",
    "known_keys",
    "shown",
    "index_by",
    "group",
    "shared",
    "load_facts_dir",
    "dump_facts_dir",
    "write_whole",
]

MAX_UINT256 = (1 << 256) - 1

# The canonical text of an address and of a hash (or any 32-byte word), read
# by the constructors, the .facts row patterns and the receipt decoder alike
_ADDRESS_RE = re.compile("0x[0-9a-f]{40}")
_TX_HASH_RE = re.compile("0x[0-9a-f]{64}")
# negative text parses, to be refused by name
_INT_TEXT = re.compile(r"(0|-?[1-9][0-9]*)\Z")


# The longest repr of bad input that an error message shows (see shown()).
SHOWN_CHARS = 80


def shown(value: Any) -> str:
    """``repr(value)`` as an error message shows bad input: at most
    ``SHOWN_CHARS`` characters, a longer one cut to its two ends around
    ``...``, so that a megabyte of input makes a one-line message."""
    return _cut(repr(value))


def _cut(text: str) -> str:
    if len(text) <= SHOWN_CHARS:
        return text
    half = (SHOWN_CHARS - 3) // 2
    return f"{text[:half]}...{text[-half:]}"


class InputError(ValueError):
    """The base of every error that bad input raises. Each names where the
    input is wrong: file and line, receipt line, or config key."""


class EncodingError(ValueError):
    """A field failed canonical encoding; ``field`` names the offender."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class FactsParseError(InputError):
    """A ``.facts`` file line could not be parsed (names file and line)."""


class FactStoreError(RuntimeError):
    """A fact that a store refuses: one of no relation, or one that gives
    its chain a second finality window. ``fact`` is that fact."""

    def __init__(self, message: str, fact: Any):
        super().__init__(message)
        self.fact = fact


def canonical_address(value: str, field: str = "address") -> str:
    """Lowercase and validate a 20-byte 0x-prefixed hex address."""
    return _canonical_hex(value, field, _ADDRESS_RE, "20-byte hex address")


def canonical_tx_hash(value: str, field: str = "tx_hash") -> str:
    """Lowercase and validate a 32-byte 0x-prefixed hex hash."""
    return _canonical_hex(value, field, _TX_HASH_RE, "32-byte hex hash")


def _canonical_hex(value, field: str, pattern: re.Pattern, shape: str) -> str:
    """``value`` lowercased, if that is ``pattern``'s text;
    ``shape`` names the value in the error (its last word, its type)."""
    if not isinstance(value, str):
        raise EncodingError(field, f"expected {shape.rsplit(' ', 1)[1]} string, "
                                   f"got {type(value).__name__}")
    v = value.lower()
    if not pattern.fullmatch(v):
        raise EncodingError(field, f"not a canonical {shape}: {shown(value)}")
    return v


def canonical_amount(value: str | int, field: str = "amount") -> str:
    """Validate a 256-bit unsigned amount, returned as a decimal string."""
    if isinstance(value, str):
        uint_text(value, field)
    else:
        _uint(value, field)
    return str(value)  # str(): sys.intern takes no str subclass


def _uint(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise EncodingError(field, f"expected unsigned integer, got {shown(value)}")
    if value < 0:
        raise EncodingError(field, f"negative value {shown(value)}")
    if value > MAX_UINT256:  # not shown: it may have more digits than str() converts
        raise EncodingError(field, "out of uint256 range")
    return value


def uint_text(text: str, field: str) -> int:
    """The value of unsigned-integer text: ASCII decimal digits without
    sign or leading zero, within uint256. Every input format reads its
    integer text by this one rule."""
    if not isinstance(text, str) or not _INT_TEXT.match(text):
        raise EncodingError(field, f"cannot parse unsigned integer from {shown(text)}")
    if len(text) > 78:  # more digits than uint256, and maybe than int() converts
        raise EncodingError(field, "out of uint256 range")
    return _uint(int(text), field)


def _nonzero(message: str) -> Callable[[Any, str], int]:
    """The check of an unsigned integer that refuses 0 with ``message``."""
    def check(value, field: str) -> int:
        if _uint(value, field) == 0:
            raise EncodingError(field, message)
        return value
    return check


_chain_id = _nonzero("chain id must be nonzero")
_positive = _nonzero("must be positive")


def _status(value, field: str) -> int:
    if _uint(value, field) > 1:
        raise EncodingError(field, f"expected 0 or 1, got {value}")
    return value


def _opaque(value, field: str) -> str:
    if not isinstance(value, str):
        raise EncodingError(field, f"expected string, got {type(value).__name__}")
    if "\t" in value or "\n" in value or "\r" in value:
        raise EncodingError(field, "must not contain tab or newline")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate, which no file can hold
        raise EncodingError(field, f"cannot be written as UTF-8: {shown(value)}") from None
    return str(value)


class _Kind(NamedTuple):
    """The encoding of one column kind: the constructor's check, the
    canonical ``.facts`` text, and the function that loads a value."""

    check: Callable[[Any, str], Any]  # constructor: (value, field) -> canonical value
    pattern: str  # regex of every ``.facts`` text the kind accepts
    load: Callable[[Any], Any]  # in each builder: ``int``, or ``sys.intern`` to share text
    name: str = ""  # the annotation that selects the kind, set in _KINDS


# Integers of at most 77 digits, all within uint256; a longer one makes its
# row take the checked path of load_facts_dir.
_DECIMAL = "0|[1-9][0-9]{0,76}"

# Column kinds, named by the annotations of the fact classes. Each pattern
# accepts canonical text only, so that a row it matches is its fact's
# _to_row() text: load_facts_dir drops repeated rows by their text. Hex text
# in another case takes the checked path, which lowercases it as the
# constructor does. These loads are the one place that shares text.
_KINDS = {
    "Address": _Kind(canonical_address, _ADDRESS_RE.pattern, sys.intern),
    "TxHash": _Kind(canonical_tx_hash, _TX_HASH_RE.pattern, sys.intern),
    "Amount": _Kind(canonical_amount, _DECIMAL, sys.intern),
    "Opaque": _Kind(_opaque, "[^\t\n\r]*", sys.intern),
    "Uint": _Kind(_uint, _DECIMAL, int),
    "ChainId": _Kind(_chain_id, "[1-9][0-9]{0,76}", int),
    "Status": _Kind(_status, "[01]", int),
    "Positive": _Kind(_positive, "[1-9][0-9]{0,76}", int),
}
_KINDS = {name: kind._replace(name=name) for name, kind in _KINDS.items()}

# Type aliases for the annotations; the annotation text selects the kind.
Address = TxHash = Amount = Opaque = str
Uint = ChainId = Status = Positive = int


def _compile(owner: type, env: dict, signature: str, body: list[str]) -> Callable:
    """The function ``def <signature>: <body>``, compiled with a copy of
    ``env`` as its globals and named as a method of ``owner``."""
    namespace = dict(env)
    exec("\n".join([f"def {signature}:", *(f"  {line}" for line in body)]), namespace)
    fn = namespace[signature.split("(", 1)[0]]
    fn.__qualname__ = f"{owner.__qualname__}.{fn.__name__}"
    return fn


class _FirstUse:
    """One generated function, ``def <signature>: <body>`` over ``env``,
    compiled by :func:`_compile` when it is first used, so that a command
    pays only for the functions that it runs.

    Called, it compiles itself once and then calls the compiled function.
    Set as a method of ``cls``, it compiles on the first lookup and puts
    the compiled function (a ``staticmethod``, if ``static``) in its own
    place in the class, so that every later call costs what a method
    compiled at import costs; special methods, which the interpreter looks
    up on the class, too."""

    __slots__ = ("cls", "env", "signature", "body", "static", "function")

    def __init__(self, cls: type, env: dict, signature: str, body: list[str],
                 static: bool = False):
        self.cls, self.env, self.signature, self.body = cls, env, signature, body
        self.static, self.function = static, None

    def compiled(self) -> Callable:
        if self.function is None:
            self.function = _compile(self.cls, self.env, self.signature, self.body)
        return self.function

    def __call__(self, *args):
        return (self.function or self.compiled())(*args)

    def __get__(self, obj, objtype=None):
        fn = self.compiled()
        setattr(self.cls, fn.__name__, staticmethod(fn) if self.static else fn)
        return fn if self.static else fn.__get__(obj, objtype)


# Every fact class by relation name, in definition order; filled by _relation.
RELATIONS: dict[str, type[_Fact]] = {}


def _relation(cls):
    """Rebuild ``cls`` with the ``__slots__`` of its annotated (name, kind)
    columns, in ``COLUMNS`` order, and their getter ``_values``, and give
    it three generated methods, each compiled on its first use
    (:class:`_FirstUse`): the validating ``__init__``; ``_unchecked``,
    which takes every column already canonical (or a row's matched text)
    and checks none of them; and the row renderer ``_to_row`` of
    :func:`dump_facts_dir`. Both builders set each column to its kind's
    ``load`` of the value. The value methods are :class:`_Fact`'s, over
    ``_values``; none is generated."""
    # annotations are strings (``from __future__ import annotations``); the
    # ClassVar ones name no kind
    columns = tuple((name, _KINDS[kind]) for name, kind in cls.__annotations__.items()
                    if kind in _KINDS)
    names = [name for name, _ in columns]
    body = {k: v for k, v in vars(cls).items() if k not in ("__dict__", "__weakref__")}
    cls = type(cls.__name__, cls.__bases__, {**body, "__slots__": tuple(names), "COLUMNS": columns,
                                             "_values": attrgetter(*names)})
    env: dict[str, Any] = {"_new": object.__new__, "_cls": cls}
    init, build = [], ["self = _new(_cls)"]
    for name, kind in columns:
        env[f"_set_{name}"] = getattr(cls, name).__set__
        env[f"_check_{name}"], env[f"_load_{name}"] = kind.check, kind.load
        init.append(f"_set_{name}(self, _load_{name}(_check_{name}({name}, {name!r})))")
        build.append(f"_set_{name}(self, _load_{name}({name}))")
    row = "\\t".join(f"{{self.{name}}}" for name in names)
    for signature, lines in {
        f"__init__(self, {', '.join(names)})": init,
        "_to_row(self)": [f'return f"{row}"'],
        f"_unchecked({', '.join(names)})": [*build, "return self"],
    }.items():
        name = signature.split("(", 1)[0]
        setattr(cls, name, _FirstUse(cls, env, signature, lines, static=name == "_unchecked"))
    # compiled by load_facts_dir, so that only loading pays for it
    cls._ROW_PATTERN = "\t".join(f"({kind.pattern})" for _, kind in columns) + "\n?\\Z"
    RELATIONS[cls.RELATION] = cls
    return cls


class _Fact:
    """Base for all relations; field order equals on-disk column order.
    ``_values``, set by :func:`_relation`, reads a fact's columns as a
    tuple (every relation has two or more): the value methods read it."""

    __slots__ = ()

    RELATION: ClassVar[str] = ""
    COLUMNS: ClassVar[tuple[tuple[str, _Kind], ...]] = ()

    def columns(self) -> tuple[str, ...]:
        return tuple(self._to_row().split("\t"))

    def __eq__(self, other):
        return (self._values(self) == self._values(other) if other.__class__ is self.__class__
                else NotImplemented)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = ", ".join(map("{}={!r}".format, self.__slots__, self._values(self)))
        return f"{self.__class__.__name__}({shown})"

    def __reduce__(self):
        return self.__class__, self._values(self)

    # the constructors set each slot through its descriptor, not through these
    def __setattr__(self, name: str, _) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


@_relation
class TransactionFact(_Fact):
    """One transaction envelope: 9 columns, three of which (block_number,
    to_address, gas_used) are never constrained by any rule."""

    RELATION: ClassVar[str] = "transaction"

    timestamp: Uint
    chain_id: ChainId
    tx_hash: TxHash
    block_number: Uint
    from_address: Address
    to_address: Address
    value: Amount
    status: Status
    gas_used: Uint


@_relation
class Erc20TransferFact(_Fact):
    """An ERC-20 Transfer event (token = emitting contract)."""

    RELATION: ClassVar[str] = "erc20_transfer"

    tx_hash: TxHash
    chain_id: ChainId
    event_index: Uint
    token: Address
    from_address: Address
    to_address: Address
    amount: Amount


@_relation
class ScDepositFact(_Fact):
    """Native value escrowed into the bridge on the source chain."""

    RELATION: ClassVar[str] = "sc_deposit"

    tx_hash: TxHash
    event_index: Uint
    sender: Address
    bridge_addr: Address
    amount: Amount


@_relation
class ScTokenDepositedFact(_Fact):
    """Bridge deposit event on the source chain."""

    RELATION: ClassVar[str] = "sc_token_deposited"

    tx_hash: TxHash
    event_index: Uint
    deposit_id: Opaque
    beneficiary: Address
    dst_token: Address
    orig_token: Address
    dst_chain_id: ChainId
    standard: Opaque
    amount: Amount


@_relation
class TcTokenDepositedFact(_Fact):
    """Bridge deposit event on the target chain (release of wrapped funds)."""

    RELATION: ClassVar[str] = "tc_token_deposited"

    tx_hash: TxHash
    event_index: Uint
    deposit_id: Opaque
    beneficiary: Address
    dst_token: Address
    amount: Amount


@_relation
class TcWithdrawalFact(_Fact):
    """Native value escrowed into the bridge on the target chain."""

    RELATION: ClassVar[str] = "tc_withdrawal"

    tx_hash: TxHash
    event_index: Uint
    sender: Address
    bridge_addr: Address
    amount: Amount


@_relation
class TcTokenWithdrewFact(_Fact):
    """Bridge withdrawal event on the target chain (escrow side)."""

    RELATION: ClassVar[str] = "tc_token_withdrew"

    tx_hash: TxHash
    event_index: Uint
    withdrawal_id: Opaque
    beneficiary: Address
    orig_token: Address
    dst_token: Address
    dst_chain_id: ChainId
    standard: Opaque
    amount: Amount


@_relation
class ScWithdrawalFact(_Fact):
    """Native value released by the bridge on the source chain."""

    RELATION: ClassVar[str] = "sc_withdrawal"

    tx_hash: TxHash
    event_index: Uint
    bridge_addr: Address
    beneficiary: Address
    amount: Amount


@_relation
class ScTokenWithdrewFact(_Fact):
    """Bridge withdrawal event on the source chain (release side)."""

    RELATION: ClassVar[str] = "sc_token_withdrew"

    tx_hash: TxHash
    event_index: Uint
    withdrawal_id: Opaque
    beneficiary: Address
    dst_token: Address
    amount: Amount


@_relation
class BridgeControlledAddressFact(_Fact):
    """An address that holds or moves the bridge's funds on one chain."""

    RELATION: ClassVar[str] = "bridge_controlled_address"

    chain_id: ChainId
    address: Address


@_relation
class TokenMappingFact(_Fact):
    """A token on its origin chain and the token the bridge mints or
    releases for it on the destination chain, under one token standard."""

    RELATION: ClassVar[str] = "token_mapping"

    orig_chain_id: ChainId
    dst_chain_id: ChainId
    orig_token: Address
    dst_token: Address
    standard: Opaque


@_relation
class WrappedNativeTokenFact(_Fact):
    """The token that stands for a chain's native currency in the bridge's
    token mappings."""

    RELATION: ClassVar[str] = "wrapped_native_token"

    chain_id: ChainId
    token: Address


@_relation
class CctxFinalityFact(_Fact):
    """Per-chain finality window in seconds (fraud-proof window or block
    finality); a cross-chain pair is legitimate only strictly after it."""

    RELATION: ClassVar[str] = "cctx_finality"

    chain_id: ChainId
    finality_seconds: Positive


# Every column naming a chain, as (relation, column), except the finality
# table's: each chain they name needs a finality window.
_CHAIN_ID_COLUMNS = tuple(
    (name, column)
    for name, fact_type in RELATIONS.items() if name != "cctx_finality"
    for column, kind in fact_type.COLUMNS if kind.name == "ChainId"
)


def index_by(items: tuple | frozenset, key: Callable) -> dict[Any, Any]:
    """``items`` grouped by ``key``: each key to its item when the key has
    one, and to the tuple of its items, in the iteration order of
    ``items``, when several share it. Read a key's items with
    :func:`group`. An item must not be a plain tuple, so that
    ``value.__class__ is tuple`` tells the two shapes apart: no fact is a
    tuple, and a rule's named tuple has a class of its own. Linear in the
    items, however many of them share a key."""
    index = dict(zip(map(key, items), items))  # each key to its last item, in C
    if len(index) < len(items):  # some keys are shared: group the items before the last
        earlier: dict = {}
        last_of = index.__getitem__
        for item in compress(items, map(is_not, map(last_of, map(key, items)), items)):
            earlier.setdefault(key(item), []).append(item)
        index.update({k: (*items_before, last_of(k)) for k, items_before in earlier.items()})
    return index


def group(index: dict, key: Any) -> tuple:
    """The items of ``key`` in an index built by :func:`index_by`, as a
    tuple: ``()`` for a key that it does not hold."""
    value = index.get(key, ())
    return value if value.__class__ is tuple else (value,)


def shared(items: tuple | frozenset, key: Callable) -> Iterator[tuple]:
    """The groups of two or more of ``items`` that share ``key``, as tuples
    (:func:`index_by`)."""
    return (same for same in index_by(items, key).values() if same.__class__ is tuple)


class FactStore:
    """Set-semantics container for the thirteen relations, built once from
    its ``facts`` and then only read: each relation is the tuple of its
    distinct facts, in the order first seen (``FactStore()`` is the empty
    store), and ``finality`` maps each chain id to its window in seconds
    (:func:`_windows`). A fact of no relation raises :class:`FactStoreError`.
    ``seal()`` builds the secondary indexes, after which the store is safe
    for concurrent readers:

    * ``by_tx``: per relation with a ``tx_hash`` column (``transaction``
      and the eight event relations), each tx hash to its facts of that
      relation;
    * ``bridge_addresses``, ``token_mappings``, ``wrapped_native``: the
      static relations as sets of plain tuples.

    The indexes of facts map a key to its fact when the key has one, and
    to the tuple of its facts when several share it; they are built by
    :func:`index_by` and read through :func:`group`. Almost every tx hash
    has one fact per relation, and a bare fact takes no 48-byte 1-tuple.
    """

    def __init__(self, facts: Iterable[_Fact] = ()):
        groups: dict[str, list[_Fact]] = {name: [] for name in RELATIONS}
        for fact in facts:
            if fact.RELATION not in groups:
                raise FactStoreError(f"unknown relation {fact.RELATION!r}", fact)
            groups[fact.RELATION].append(fact)
        self._relations: dict[str, tuple[_Fact, ...]] = {
            name: tuple(dict.fromkeys(group)) for name, group in groups.items()}
        self._sealed = False
        self.finality: dict[int, int] = _windows(self._relations["cctx_finality"])
        # indexes, populated by seal()
        self.by_tx: dict[str, dict[str, _Fact | tuple[_Fact, ...]]] = {}
        self.bridge_addresses: set[tuple[int, str]] = set()
        self.token_mappings: set[tuple[int, int, str, str, str]] = set()
        self.wrapped_native: set[tuple[int, str]] = set()

    def require_sealed(self) -> None:
        """Raise ``RuntimeError`` unless the store is sealed: rules and
        analytics read the indexes that :meth:`seal` builds."""
        if not self._sealed:
            raise RuntimeError("store must be sealed before evaluation")

    def relation(self, name: str) -> tuple[_Fact, ...]:
        """The distinct facts of relation ``name``."""
        return self._relations[name]

    def count(self, name: str) -> int:
        return len(self._relations[name])

    def total_facts(self) -> int:
        return sum(len(s) for s in self._relations.values())

    def relation_counts(self) -> dict[str, int]:
        return {name: len(self._relations[name]) for name in RELATIONS}

    def __iter__(self) -> Iterator[_Fact]:
        for name in RELATIONS:
            yield from self._relations[name]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FactStore):
            return NotImplemented
        return all(set(self._relations[name]) == set(other._relations[name])
                   for name in RELATIONS)

    def chain_ids(self) -> set[int]:
        """Every chain id referenced by any fact (excluding cctx_finality)."""
        ids: set[int] = set()
        for name, column in _CHAIN_ID_COLUMNS:
            ids.update(map(attrgetter(column), self._relations[name]))
        return ids

    def seal(self) -> "FactStore":
        """Build the secondary indexes. Returns self."""
        if self._sealed:
            return self
        tx_hash = attrgetter("tx_hash")
        self.by_tx = {name: index_by(facts, tx_hash) for name, facts in self._relations.items()
                      if "tx_hash" in dict(RELATIONS[name].COLUMNS)}
        self.bridge_addresses, self.token_mappings, self.wrapped_native = (
            set(map(RELATIONS[name]._values, self._relations[name]))
            for name in ("bridge_controlled_address", "token_mapping", "wrapped_native_token"))
        self._sealed = True
        return self


def _windows(facts: Iterable[CctxFinalityFact]) -> dict[int, int]:
    """Each chain of the ``cctx_finality`` ``facts`` to its window in
    seconds. A fact that gives its chain a second window raises
    :class:`FactStoreError`."""
    windows: dict[int, int] = {}
    for fact in facts:
        window = windows.setdefault(fact.chain_id, fact.finality_seconds)
        if window != fact.finality_seconds:
            raise FactStoreError(f"conflicting cctx_finality for chain {fact.chain_id}: "
                                 f"{window} vs {fact.finality_seconds}", fact)
    return windows


def _checked_row(fact_type: type[_Fact], line: str) -> _Fact:
    """The fact of a line that the relation's row pattern did not match,
    each column read by its kind's check, in column order, and built by
    ``_unchecked``, which shares the checked values as it shares matched
    text. Such a line holds an integer longer than the pattern admits, or
    text that a column's check refuses: the error names the first such
    column."""
    cols = line.removesuffix("\n").split("\t")
    if len(cols) != len(fact_type.COLUMNS):
        raise EncodingError(
            fact_type.RELATION, f"expected {len(fact_type.COLUMNS)} columns, got {len(cols)}"
        )
    return fact_type._unchecked(*[kind.check(uint_text(text, name) if kind.load is int else text, name)
                                  for text, (name, kind) in zip(cols, fact_type.COLUMNS)])


DUMP_MARKER = ".dump-incomplete"  # in a directory while dump_facts_dir writes it


def load_facts_dir(path: str | Path) -> FactStore:
    """Load a directory of ``<relation>.facts`` TSV files into a new store.

    Missing files mean empty relations. Each file is read once, as bytes
    split at LF alone; a last line without its LF is read as if it had
    one. Blank lines are skipped, and a repeated line is read once: each
    distinct line is decoded and checked in file order, and each relation
    is the tuple of its distinct facts, in that order. A ``.facts`` file
    of no relation, or a line that is not UTF-8, has the wrong column
    count or a malformed field or gives a chain a second finality window
    (:func:`_windows`), raises :class:`FactsParseError` naming the
    file and, for bad lines, the number of the first in line order; so
    does the :data:`DUMP_MARKER` of a stopped dump.
    """
    root = Path(path)
    if not root.is_dir():
        raise FileNotFoundError(f"not a directory: {root}")
    if (root / DUMP_MARKER).exists():
        raise FactsParseError(f"{root / DUMP_MARKER}: the dump into this directory did not finish")
    store = FactStore()
    for file_path in sorted(root.glob("*.facts")):
        name = file_path.stem
        if name not in RELATIONS:
            raise FactsParseError(f"{file_path}: unknown relation {shown(name)}")
        fact_type = RELATIONS[name]
        with open(file_path, "rb") as fh:
            raw_lines = fh.readlines()  # split at LF alone
        if raw_lines and not raw_lines[-1].endswith(b"\n"):
            raw_lines[-1] += b"\n"
        lines = dict.fromkeys(raw_lines)  # each distinct line once, in file order
        lines.pop(b"\n", None)
        match, build = re.compile(fact_type._ROW_PATTERN).match, fact_type._unchecked
        facts: list[_Fact] = []  # the fact of each distinct line, in the order of lines
        append = facts.append
        checked = False
        try:
            for raw in lines:
                line = raw.decode("utf-8")
                m = match(line)
                if m is not None:
                    append(build(*m.groups()))
                else:
                    append(_checked_row(fact_type, line))
                    checked = True
            if fact_type is CctxFinalityFact:
                store.finality = _windows(facts)
        except (UnicodeDecodeError, EncodingError, FactStoreError) as exc:
            if isinstance(exc, FactStoreError):  # the first line of the fact that conflicts
                raw = list(lines)[facts.index(exc.fact)]
            reason = f"not UTF-8: {exc.reason}" if isinstance(exc, UnicodeDecodeError) else exc
            raise FactsParseError(f"{file_path}:{raw_lines.index(raw) + 1}: {reason}") from exc
        if facts:
            # a row matched by no pattern may be another row's fact in other text
            store._relations[name] = tuple(dict.fromkeys(facts) if checked else facts)
    return store


class _RepeatedKey(ValueError):
    """A JSON object names one key twice."""


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """The JSON object of ``pairs``; one that names a key twice raises
    :class:`_RepeatedKey` with the first key that it repeats."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise _RepeatedKey(key)
            seen.add(key)
    return obj


class _JsonFloat(float):
    """A JSON number with a fraction or an exponent: a ``float`` of the
    same ``repr``, which keeps its literal as ``text``, so that a reader
    that needs the number exactly (a price) reads what was written."""

    __slots__ = ("text",)

    def __new__(cls, text: str):
        number = super().__new__(cls, text)
        number.text = text
        return number


_JsonFloat.__name__ = "float"  # as a message names a value's type


# The one JSON decoder of every input file. An object that names one key
# twice, which json.loads alone would read as its last value, raises
# _RepeatedKey: parse_json names it.
_JSON_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys, parse_float=_JsonFloat)


def known_keys(obj: dict, where: str, error: Callable[[str], InputError], *keys: str) -> None:
    """Raise ``error`` naming ``where`` and the first key of ``obj`` not in ``keys``."""
    for key in obj:
        if key not in keys:
            raise error(f"{where}: unknown key {shown(key)} (expected {', '.join(keys)})")


def read_json(path: str | Path, error: Callable[[str], InputError]) -> Any:
    """The JSON document in the file ``path``, read by :func:`parse_json`.
    The file is read once, as bytes: bytes that are not UTF-8 raise
    ``error`` naming the file and the line that holds the first bad byte,
    lines ending at LF alone, from a pipe as from a regular file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line_no}: not UTF-8: {exc.reason}") from exc
    return parse_json(text, path, error)


def read_jsonl(path: str | Path, error: Callable[[str], InputError]) -> Iterator[tuple[str, Any]]:
    """``(where, value)`` for each line of the JSON Lines file ``path`` that
    is not blank: ``where`` is ``<file>:<line>``, lines ending at LF alone
    (a CR is JSON whitespace), and ``value`` is the line read by
    :func:`parse_json`, which raises ``error`` naming ``where``. The file
    is read once, as bytes, and each line decoded on its own, so a line
    that is not UTF-8 raises ``error`` naming ``where``, from a pipe too."""
    name = str(Path(path))
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            where = f"{name}:{line_no}"
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise error(f"{where}: not UTF-8: {exc.reason}") from exc
            if line.strip():
                yield where, parse_json(line, where, error)


def parse_json(text: str, where: str | Path, error: Callable[[str], InputError]) -> Any:
    """The JSON document ``text``, read by :data:`_JSON_DECODER` in one call
    when it is good. Text that is not JSON, that starts with a byte-order
    mark, that nests too deeply, that holds an integer too long to convert
    or an object that names one key twice raises ``error`` naming ``where``
    (a file, or a file and line)."""
    try:
        return _JSON_DECODER.decode(text)
    except _RepeatedKey as exc:
        raise error(f"{where}: duplicate key {shown(exc.args[0])}") from None
    except json.JSONDecodeError as exc:
        if text.startswith("\ufeff"):  # the decoder refuses it at char 0; named as json.loads names it
            exc = json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        raise error(f"{where}: not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise error(f"{where}: JSON nested too deeply") from exc
    except ValueError as exc:  # an integer with more digits than int() converts
        raise error(f"{where}: {_long_integer(text)}") from exc


def _long_integer(text: str) -> str:
    """Name the first integer of the JSON ``text`` that is longer than any
    uint256, by its key path (``logs[0].logIndex: out of uint256 range``).
    For text that ``json.loads`` refused with a plain ``ValueError``."""
    too_long = object()
    # an object is read as the tuple of its pairs, so that a repeated key keeps each value
    stack: list[tuple[str, Any]] = [("", json.loads(
        text, parse_int=lambda digits: too_long if len(digits) > 78 else 0, object_pairs_hook=tuple
    ))]
    while stack:
        key, value = stack.pop()
        if value is too_long:
            return f"{_cut(key) or 'document'}: out of uint256 range"
        if isinstance(value, tuple):
            stack += reversed([(f"{key}.{k}" if key else k, v) for k, v in value])
        elif isinstance(value, list):
            stack += reversed([(f"{key}[{i}]", v) for i, v in enumerate(value)])
    raise AssertionError("the JSON text holds no integer longer than 78 digits")


def dump_facts_dir(store: FactStore, path: str | Path) -> list[Path]:
    """Write one sorted ``<relation>.facts`` file per non-empty relation,
    each by :func:`write_whole`, and remove the file of each empty one that
    an earlier dump left; files of no relation stay.

    Rows are sorted lexicographically so dumps are deterministic. A dump
    that finishes reproduces the store under ``load_facts_dir``, also in a
    directory that held another dump. One stopped part-way leaves the
    :data:`DUMP_MARKER` that it writes first and removes last, which
    ``load_facts_dir`` refuses: it never loads as a mix of two dumps.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    write_whole(root / DUMP_MARKER, ())
    written: list[Path] = []
    for name, fact_type in RELATIONS.items():
        facts = store._relations[name]
        file_path = root / f"{name}.facts"
        if not facts:
            file_path.unlink(missing_ok=True)
            continue
        rows = sorted(map(fact_type._to_row, facts))
        write_whole(file_path, map("{}\n".format, rows))
        del rows  # before the next relation's rows are built
        written.append(file_path)
    (root / DUMP_MARKER).unlink()
    return written


def write_whole(path: str | Path, lines: Iterable[str]) -> None:
    """Write the text ``lines`` to ``path`` so that no reader sees a part
    of it: through a sibling ``<path>.<pid>.tmp`` that ``os.replace`` moves
    over the file, when ``path`` is missing or names a regular file of one
    link that this user owns (through a symbolic link, onto its target;
    the file's mode is kept), and removed on any failure. Anything else,
    such as ``/dev/null``, ``/dev/stdout`` on a pipe, a FIFO, or a file
    with other hard links or another owner, is written through: a replace
    would swap out the device node, find no directory beside the pipe, or
    cut the links and the owner."""
    st = os.stat(path) if os.path.exists(path) else None
    if st is not None and not (stat.S_ISREG(st.st_mode) and st.st_nlink == 1
                               and st.st_uid == os.geteuid()):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
        return
    target = os.path.realpath(path)
    temp = Path(f"{target}.{os.getpid()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
        if st is not None:
            temp.chmod(stat.S_IMODE(st.st_mode))
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
