"""Deterministic synthetic two-chain bridge traffic with labeled attacks.

Generates the full event choreography of valid deposits (escrow on the
source chain, release on the target chain) and withdrawals (the reverse),
then injects anomalies. Only ``finality_break`` breaks exactly one
conjunct of the rule set; the others leave out a leg or an event, or break
nothing:

* ``forged_release``: a valid release on the source chain whose id no
  escrow carries (expected detector kind: UnmatchedLocalWithdrawal).
* ``replayed_id``: one withdrawal id reused across several release
  transactions. It breaks nothing: every release is valid, and the one id
  derives ``fanout`` cross-chain tuples (DuplicateId, plus one
  AmbiguousMatch per reused id).
* ``finality_break``: a deposit whose legs match on every join key but
  land inside the finality window, so only ``finality`` fails
  (FinalityViolation).
* ``direct_transfer``: a token transfer straight into the bridge address
  with no bridge event (SingleTokenEvent).
* ``orphan_bridge_event``: a bridge deposit event with no leg of any
  shape: no token movement and no native value (SingleBridgeEvent).

Randomness comes from SplitMix64: state advances by the golden-gamma
constant 0x9E3779B97F4A7C15 and the output is a xor-shift/multiply
finalizer (constants 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, shifts
30/27/31). Fixtures are therefore reproducible across platforms and
languages. ``randint`` maps the 64-bit output with a plain modulus; the
bias is irrelevant at these ranges and keeps the algorithm trivial to
port.

Every scenario runs in one fixed world: the chains ``SOURCE`` and
``TARGET``, ``N_USERS`` users and ``N_TOKEN_PAIRS`` ERC-20 token pairs.
Parameters choose only the seed, the flow counts and the injected
anomalies.

Deposit flows alternate ERC-20 and native escrows by index; withdrawal
flows cycle through ERC-20/ERC-20, native escrow, and native release
shapes. That split is positional, not random, so ``describe`` can state
exact expected rule counts without replaying the generator.

The synthetic bridge emits one event per bridge relation, and its decoder
config lays each event out from the relation's columns: those after
``tx_hash`` and ``event_index``, in column order, fill topics 1, 2, ...
up to the event's number of indexed columns, then data words 0, 1, ....
A ``bridge_addr`` column is the log's emitter and takes no position. A
column's field type is the first that the decoder lets its kind take
(``ingest._FIELD_TYPES``): ``Address`` is ``address``, ``ChainId``
``chain_id``, ``Amount`` ``uint`` and ``Opaque`` ``id``, each signed as
``uint256`` but an ``address``; ``standard`` is an ``enum``, signed as
``uint8`` and labelled ``ERC20`` (0) and ``NATIVE`` (1).

Each output file is written whole by ``facts.write_whole`` (the facts
through ``dump_facts_dir``): a stopped ``simulate`` leaves it old or new.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

from . import facts as f
from .facts import FactStore, dump_facts_dir, write_whole
from .ingest import (_FIELD_TYPES, NATIVE_EVENT_INDEX, BridgeDecoderConfig, encode_receipt,
                     static_facts)
from .keccak import event_topic  # noqa: F401  (bench/tracing.py wraps scenario.event_topic)

__all__ = [
    "SplitMix64",
    "AnomalySpec",
    "ScenarioParams",
    "ParameterError",
    "parse_count",
    "GeneratedScenario",
    "generate",
    "describe",
    "ANOMALY_KINDS",
    "EXPECTED_ANOMALY",
]

_MASK64 = (1 << 64) - 1

# Each injected anomaly kind and the detector kind that flags it
EXPECTED_ANOMALY = {
    "forged_release": "UnmatchedLocalWithdrawal",
    "replayed_id": "DuplicateId",
    "finality_break": "FinalityViolation",
    "direct_transfer": "SingleTokenEvent",
    "orphan_bridge_event": "SingleBridgeEvent",
}
ANOMALY_KINDS = tuple(EXPECTED_ANOMALY)

_BASE_TS = 1_700_000_000


class _Chain(NamedTuple):
    chain_id: int
    finality_seconds: int
    block_time: int


SOURCE = _Chain(1, 1800, 12)
TARGET = _Chain(100, 45, 3)
N_USERS = 8
N_TOKEN_PAIRS = 3


class ParameterError(f.InputError):
    """Inconsistent scenario parameters."""


class SplitMix64:
    """SplitMix64 generator; see module docstring for the algorithm."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi], inclusive."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]

    def sample_indexes(self, n: int, k: int) -> list[int]:
        """k distinct indexes from range(n) (partial Fisher-Yates)."""
        if k > n:
            raise ValueError(f"cannot sample {k} from {n}")
        pool = list(range(n))
        for i in range(k):
            j = self.randint(i, n - 1)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def address(self) -> str:
        raw = b"".join(self.next_u64().to_bytes(8, "big") for _ in range(3))[:20]
        return "0x" + raw.hex()

    def amount(self) -> str:
        return str(self.randint(1, 9) * 10 ** self.randint(0, 12))


class AnomalySpec(NamedTuple):
    forged_release: int = 0
    replayed_id: int = 0
    finality_break: int = 0
    direct_transfer: int = 0
    orphan_bridge_event: int = 0
    replay_fanout: int = 3
    replay_fanouts: tuple[int, ...] | None = None

    def fanouts(self) -> tuple[int, ...]:
        if self.replay_fanouts is not None:
            return self.replay_fanouts
        return (self.replay_fanout,) * self.replayed_id

    @classmethod
    def from_spec_string(cls, spec: str) -> "AnomalySpec":
        """Parse the CLI grammar ``kind=count[,kind=count...]``, each kind
        at most once."""
        counts: dict[str, int] = {}
        if spec.strip():
            for part in spec.split(","):
                key, _, value = part.partition("=")
                key = key.strip()
                if key not in ANOMALY_KINDS:
                    raise ParameterError(f"unknown anomaly kind {f.shown(key)}")
                if key in counts:
                    raise ParameterError(f"anomaly kind {key!r} given twice")
                counts[key] = parse_count(value, key)
        return cls(**counts)


def parse_count(text: str, name: str) -> int:
    """The count or flag ``text`` named ``name``: canonical unsigned
    decimal text, as receipts write their integers (:func:`facts.uint_text`)."""
    try:
        return f.uint_text(text, name)
    except f.EncodingError as exc:
        raise ParameterError(str(exc)) from exc


class ScenarioParams(NamedTuple):
    seed: int
    n_deposits: int
    n_withdrawals: int
    anomalies: AnomalySpec = AnomalySpec()

    def validate(self) -> None:
        a = self.anomalies
        if not 0 <= self.seed <= _MASK64:
            raise ParameterError("seed must fit in 64 bits")
        if self.n_deposits < 0 or self.n_withdrawals < 0:
            raise ParameterError("flow counts must be non-negative")
        for name in ANOMALY_KINDS:
            if getattr(a, name) < 0:
                raise ParameterError(f"{name} count must be non-negative")
        if a.finality_break > self.n_deposits:
            raise ParameterError("finality_break count exceeds deposit count")
        if a.replayed_id > self.n_withdrawals:
            raise ParameterError("replayed_id count exceeds withdrawal count")
        fanouts = a.fanouts()
        if len(fanouts) != a.replayed_id:
            raise ParameterError("replay_fanouts length must equal replayed_id count")
        if any(k < 2 for k in fanouts):
            raise ParameterError("replay fanout must be at least 2")


class _Tx(NamedTuple):
    chain_id: int
    timestamp: int
    tx_hash: str
    from_address: str
    to_address: str
    value: str
    gas_used: int
    event_facts: list


class GeneratedScenario(NamedTuple):
    params: ScenarioParams
    store: FactStore
    ground_truth: list[dict]
    config: dict
    txs: list[tuple[f.TransactionFact, list]]

    def receipts(self) -> list[dict]:
        """Receipt objects that decode back to exactly ``store``; each
        bridge log is emitted by the configured bridge of its chain. The
        event plans of ``config`` are compiled only here."""
        decoder = BridgeDecoderConfig.from_json(self.config)
        return [encode_receipt(tx, facts, decoder) for tx, facts in self.txs]

    def write_facts_dir(self, path: str | Path) -> None:
        dump_facts_dir(self.store, path)

    def write_receipts_jsonl(self, path: str | Path) -> None:
        write_whole(path, (json.dumps(r, sort_keys=True) + "\n" for r in self.receipts()))

    def write_config(self, path: str | Path) -> None:
        write_whole(path, (json.dumps(self.config, indent=2, sort_keys=True), "\n"))

    def write_ground_truth(self, path: str | Path) -> None:
        write_whole(path, (json.dumps(self.ground_truth, indent=2, sort_keys=True), "\n"))


# --- synthetic bridge ABI ---------------------------------------------------

# The events of the synthetic bridge, in config order, as (name, relation,
# indexed columns); _event_entry lays out each relation's columns as a log.
_EVENTS = (
    ("TokenDeposited", "sc_token_deposited", 2),
    ("TokenReleased", "tc_token_deposited", 2),
    ("WithdrawalInitiated", "tc_token_withdrew", 2),
    ("WithdrawalCompleted", "sc_token_withdrew", 2),
    ("NativeReleased", "sc_withdrawal", 1),
)


def _event_entry(name: str, relation: str, indexed: int) -> dict:
    """The config entry of the event ``name``, whose first ``indexed``
    columns of ``relation`` are topics and the rest data words, by the
    layout rule of the module docstring."""
    fields, params = {}, []
    for column, kind in f.RELATIONS[relation].COLUMNS[2:]:  # after tx_hash, event_index
        if column == "bridge_addr":
            fields[column] = {"source": "log_address"}
            continue
        at = len(params)
        plan = {"topic": at + 1} if at < indexed else {"data": at - indexed}
        ftype = "enum" if column == "standard" else _FIELD_TYPES[kind.name][0]
        abi = {"enum": "uint8", "address": "address"}.get(ftype, "uint256")
        fields[column] = {**plan, "type": ftype}
        if ftype == "enum":
            fields[column]["labels"] = {"0": "ERC20", "1": "NATIVE"}
        params.append(abi)
    return {"signature": f"{name}({','.join(params)})", "fact": relation, "fields": fields}


def _decoder_config(bridge_s: str, bridge_t: str, mappings: list[list],
                    wrapped: list[list]) -> dict:
    """The decoder config of a scenario: the one definition of the
    synthetic bridge ABI, which both encodes and decodes its receipts. Each
    event of ``_EVENTS`` carries its relation's columns after ``tx_hash``
    and ``event_index``: the first ``indexed`` as topics 1, 2, ..., the
    rest as data words 0, 1, ..., typed by their column kinds."""
    return {
        "chains": {
            str(SOURCE.chain_id): {
                "role": "source",
                "finality_seconds": SOURCE.finality_seconds,
                "bridge_addresses": [bridge_s],
            },
            str(TARGET.chain_id): {
                "role": "target",
                "finality_seconds": TARGET.finality_seconds,
                "bridge_addresses": [bridge_t],
            },
        },
        "events": [_event_entry(*event) for event in _EVENTS],
        "token_mappings": mappings,
        "wrapped_native_tokens": wrapped,
    }


# --- generation -------------------------------------------------------------

class _Direction(NamedTuple):
    """One direction of bridge traffic: its escrow and release chains, the
    id column of its bridge events and the fact type of each leg (None: the
    direction has no such leg)."""

    escrow: _Chain
    release: _Chain
    id_column: str
    native_escrow: type
    escrow_event: type
    native_release: type | None
    release_event: type
    relayed: bool  # released by the relayer, not claimed by the escrow's sender


# Deposits escrow on the source chain and release on the target chain;
# withdrawals go the other way.
_DEPOSIT = _Direction(SOURCE, TARGET, "deposit_id", f.ScDepositFact, f.ScTokenDepositedFact,
                      None, f.TcTokenDepositedFact, relayed=True)
_WITHDRAWAL = _Direction(TARGET, SOURCE, "withdrawal_id", f.TcWithdrawalFact,
                         f.TcTokenWithdrewFact, f.ScWithdrawalFact, f.ScTokenWithdrewFact,
                         relayed=False)


class _Builder:
    """Builds a scenario's facts from values that are canonical by
    construction (hex of whole bytes, decimal text of ``int``s), so the
    facts are built unchecked, by the builders that share each text value;
    the tests rebuild every fact with its validating constructor."""

    def __init__(self, params: ScenarioParams):
        params.validate()
        self.params = params
        self.rng = SplitMix64(params.seed)
        self.txs: list[_Tx] = []
        self.ground_truth: list[dict] = []
        self._tx_counter = 0
        self._gas_rng = SplitMix64(params.seed ^ 0xA5A5A5A5A5A5A5A5)
        # entities
        self.bridge_s = self.rng.address()
        self.bridge_t = self.rng.address()
        self.relayer = self.rng.address()
        self.attacker = self.rng.address()
        self.users = [self.rng.address() for _ in range(N_USERS)]
        src, dst = SOURCE.chain_id, TARGET.chain_id
        self.bridges = {src: self.bridge_s, dst: self.bridge_t}
        wrapped_native_s = self.rng.address()   # native asset of S, as a token
        native_repr_on_t = self.rng.address()   # its representation on T
        wrapped_native_t = self.rng.address()   # native asset of T, as a token
        native_repr_on_s = self.rng.address()   # its representation on S
        self.erc20_pairs = [
            (self.rng.address(), self.rng.address())
            for _ in range(N_TOKEN_PAIRS)
        ]
        # token pairs, as (token on S, token on T), by the chain whose native
        # asset they carry
        self.native_pairs = {src: (wrapped_native_s, native_repr_on_t),
                             dst: (native_repr_on_s, wrapped_native_t)}
        # static tables, as rows of the decoder config
        self.mappings = [[src, dst, *pair, "NATIVE"] for pair in self.native_pairs.values()]
        self.mappings += [[src, dst, *pair, "ERC20"] for pair in self.erc20_pairs]
        self.wrapped = [[src, wrapped_native_s], [dst, wrapped_native_t]]

    def tx_hash(self) -> str:
        self._tx_counter += 1
        body = b"".join(self.rng.next_u64().to_bytes(8, "big") for _ in range(3))
        return "0x" + body.hex() + format(self._tx_counter, "016x")

    def add_tx(self, chain: _Chain, timestamp: int, from_addr: str, to_addr: str,
               value: str) -> _Tx:
        tx = _Tx(chain.chain_id, timestamp, self.tx_hash(), from_addr, to_addr, value,
                 gas_used=self._gas_rng.randint(21_000, 400_000), event_facts=[])
        self.txs.append(tx)
        return tx

    def truth(self, kind: str, tx_hashes: list[str], **details) -> None:
        self.ground_truth.append({"kind": kind, "expected_anomaly": EXPECTED_ANOMALY[kind],
                                  "tx_hashes": sorted(tx_hashes), "details": details})

    def flow(self, way: _Direction, index: int, native: _Chain | None,
             break_finality: bool = False, fanout: int = 1) -> None:
        """One flow of ``way``: an escrow on its escrow chain and ``fanout``
        releases on its release chain, all but the first by the attacker.
        ``native`` is the chain whose native asset the flow moves (escrowed
        or released as native value), or None for ERC-20 on both legs."""
        rng, escrow, release = self.rng, way.escrow, way.release
        sender = rng.choice(self.users)
        benef = rng.choice(self.users)
        amount = rng.amount()
        pair = self.native_pairs[native.chain_id] if native else rng.choice(self.erc20_pairs)
        orig_token, dst_token = pair if escrow == SOURCE else pair[::-1]
        escrow_ts = _BASE_TS + (index + 1) * escrow.block_time
        window = escrow.finality_seconds
        if break_finality:
            gap = rng.randint(1, window - 1)
        else:
            gap = rng.randint(window + 1, window + 3600)
        flow_id = str(index + 1)

        bridge = self.bridges[escrow.chain_id]
        esc = self.add_tx(escrow, escrow_ts, sender, bridge, amount if native == escrow else "0")
        if native == escrow:
            moved = way.native_escrow._unchecked(esc.tx_hash, NATIVE_EVENT_INDEX, sender, bridge,
                                                   amount)
        else:
            moved = f.Erc20TransferFact._unchecked(esc.tx_hash, escrow.chain_id, 1, orig_token,
                                                   sender, bridge, amount)
        esc.event_facts.extend([moved, way.escrow_event._unchecked(
            tx_hash=esc.tx_hash, event_index=moved.event_index + 1, **{way.id_column: flow_id},
            beneficiary=benef, orig_token=orig_token, dst_token=dst_token,
            dst_chain_id=release.chain_id, standard="NATIVE" if native else "ERC20", amount=amount,
        )])

        bridge, released = self.bridges[release.chain_id], []
        issuer = self.relayer if way.relayed else sender
        for k in range(fanout):
            rel = self.add_tx(release, escrow_ts + gap + k * release.block_time,
                              self.attacker if k else issuer, bridge, "0")
            if native == release:
                moved = way.native_release._unchecked(rel.tx_hash, 1, bridge, benef, amount)
            else:
                moved = f.Erc20TransferFact._unchecked(rel.tx_hash, release.chain_id, 1, dst_token,
                                                       bridge, benef, amount)
            rel.event_facts.extend([moved, way.release_event._unchecked(
                rel.tx_hash, 2, flow_id, benef, dst_token, amount)])
            released.append(rel.tx_hash)
        if break_finality:
            self.truth("finality_break", [esc.tx_hash, *released], id=flow_id, gap=gap,
                       window=window)
        if fanout > 1:
            self.truth("replayed_id", released, id=flow_id, count=fanout)

    # -- anomaly injections --

    def forged_release(self, index: int, withdrawal_id: str) -> None:
        ts = _BASE_TS + (self.params.n_deposits + index + 2) * SOURCE.block_time
        dst_token = self.rng.choice(self.erc20_pairs)[0]
        amount = self.rng.amount()
        rel = self.add_tx(SOURCE, ts, self.attacker, self.bridge_s, "0")
        rel.event_facts.extend([
            f.Erc20TransferFact._unchecked(rel.tx_hash, SOURCE.chain_id, 1, dst_token,
                                           self.bridge_s, self.attacker, amount),
            f.ScTokenWithdrewFact._unchecked(rel.tx_hash, 2, withdrawal_id, self.attacker,
                                             dst_token, amount),
        ])
        self.truth("forged_release", [rel.tx_hash], id=withdrawal_id)

    def direct_transfer(self, index: int) -> None:
        ts = _BASE_TS + (self.params.n_deposits + index + 2) * SOURCE.block_time + 1
        token = self.rng.choice(self.erc20_pairs)[0]
        sender = self.rng.choice(self.users)
        amount = self.rng.amount()
        tx = self.add_tx(SOURCE, ts, sender, token, "0")
        tx.event_facts.append(
            f.Erc20TransferFact._unchecked(tx.tx_hash, SOURCE.chain_id, 1, token,
                                           sender, self.bridge_s, amount)
        )
        self.truth("direct_transfer", [tx.tx_hash], amount=amount)

    def orphan_bridge_event(self, deposit_id: str, index: int) -> None:
        ts = _BASE_TS + (self.params.n_deposits + index + 2) * SOURCE.block_time + 2
        benef = self.rng.choice(self.users)
        orig_token, dst_token = self.rng.choice(self.erc20_pairs)
        tx = self.add_tx(SOURCE, ts, self.rng.choice(self.users), self.bridge_s, "0")
        tx.event_facts.append(
            f.ScTokenDepositedFact._unchecked(tx.tx_hash, 1, deposit_id, benef, dst_token,
                                              orig_token, TARGET.chain_id, "ERC20",
                                              self.rng.amount())
        )
        self.truth("orphan_bridge_event", [tx.tx_hash], id=deposit_id)

    # -- assembly --

    def build(self) -> GeneratedScenario:
        p = self.params
        a = p.anomalies
        broken = set(self.rng.sample_indexes(p.n_deposits, a.finality_break))
        replayed = set(self.rng.sample_indexes(p.n_withdrawals, a.replayed_id))
        fanouts = iter(a.fanouts())

        # deposits alternate ERC-20 and native escrows; withdrawals cycle
        # through ERC-20 on both legs, a native escrow and a native release
        for i in range(p.n_deposits):
            self.flow(_DEPOSIT, i, (None, SOURCE)[i % 2], break_finality=i in broken)
        for i in range(p.n_withdrawals):
            self.flow(_WITHDRAWAL, i, (None, TARGET, SOURCE)[i % 3],
                      fanout=next(fanouts) if i in replayed else 1)
        for i in range(a.forged_release):
            self.forged_release(i, withdrawal_id=str(p.n_withdrawals + i + 1))
        for i in range(a.direct_transfer):
            self.direct_transfer(i)
        for i in range(a.orphan_bridge_event):
            self.orphan_bridge_event(str(p.n_deposits + i + 1), i)

        config = _decoder_config(self.bridge_s, self.bridge_t, self.mappings, self.wrapped)
        facts = list(static_facts(config))
        # blocks are numbered per chain in time order; the sort is stable,
        # so transactions at the same time keep the order they were made in
        txs, height = [], {}
        for tx in sorted(self.txs, key=lambda t: (t.chain_id, t.timestamp)):
            height[tx.chain_id] = height.get(tx.chain_id, 0) + 1
            fact = f.TransactionFact._unchecked(tx.timestamp, tx.chain_id, tx.tx_hash,
                                                height[tx.chain_id], tx.from_address,
                                                tx.to_address, tx.value, 1, tx.gas_used)
            facts += (fact, *tx.event_facts)
            txs.append((fact, tx.event_facts))
        gt = sorted(self.ground_truth, key=lambda g: (g["kind"], g["tx_hashes"]))
        return GeneratedScenario(params=p, store=FactStore(facts), ground_truth=gt,
                                 config=config, txs=txs)


def generate(params: ScenarioParams) -> GeneratedScenario:
    """Generate one scenario: fact store, ground truth, decoder config."""
    return _Builder(params).build()


def describe(params: ScenarioParams) -> dict:
    """Expected rule and anomaly counts for a scenario, without running it.

    The returned dict uses the same keys as the analysis report
    (``rule_counts`` / ``anomaly_counts``) so tests can compare directly;
    anomaly kinds with zero expected occurrences are omitted.
    """
    params.validate()
    a = params.anomalies
    dep_native = sum(1 for i in range(params.n_deposits) if i % 2 == 1)
    dep_erc20 = params.n_deposits - dep_native
    wdr_native_escrow = sum(1 for i in range(params.n_withdrawals) if i % 3 == 1)
    extra_releases = sum(k - 1 for k in a.fanouts())
    rules = {
        "SC_ValidNativeTokenDeposit": dep_native,
        "SC_ValidERC20TokenDeposit": dep_erc20,
        "TC_ValidERC20TokenDeposit": params.n_deposits,
        "CCTX_ValidDeposit": params.n_deposits - a.finality_break,
        "TC_ValidNativeTokenWithdrawal": wdr_native_escrow,
        "TC_ValidERC20TokenWithdrawal": params.n_withdrawals - wdr_native_escrow,
        "SC_ValidERC20TokenWithdrawal": params.n_withdrawals + extra_releases + a.forged_release,
        "CCTX_ValidWithdrawal": params.n_withdrawals + extra_releases,
    }
    anomalies = {EXPECTED_ANOMALY[kind]: getattr(a, kind) for kind in ANOMALY_KINDS}
    anomalies["AmbiguousMatch"] = a.replayed_id  # one per replayed id, beside its DuplicateId
    return {
        "rule_counts": rules,
        "anomaly_counts": {k: v for k, v in sorted(anomalies.items()) if v},
    }
