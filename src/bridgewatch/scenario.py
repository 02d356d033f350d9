"""Deterministic synthetic two-chain bridge traffic with labeled attacks.

Generates the full event choreography of valid deposits (escrow on the
source chain, release on the target chain) and withdrawals (the reverse),
then injects anomalies that each break exactly one conjunct of the rule
set:

* ``forged_release``: release-side facts on the source chain with no
  escrow anywhere (expected detector kind: UnmatchedLocalWithdrawal).
* ``replayed_id``: one withdrawal id reused across several release
  transactions (DuplicateId, plus one AmbiguousMatch per reused id).
* ``finality_break``: a deposit whose legs match on every join key but
  land inside the finality window (FinalityViolation).
* ``direct_transfer``: a token transfer straight into the bridge address
  with no bridge event (SingleTokenEvent).
* ``orphan_bridge_event``: a bridge deposit event with no token movement
  (SingleBridgeEvent).

Randomness comes from SplitMix64: state advances by the golden-gamma
constant 0x9E3779B97F4A7C15 and the output is a xor-shift/multiply
finalizer (constants 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, shifts
30/27/31). Fixtures are therefore reproducible across platforms and
languages. ``randint`` maps the 64-bit output with a plain modulus; the
bias is irrelevant at these ranges and keeps the algorithm trivial to
port.

Deposit flows alternate ERC-20 and native escrows by index; withdrawal
flows cycle through ERC-20/ERC-20, native escrow, and native release
shapes. That split is positional, not random, so ``describe`` can state
exact expected rule counts without replaying the generator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from . import facts as f
from .facts import FactStore, dump_facts_dir
from .ingest import BridgeDecoderConfig, encode_erc20_transfer
from .keccak import event_topic  # noqa: F401  (bench/tracing.py wraps scenario.event_topic)

__all__ = [
    "SplitMix64",
    "ChainSpec",
    "AnomalySpec",
    "ScenarioParams",
    "ParameterError",
    "GeneratedScenario",
    "generate",
    "describe",
    "ANOMALY_KINDS",
]

_MASK64 = (1 << 64) - 1

ANOMALY_KINDS = (
    "forged_release",
    "replayed_id",
    "finality_break",
    "direct_transfer",
    "orphan_bridge_event",
)

_BASE_TS = 1_700_000_000


class ParameterError(ValueError):
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


@dataclass(frozen=True)
class ChainSpec:
    chain_id: int
    finality_seconds: int
    block_time: int


@dataclass(frozen=True)
class AnomalySpec:
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
        """Parse the CLI grammar ``kind=count[,kind=count...]``."""
        counts: dict[str, int] = {}
        if spec.strip():
            for part in spec.split(","):
                key, _, value = part.partition("=")
                key = key.strip()
                if key not in ANOMALY_KINDS:
                    raise ParameterError(f"unknown anomaly kind {key!r}")
                try:
                    counts[key] = int(value)
                except ValueError:
                    raise ParameterError(f"bad count for {key!r}: {value!r}")
        return cls(**counts)


@dataclass(frozen=True)
class ScenarioParams:
    seed: int
    n_deposits: int
    n_withdrawals: int
    source: ChainSpec = ChainSpec(1, 1800, 12)
    target: ChainSpec = ChainSpec(100, 45, 3)
    n_users: int = 8
    n_token_pairs: int = 3
    anomalies: AnomalySpec = field(default_factory=AnomalySpec)

    def validate(self) -> None:
        a = self.anomalies
        if not 0 <= self.seed <= _MASK64:
            raise ParameterError("seed must fit in 64 bits")
        if self.n_deposits < 0 or self.n_withdrawals < 0:
            raise ParameterError("flow counts must be non-negative")
        if self.n_users < 1 or self.n_token_pairs < 1:
            raise ParameterError("need at least one user and one token pair")
        if self.source.chain_id == self.target.chain_id:
            raise ParameterError("chains must differ")
        for name in ANOMALY_KINDS:
            if getattr(a, name) < 0:
                raise ParameterError(f"{name} count must be non-negative")
        if a.finality_break > self.n_deposits:
            raise ParameterError("finality_break count exceeds deposit count")
        if a.finality_break and self.source.finality_seconds < 2:
            raise ParameterError("finality_break needs a window of at least 2 seconds")
        if a.replayed_id > self.n_withdrawals:
            raise ParameterError("replayed_id count exceeds withdrawal count")
        fanouts = a.fanouts()
        if len(fanouts) != a.replayed_id:
            raise ParameterError("replay_fanouts length must equal replayed_id count")
        if any(k < 2 for k in fanouts):
            raise ParameterError("replay fanout must be at least 2")


@dataclass
class _Tx:
    chain_id: int
    desired_ts: int
    seq: int
    tx_hash: str
    from_address: str
    to_address: str
    value: str
    gas_used: int
    event_facts: list
    timestamp: int = 0
    block_number: int = 0


@dataclass
class GeneratedScenario:
    params: ScenarioParams
    store: FactStore
    ground_truth: list[dict]
    config: dict
    _txs: list[_Tx]

    def receipts(self) -> list[dict]:
        """Receipt objects that decode back to exactly ``store``, encoded
        from the field plans of ``config``; each bridge log is emitted by
        the configured bridge of its transaction's chain."""
        config = BridgeDecoderConfig.from_json(self.config)
        plans = {plan.relation: plan for plan in config.events.values()}
        return [_encode_receipt(tx, plans, config.chains[tx.chain_id].bridge_addresses[0])
                for tx in self._txs]

    def write_facts_dir(self, path: str | Path) -> None:
        dump_facts_dir(self.store, path)

    def write_receipts_jsonl(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for receipt in self.receipts():
                fh.write(json.dumps(receipt, sort_keys=True) + "\n")

    def write_config(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(self.config, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def write_ground_truth(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(self.ground_truth, fh, indent=2, sort_keys=True)
            fh.write("\n")


# --- synthetic bridge ABI ---------------------------------------------------

def _decoder_config(params: ScenarioParams, bridge_s: str, bridge_t: str,
                    mappings: list[list], wrapped: list[list]) -> dict:
    """The decoder config of a scenario: the one definition of the
    synthetic bridge ABI, which both encodes and decodes its receipts."""
    standard = {"0": "ERC20", "1": "NATIVE"}
    return {
        "chains": {
            str(params.source.chain_id): {
                "role": "source",
                "finality_seconds": params.source.finality_seconds,
                "bridge_addresses": [bridge_s],
            },
            str(params.target.chain_id): {
                "role": "target",
                "finality_seconds": params.target.finality_seconds,
                "bridge_addresses": [bridge_t],
            },
        },
        "events": [
            {
                "signature": "TokenDeposited(uint256,address,address,address,uint256,uint8,uint256)",
                "fact": "sc_token_deposited",
                "fields": {
                    "deposit_id": {"topic": 1, "type": "id"},
                    "beneficiary": {"topic": 2, "type": "address"},
                    "dst_token": {"data": 0, "type": "address"},
                    "orig_token": {"data": 1, "type": "address"},
                    "dst_chain_id": {"data": 2, "type": "chain_id"},
                    "standard": {"data": 3, "type": "enum", "labels": standard},
                    "amount": {"data": 4, "type": "uint"},
                },
            },
            {
                "signature": "TokenReleased(uint256,address,address,uint256)",
                "fact": "tc_token_deposited",
                "fields": {
                    "deposit_id": {"topic": 1, "type": "id"},
                    "beneficiary": {"topic": 2, "type": "address"},
                    "dst_token": {"data": 0, "type": "address"},
                    "amount": {"data": 1, "type": "uint"},
                },
            },
            {
                "signature": "WithdrawalInitiated(uint256,address,address,address,uint256,uint8,uint256)",
                "fact": "tc_token_withdrew",
                "fields": {
                    "withdrawal_id": {"topic": 1, "type": "id"},
                    "beneficiary": {"topic": 2, "type": "address"},
                    "orig_token": {"data": 0, "type": "address"},
                    "dst_token": {"data": 1, "type": "address"},
                    "dst_chain_id": {"data": 2, "type": "chain_id"},
                    "standard": {"data": 3, "type": "enum", "labels": standard},
                    "amount": {"data": 4, "type": "uint"},
                },
            },
            {
                "signature": "WithdrawalCompleted(uint256,address,address,uint256)",
                "fact": "sc_token_withdrew",
                "fields": {
                    "withdrawal_id": {"topic": 1, "type": "id"},
                    "beneficiary": {"topic": 2, "type": "address"},
                    "dst_token": {"data": 0, "type": "address"},
                    "amount": {"data": 1, "type": "uint"},
                },
            },
            {
                "signature": "NativeReleased(address,uint256)",
                "fact": "sc_withdrawal",
                "fields": {
                    "bridge_addr": {"source": "log_address"},
                    "beneficiary": {"topic": 1, "type": "address"},
                    "amount": {"data": 0, "type": "uint"},
                },
            },
        ],
        "token_mappings": mappings,
        "wrapped_native_tokens": wrapped,
    }


def _encode_receipt(tx: _Tx, plans: dict, bridge: str) -> dict:
    logs = []
    for fact in sorted(tx.event_facts, key=lambda x: x.event_index):
        if isinstance(fact, f.Erc20TransferFact):
            logs.append(encode_erc20_transfer(fact))
        elif fact.RELATION in plans:
            logs.append(plans[fact.RELATION].encode(fact, bridge))
        # native escrows have no log: the receipt's value carries them
    return {
        "chainId": tx.chain_id,
        "txHash": tx.tx_hash,
        "blockNumber": tx.block_number,
        "blockTimestamp": tx.timestamp,
        "from": tx.from_address,
        "to": tx.to_address,
        "value": tx.value,
        "status": 1,
        "gasUsed": tx.gas_used,
        "logs": logs,
    }


# --- generation -------------------------------------------------------------

class _Builder:
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
        self.users = [self.rng.address() for _ in range(params.n_users)]
        src, dst = params.source.chain_id, params.target.chain_id
        self.wrapped_native_s = self.rng.address()   # native asset of S, as a token
        self.native_repr_on_t = self.rng.address()   # its representation on T
        self.wrapped_native_t = self.rng.address()   # native asset of T, as a token
        self.native_repr_on_s = self.rng.address()   # its representation on S
        self.erc20_pairs = [
            (self.rng.address(), self.rng.address())
            for _ in range(params.n_token_pairs)
        ]
        # static tables, as rows of the decoder config
        self.mappings = [
            [src, dst, self.wrapped_native_s, self.native_repr_on_t, "NATIVE"],
            [src, dst, self.native_repr_on_s, self.wrapped_native_t, "NATIVE"],
        ] + [[src, dst, s_tok, t_tok, "ERC20"] for s_tok, t_tok in self.erc20_pairs]
        self.wrapped = [[src, self.wrapped_native_s], [dst, self.wrapped_native_t]]

    def tx_hash(self) -> str:
        self._tx_counter += 1
        body = b"".join(self.rng.next_u64().to_bytes(8, "big") for _ in range(3))
        return "0x" + body.hex() + format(self._tx_counter, "016x")

    def add_tx(self, chain: ChainSpec, desired_ts: int, from_addr: str, to_addr: str,
               value: str) -> _Tx:
        tx = _Tx(
            chain_id=chain.chain_id,
            desired_ts=desired_ts,
            seq=len(self.txs),
            tx_hash=self.tx_hash(),
            from_address=from_addr,
            to_address=to_addr,
            value=value,
            gas_used=self._gas_rng.randint(21_000, 400_000),
            event_facts=[],
        )
        self.txs.append(tx)
        return tx

    # -- deposit flows (source escrow -> target release) --

    def deposit(self, index: int, deposit_id: str, break_finality: bool) -> None:
        p = self.params
        rng = self.rng
        sender = rng.choice(self.users)
        benef = rng.choice(self.users)
        amount = rng.amount()
        native = index % 2 == 1
        if native:
            orig_token, dst_token, std = self.wrapped_native_s, self.native_repr_on_t, "NATIVE"
        else:
            orig_token, dst_token = rng.choice(self.erc20_pairs)
            std = "ERC20"
        escrow_ts = _BASE_TS + (index + 1) * p.source.block_time
        window = p.source.finality_seconds
        if break_finality:
            gap = rng.randint(1, window - 1)
        else:
            gap = rng.randint(window + 1, window + 3600)
        release_ts = escrow_ts + gap

        deposited = dict(
            deposit_id=deposit_id, beneficiary=benef, dst_token=dst_token,
            orig_token=orig_token, dst_chain_id=p.target.chain_id,
            standard=std, amount=amount,
        )
        if native:
            esc = self.add_tx(p.source, escrow_ts, sender, self.bridge_s, amount)
            esc.event_facts.append(
                f.ScDepositFact(esc.tx_hash, 0, sender, self.bridge_s, amount)
            )
            esc.event_facts.append(
                f.ScTokenDepositedFact(tx_hash=esc.tx_hash, event_index=1, **deposited)
            )
        else:
            esc = self.add_tx(p.source, escrow_ts, sender, self.bridge_s, "0")
            esc.event_facts.append(
                f.Erc20TransferFact(esc.tx_hash, p.source.chain_id, 1, orig_token,
                                    sender, self.bridge_s, amount)
            )
            esc.event_facts.append(
                f.ScTokenDepositedFact(tx_hash=esc.tx_hash, event_index=2, **deposited)
            )

        rel = self.add_tx(p.target, release_ts, self.relayer, self.bridge_t, "0")
        rel.event_facts.append(
            f.Erc20TransferFact(rel.tx_hash, p.target.chain_id, 1, dst_token,
                                self.bridge_t, benef, amount)
        )
        rel.event_facts.append(
            f.TcTokenDepositedFact(rel.tx_hash, 2, deposit_id, benef, dst_token, amount)
        )
        if break_finality:
            self.ground_truth.append({
                "kind": "finality_break",
                "expected_anomaly": "FinalityViolation",
                "tx_hashes": sorted([esc.tx_hash, rel.tx_hash]),
                "details": {"id": deposit_id, "gap": gap, "window": window},
            })

    # -- withdrawal flows (target escrow -> source release) --

    def withdrawal(self, index: int, withdrawal_id: str) -> tuple[_Tx, dict]:
        p = self.params
        rng = self.rng
        sender = rng.choice(self.users)
        benef = rng.choice(self.users)
        amount = rng.amount()
        shape = index % 3  # 0: erc20/erc20, 1: native escrow, 2: native release
        if shape == 1:
            orig_token, dst_token, std = self.wrapped_native_t, self.native_repr_on_s, "NATIVE"
        elif shape == 2:
            orig_token, dst_token, std = self.native_repr_on_t, self.wrapped_native_s, "NATIVE"
        else:
            dst_token, orig_token = rng.choice(self.erc20_pairs)
            std = "ERC20"
        escrow_ts = _BASE_TS + (index + 1) * p.target.block_time
        window = p.target.finality_seconds
        gap = rng.randint(window + 1, window + 3600)
        release_ts = escrow_ts + gap

        withdrew = dict(
            withdrawal_id=withdrawal_id, beneficiary=benef, orig_token=orig_token,
            dst_token=dst_token, dst_chain_id=p.source.chain_id,
            standard=std, amount=amount,
        )
        if shape == 1:
            esc = self.add_tx(p.target, escrow_ts, sender, self.bridge_t, amount)
            esc.event_facts.append(
                f.TcWithdrawalFact(esc.tx_hash, 0, sender, self.bridge_t, amount)
            )
            esc.event_facts.append(
                f.TcTokenWithdrewFact(tx_hash=esc.tx_hash, event_index=1, **withdrew)
            )
        else:
            esc = self.add_tx(p.target, escrow_ts, sender, self.bridge_t, "0")
            esc.event_facts.append(
                f.Erc20TransferFact(esc.tx_hash, p.target.chain_id, 1, orig_token,
                                    sender, self.bridge_t, amount)
            )
            esc.event_facts.append(
                f.TcTokenWithdrewFact(tx_hash=esc.tx_hash, event_index=2, **withdrew)
            )

        release = dict(withdrawal_id=withdrawal_id, beneficiary=benef,
                       dst_token=dst_token, amount=amount)
        rel = self._release_tx(release_ts, sender, native=(shape == 2), **release)
        return rel, release

    def _release_tx(self, ts: int, issuer: str, native: bool, *, withdrawal_id: str,
                    beneficiary: str, dst_token: str, amount: str) -> _Tx:
        p = self.params
        rel = self.add_tx(p.source, ts, issuer, self.bridge_s, "0")
        if native:
            rel.event_facts.append(
                f.ScWithdrawalFact(rel.tx_hash, 1, self.bridge_s, beneficiary, amount)
            )
        else:
            rel.event_facts.append(
                f.Erc20TransferFact(rel.tx_hash, p.source.chain_id, 1, dst_token,
                                    self.bridge_s, beneficiary, amount)
            )
        rel.event_facts.append(
            f.ScTokenWithdrewFact(rel.tx_hash, 2, withdrawal_id, beneficiary,
                                  dst_token, amount)
        )
        return rel

    # -- anomaly injections --

    def replay(self, base_release: _Tx, release: dict, fanout: int, native: bool) -> None:
        p = self.params
        hashes = [base_release.tx_hash]
        for extra in range(fanout - 1):
            ts = base_release.desired_ts + (extra + 1) * p.source.block_time
            rel = self._release_tx(ts, self.attacker, native=native, **release)
            hashes.append(rel.tx_hash)
        self.ground_truth.append({
            "kind": "replayed_id",
            "expected_anomaly": "DuplicateId",
            "tx_hashes": sorted(hashes),
            "details": {"id": release["withdrawal_id"], "count": fanout},
        })

    def forged_release(self, index: int, withdrawal_id: str) -> None:
        p = self.params
        ts = _BASE_TS + (self.params.n_deposits + index + 2) * p.source.block_time
        dst_token = self.rng.choice(self.erc20_pairs)[0]
        rel = self._release_tx(
            ts, self.attacker, native=False, withdrawal_id=withdrawal_id,
            beneficiary=self.attacker, dst_token=dst_token, amount=self.rng.amount(),
        )
        self.ground_truth.append({
            "kind": "forged_release",
            "expected_anomaly": "UnmatchedLocalWithdrawal",
            "tx_hashes": [rel.tx_hash],
            "details": {"id": withdrawal_id},
        })

    def direct_transfer(self, index: int) -> None:
        p = self.params
        ts = _BASE_TS + (self.params.n_deposits + index + 2) * p.source.block_time + 1
        token = self.rng.choice(self.erc20_pairs)[0]
        sender = self.rng.choice(self.users)
        amount = self.rng.amount()
        tx = self.add_tx(p.source, ts, sender, token, "0")
        tx.event_facts.append(
            f.Erc20TransferFact(tx.tx_hash, p.source.chain_id, 1, token,
                                sender, self.bridge_s, amount)
        )
        self.ground_truth.append({
            "kind": "direct_transfer",
            "expected_anomaly": "SingleTokenEvent",
            "tx_hashes": [tx.tx_hash],
            "details": {"amount": amount},
        })

    def orphan_bridge_event(self, deposit_id: str, index: int) -> None:
        p = self.params
        ts = _BASE_TS + (self.params.n_deposits + index + 2) * p.source.block_time + 2
        benef = self.rng.choice(self.users)
        orig_token, dst_token = self.rng.choice(self.erc20_pairs)
        tx = self.add_tx(p.source, ts, self.rng.choice(self.users), self.bridge_s, "0")
        tx.event_facts.append(
            f.ScTokenDepositedFact(tx.tx_hash, 1, deposit_id, benef, dst_token,
                                   orig_token, p.target.chain_id, "ERC20", self.rng.amount())
        )
        self.ground_truth.append({
            "kind": "orphan_bridge_event",
            "expected_anomaly": "SingleBridgeEvent",
            "tx_hashes": [tx.tx_hash],
            "details": {"id": deposit_id},
        })

    # -- assembly --

    def build(self) -> GeneratedScenario:
        p = self.params
        a = p.anomalies
        broken = set(self.rng.sample_indexes(p.n_deposits, a.finality_break))
        replayed = set(self.rng.sample_indexes(p.n_withdrawals, a.replayed_id))
        fanouts = iter(a.fanouts())

        for i in range(p.n_deposits):
            self.deposit(i, deposit_id=str(i + 1), break_finality=i in broken)
        for i in range(p.n_withdrawals):
            rel_tx, release = self.withdrawal(i, withdrawal_id=str(i + 1))
            if i in replayed:
                self.replay(rel_tx, release, next(fanouts), native=(i % 3 == 2))
        for i in range(a.forged_release):
            self.forged_release(i, withdrawal_id=str(p.n_withdrawals + i + 1))
        for i in range(a.direct_transfer):
            self.direct_transfer(i)
        for i in range(a.orphan_bridge_event):
            self.orphan_bridge_event(str(p.n_deposits + i + 1), i)

        self._assign_blocks()
        config = _decoder_config(p, self.bridge_s, self.bridge_t, self.mappings, self.wrapped)
        store = self._materialize_store(BridgeDecoderConfig.from_json(config).static)
        gt = sorted(self.ground_truth, key=lambda g: (g["kind"], g["tx_hashes"]))
        txs = sorted(self.txs, key=lambda t: (t.chain_id, t.block_number))
        return GeneratedScenario(params=p, store=store, ground_truth=gt,
                                 config=config, _txs=txs)

    def _assign_blocks(self) -> None:
        per_chain: dict[int, list[_Tx]] = {}
        for tx in self.txs:
            per_chain.setdefault(tx.chain_id, []).append(tx)
        for txs in per_chain.values():
            txs.sort(key=lambda t: (t.desired_ts, t.seq))
            for block_number, tx in enumerate(txs, start=1):
                tx.block_number = block_number
                tx.timestamp = tx.desired_ts

    def _materialize_store(self, static_facts: tuple) -> FactStore:
        store = FactStore()
        store.insert_all(static_facts)
        for tx in self.txs:
            store.insert(
                f.TransactionFact(
                    timestamp=tx.timestamp,
                    chain_id=tx.chain_id,
                    tx_hash=tx.tx_hash,
                    block_number=tx.block_number,
                    from_address=tx.from_address,
                    to_address=tx.to_address,
                    value=tx.value,
                    status=1,
                    gas_used=tx.gas_used,
                )
            )
            store.insert_all(tx.event_facts)
        return store.seal()


def generate(params: ScenarioParams) -> GeneratedScenario:
    """Generate one scenario: sealed store, ground truth, decoder config."""
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
    anomalies = {
        "FinalityViolation": a.finality_break,
        "DuplicateId": a.replayed_id,
        "AmbiguousMatch": a.replayed_id,
        "UnmatchedLocalWithdrawal": a.forged_release,
        "SingleTokenEvent": a.direct_transfer,
        "SingleBridgeEvent": a.orphan_bridge_event,
    }
    return {
        "rule_counts": rules,
        "anomaly_counts": {k: v for k, v in sorted(anomalies.items()) if v},
    }
