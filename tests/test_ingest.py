"""Receipt decoding: Transfer logs, config-driven bridge events, natives."""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from bridgewatch import facts as f
from bridgewatch.ingest import (
    BridgeDecoderConfig,
    ConfigError,
    IngestError,
    LogEntry,
    TransactionReceipt,
    decode_erc20_transfer,
    decode_receipt,
    encode_erc20_transfer,
    encode_log,
    ingest_jsonl,
)
from bridgewatch.scenario import ScenarioParams, generate
from conftest import AA, B1, B2, CC, H1, S_CHAIN, T_CHAIN, U1, U2, addr, txh

# independently computed digests (see test_keccak)
TRANSFER_TOPIC0 = "0xddf252ad1be2c89b69c2b068fc378daa952ba7f163c4a11628f55a4df523b3ef"
APPROVAL_TOPIC0 = "0x8c5be1e5ebec7d5bd14f71427d1e84f3dd0314c0f7b2291e5b200ac8c7c3b925"
DEPOSITED_TOPIC0 = "0xcef3bc687b2b40ff09e444c9191d013fd78c8450f43b87e83409f71cf3dd5f18"


def pad_addr(a: str) -> str:
    return "0x" + "0" * 24 + a[2:]


def pad_uint(n: int) -> str:
    return "0x" + format(n, "064x")


CONFIG = BridgeDecoderConfig.from_json(
    {
        "chains": {
            str(S_CHAIN): {
                "role": "source",
                "finality_seconds": 1800,
                "bridge_addresses": [B1],
            },
            str(T_CHAIN): {
                "role": "target",
                "finality_seconds": 45,
                "bridge_addresses": [B2],
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
                    "standard": {"data": 3, "type": "enum", "labels": {"0": "ERC20", "1": "NATIVE"}},
                    "amount": {"data": 4, "type": "uint"},
                },
            }
        ],
        "token_mappings": [[S_CHAIN, T_CHAIN, AA, CC, "ERC20"]],
        "wrapped_native_tokens": [[S_CHAIN, AA]],
    }
)


def make_receipt(logs=(), value="0", to=B1, chain=S_CHAIN, tx_hash=H1):
    return TransactionReceipt.from_json(
        {
            "chainId": chain,
            "txHash": tx_hash,
            "blockNumber": 7,
            "blockTimestamp": 1000,
            "from": U1,
            "to": to,
            "value": value,
            "status": 1,
            "gasUsed": 50_000,
            "logs": list(logs),
        }
    )


def transfer_log(index=1, token=AA, src=U1, dst=B1, amount=5):
    return {
        "address": token,
        "topics": [TRANSFER_TOPIC0, pad_addr(src), pad_addr(dst)],
        "data": pad_uint(amount),
        "logIndex": index,
    }


def deposited_log(index=2, deposit_id=7, beneficiary=U2):
    data = (
        "0x"
        + pad_addr(CC)[2:]
        + pad_addr(AA)[2:]
        + format(T_CHAIN, "064x")
        + format(0, "064x")
        + format(5, "064x")
    )
    return {
        "address": B1,
        "topics": [DEPOSITED_TOPIC0, pad_uint(deposit_id), beneficiary],
        "data": data,
        "logIndex": index,
    }


class TestDecodeTransfer:
    def test_transfer_topic_accepted(self):
        receipt = make_receipt([transfer_log()])
        fact, warning = decode_erc20_transfer(receipt.logs[0], receipt)
        assert warning is None
        assert fact == f.Erc20TransferFact(H1, S_CHAIN, 1, AA, U1, B1, "5")

    def test_approval_topic_ignored(self):
        log = transfer_log()
        log["topics"][0] = APPROVAL_TOPIC0
        receipt = make_receipt([log])
        assert decode_erc20_transfer(receipt.logs[0], receipt) == (None, None)

    def test_two_topic_transfer_warns(self):
        log = transfer_log()
        log["topics"] = log["topics"][:2]
        receipt = make_receipt([log])
        fact, warning = decode_erc20_transfer(receipt.logs[0], receipt)
        assert fact is None
        assert "2 topics" in warning


class TestDecodeReceipt:
    def test_erc20_deposit_receipt(self):
        receipt = make_receipt([transfer_log(1), deposited_log(2, beneficiary=pad_addr(U2))])
        facts, warnings = decode_receipt(receipt, CONFIG)
        assert not warnings
        by_type = {type(x).__name__ for x in facts}
        assert by_type == {"TransactionFact", "Erc20TransferFact", "ScTokenDepositedFact"}
        deposited = next(x for x in facts if isinstance(x, f.ScTokenDepositedFact))
        assert deposited == f.ScTokenDepositedFact(H1, 2, "7", U2, CC, AA, T_CHAIN, "ERC20", "5")

    def test_native_deposit_receipt(self):
        receipt = make_receipt([], value="5")
        facts, warnings = decode_receipt(receipt, CONFIG)
        assert not warnings
        assert [type(x).__name__ for x in facts] == ["TransactionFact", "ScDepositFact"]
        escrow = facts[1]
        assert escrow.event_index == 0 and escrow.amount == "5"

    def test_native_escrow_on_target_chain_is_withdrawal(self):
        receipt = make_receipt([], value="5", to=B2, chain=T_CHAIN)
        facts, _ = decode_receipt(receipt, CONFIG)
        assert any(isinstance(x, f.TcWithdrawalFact) for x in facts)

    def test_invalid_32_byte_beneficiary_suppresses_bridge_fact(self):
        bad_beneficiary = "0x" + "11" * 32  # top 12 bytes nonzero
        receipt = make_receipt([transfer_log(1), deposited_log(2, beneficiary=bad_beneficiary)])
        facts, warnings = decode_receipt(receipt, CONFIG)
        assert {type(x).__name__ for x in facts} == {"TransactionFact", "Erc20TransferFact"}
        assert len(warnings) == 1
        assert "not a valid 20-byte address" in warnings[0]

    def test_unknown_chain_is_config_error(self):
        receipt = make_receipt([], chain=7777)
        with pytest.raises(ConfigError, match="7777"):
            decode_receipt(receipt, CONFIG)

    def test_bridge_event_from_non_bridge_emitter_ignored(self):
        log = deposited_log(2, beneficiary=pad_addr(U2))
        log["address"] = addr("99")
        receipt = make_receipt([transfer_log(1), log])
        facts, warnings = decode_receipt(receipt, CONFIG)
        assert not any(isinstance(x, f.ScTokenDepositedFact) for x in facts)
        assert not warnings

    def test_decoding_is_deterministic(self):
        receipt = make_receipt([transfer_log(1), deposited_log(2, beneficiary=pad_addr(U2))])
        first, _ = decode_receipt(receipt, CONFIG)
        second, _ = decode_receipt(receipt, CONFIG)
        assert first == second


def round_trip_config() -> BridgeDecoderConfig:
    """The synthetic ABI, plus an event whose ``standard`` is a constant,
    whose amount is a topic, and whose data has an unused word."""
    config = copy.deepcopy(generate(ScenarioParams(seed=1, n_deposits=0, n_withdrawals=0)).config)
    erc20_only = next(e for e in config["events"] if e["fact"] == "tc_token_withdrew")
    erc20_only = copy.deepcopy(erc20_only)
    erc20_only["signature"] = "Erc20WithdrawalInitiated(uint256,address,uint256,address,address,uint256)"
    erc20_only["fields"]["standard"] = {"const": "ERC20"}
    erc20_only["fields"]["amount"] = {"topic": 3, "type": "uint"}
    erc20_only["fields"]["dst_chain_id"] = {"data": 3, "type": "chain_id"}  # word 2 unused
    config["events"].append(erc20_only)
    return BridgeDecoderConfig.from_json(config)


RT_CONFIG = round_trip_config()
RT_BRIDGE = RT_CONFIG.chains[S_CHAIN].bridge_addresses[0]
ADDRESSES = st.binary(min_size=20, max_size=20).map(lambda b: "0x" + b.hex())
UINT256 = st.integers(0, f.MAX_UINT256).map(str)
COLUMN_VALUES = {
    "deposit_id": UINT256, "withdrawal_id": UINT256, "amount": UINT256,
    "beneficiary": ADDRESSES, "dst_token": ADDRESSES, "orig_token": ADDRESSES,
    "token": ADDRESSES, "from_address": ADDRESSES, "to_address": ADDRESSES,
    "dst_chain_id": st.integers(1, f.MAX_UINT256),
    "standard": st.sampled_from(["ERC20", "NATIVE"]),
}


def decode_one(log: dict) -> list:
    receipt = make_receipt([log], to=U1)
    facts, warnings = decode_receipt(receipt, RT_CONFIG)
    assert warnings == []
    return facts[1:]  # after the transaction fact


class TestEncodeRoundTrip:
    def test_every_field_kind_is_covered(self):
        kinds = {key for plan in RT_CONFIG.events.values() for fplan in plan.fields.values()
                 for key in ("const", "source") if key in fplan}
        types = {fplan.get("type") for plan in RT_CONFIG.events.values()
                 for fplan in plan.fields.values() if "const" not in fplan and "source" not in fplan}
        assert kinds == {"const", "source"}
        assert types == {"address", "uint", "id", "chain_id", "enum"}
        assert {p.relation for p in RT_CONFIG.events.values()} == {
            "sc_token_deposited", "tc_token_deposited", "tc_token_withdrew",
            "sc_token_withdrew", "sc_withdrawal",
        }

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_decode_inverts_encode(self, data):
        plan = data.draw(st.sampled_from(list(RT_CONFIG.events.values())))
        values = {}
        for name, fplan in plan.fields.items():
            if "const" in fplan:
                values[name] = fplan["const"]
            elif "source" in fplan:
                values[name] = RT_BRIDGE
            else:
                values[name] = data.draw(COLUMN_VALUES[name], label=name)
        index = data.draw(st.integers(0, 2**32), label="event_index")
        fact = f.RELATIONS[plan.relation](tx_hash=H1, event_index=index, **values)
        assert decode_one(encode_log(plan, fact, RT_BRIDGE)) == [fact]

    @settings(max_examples=100, deadline=None)
    @given(ADDRESSES, ADDRESSES, ADDRESSES, UINT256, st.integers(0, 2**32))
    def test_decode_inverts_encode_for_transfers(self, token, src, dst, amount, index):
        fact = f.Erc20TransferFact(H1, S_CHAIN, index, token, src, dst, amount)
        assert decode_one(encode_erc20_transfer(fact)) == [fact]

    def test_value_other_than_the_constant_is_refused(self):
        plan = next(p for p in RT_CONFIG.events.values()
                    if "const" in p.fields.get("standard", {}))
        fact = f.TcTokenWithdrewFact(H1, 1, "1", U1, AA, CC, S_CHAIN, "NATIVE", "5")
        with pytest.raises(ValueError, match="not the constant"):
            encode_log(plan, fact, RT_BRIDGE)


class TestIngestJsonl:
    def write_receipts(self, tmp_path, receipts):
        path = tmp_path / "receipts.jsonl"
        with open(path, "w") as fh:
            for r in receipts:
                fh.write((r if isinstance(r, str) else json.dumps(r)) + "\n")
        return path

    def receipt_obj(self, i):
        return {
            "chainId": S_CHAIN,
            "txHash": txh(f"{i:02x}"),
            "blockNumber": i,
            "blockTimestamp": 1000 + i,
            "from": U1,
            "to": B1,
            "value": "0",
            "status": 1,
            "gasUsed": 21_000,
            "logs": [],
        }

    def test_empty_file_has_static_facts_only(self, tmp_path):
        path = self.write_receipts(tmp_path, [])
        store, report = ingest_jsonl(path, CONFIG)
        assert report.receipts == 0
        assert store.count("transaction") == 0
        assert store.count("cctx_finality") == 2
        assert store.count("token_mapping") == 1
        assert store.count("bridge_controlled_address") == 2

    def test_malformed_line_cites_line_number(self, tmp_path):
        path = self.write_receipts(
            tmp_path, [self.receipt_obj(1), "{not json", self.receipt_obj(3)]
        )
        with pytest.raises(IngestError, match=r":2:"):
            ingest_jsonl(path, CONFIG)

    def test_transaction_count_conservation(self, tmp_path):
        path = self.write_receipts(tmp_path, [self.receipt_obj(i) for i in range(1, 6)])
        store, report = ingest_jsonl(path, CONFIG)
        assert report.receipts == 5
        assert store.count("transaction") == 5

    def test_event_facts_have_transaction_envelope(self, tmp_path):
        receipt = {
            **self.receipt_obj(1),
            "logs": [transfer_log(1)],
        }
        path = self.write_receipts(tmp_path, [receipt])
        store, _ = ingest_jsonl(path, CONFIG)
        for tr in store.relation("erc20_transfer"):
            assert store.transactions_by_hash.get(tr.tx_hash)


class TestConfigValidation:
    def test_event_entry_requires_known_relation(self):
        with pytest.raises(ConfigError, match="unknown relation"):
            BridgeDecoderConfig.from_json(
                {
                    "chains": {"1": {"finality_seconds": 10}},
                    "events": [{"signature": "X()", "fact": "nope", "fields": {}}],
                }
            )

    def test_chains_required(self):
        with pytest.raises(ConfigError, match="no chains"):
            BridgeDecoderConfig.from_json({"chains": {}})

    def test_static_facts_roundtrip(self):
        statics = CONFIG.static_facts()
        kinds = {type(x).__name__ for x in statics}
        assert kinds == {
            "CctxFinalityFact",
            "BridgeControlledAddressFact",
            "TokenMappingFact",
            "WrappedNativeTokenFact",
        }
