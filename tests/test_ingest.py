"""Receipt decoding: Transfer logs, config-driven bridge events, natives."""

from __future__ import annotations

import copy
import json
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from bridgewatch import facts as f, ingest
from bridgewatch.ingest import (
    BridgeDecoderConfig,
    ConfigError,
    IngestError,
    decode_receipt,
    encode_receipt,
    ingest_jsonl,
    static_facts,
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
    return {
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
    # each receipt moves no value, so its only facts besides the
    # transaction are those of its one log
    def test_transfer_topic_accepted(self):
        facts, warnings = decode_receipt(make_receipt([transfer_log()]), CONFIG)
        assert warnings == []
        assert facts[1:] == [f.Erc20TransferFact(H1, S_CHAIN, 1, AA, U1, B1, "5")]

    def test_approval_topic_ignored(self):
        log = transfer_log()
        log["topics"][0] = APPROVAL_TOPIC0
        facts, warnings = decode_receipt(make_receipt([log]), CONFIG)
        assert (facts[1:], warnings) == ([], [])

    def test_two_topic_transfer_warns(self):
        log = transfer_log()
        log["topics"] = log["topics"][:2]
        facts, warnings = decode_receipt(make_receipt([log]), CONFIG)
        assert facts[1:] == []
        assert len(warnings) == 1 and "2 topics" in warnings[0]


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

    # forms that a lenient hex reader would accept: (text edited, edit, warning)
    @pytest.mark.parametrize("key, edit, warning", [
        (1, lambda t: "0x01", "deposit_id: topic 1 is not one 32-byte hex word"),
        (1, lambda t: "0x0000" + t[2:], "deposit_id: topic 1 is not one 32-byte hex word"),
        (2, lambda t: t[:30] + " " + t[30:], "beneficiary: topic 2 is not one 32-byte hex word"),
        ("data", lambda t: t[:70] + " " + t[70:], "dst_token: data is not whole 32-byte hex words"),
    ], ids=["short-topic", "zero-extended-topic", "space-in-topic", "space-in-data"])
    def test_non_canonical_word_suppresses_bridge_fact(self, key, edit, warning):
        log = deposited_log(2, beneficiary=pad_addr(U2))
        texts = log if key == "data" else log["topics"]
        texts[key] = edit(texts[key])
        facts, warnings = decode_receipt(make_receipt([transfer_log(1), log]), CONFIG)
        assert [type(x).__name__ for x in facts] == ["TransactionFact", "Erc20TransferFact"]
        assert warnings == [f"tx {H1} log 2 (sc_token_deposited): {warning}"]

    # one edit of the deposit log per README reason, and the warning it gives;
    # CONFIG's plan order is deposit_id, beneficiary, then data words 0-4
    @pytest.mark.parametrize("edit, warning", [
        (lambda log: log["topics"].pop(), "beneficiary: topic 2 missing (log has 2)"),
        (lambda log: log.update(data=log["data"][:2 + 64 * 4]), "amount: data word 4 out of range"),
        (lambda log: log["topics"].__setitem__(1, "0x01"),
         "deposit_id: topic 1 is not one 32-byte hex word"),
        (lambda log: log.update(data=log["data"] + "ab"),
         "dst_token: data is not whole 32-byte hex words"),
        (lambda log: log["topics"].__setitem__(2, "0x" + "11" * 32),
         "beneficiary: 32-byte value is not a valid 20-byte address"),
        (lambda log: log.update(data=log["data"][:130] + "0" * 64 + log["data"][194:]),
         "dst_chain_id: chain id must be nonzero"),
        (lambda log: log.update(data=log["data"][:194] + pad_uint(7)[2:] + log["data"][258:]),
         "standard: no enum label for value 7"),
        (lambda log: log["topics"].append("0xzz"), "topic 3 is not one 32-byte hex word"),
    ], ids=["topic-missing", "data-word-out-of-range", "topic-not-a-word", "data-not-words",
            "not-an-address", "zero-chain-id", "no-enum-label", "unread-topic-not-a-word"])
    def test_each_refusal_reason_is_warned_in_full(self, edit, warning):
        log = deposited_log(2, beneficiary=pad_addr(U2))
        edit(log)
        facts, warnings = decode_receipt(make_receipt([transfer_log(1), log]), CONFIG)
        assert [type(x).__name__ for x in facts] == ["TransactionFact", "Erc20TransferFact"]
        assert warnings == [f"tx {H1} log 2 (sc_token_deposited): {warning}"]

    def test_malformed_unread_topic_suppresses_bridge_fact(self):
        log = deposited_log(2, beneficiary=pad_addr(U2))
        log["topics"].append("0xzzzzzz")
        facts, warnings = decode_receipt(make_receipt([transfer_log(1), log]), CONFIG)
        assert [type(x).__name__ for x in facts] == ["TransactionFact", "Erc20TransferFact"]
        assert warnings == [
            f"tx {H1} log 2 (sc_token_deposited): topic 3 is not one 32-byte hex word"]

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

    # each form of a receipt's value: the text its facts hold, one shared string
    @pytest.mark.parametrize("value, text", [
        ("0", "0"),
        ("255", "255"),
        ("1" + "0" * 76, "1" + "0" * 76),  # 77 digits, the longest kept as given
        (str(f.MAX_UINT256), str(f.MAX_UINT256)),  # 78 digits
        ("0x00ff", "255"),
        (255, "255"),
    ], ids=["zero", "decimal", "77-digits", "78-digits", "hex", "json-int"])
    def test_value_forms_decode_to_canonical_text(self, value, text):
        facts, _ = decode_receipt(make_receipt([], value=value, to=U2), CONFIG)
        assert facts[0].value == text and facts[0].value is sys.intern(text)

    @pytest.mark.parametrize("value, message", [
        (str(f.MAX_UINT256 + 1), "value: out of uint256 range"),  # 78 digits
        ("1" + "0" * 78, "value: out of uint256 range"),  # 79 digits
        ("00", "value: cannot parse unsigned integer from '00'"),
        ("-1", "value: negative value -1"),
        ("1e3", "value: cannot parse unsigned integer from '1e3'"),
        (True, "value: expected unsigned integer, got True"),
        (None, "value: expected unsigned integer, got None"),
    ], ids=["78-digits", "79-digits", "leading-zero", "negative", "exponent", "true", "null"])
    def test_value_forms_refused_by_name(self, value, message):
        with pytest.raises(IngestError) as excinfo:
            decode_receipt(make_receipt([], value=value, to=U2), CONFIG)
        assert str(excinfo.value) == message

    def test_contract_addresses_in_any_case_share_one_string(self):
        mixed = make_receipt([transfer_log(1, token="0x" + AA[2:].upper())], value="5",
                             to="0x" + B1[2:].upper())
        lower = make_receipt([transfer_log(1)], value="5")
        contracts: dict = {}
        decoded = [decode_receipt(receipt, CONFIG, contracts)[0]
                   for receipt in (mixed, lower, lower)]
        assert decoded[0] == decoded[1] == decoded[2]
        for tx, transfer, escrow in decoded:
            assert tx.to_address is escrow.bridge_addr is sys.intern(B1)
            assert transfer.token is sys.intern(AA)
        assert contracts == {B1: B1, AA: AA}  # canonical text only

    @pytest.mark.parametrize("key, value, message", [
        ("to", 5, "to: expected address string, got int"),
        ("to", [B1], "to: expected address string, got list"),
        ("address", None, "log address: expected address string, got NoneType"),
        ("address", {B1: B1}, "log address: expected address string, got dict"),
    ])
    def test_contract_address_that_is_no_string_is_refused_by_name(self, key, value, message):
        receipt = make_receipt([transfer_log(1)])
        (receipt if key == "to" else receipt["logs"][0])[key] = value
        with pytest.raises(IngestError) as excinfo:
            decode_receipt(receipt, CONFIG, {B1: B1, AA: AA})
        assert str(excinfo.value) == message

    def test_reverted_receipt_decodes_without_logs_and_is_refused_with_them(self):
        facts, warnings = decode_receipt({**make_receipt([]), "status": 0}, CONFIG)
        assert warnings == []
        assert facts == [f.TransactionFact(1000, S_CHAIN, H1, 7, U1, B1, "0", 0, 50_000)]
        with pytest.raises(IngestError) as excinfo:
            decode_receipt({**make_receipt([transfer_log(1)]), "status": 0}, CONFIG)
        assert str(excinfo.value) == "status: a reverted transaction (status 0) has no logs, got 1"

    def test_decoding_is_deterministic(self):
        receipt = make_receipt([transfer_log(1), deposited_log(2, beneficiary=pad_addr(U2))])
        first, _ = decode_receipt(receipt, CONFIG)
        second, _ = decode_receipt(receipt, CONFIG)
        assert first == second


def round_trip_config(*events: dict) -> BridgeDecoderConfig:
    """The synthetic ABI, plus an event whose ``standard`` is a constant,
    whose amount is a topic, and whose data has an unused word, and
    ``events``."""
    config = copy.deepcopy(generate(ScenarioParams(seed=1, n_deposits=0, n_withdrawals=0)).config)
    erc20_only = next(e for e in config["events"] if e["fact"] == "tc_token_withdrew")
    erc20_only = copy.deepcopy(erc20_only)
    erc20_only["signature"] = "Erc20WithdrawalInitiated(uint256,address,uint256,address,address,uint256)"
    erc20_only["fields"]["standard"] = {"const": "ERC20"}
    erc20_only["fields"]["amount"] = {"topic": 3, "type": "uint"}
    erc20_only["fields"]["dst_chain_id"] = {"data": 3, "type": "chain_id"}  # word 2 unused
    config["events"] += [erc20_only, *events]
    return BridgeDecoderConfig.from_json(config)


RT_CONFIG = round_trip_config()
RT_BRIDGE = RT_CONFIG.chains[S_CHAIN].bridge_addresses[0]
ADDRESSES = st.one_of(st.sampled_from(["0x" + "00" * 20, "0x" + "ff" * 20]),  # the extremes
                      st.binary(min_size=20, max_size=20).map(lambda b: "0x" + b.hex()))
UINT256 = st.integers(0, f.MAX_UINT256).map(str)
# The values of a field, by its type; and of a constant, by its column's
# kind, where any text may be one that an Opaque column refuses.
TYPE_VALUES = {"address": ADDRESSES, "log_address": ADDRESSES, "uint": UINT256, "id": UINT256,
               "chain_id": st.integers(1, f.MAX_UINT256)}
KIND_VALUES = {"Address": ADDRESSES, "ChainId": st.integers(1, f.MAX_UINT256),
               "Amount": UINT256, "Opaque": st.one_of(UINT256, st.text(min_size=1, max_size=6))}


def decode_one(log: dict) -> list:
    receipt = make_receipt([log], to=U1)
    facts, warnings = decode_receipt(receipt, RT_CONFIG)
    assert warnings == []
    return facts[1:]  # after the transaction fact


def draw_fact(data, plan, emitter: str | None = None):
    """A fact that ``plan`` can encode, drawn field by field; its
    ``log_address`` fields hold ``emitter``, when one is given."""
    values = {}
    for name, fplan in plan.fields.items():
        if "const" in fplan:
            values[name] = fplan["const"]
        elif "source" in fplan and emitter is not None:
            values[name] = emitter
        elif "labels" in fplan:
            values[name] = data.draw(st.sampled_from(sorted(set(fplan["labels"].values()))),
                                     label=name)
        else:
            values[name] = data.draw(TYPE_VALUES[fplan.get("type", "log_address")], label=name)
    if plan is ingest._TRANSFER:
        values["chain_id"] = S_CHAIN
    index = data.draw(st.integers(0, 2**32), label="event_index")
    return f.RELATIONS[plan.relation](tx_hash=H1, event_index=index, **values)


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
        fact = draw_fact(data, plan, RT_BRIDGE)
        assert decode_one(plan.encode(fact, RT_BRIDGE)) == [fact]

    @settings(max_examples=100, deadline=None)
    @given(ADDRESSES, ADDRESSES, ADDRESSES, UINT256, st.integers(0, 2**32))
    def test_decode_inverts_encode_for_transfers(self, token, src, dst, amount, index):
        tx = f.TransactionFact(1000, S_CHAIN, H1, 7, U1, U2, "0", 1, 50_000)
        fact = f.Erc20TransferFact(H1, S_CHAIN, index, token, src, dst, amount)
        assert decode_receipt(encode_receipt(tx, [fact], RT_CONFIG), RT_CONFIG) == ([tx, fact], [])

    def test_enum_label_without_a_code_is_refused(self):
        plan = next(p for p in RT_CONFIG.events.values() if p.relation == "sc_token_deposited")
        fact = f.ScTokenDepositedFact(H1, 1, "1", U1, CC, AA, T_CHAIN, "WRAPPED", "5")
        with pytest.raises(ValueError, match="sc_token_deposited.standard: no enum code for 'WRAPPED'"):
            plan.encode(fact, RT_BRIDGE)

    def test_value_other_than_the_constant_is_refused(self):
        plan = next(p for p in RT_CONFIG.events.values()
                    if "const" in p.fields.get("standard", {}))
        fact = f.TcTokenWithdrewFact(H1, 1, "1", U1, AA, CC, S_CHAIN, "NATIVE", "5")
        with pytest.raises(ValueError, match="not the constant"):
            plan.encode(fact, RT_BRIDGE)


HEX_DIGITS = "0123456789abcdef"


def position(data, text: str, end: int) -> int:
    """An index into ``text`` after its ``0x``, below ``len(text) + end``."""
    return data.draw(st.integers(2, max(2, len(text) + end - 1)), label="position")


def edit_text(data, log: dict, edit) -> None:
    """Replace a topic after topic0, or the data, by ``edit(text, i)`` at
    a drawn index ``i``."""
    key = data.draw(st.sampled_from([*range(1, len(log["topics"])), "data"]), label="text")
    texts = log if key == "data" else log["topics"]
    texts[key] = edit(texts[key], position(data, texts[key], 0))


def set_word(data, log: dict, plan, ftype: str, word: str) -> None:
    """Overwrite the word of a field of type ``ftype``, if the plan has one."""
    readers = [p for p in plan.fields.values() if p.get("type") == ftype]
    if not readers:
        return
    fplan = data.draw(st.sampled_from(readers), label="field")
    if "data" in fplan:
        start = 2 + 64 * fplan["data"]
        log["data"] = log["data"][:start] + word + log["data"][start + 64:]
    elif fplan["topic"] < len(log["topics"]):
        log["topics"][fplan["topic"]] = "0x" + word


def flip_digit(data, log, plan):
    step = data.draw(st.integers(1, 15), label="step")
    edit_text(data, log, lambda t, i: t[:i] + HEX_DIGITS[
        (HEX_DIGITS.find(t[i:i + 1].lower()) + step) % 16] + t[i + 1:])


def uppercase_digit(data, log, plan):
    edit_text(data, log, lambda t, i: t[:i] + t[i:i + 1].upper() + t[i + 1:])


def append_digits(data, log, plan):
    """An odd digit count, a partial word or one more word, appended."""
    digits = data.draw(st.text(HEX_DIGITS, min_size=1, max_size=64), label="digits")
    edit_text(data, log, lambda t, i: t + digits)


def truncate(data, log, plan):
    edit_text(data, log, lambda t, i: t[:i])


def drop_data_word(data, log, plan):
    """Whole words still, one fewer."""
    if len(log["data"]) > 2:
        log["data"] = log["data"][:-64]


def drop_topic(data, log, plan):
    if len(log["topics"]) > 1:
        log["topics"].pop(data.draw(st.integers(1, len(log["topics"]) - 1), label="topic"))


def extra_word(data, log, plan):
    word = data.draw(st.binary(min_size=32, max_size=32), label="word").hex()
    if data.draw(st.booleans(), label="topic"):
        log["topics"].append("0x" + word)
    else:
        log["data"] += word


def pad_address(data, log, plan):
    padding = format(data.draw(st.integers(1, 16**24 - 1), label="padding"), "024x")
    set_word(data, log, plan, "address", padding + "ab" * 20)


def zero_chain_id(data, log, plan):
    set_word(data, log, plan, "chain_id", "0" * 64)


def unknown_enum_code(data, log, plan):
    code = data.draw(st.integers(2, f.MAX_UINT256), label="code")  # labels hold 0 and 1
    set_word(data, log, plan, "enum", format(code, "064x"))


def whitespace(data, log, plan):
    space = data.draw(st.sampled_from(" \t\n"), label="space")
    edit_text(data, log, lambda t, i: t[:i] + space + t[i:])


def short_topic(data, log, plan):
    """A topic written as a JSON-RPC quantity, as ``0x01``."""
    if len(log["topics"]) > 1:
        digits = format(data.draw(st.integers(0, 2**160), label="value"), "x")
        i = data.draw(st.integers(1, len(log["topics"]) - 1), label="topic")
        log["topics"][i] = "0x" + "0" * (len(digits) % 2) + digits


def zero_extended_topic(data, log, plan):
    if len(log["topics"]) > 1:
        zeros = "00" * data.draw(st.integers(1, 3), label="zero bytes")
        i = data.draw(st.integers(1, len(log["topics"]) - 1), label="topic")
        log["topics"][i] = "0x" + zeros + log["topics"][i][2:]


# Each edits an encoded log in place; none touches topic0.
MUTATIONS = [flip_digit, uppercase_digit, append_digits, truncate, drop_data_word, drop_topic,
             extra_word, pad_address, zero_chain_id, unknown_enum_code, whitespace, short_topic,
             zero_extended_topic]


def abi_read(plan, topics, data, address, tx_hash, event_index, chain_id):
    """A naive, strict ABI reader that shares no code with the compiled
    decoders: each field's exact 32-byte word, converted by its type, then
    the validating constructor. Returns ``(fact, None)``, or ``(None,
    field)`` for the first field, in plan order, that cannot be read, or
    else ``(None, "topic N")`` for the first topic that is not one word."""

    def words(text):  # the 64-digit words of 0x-prefixed hex, or []
        if text[:2] != "0x" or len(text) % 64 != 2 or set(text[2:]) - set(HEX_DIGITS):
            return []
        return [text[k:k + 64] for k in range(2, len(text), 64)]

    values = {}
    for name, fplan in plan.fields.items():
        if "const" in fplan:
            values[name] = fplan["const"]
            continue
        if "source" in fplan:
            values[name] = address
            continue
        if "topic" in fplan:
            found = words(topics[fplan["topic"]]) if fplan["topic"] < len(topics) else []
            word = found[0] if len(found) == 1 else None
        else:
            found = words(data)
            word = found[fplan["data"]] if fplan["data"] < len(found) else None
        if word is None:
            return None, name
        number, ftype = int(word, 16), fplan.get("type", "uint")
        if ftype == "address":
            value = "0x" + word[24:] if number < 2**160 else None
        elif ftype == "chain_id":
            value = number or None
        elif ftype == "enum":
            value = fplan["labels"].get(str(number))
        else:
            value = str(number)
        if value is None:
            return None, name
        values[name] = value
    for i, topic in enumerate(topics[1:], 1):
        if len(words(topic)) != 1:
            return None, f"topic {i}"
    known = {"tx_hash": tx_hash, "event_index": event_index, "chain_id": chain_id}
    fact_type = f.RELATIONS[plan.relation]
    values.update((name, known[name]) for name, _ in fact_type.COLUMNS if name not in values)
    try:
        return fact_type(**values), None
    except f.EncodingError as exc:
        return None, exc.field


def decode_as_abi_read(plan, args: tuple) -> tuple:
    """``(plan.decode(*args), the fact abi_read reads)``, after checking that
    the decoder returns that fact, or else a reason naming the field that
    the reader cannot read (or the topic that is not one word)."""
    expected, field = abi_read(plan, *args)
    result = plan.decode(*args)
    if not isinstance(result, str):
        assert result == expected
    else:
        assert expected is None
        assert result.startswith(f"{field} is not one 32-byte hex word"
                                 if str(field).startswith("topic ") else f"{field}: ")
    return result, expected


# Fields that share a word: it must suit each of them, and it cannot
# round-trip, as the encoder keeps the last field's value. Topic 1 is read
# by no field.
SHARED_WORDS = {"signature": "SharedWords(address)", "fact": "sc_token_deposited", "fields": {
    "deposit_id": {"data": 0, "type": "id"}, "amount": {"data": 0, "type": "uint"},
    "beneficiary": {"topic": 2, "type": "address"}, "dst_token": {"topic": 2, "type": "address"},
    "orig_token": {"data": 1, "type": "address"}, "dst_chain_id": {"data": 2, "type": "chain_id"},
    "standard": {"data": 2, "type": "enum", "labels": {"1": "ERC20", "2": "NATIVE"}},
}}
MUTATION_CONFIG = round_trip_config(SHARED_WORDS)


class TestCompiledDecoder:
    """The compiled decoders against a strict ABI reader, on mutated logs."""

    @settings(max_examples=600, deadline=None)
    @given(st.data())
    def test_same_fact_as_a_strict_abi_reader_or_one_warning(self, data):
        plan = data.draw(st.sampled_from([*MUTATION_CONFIG.events.values(), ingest._TRANSFER]))
        fact = draw_fact(data, plan, None if plan is ingest._TRANSFER else RT_BRIDGE)
        log = plan.encode(fact, RT_BRIDGE)
        for mutate in data.draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=2),
                                label="mutations"):
            mutate(data, log, plan)
        # the arguments that decode_receipt passes, hex lowercased as it does
        args = ([t.lower() for t in log["topics"]], log["data"].lower(), log["address"],
                H1, fact.event_index, S_CHAIN)
        result, expected = decode_as_abi_read(plan, args)
        # the receipt yields that fact, or that reason as its one warning
        facts, warnings = decode_receipt(make_receipt([log], to=U1), MUTATION_CONFIG)
        if plan is ingest._TRANSFER and len(args[0]) != 3:  # checked before the decoder runs
            expected, warning = None, (f"tx {H1} log {fact.event_index}: Transfer with "
                                       f"{len(args[0])} topics (expected 3)")
        else:
            warning = f"tx {H1} log {fact.event_index} ({plan.relation}): {result}"
        if expected is None:
            assert (facts[1:], warnings) == ([], [warning])
        else:
            assert (facts[1:], warnings) == ([expected], [])

    def test_word_index_beyond_any_log_compiles_and_warns(self):
        config = copy.deepcopy(generate(ScenarioParams(seed=1, n_deposits=0, n_withdrawals=0)).config)
        fields = config["events"][0]["fields"]  # TokenDeposited -> sc_token_deposited
        fields["amount"]["data"] = 2**64  # far past the words of any log
        fields["deposit_id"]["topic"] = 2**64
        config = BridgeDecoderConfig.from_json(config)
        log = {**deposited_log(), "address": config.chains[S_CHAIN].bridge_addresses[0]}
        facts, warnings = decode_receipt(make_receipt([log], to=U1), config)
        assert facts[1:] == []
        assert warnings == [
            f"tx {H1} log 2 (sc_token_deposited): deposit_id: topic {2**64} missing (log has 3)"]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_drawn_configs_decode_as_a_strict_abi_reader(self, data):
        relation = data.draw(st.sampled_from(ingest._DECODABLE), label="relation")
        columns = [(name, kind.name) for name, kind in f.RELATIONS[relation].COLUMNS
                   if name not in ("tx_hash", "event_index")]
        fields = {name: draw_field_plan(data, kind)
                  for name, kind in data.draw(st.permutations(columns), label="plan order")}
        try:
            config = BridgeDecoderConfig.from_json({
                "chains": {str(S_CHAIN): {"finality_seconds": 1, "bridge_addresses": [B1]}},
                "events": [{"signature": "Drawn()", "fact": relation, "fields": fields}]})
        except ConfigError:  # a const or a label that its column refuses
            assume(False)
        (plan,) = config.events.values()
        fact = draw_fact(data, plan)
        log = plan.encode(fact, RT_BRIDGE)
        read = [(k, p[k]) for p in plan.fields.values() for k in ("topic", "data", "source")
                if k in p]
        if len(set(read)) == len(read):  # no word nor emitter shared, so the fact round-trips
            assert plan.decode(log["topics"], log["data"], log["address"], H1,
                               fact.event_index, S_CHAIN) == fact
        for mutate in data.draw(st.lists(st.sampled_from(MUTATIONS), max_size=2), label="mutations"):
            mutate(data, log, plan)
        decode_as_abi_read(plan, ([t.lower() for t in log["topics"]], log["data"].lower(),
                                  log["address"], H1, fact.event_index, S_CHAIN))


def draw_field_plan(data, kind: str) -> dict:
    """A field plan for a column of ``kind``: a constant, the emitter, or a
    topic or data word of a type that suits the column, at a small index,
    so that plans leave gaps, leave topics unread and share words."""
    ftype = data.draw(st.sampled_from([*ingest._FIELD_TYPES[kind], "const"]), label="type")
    if ftype == "const":
        return {"const": data.draw(KIND_VALUES[kind], label="const")}
    if ftype == "log_address":
        return {"source": "log_address"}
    source = data.draw(st.sampled_from(["topic", "data"]), label="source")
    plan = {source: data.draw(st.integers(source == "topic", 4), label="index"), "type": ftype}
    if ftype == "enum":
        plan["labels"] = data.draw(st.dictionaries(
            st.integers(0, f.MAX_UINT256).map(str), st.text(min_size=1, max_size=6),
            min_size=1, max_size=3), label="labels")
    return plan


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

    def test_blank_and_whitespace_lines_are_skipped(self, tmp_path):
        receipts = [self.receipt_obj(1), self.receipt_obj(2)]
        store, report = ingest_jsonl(self.write_receipts(tmp_path, receipts), CONFIG)
        spaced = [receipts[0], "", " \t\r", receipts[1], "  "]
        assert ingest_jsonl(self.write_receipts(tmp_path, spaced), CONFIG) == (store, report)
        assert report.receipts == 2

    def test_lines_end_at_lf_alone(self, tmp_path):
        # JSON Lines ends a record at LF alone: a CR between two tokens of a
        # receipt is JSON whitespace, and lines are counted by LF
        receipts = [json.dumps(self.receipt_obj(i)) for i in (1, 2, 3)]
        expected = ingest_jsonl(self.write_receipts(tmp_path, receipts), CONFIG)
        receipts[1] = receipts[1].replace(",", ",\r", 1)
        assert ingest_jsonl(self.write_receipts(tmp_path, receipts), CONFIG) == expected
        crlf = [receipt + "\r" for receipt in receipts]
        assert ingest_jsonl(self.write_receipts(tmp_path, crlf), CONFIG) == expected
        with pytest.raises(IngestError, match=r"receipts\.jsonl:4: not valid JSON"):
            ingest_jsonl(self.write_receipts(tmp_path, [*receipts, "{bad"]), CONFIG)

    def test_transaction_count_conservation(self, tmp_path):
        path = self.write_receipts(tmp_path, [self.receipt_obj(i) for i in range(1, 6)])
        store, report = ingest_jsonl(path, CONFIG)
        assert report.receipts == 5
        assert store.count("transaction") == 5

    def test_each_receipt_is_decoded_through_the_module_global(self, tmp_path, monkeypatch):
        # the benchmark times decode_receipt by replacing ingest.decode_receipt
        calls = []

        def counting_decode_receipt(obj, *args):  # args: the config and the address memo
            calls.append(obj["txHash"])
            return decode_receipt(obj, *args)

        monkeypatch.setattr("bridgewatch.ingest.decode_receipt", counting_decode_receipt)
        receipts = [self.receipt_obj(i) for i in range(1, 6)]
        ingest_jsonl(self.write_receipts(tmp_path, receipts), CONFIG)
        assert calls == [r["txHash"] for r in receipts]

    def test_event_facts_have_transaction_envelope(self, tmp_path):
        receipt = {
            **self.receipt_obj(1),
            "logs": [transfer_log(1)],
        }
        path = self.write_receipts(tmp_path, [receipt])
        store, _ = ingest_jsonl(path, CONFIG)
        store.seal()
        for tr in store.relation("erc20_transfer"):
            assert store.by_tx["transaction"].get(tr.tx_hash)


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
        with pytest.raises(ConfigError, match="no chains"):
            static_facts({"chains": {}})

    def test_static_facts_check_the_tables(self):
        with pytest.raises(ConfigError, match=r"wrapped_native_tokens\[0\]: expected a list of 2"):
            static_facts({"chains": {"1": {"finality_seconds": 10}},
                          "wrapped_native_tokens": [[1]]})

    def test_static_facts_roundtrip(self):
        statics = CONFIG.static
        kinds = {type(x).__name__ for x in statics}
        assert kinds == {
            "CctxFinalityFact",
            "BridgeControlledAddressFact",
            "TokenMappingFact",
            "WrappedNativeTokenFact",
        }
