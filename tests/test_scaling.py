"""No stage grows faster than its input: each input shape is built at n and
at 8n, and the stage that reads it is timed in process, best of 3.

A linear stage takes about 8 times as long at 8n, a quadratic one about 64
times. Each stage may take at most 24 times as long (three times linear)
per 8 times its size. The size of a shape is its input, plus what the stage
makes of it where that is a product by design: rules 4/8 pair each escrow of
an id with each release of that id, so their shapes count the output too.
"""

from __future__ import annotations

import time
from typing import Callable

import pytest

from bridgewatch import analytics, facts as f, rules
from bridgewatch.ingest import BridgeDecoderConfig, decode_receipt
from bridgewatch.keccak import TRANSFER_TOPIC
from bridgewatch.scenario import AnomalySpec, ScenarioParams, generate
from conftest import (
    AA, B1, B2, CC, H1, H2, S_CHAIN, T_CHAIN, U1, U2, build_store, f1_facts, replace,
    static_facts, txh,
)

MAX_RATIO = 24


def _best_s(run: Callable[[], object]) -> float:
    times = []
    for _ in range(3):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def _eval_and_report(store: f.FactStore) -> Callable[[], dict]:
    return lambda: analytics.build_report(store, rules.eval_all(store))


def _word(address: str) -> str:
    return "0x" + "0" * 24 + address[2:]


def logs_in_one_receipt(n: int) -> tuple[Callable, int]:
    """One receipt with ``n`` ERC-20 Transfer logs, through ``decode_receipt``."""
    config = BridgeDecoderConfig.from_json({"chains": {"1": {
        "role": "source", "finality_seconds": 1800, "bridge_addresses": [B1]}}})
    receipt = {"chainId": 1, "txHash": H1, "blockNumber": 10, "blockTimestamp": 1000,
               "from": U1, "to": AA, "value": "0", "status": 1, "gasUsed": 21_000,
               "logs": [{"address": AA, "topics": [TRANSFER_TOPIC, _word(U1), _word(B1)],
                         "data": "0x" + format(i + 1, "064x"), "logIndex": i}
                        for i in range(n)]}
    facts, warnings = decode_receipt(receipt, config)
    assert (len(facts), warnings) == (n + 1, [])
    return lambda: decode_receipt(receipt, config), n


def legs_of_one_event(n: int) -> tuple[Callable, int]:
    """One release transaction with ``n`` token transfers from the bridge to
    the beneficiary and one bridge event after them."""
    release = [f.TransactionFact(2900, T_CHAIN, H2, 20, U1, B2, "0", 1, 60_000),
               *(f.Erc20TransferFact(H2, T_CHAIN, i, CC, B2, U2, "5") for i in range(n)),
               f.TcTokenDepositedFact(H2, n, "7", U2, CC, "5")]
    store = build_store(static_facts(), f1_facts()[:3], release)
    assert len(rules.eval_rule3(store)) == 1
    return _eval_and_report(store), n


def escrows_and_releases_of_one_id(k: int) -> tuple[Callable, int]:
    """``k`` copies of the escrow and ``k`` of the release of one deposit
    id, each its own transaction: rule 4 derives ``k * k`` tuples."""
    copies = [replace(fact, tx_hash=txh(f"{side}{i:x}"))
              for i in range(k) for side, facts in (("a", f1_facts()[:3]), ("b", f1_facts()[3:]))
              for fact in facts]
    store = build_store(static_facts(), copies)
    assert len(rules.eval_rule4(store)) == k * k
    return _eval_and_report(store), 6 * k + k * k


def replay_fanout(n: int) -> tuple[Callable, int]:
    """One withdrawal id released ``n`` times, as the generator replays it."""
    store = generate(ScenarioParams(seed=3, n_deposits=1, n_withdrawals=1, anomalies=AnomalySpec(
        replayed_id=1, replay_fanout=n))).store.seal()
    assert len(rules.eval_rule8(store)) == n
    return _eval_and_report(store), store.total_facts() + n


def transfers_and_events_of_one_transaction(n: int) -> tuple[Callable, int]:
    """One deposit transaction with ``n`` token transfers into the bridge
    and ``n`` bridge events, each event paid by one transfer. The rule
    bodies join on the tx hash alone, so they try each event with each
    transfer: bounded by input plus those ``n * n`` candidate pairs."""
    deposit = [f.TransactionFact(1000, S_CHAIN, H1, 10, U1, AA, "0", 1, 21_000),
               *(f.Erc20TransferFact(H1, S_CHAIN, i, AA, U1, B1, str(i + 1)) for i in range(n)),
               *(f.ScTokenDepositedFact(H1, n + i, str(i), U2, CC, AA, T_CHAIN, "ERC20", str(i + 1))
                 for i in range(n))]
    store = build_store(static_facts(), deposit)
    assert len(rules.eval_rule2(store)) == n
    return _eval_and_report(store), 2 * n + n * n


# (shape, n): each n large enough that the stage takes a millisecond or more
# at n, and small enough that the module runs in about a second
SHAPES = [
    (logs_in_one_receipt, 500),
    (legs_of_one_event, 400),
    (escrows_and_releases_of_one_id, 10),
    (replay_fanout, 100),
    (transfers_and_events_of_one_transaction, 100),
]


@pytest.mark.parametrize("shape, n", SHAPES, ids=[shape.__name__ for shape, _ in SHAPES])
def test_stage_grows_no_faster_than_its_input(shape, n):
    (run, size), (run_8n, size_8n) = shape(n), shape(8 * n)
    ratio = _best_s(run_8n) / _best_s(run)
    assert ratio <= MAX_RATIO * (size_8n / size) / 8
