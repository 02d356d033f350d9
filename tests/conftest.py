"""Shared fixtures: the two-chain deposit/withdrawal reference scenario.

F1 is a complete valid deposit: chain 1 (finality 1800s) escrows 5 native
units with bridge B1 at t=1000, chain 100 (finality 45s) releases token CC
to the beneficiary at t=2900. F2 is the reverse withdrawal: native escrow
on chain 100 at t=5000, native release on chain 1 at t=5050. Tests mutate
these with :func:`replace` to break exactly one conjunct at a time.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

import pytest

from bridgewatch import facts as f


def addr(tag: str) -> str:
    return "0x" + tag.lower().rjust(40, "0")


def txh(tag: str) -> str:
    return "0x" + tag.lower().rjust(64, "0")


U1 = addr("f1")
U2 = addr("f2")
B1 = addr("b1")
B2 = addr("b2")
AA = addr("aa")  # token on chain 1 (wrapped native of chain 1)
CC = addr("cc")  # its counterpart on chain 100
RELAYER = addr("e0")
H1, H2, H3, H4 = txh("01"), txh("02"), txh("03"), txh("04")

S_CHAIN = 1
T_CHAIN = 100
S_FINALITY = 1800
T_FINALITY = 45


def static_facts() -> list:
    return [
        f.CctxFinalityFact(S_CHAIN, S_FINALITY),
        f.CctxFinalityFact(T_CHAIN, T_FINALITY),
        f.BridgeControlledAddressFact(S_CHAIN, B1),
        f.BridgeControlledAddressFact(T_CHAIN, B2),
        f.WrappedNativeTokenFact(S_CHAIN, AA),
        f.TokenMappingFact(S_CHAIN, T_CHAIN, AA, CC, "ERC20"),
    ]


def f1_facts() -> list:
    """Valid native deposit: escrow on chain 1, release on chain 100."""
    return [
        f.TransactionFact(1000, S_CHAIN, H1, 10, U1, B1, "5", 1, 21_000),
        f.ScDepositFact(H1, 0, U1, B1, "5"),
        f.ScTokenDepositedFact(H1, 1, "7", U2, CC, AA, T_CHAIN, "ERC20", "5"),
        f.TransactionFact(2900, T_CHAIN, H2, 20, RELAYER, B2, "0", 1, 60_000),
        f.Erc20TransferFact(H2, T_CHAIN, 0, CC, B2, U2, "5"),
        f.TcTokenDepositedFact(H2, 1, "7", U2, CC, "5"),
    ]


def f2_facts() -> list:
    """Valid withdrawal: native escrow on chain 100, native release on
    chain 1 (needs chain 100's wrapped-native registration)."""
    return [
        f.WrappedNativeTokenFact(T_CHAIN, CC),
        f.TransactionFact(5000, T_CHAIN, H3, 30, U2, B2, "5", 1, 21_000),
        f.TcWithdrawalFact(H3, 0, U2, B2, "5"),
        f.TcTokenWithdrewFact(H3, 1, "9", U1, CC, AA, S_CHAIN, "ERC20", "5"),
        f.TransactionFact(5050, S_CHAIN, H4, 40, U1, B1, "0", 1, 80_000),
        f.ScWithdrawalFact(H4, 0, B1, U1, "5"),
        f.ScTokenWithdrewFact(H4, 1, "9", U1, AA, "5"),
    ]


def replace(fact, **changes):
    """``fact`` with ``changes`` to its columns, built by the validating
    constructor of its class."""
    return fact.__class__(**{**{name: getattr(fact, name) for name, _ in fact.COLUMNS}, **changes})


def assert_values_shared(*stores: f.FactStore) -> None:
    """Every text column value that is equal across facts, relations and
    ``stores`` is one object."""
    values = [value for store in stores for fact in store for name, _ in fact.COLUMNS
              if isinstance(value := getattr(fact, name), str)]
    assert values
    assert len({id(value) for value in values}) == len(set(values))


class _Cut:
    """A text file open for writing that takes ``budget`` more characters
    and then raises ``error``, having written the part that fits."""

    def __init__(self, fh, budget: int, error: BaseException):
        self.fh, self.budget, self.error = fh, budget, error

    def write(self, text: str) -> int:
        if len(text) > self.budget:
            self.fh.write(text[:self.budget])
            raise self.error
        self.budget -= len(text)
        return self.fh.write(text)

    def writelines(self, lines) -> None:
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.fh.close()


def stop_writes(monkeypatch, budget: Callable[[str], int | None], error: BaseException) -> None:
    """Fail the files that ``facts`` opens for writing, as a full disk or a
    stopped process would: a file named ``name`` takes ``budget(name)``
    characters and then raises ``error``, or raises it before it opens
    when that is 0, or is written whole when it is None."""
    real_open = open

    def opening(file, mode="r", *args, **kwargs):
        chars = budget(Path(file).name) if "w" in mode else None
        if chars == 0:
            raise error
        fh = real_open(file, mode, *args, **kwargs)
        return fh if chars is None else _Cut(fh, chars, error)

    monkeypatch.setattr(f, "open", opening, raising=False)


def build_store(*fact_groups) -> f.FactStore:
    return f.FactStore(fact for group in fact_groups for fact in group).seal()


@pytest.fixture
def f1_store() -> f.FactStore:
    return build_store(static_facts(), f1_facts())


@pytest.fixture
def f2_store() -> f.FactStore:
    return build_store(static_facts(), f2_facts())


@pytest.fixture
def full_store() -> f.FactStore:
    return build_store(static_facts(), f1_facts(), f2_facts())
