"""Fact encodings, store set semantics, and TSV persistence."""

from __future__ import annotations

import ast
import contextlib
import copy
import hashlib
import io
import json
import os
import pickle
import re
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import event, given, settings, strategies as st

from bridgewatch import cli, facts as f
from bridgewatch.scenario import AnomalySpec, ScenarioParams, generate
from conftest import (
    AA, B1, CC, H1, U1, build_store, f1_facts, f2_facts, place_check, replace, static_facts,
    stop_writes, txh,
)
from randstores import random_store

# One fact of each of the thirteen relations.
SAMPLES = {type(x): x for x in static_facts() + f1_facts() + f2_facts()}

# Integer texts that int() accepts but the .facts format does not.
REJECTED_INTEGERS = ["1_700000000", "+5", " 5", "5 ", "-0", "007", "\u0663", "1800\r", "abc",
                     str(2**256)]


class TestCanonicalization:
    def test_address_lowercased(self):
        mixed = "0x" + "AbCdEf" + "0" * 34
        assert f.canonical_address(mixed) == mixed.lower()

    def test_address_rejects_bad_hex(self):
        with pytest.raises(f.EncodingError):
            f.canonical_address("0x" + "zz" * 20)

    def test_address_rejects_wrong_length(self):
        with pytest.raises(f.EncodingError):
            f.canonical_address("0x" + "ab" * 19)

    def test_tx_hash(self):
        assert f.canonical_tx_hash(H1.upper().replace("0X", "0x")) == H1

    def test_amount_rejects_leading_zero(self):
        with pytest.raises(f.EncodingError):
            f.canonical_amount("007")

    def test_amount_rejects_overflow(self):
        with pytest.raises(f.EncodingError):
            f.canonical_amount(str(2**256))

    def test_amount_zero(self):
        assert f.canonical_amount("0") == "0"
        assert f.canonical_amount(0) == "0"

    @pytest.mark.parametrize("check", [f.canonical_address, f.canonical_tx_hash,
                                       f.canonical_amount])
    def test_error_shows_long_input_cut(self, check):
        with pytest.raises(f.EncodingError) as caught:
            check("0x" + "z" * 100_000, "field")
        message = str(caught.value)
        assert len(message) < 150 and message.startswith("field: ") and message.endswith("zz'")

    @given(st.integers(min_value=0, max_value=2**256 - 1))
    def test_amount_round_trips(self, value):
        encoded = f.canonical_amount(value)
        assert int(encoded) == value
        assert f.canonical_amount(encoded) == encoded

    @given(st.binary(min_size=20, max_size=20))
    def test_address_canonicalization_fixed_point(self, raw):
        mixed = "0x" + raw.hex().upper()
        once = f.canonical_address(mixed)
        assert f.canonical_address(once) == once


class TestFactValidation:
    def test_transaction_status_domain(self):
        with pytest.raises(f.EncodingError, match="status"):
            f.TransactionFact(1, 1, H1, 1, U1, B1, "5", 2, 21_000)

    def test_erc20_transfer_bad_token(self):
        with pytest.raises(f.EncodingError, match="token"):
            f.Erc20TransferFact(H1, 1, 0, "0x" + "ZZ" * 20, U1, B1, "5")

    def test_chain_id_nonzero(self):
        with pytest.raises(f.EncodingError, match="chain_id"):
            f.CctxFinalityFact(0, 10)

    def test_finality_positive(self):
        with pytest.raises(f.EncodingError, match="finality_seconds"):
            f.CctxFinalityFact(1, 0)

    def test_opaque_field_rejects_tab(self):
        with pytest.raises(f.EncodingError, match="deposit_id"):
            f.ScTokenDepositedFact(H1, 1, "a\tb", U1, AA, CC, 100, "ERC20", "5")

    def test_fields_are_canonicalized_on_construction(self):
        fact = f.ScDepositFact(H1.upper().replace("0X", "0x"), 0, U1.upper().replace("0X", "0x"), B1, "5")
        assert fact.tx_hash == H1
        assert fact.sender == U1


@pytest.mark.parametrize("fact_type", f.RELATIONS.values(), ids=list(f.RELATIONS))
class TestFactClass:
    """What every fact class promises of its instances: they are values."""

    def test_equal_facts_hash_equal(self, fact_type):
        fact = SAMPLES[fact_type]
        values = tuple(getattr(fact, name) for name, _ in fact.COLUMNS)
        twin = replace(fact)
        assert twin is not fact and twin == fact and not twin != fact
        assert hash(twin) == hash(fact) == hash(values)
        assert fact != values

    def test_repr_names_each_column(self, fact_type):
        fact = SAMPLES[fact_type]
        shown = ", ".join(f"{name}={getattr(fact, name)!r}" for name, _ in fact.COLUMNS)
        assert repr(fact) == f"{type(fact).__name__}({shown})"

    def test_fields_cannot_be_assigned_or_deleted(self, fact_type):
        fact = SAMPLES[fact_type]
        before = fact.columns()
        for name, _ in fact.COLUMNS:
            with pytest.raises(AttributeError):
                setattr(fact, name, getattr(fact, name))
            with pytest.raises(AttributeError):
                delattr(fact, name)
        assert fact.columns() == before

    def test_slots_are_the_columns(self, fact_type):
        assert tuple(fact_type.__slots__) == tuple(name for name, _ in fact_type.COLUMNS)
        assert not hasattr(SAMPLES[fact_type], "__dict__")

    def test_pickle_and_copy_round_trip(self, fact_type):
        fact = SAMPLES[fact_type]
        for clone in (pickle.loads(pickle.dumps(fact)), copy.copy(fact), copy.deepcopy(fact)):
            assert type(clone) is type(fact) and clone == fact


def test_facts_of_two_relations_with_equal_values_are_unequal():
    deposit, withdrawal = f.ScDepositFact(H1, 0, U1, B1, "5"), f.TcWithdrawalFact(H1, 0, U1, B1, "5")
    assert deposit.columns() == withdrawal.columns()
    assert deposit != withdrawal and not deposit == withdrawal
    assert len({deposit, withdrawal}) == 2


def _writers(tree: ast.AST, attribute: str, scope: str = "") -> set[str]:
    """The qualified names of the functions and classes in ``tree`` that
    assign, augment or delete ``attribute`` of an object, or an item or a
    slice of it (``store._relations[name] = ...``)."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found |= _writers(node, attribute, f"{scope}.{node.name}" if scope else node.name)
            continue
        targets = (node.targets if isinstance(node, (ast.Assign, ast.Delete))
                   else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
        if any(isinstance(part, ast.Attribute) and part.attr == attribute
               for target in targets for part in ast.walk(target)):
            found.add(scope)
        found |= _writers(node, attribute, scope)
    return found


class TestStore:
    def test_repeated_facts_collapse(self):
        window, fact = f.CctxFinalityFact(1, 1800), SAMPLES[f.ScDepositFact]
        store = f.FactStore([window, fact, replace(window), fact, replace(fact)])
        assert store.relation("cctx_finality") == (window,)
        assert store.relation("sc_deposit") == (fact,)
        assert store.total_facts() == 2 and store.finality == {1: 1800}

    def test_relations_keep_the_order_first_seen(self):
        facts = [f.WrappedNativeTokenFact(chain, AA) for chain in (7, 3, 9, 3, 1, 7)]
        assert f.FactStore(facts).relation("wrapped_native_token") == tuple(
            f.WrappedNativeTokenFact(chain, AA) for chain in (7, 3, 9, 1))

    def test_conflicting_finality_rejected(self):
        with pytest.raises(f.FactStoreError,
                           match=r"^conflicting cctx_finality for chain 1: 1800 vs 900$") as caught:
            f.FactStore([f.CctxFinalityFact(1, 1800), f.CctxFinalityFact(100, 45),
                         f.CctxFinalityFact(1, 900)])
        assert caught.value.fact == f.CctxFinalityFact(1, 900)

    def test_fact_of_no_relation_rejected(self):
        class Unregistered(NamedTuple):
            RELATION: str = "transactions"

        with pytest.raises(f.FactStoreError, match="unknown relation 'transactions'"):
            f.FactStore([SAMPLES[f.ScDepositFact], Unregistered()])

    def test_permuting_insertion_order_gives_equal_store(self):
        all_facts = static_facts() + f1_facts() + f2_facts()
        assert f.FactStore(all_facts) == f.FactStore(reversed(all_facts))

    def test_only_facts_names_the_relations(self):
        # only facts.py names the relations, and within it only the store's
        # constructor and load_facts_dir, which fills a new store directly,
        # write them
        package = Path(f.__file__).parent
        naming = [path.name for path in sorted(package.glob("*.py"))
                  if re.search(r"\b_relations\b", path.read_text(encoding="utf-8"))]
        assert naming == ["facts.py"]
        tree = ast.parse(Path(f.__file__).read_text(encoding="utf-8"))
        assert _writers(tree, "_relations") == {"FactStore.__init__", "load_facts_dir"}

    @given(st.permutations(range(len(static_facts() + f1_facts()))))
    def test_any_permutation_equal(self, order):
        all_facts = static_facts() + f1_facts()
        assert f.FactStore(all_facts[i] for i in order) == f.FactStore(all_facts)

    def test_store_is_unhashable(self):
        # a store equals another by its relations, so it cannot hash by identity
        with pytest.raises(TypeError):
            hash(f.FactStore())

    def test_chain_ids_collects_references(self):
        store = build_store(static_facts(), f1_facts())
        assert store.chain_ids() == {1, 100}

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_indexes_group_their_relations(self, seed):
        store = random_store(seed)
        # every relation with a tx_hash column, and no other
        assert list(store.by_tx) == [
            "transaction", "erc20_transfer", "sc_deposit", "sc_token_deposited",
            "tc_token_deposited", "tc_withdrawal", "tc_token_withdrew", "sc_withdrawal",
            "sc_token_withdrew"]
        # the by-id groups are built as analytics.duplicate_ids builds them
        by_id = [(f.index_by(store.relation(name), attrgetter(column)), name, column)
                 for name, column in (("sc_token_deposited", "deposit_id"),
                                      ("sc_token_withdrew", "withdrawal_id"))]
        indexes = [*((index, name, "tx_hash") for name, index in store.by_tx.items()), *by_id]
        for index, name, column in indexes:
            naive: dict = {}
            for fact in store.relation(name):
                naive.setdefault(getattr(fact, column), []).append(fact)
            assert index.keys() == naive.keys()
            for key, value in index.items():
                if len(naive[key]) == 1:
                    assert value is naive[key][0]
                else:
                    assert type(value) is tuple and len(value) >= 2
                assert Counter(f.group(index, key)) == Counter(naive[key])
            assert f.group(index, "no such key") == ()
        # mutants share their original's tx hash, so keys are shared too
        assert any(type(value) is tuple for value in store.by_tx["erc20_transfer"].values())

    def test_index_by_keeps_the_iteration_order_of_a_shared_key(self):
        items = frozenset(range(100))
        index = f.index_by(items, lambda n: n % 3 if n < 60 else n)
        for key in range(3):
            assert index[key] == tuple(n for n in items if n < 60 and n % 3 == key)
        assert all(index[n] == n for n in range(60, 100))

    @pytest.mark.parametrize("source", ["generated", "loaded", "random"])
    def test_sealed_indexes_hold_no_one_fact_tuple(self, tmp_path, source):
        # a key's lone fact is kept bare: a 1-tuple would take 48 more bytes
        if source == "random":
            stores = [random_store(seed) for seed in range(10)]
        else:
            stores = [generate(EVAL_HIGH_WATER["attack"][0]).store]
            if source == "loaded":
                f.dump_facts_dir(stores[0], tmp_path)
                stores = [f.load_facts_dir(tmp_path).seal()]
        for store in stores:
            for index in store.by_tx.values():
                assert not [v for v in index.values() if type(v) is tuple and len(v) < 2]

    def test_seal_is_linear_when_every_fact_shares_its_keys(self):
        # one deposit id and one tx hash for all: grouping that copied a
        # key's tuple on every fact would take minutes here
        n = 100_000
        store = f.FactStore(f.ScTokenDepositedFact._unchecked(H1, i, "7", U1, CC, AA, 100, "ERC20", "5")
                            for i in range(n))
        start = time.perf_counter()
        store.seal()
        by_id = f.index_by(store.relation("sc_token_deposited"), attrgetter("deposit_id"))
        assert time.perf_counter() - start < 5
        assert len(by_id["7"]) == len(store.by_tx["sc_token_deposited"][H1]) == n


class TestPersistence:
    def test_load_single_line(self, tmp_path):
        (tmp_path / "cctx_finality.facts").write_text("1\t1800\n")
        store = f.load_facts_dir(tmp_path)
        assert set(store.relation("cctx_finality")) == {f.CctxFinalityFact(1, 1800)}

    def test_empty_directory(self, tmp_path):
        store = f.load_facts_dir(tmp_path)
        assert store.total_facts() == 0

    def test_wrong_column_count_names_file_and_line(self, tmp_path):
        lines = "\t".join([H1, "1", "7", U1, AA, CC, "100", "ERC20"])  # 8 cols, schema has 9
        (tmp_path / "sc_token_deposited.facts").write_text(lines + "\n")
        with pytest.raises(f.FactsParseError, match=r"sc_token_deposited\.facts:1"):
            f.load_facts_dir(tmp_path)

    def test_round_trip_identity(self, tmp_path):
        store = build_store(static_facts(), f1_facts(), f2_facts())
        f.dump_facts_dir(store, tmp_path)
        assert f.load_facts_dir(tmp_path) == store

    def test_load_dump_reproduces_canonical_files(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        f.dump_facts_dir(build_store(static_facts(), f1_facts()), first)
        f.dump_facts_dir(f.load_facts_dir(first), second)
        names = sorted(p.name for p in first.glob("*.facts"))
        assert names == sorted(p.name for p in second.glob("*.facts"))
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_two_relations_two_files(self, tmp_path):
        store = build_store([f.CctxFinalityFact(1, 10), f.WrappedNativeTokenFact(1, AA)])
        written = f.dump_facts_dir(store, tmp_path)
        assert len(written) == 2
        assert sorted(p.name for p in written) == [
            "cctx_finality.facts",
            "wrapped_native_token.facts",
        ]

    def test_rows_sorted_lexicographically(self, tmp_path):
        store = f.FactStore([f.WrappedNativeTokenFact(2, "0x" + "b" * 40),
                             f.WrappedNativeTokenFact(1, "0x" + "a" * 40)])
        f.dump_facts_dir(store, tmp_path)
        lines = (tmp_path / "wrapped_native_token.facts").read_text().splitlines()
        assert lines == sorted(lines)

    def test_missing_directory(self):
        with pytest.raises(FileNotFoundError):
            f.load_facts_dir("/nonexistent/path/for/facts")

    def test_load_rejects_malformed_field(self, tmp_path):
        (tmp_path / "cctx_finality.facts").write_text("0\t1800\n")
        with pytest.raises(f.FactsParseError, match="chain id"):
            f.load_facts_dir(tmp_path)

    @pytest.mark.parametrize("text", REJECTED_INTEGERS)
    def test_load_rejects_noncanonical_integer(self, tmp_path, text):
        (tmp_path / "cctx_finality.facts").write_bytes(f"1\t{text}\n".encode())
        with pytest.raises(f.FactsParseError, match=r"cctx_finality\.facts:1: finality_seconds: "):
            f.load_facts_dir(tmp_path)

    def test_load_lowercases_mixed_case_hex(self, tmp_path):
        (tmp_path / "wrapped_native_token.facts").write_text(f"1\t{AA.upper().replace('0X', '0x')}\n")
        store = f.load_facts_dir(tmp_path)
        assert set(store.relation("wrapped_native_token")) == {f.WrappedNativeTokenFact(1, AA)}

    def test_load_rejects_amount_above_uint256(self, tmp_path):
        row = "\t".join([H1, "0", U1, B1, str(2**256)])
        (tmp_path / "sc_deposit.facts").write_text(row + "\n")
        with pytest.raises(f.FactsParseError, match=r"sc_deposit\.facts:1: amount: .*uint256"):
            f.load_facts_dir(tmp_path)

    @pytest.mark.parametrize("amount, text", [
        ("5", "{row}\n{row}\n"),
        ("5", "{row}\n{row}"),  # the last row without its line break
        ("5", "{row}\n{upper}\n"),
        (str(10**77), "{row}\n\n{row}\n"),  # 78 digits: the checked path
    ], ids=["repeated", "unterminated-repeat", "upper-case-twin", "78-digit-amount"])
    def test_repeated_row_loads_as_one_fact(self, tmp_path, amount, text):
        fact = f.ScDepositFact(H1, 0, U1, B1, amount)
        row = fact._to_row()
        upper = row.upper().replace("0X", "0x")
        (tmp_path / "sc_deposit.facts").write_text(text.format(row=row, upper=upper))
        store = f.load_facts_dir(tmp_path)
        assert store.count("sc_deposit") == 1
        assert store == build_store([fact])
        assert store.seal().relation("sc_deposit") == (fact,)
        # kept as a tuple, so that relation() copies nothing
        assert store.relation("sc_deposit") is store.relation("sc_deposit")

    def test_repeated_bad_row_names_its_first_line(self, tmp_path):
        (tmp_path / "cctx_finality.facts").write_text("1\t1800\n1\t1800\n0\t1800\n100\t45\n0\t1800\n")
        with pytest.raises(f.FactsParseError, match=r"cctx_finality\.facts:3: chain_id: "):
            f.load_facts_dir(tmp_path)

    def test_finality_conflict_names_the_later_row(self, tmp_path):
        (tmp_path / "cctx_finality.facts").write_text("1\t1800\n1\t1800\n100\t45\n1\t900\n1\t1800\n")
        with pytest.raises(f.FactsParseError, match=r"cctx_finality\.facts:4: conflicting "):
            f.load_facts_dir(tmp_path)

    def test_finality_map_keeps_step_with_a_loaded_relation(self, tmp_path):
        (tmp_path / "cctx_finality.facts").write_text("1\t1800\n")
        store = f.load_facts_dir(tmp_path)
        store.seal()
        assert store.finality == {1: 1800}

    def test_finality_load_is_linear_in_its_chains(self, tmp_path):
        # a conflict check that scanned the windows already loaded took
        # 12 s for 20,000 chains (2 vCPU); a linear load reads 8n rows in
        # about 8 times the time of n, a quadratic one in about 64 times
        def best_load_s(chains: int) -> float:
            root = tmp_path / str(chains)
            root.mkdir()
            (root / "cctx_finality.facts").write_text(
                "".join(f"{chain}\t1800\n" for chain in range(1, chains + 1)))
            times = []
            for _ in range(3):
                start = time.perf_counter()
                store = f.load_facts_dir(root)
                times.append(time.perf_counter() - start)
            assert store.count("cctx_finality") == chains
            return min(times)

        assert best_load_s(8_000) / best_load_s(1_000) <= 24

    @pytest.mark.parametrize("relation, row, column", [
        ("erc20_transfer", f"0xzz\tabc\t0\t{AA}\t{U1}\t{B1}\t5", "tx_hash"),
        ("cctx_finality", "0\tabc", "chain_id"),
        ("cctx_finality", "1\t-5", "finality_seconds: negative value -5"),
    ], ids=["text-before-integer", "check-before-parse", "negative-integer"])
    def test_row_names_its_first_refused_column(self, tmp_path, relation, row, column):
        (tmp_path / f"{relation}.facts").write_text(row + "\n")
        with pytest.raises(f.FactsParseError, match=rf"{relation}\.facts:1: {column}"):
            f.load_facts_dir(tmp_path)


class _Stopped(BaseException):
    """The stop of a process part-way through a dump."""


# Where a re-dump over an older dump is stopped: before the marker is
# written; before each relation file opens, and when half of it is written;
# and before the marker is removed.
REDUMP_STOPS = [(".dump-incomplete", "open"),
                *((f"{name}.facts", where) for name in f.RELATIONS for where in ("open", "half")),
                (".dump-incomplete", "unlink")]


@pytest.fixture(scope="module")
def redump(tmp_path_factory) -> dict:
    """Seed 1's 50/50 store dumped, with its ``eval``; and seed 2's, which
    is dumped over it. Each store alone is clean."""
    root = tmp_path_factory.mktemp("redump")
    old, new = (generate(ScenarioParams(seed, 50, 50)).store for seed in (1, 2))
    f.dump_facts_dir(old, root / "old")
    f.dump_facts_dir(new, root / "new")
    code = cli.main(["eval", "--facts", str(root / "old"), "--out", str(root / "old.json")])
    return {"root": root, "old": old, "new": new,
            "eval": (code, (root / "old.json").read_bytes())}


@pytest.mark.parametrize("file, where", REDUMP_STOPS,
                         ids=[f"{where}-{file}" for file, where in REDUMP_STOPS])
def test_a_stopped_redump_loads_the_old_store_or_is_refused(redump, tmp_path, monkeypatch,
                                                             capsys, file, where):
    # A dump that rewrites each file in place, stopped as tc_withdrawal.facts
    # (the sixth file) opens, leaves five new files beside eight old ones,
    # and eval exits 1 with 142 SingleBridgeEvent anomalies.
    facts, report = tmp_path / "facts", tmp_path / "report.json"
    shutil.copytree(redump["root"] / "old", facts)
    (facts / "ground_truth.json").write_text("[]\n")  # a file of no relation
    if where == "unlink":
        unlink = Path.unlink

        def stopping(path, *args, **kwargs):
            if path.name == file:
                raise _Stopped
            return unlink(path, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", stopping)
    else:
        chars = (redump["root"] / "new" / file).stat().st_size // 2 if where == "half" else 0
        stop_writes(monkeypatch, lambda name: chars if name == file or name.startswith(f"{file}.")
                    else None, _Stopped())
    with pytest.raises(_Stopped):
        f.dump_facts_dir(redump["new"], facts)
    monkeypatch.undo()
    capsys.readouterr()
    code = cli.main(["eval", "--facts", str(facts), "--out", str(report)])
    if code == cli.EXIT_INPUT_ERROR:
        message = f"{facts / '.dump-incomplete'}: the dump into this directory did not finish"
        assert capsys.readouterr().err == f"error: {message}\n"
        with pytest.raises(f.FactsParseError, match=re.escape(message)):
            f.load_facts_dir(facts)
    else:
        counts = json.loads(report.read_bytes())["anomaly_counts"]
        assert (code, counts) == (redump["eval"][0], {})
        assert report.read_bytes() == redump["eval"][1]
        assert f.load_facts_dir(facts) == redump["old"]
    # the next dump finishes: its store, the file of no relation, no marker and no temporary file
    f.dump_facts_dir(redump["new"], facts)
    assert f.load_facts_dir(facts) == redump["new"]
    assert sorted(p.name for p in facts.iterdir()) == sorted(
        ["ground_truth.json", *(p.name for p in (redump["root"] / "new").iterdir())])


def test_a_leftover_temporary_file_is_never_read(redump, tmp_path):
    # a process killed while write_whole writes leaves its <path>.<pid>.tmp
    facts, report = tmp_path / "facts", tmp_path / "report.json"
    shutil.copytree(redump["root"] / "old", facts)
    (facts / "transaction.facts.4242.tmp").write_bytes(b"\xffgarbage\tnot\ta row\n")
    code = cli.main(["eval", "--facts", str(facts), "--out", str(report)])
    assert (code, report.read_bytes()) == redump["eval"]
    f.dump_facts_dir(redump["new"], facts)
    assert f.load_facts_dir(facts) == redump["new"]
    assert not (facts / f.DUMP_MARKER).exists()


# Every integer column, as (fact of its relation, column index).
INTEGER_COLUMNS = [
    (fact, index) for fact in sorted(SAMPLES.values(), key=lambda x: x.RELATION)
    for index, (name, _) in enumerate(fact.COLUMNS) if isinstance(getattr(fact, name), int)
]


@pytest.mark.parametrize("fact, index", INTEGER_COLUMNS,
                         ids=[f"{x.RELATION}.{x.COLUMNS[i][0]}" for x, i in INTEGER_COLUMNS])
def test_integer_columns_hold_uint256(tmp_path, fact, index):
    """Each integer column loads values up to 2**256 - 1 and names itself
    for longer ones, as a 5000-digit one."""
    name = type(fact).COLUMNS[index][0]
    path = tmp_path / f"{fact.RELATION}.facts"
    for text in [str(2**256), "9" * 5000]:
        cols = list(fact.columns())
        cols[index] = text
        path.write_text("\t".join(cols) + "\n")
        with pytest.raises(f.FactsParseError, match=re.escape(f"{path}:1: {name}: out of uint256 range")):
            f.load_facts_dir(tmp_path)
    if name != "status":
        cols[index] = str(2**256 - 1)
        path.write_text("\t".join(cols) + "\n")
        (loaded,) = f.load_facts_dir(tmp_path).relation(fact.RELATION)
        assert getattr(loaded, name) == 2**256 - 1


def _in_new_interpreter(script: str, facts_dir: Path, **env: str) -> str:
    """The stdout of ``script`` run on ``facts_dir`` in a new interpreter,
    with ``env`` added to its environment, so that what earlier tests left
    in this one does not count: a table of interned strings that a load
    must grow, say."""
    src = str(Path(f.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", script, str(facts_dir)], capture_output=True,
        text=True, check=True, env={**os.environ, "PYTHONPATH": src, **env},
    ).stdout


# In a new interpreter: a digest of each relation of a generated store, in
# the order the store lists its facts, and then of the store that ingest
# builds from that scenario's receipts.
ORDER_SCRIPT = """
import hashlib, sys
from pathlib import Path
from bridgewatch import facts, ingest, scenario
generated = scenario.generate(scenario.ScenarioParams(seed=5, n_deposits=30, n_withdrawals=30))
receipts = Path(sys.argv[1]) / "receipts.jsonl"
generated.write_receipts_jsonl(receipts)
ingested, _ = ingest.ingest_jsonl(receipts, ingest.BridgeDecoderConfig.from_json(generated.config))
for store in (generated.store, ingested):
    print(*(hashlib.sha256("\\n".join(map(repr, store.relation(name))).encode()).hexdigest()[:12]
            for name in facts.RELATIONS))
"""


def test_a_built_store_lists_its_facts_in_one_order_under_any_hash_seed(tmp_path):
    listed = []
    for seed in ("1", "2"):
        (tmp_path / seed).mkdir()
        listed.append(_in_new_interpreter(ORDER_SCRIPT, tmp_path / seed, PYTHONHASHSEED=seed))
    assert listed[0] == listed[1]


# In a new interpreter: the generated methods of each fact class that have
# been compiled after importing the CLI, and after loading a directory of
# transaction and cctx_finality rows; the event plans whose encoder has been
# compiled once a decoder config is loaded; and whether a fact pickles (through
# the generated __init__, a special method, which the interpreter looks up on
# the class) and shows on its first use.
FIRST_USE_SCRIPT = """
import json, pickle, sys
from pathlib import Path
from bridgewatch import cli, facts as f
METHODS = ("__init__", "_to_row", "_unchecked")
def compiled():
    return [f"{name}.{method}" for name, cls in f.RELATIONS.items() for method in METHODS
            if not isinstance(vars(cls)[method], f._FirstUse)]
root = Path(sys.argv[1])
print(json.dumps(compiled()))
store = cli.load_facts_dir(root / "facts")
print(json.dumps(compiled()))
from bridgewatch import ingest
config = ingest.load_config(root / "decoder_config.json")
print(json.dumps([plan.relation for plan in (ingest._TRANSFER, *config.events.values())
                  if plan.encode.function is not None]))
fact = min(store.relation("transaction"), key=lambda fact: fact.tx_hash)
print(json.dumps([pickle.loads(pickle.dumps(fact)) == fact, repr(fact)[:16]]))
"""


def test_fact_methods_and_encoders_compile_on_first_use(tmp_path):
    store = f.FactStore([f.TransactionFact(1000 + i, 1, txh(f"{i:02x}"), i, AA, B1, "0", 1, 21_000)
                         for i in (1, 2)] + [f.CctxFinalityFact(1, 1800), f.CctxFinalityFact(100, 45)])
    f.dump_facts_dir(store, tmp_path / "facts")
    config = generate(ScenarioParams(seed=1, n_deposits=2, n_withdrawals=2)).config
    (tmp_path / "decoder_config.json").write_text(json.dumps(config), encoding="utf-8")
    imported, loaded, encoders, first_use = map(
        json.loads, _in_new_interpreter(FIRST_USE_SCRIPT, tmp_path).splitlines())
    assert imported == []
    assert loaded == ["transaction._unchecked", "cctx_finality._unchecked"]
    assert encoders == []
    assert first_use == [True, "TransactionFact("]


# Traced bytes per fact that a store loaded from the dump of
# ScenarioParams(seed=41, n_deposits=500, n_withdrawals=500), 6,011 facts,
# frees when it is dropped: 593 B when each row held its own strings, 234 B
# with equal values shared, 172 B with each relation a tuple, not a set
# (CPython 3.11). The bound leaves 15% headroom over the tuple layout. The
# freed bytes are what the store holds: the growth over a load also counts
# the table of interned strings, which grows in whichever load crosses its
# next size, and the pattern cache (305 B per fact over a first load at the
# time of the 234 B above).
MAX_LOADED_BYTES_PER_FACT = 198

LOADED_SCRIPT = """
import sys, tracemalloc
from bridgewatch import facts
tracemalloc.start()
store = facts.load_facts_dir(sys.argv[1])
total, kept = store.total_facts(), tracemalloc.get_traced_memory()[0]
del store
print(total, (kept - tracemalloc.get_traced_memory()[0]) / total)
"""


def test_loaded_store_bytes_per_fact_is_bounded(tmp_path):
    generate(ScenarioParams(seed=41, n_deposits=500, n_withdrawals=500)).write_facts_dir(tmp_path)
    total, traced = _in_new_interpreter(LOADED_SCRIPT, tmp_path).split()
    assert int(total) == 6011
    assert float(traced) <= MAX_LOADED_BYTES_PER_FACT


# Traced peak bytes per fact over load_facts_dir -> seal -> eval_all ->
# build_report -> report_to_json in a new interpreter: for the clean store
# above, and for a 6,521-fact store with every attack kind and 28-way replays.
# 547 and 556 B with list-valued indexes, two sets of every tx hash in
# local_mismatches and a join keyed on 5-tuples; 487 and 497 B with
# tuple-valued indexes, one set and the join's escrows indexed by id; 478
# and 487 B once the by-id groups moved out of seal; 426 and 436 B with a
# key's lone fact indexed bare, not in a 1-tuple; 364 and 379 B later, with
# each relation still a set copied into a frozenset; 332 and 335 B with each
# relation a tuple of distinct rows; 323 and 325 B with the rule-4/8 join
# keeping its unmatched legs rather than a copy of its matched ones; 307 and
# 309 B with that join's and local_mismatches' bookkeeping in dicts rather
# than sets grown one add at a time, and build_report letting go of each
# pass's anomalies as it ends (CPython 3.11). The bounds leave 10% headroom.
EVAL_HIGH_WATER = {
    "clean": (ScenarioParams(seed=41, n_deposits=500, n_withdrawals=500), 339),
    "attack": (ScenarioParams(seed=41, n_deposits=500, n_withdrawals=500, anomalies=AnomalySpec(
        forged_release=15, replayed_id=5, finality_break=15, direct_transfer=15,
        orphan_bridge_event=15, replay_fanout=28)), 341),
}

# Prints the high-water bytes per fact, then one line per stage: the traced
# bytes kept after it and its own peak (the peak is reset between stages, so
# the high-water mark is the largest of them). Each stage lets go of what the
# one-line pipeline would let go of before the next.
HIGH_WATER_SCRIPT = """
import sys, tracemalloc
from bridgewatch import analytics, facts, rules
stages = []
def done(stage):
    stages.append((stage, *tracemalloc.get_traced_memory()))
    tracemalloc.reset_peak()
tracemalloc.start()
store = facts.load_facts_dir(sys.argv[1]); done("load_facts_dir")
store.seal(); done("seal")
outputs = rules.eval_all(store); done("eval_all")
report = analytics.build_report(store, outputs); del outputs; done("build_report")
text = analytics.report_to_json(report); del report; done("report_to_json")
print(max(peak for _, _, peak in stages) / store.total_facts())
for stage, kept, peak in stages:
    print(f"{stage}: kept {kept} B, peak {peak} B")
"""


@pytest.mark.parametrize("name", EVAL_HIGH_WATER)
def test_eval_high_water_bytes_per_fact_is_bounded(tmp_path, name):
    params, max_bytes_per_fact = EVAL_HIGH_WATER[name]
    generate(params).write_facts_dir(tmp_path)
    per_fact, *stages = _in_new_interpreter(HIGH_WATER_SCRIPT, tmp_path).splitlines()
    assert float(per_fact) <= max_bytes_per_fact, "; ".join(stages)


def _dump_bytes(store: f.FactStore, root: Path) -> dict[str, bytes]:
    f.dump_facts_dir(store, root)
    return {p.name: p.read_bytes() for p in sorted(root.glob("*.facts"))}


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_random_store_dump_load_dump_is_identity(seed):
    store = random_store(seed, mutants=40, noise=40)
    with tempfile.TemporaryDirectory() as tmp:
        first = _dump_bytes(store, Path(tmp, "first"))
        loaded = f.load_facts_dir(Path(tmp, "first"))
        assert loaded == store
        assert _dump_bytes(loaded, Path(tmp, "second")) == first


# Any text without a tab or line break keeps the row's column count; lone
# surrogates are left out because no UTF-8 file can hold them.
_COLUMN_TEXT = st.one_of(
    st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\t\n\r"), max_size=80),
    st.from_regex(r"0[xX][0-9a-fA-F]{40}|0[xX][0-9a-fA-F]{64}", fullmatch=True),
    st.integers(min_value=-2, max_value=2**257).map(str),
    st.sampled_from([t for t in REJECTED_INTEGERS if "\r" not in t] + ["", "0", "1", "2", str(2**256 - 1), "1e3", "\x00", "\u00b2"]),
)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(SAMPLES.values(), key=lambda x: x.RELATION)), st.data())
def test_column_text_loads_as_constructed_or_names_the_column(fact, data):
    """The row matcher and the per-kind codecs accept the same texts."""
    cls = type(fact)
    index = data.draw(st.integers(min_value=0, max_value=len(cls.COLUMNS) - 1), label="column")
    name = cls.COLUMNS[index][0]
    text = data.draw(_COLUMN_TEXT, label="text")
    cols = list(fact.columns())
    cols[index] = text
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, f"{cls.RELATION}.facts")
        path.write_bytes(("\t".join(cols) + "\n").encode())
        try:
            store = f.load_facts_dir(tmp)
        except f.FactsParseError as exc:
            assert str(exc).startswith(f"{path}:1: {name}: ")
            return
    values = [getattr(fact, column) for column, _ in cls.COLUMNS]
    values[index] = int(text) if isinstance(values[index], int) else text
    assert set(store.relation(cls.RELATION)) == {cls(*values)}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(SAMPLES.values(), key=lambda x: x.RELATION)), st.data())
def test_fast_row_pattern_matches_canonical_rows_only(fact, data):
    """The invariant by which load_facts_dir drops repeated rows by their
    text: a line that its relation's row pattern matches loads to a fact
    whose ``_to_row()`` is that line, and a fact's ``_to_row()`` matches the
    pattern unless it holds a 78-digit integer, which the checked path
    reads."""
    cls = type(fact)
    match = re.compile(cls._ROW_PATTERN).match
    index = data.draw(st.integers(min_value=0, max_value=len(cls.COLUMNS) - 1), label="column")
    cols = list(fact.columns())
    cols[index] = data.draw(st.one_of(_COLUMN_TEXT, st.integers(10**77, 2**256 - 1).map(str)),
                            label="text")
    line = "\t".join(cols) + data.draw(st.sampled_from(["\n", ""]), label="end")
    m = match(line)
    if m is not None:
        event("matched")
        assert cls._unchecked(*m.groups())._to_row() == line.removesuffix("\n")
    try:
        loaded = f._checked_row(cls, line)
    except f.EncodingError:
        assert m is None
        return
    row = loaded._to_row()
    wide = any(len(text) == 78 for text, (_, kind) in zip(row.split("\t"), cls.COLUMNS)
               if kind.name != "Opaque")
    event(f"78-digit integer: {wide}")
    assert (match(row) is None) == wide


@pytest.fixture(scope="module")
def small_facts_dir(tmp_path_factory) -> dict[str, bytes]:
    """The dumped files of a small scenario with every anomaly kind."""
    root = tmp_path_factory.mktemp("facts")
    generate(ScenarioParams(1, 2, 2, AnomalySpec(1, 1, 1, 1, 1))).write_facts_dir(root)
    return {p.name: p.read_bytes() for p in sorted(root.glob("*.facts"))}


def _byte_mutation(data, text: bytes) -> bytes:
    """``text``, a dumped ``.facts`` file, with one byte mutation drawn
    from ``data``."""
    lines = text.splitlines(keepends=True)
    line = data.draw(st.integers(0, len(lines) - 1), label="line")
    row = lines[line]
    name = data.draw(st.sampled_from(["edit a tab", "drop a tab", "duplicate a tab", "insert a CR",
                                      "insert a non-UTF-8 byte", "write an over-long integer",
                                      "duplicate a line", "swap the case of a line"]))
    event(name)
    if name.endswith("a tab"):
        at = data.draw(st.sampled_from([i for i, byte in enumerate(row) if byte == ord("\t")]))
        by = (data.draw(st.sampled_from([b" ", b"x", b"0", b"\\"])) if name == "edit a tab"
              else b"" if name == "drop a tab" else b"\t\t")
        row = row[:at] + by + row[at + 1:]
    elif name.startswith("insert"):
        byte = b"\r" if name == "insert a CR" else data.draw(st.sampled_from([b"\xff", b"\x80", b"\xc3"]))
        at = data.draw(st.integers(0, len(row)), label="offset")
        row = row[:at] + byte + row[at:]
    elif name == "write an over-long integer":
        # 76 to 81 digits: around both the row pattern's 77 and uint256's 78
        columns = row.removesuffix(b"\n").split(b"\t")
        column = data.draw(st.integers(0, len(columns) - 1), label="column")
        columns[column] = str(data.draw(st.integers(10**75, 10**80))).encode()
        row = b"\t".join(columns) + b"\n"
    elif name == "duplicate a line":
        row *= 2
    else:
        row = row.swapcase()
    lines[line] = row
    return b"".join(lines)


def _hex_columns(fact_type) -> list[bool]:
    """Whether each column of ``fact_type`` holds hex text, whose case does
    not count (identifiers and standards are case-sensitive)."""
    return [kind.name in ("Address", "TxHash") for _, kind in fact_type.COLUMNS]


def _canonical(fact_type, text: str) -> bytes:
    """The dump of the ``.facts`` text of ``fact_type``: hex columns
    lowercased, blank lines dropped, rows sorted and repeats removed."""
    hexed = _hex_columns(fact_type)
    rows = {"\t".join(col.lower() if lower else col for col, lower in zip(line.split("\t"), hexed))
            for line in text.split("\n") if line}
    return "".join(row + "\n" for row in sorted(rows)).encode()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_byte_mutated_facts_file_names_its_line_or_dumps_back_canonical(small_facts_dir, data):
    """A ``.facts`` file with one byte mutation either fails to load with a
    ``FactsParseError`` naming ``file:line``, or loads and dumps back as the
    mutated file made canonical: nothing non-canonical is kept, nor any
    row lost."""
    name = data.draw(st.sampled_from(sorted(small_facts_dir)), label="file")
    text = _byte_mutation(data, small_facts_dir[name])
    fact_type = f.RELATIONS[name.removesuffix(".facts")]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "in", name)
        path.parent.mkdir()
        path.write_bytes(text)
        try:
            store = f.load_facts_dir(path.parent)
        except f.FactsParseError as exc:
            m = re.match(rf"{re.escape(str(path))}:(\d+): ", str(exc))
            assert m and 1 <= int(m.group(1)) <= len(text.splitlines()), str(exc)
            event("refused")
            return
        assert _dump_bytes(store, Path(tmp, "out")) == {name: _canonical(fact_type, text.decode())}


def _eval(facts_dir: Path, out: Path) -> tuple[int, bytes, str]:
    """``eval`` of ``facts_dir``: its exit code, report bytes and the
    "evaluated N facts" line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["eval", "--facts", str(facts_dir), "--out", str(out)])
    (evaluated,) = [line for line in err.getvalue().splitlines() if line.startswith("evaluated ")]
    return code, out.read_bytes(), evaluated


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_eval_report_is_unmoved_by_row_order_repeats_and_hex_case(small_facts_dir, data):
    """A metamorphic relation of the whole ``eval``: shuffling the rows of
    every file, repeating some rows and upper-casing the hex of some rows
    leave the exit code, the report bytes and the fact count unchanged."""
    with tempfile.TemporaryDirectory() as tmp:
        original, changed = Path(tmp, "original"), Path(tmp, "changed")
        original.mkdir()
        changed.mkdir()
        for name, text in small_facts_dir.items():
            (original / name).write_bytes(text)
            hexed = _hex_columns(f.RELATIONS[name.removesuffix(".facts")])
            rows = text.decode().splitlines()
            rows += data.draw(st.lists(st.sampled_from(rows), max_size=3), label=f"{name} repeats")
            rows = data.draw(st.permutations(rows), label=f"{name} order")
            upper = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)),
                              label=f"{name} upper-cased")
            rows = ["\t".join(col.upper() if up and hex_col else col
                              for col, hex_col in zip(row.split("\t"), hexed))
                    for row, up in zip(rows, upper)]
            (changed / name).write_text("".join(row + "\n" for row in rows), encoding="utf-8")
        expected = _eval(original, Path(tmp, "original.json"))
        assert expected[0] == cli.EXIT_ANOMALIES
        assert _eval(changed, Path(tmp, "changed.json")) == expected


@pytest.mark.parametrize("anomalies", [AnomalySpec(), AnomalySpec(2, 2, 2, 2, 2)],
                         ids=["clean", "every-attack-kind"])
def test_eval_report_is_unmoved_by_a_shift_of_every_timestamp(tmp_path, anomalies):
    """A metamorphic relation of the whole ``eval``: adding one constant to
    every ``transaction.facts`` timestamp leaves the exit code, the report
    bytes and the fact count unchanged."""
    original, shifted = tmp_path / "original", tmp_path / "shifted"
    generate(ScenarioParams(5, 40, 40, anomalies)).write_facts_dir(original)
    shutil.copytree(original, shifted)
    rows = [row.split("\t", 1) for row in (original / "transaction.facts").read_text().splitlines()]
    (shifted / "transaction.facts").write_text(
        "".join(f"{int(timestamp) + 987_654_321}\t{rest}\n" for timestamp, rest in rows))
    expected = _eval(original, tmp_path / "original.json")
    assert expected[0] == (cli.EXIT_CLEAN if anomalies == AnomalySpec() else cli.EXIT_ANOMALIES)
    assert _eval(shifted, tmp_path / "shifted.json") == expected


@pytest.mark.parametrize("checker_process", [True, False], ids=["checker-process", "in-process"])
def test_eval_report_renames_the_tx_hashes_that_the_facts_rename(tmp_path, monkeypatch,
                                                                 checker_process):
    """A metamorphic relation of the whole ``eval``: renaming every tx hash
    of the facts by a bijection renames it in the report, and changes
    nothing else: the exit code, the fact count and every other byte of the
    report stay. The report lists anomalies and their hashes sorted by
    hash, so the bijection keeps the order of the hashes."""
    place_check(monkeypatch, checker_process)
    store = generate(ScenarioParams(5, 40, 40, AnomalySpec(2, 2, 2, 2, 2))).store
    hashes = sorted({value for fact in store
                     for value, (_, kind) in zip(fact._values(fact), fact.COLUMNS)
                     if kind.name == "TxHash"})
    fresh = sorted({"0x" + hashlib.sha256(tx_hash.encode()).hexdigest() for tx_hash in hashes})
    assert len(fresh) == len(hashes) and not set(fresh) & set(hashes)
    rename = dict(zip(hashes, fresh))
    original, renamed = tmp_path / "original", tmp_path / "renamed"
    f.dump_facts_dir(store, original)
    f.dump_facts_dir(f.FactStore(
        type(fact)(*(rename[value] if kind.name == "TxHash" else value
                     for value, (_, kind) in zip(fact._values(fact), fact.COLUMNS)))
        for fact in store), renamed)
    code, report, evaluated = _eval(original, tmp_path / "original.json")
    assert code == cli.EXIT_ANOMALIES
    named = re.findall("0x[0-9a-f]{64}", report.decode())
    assert named and set(named) <= set(hashes)
    assert _eval(renamed, tmp_path / "renamed.json") == (
        code, re.sub("0x[0-9a-f]{64}", lambda m: rename[m.group()], report.decode()).encode(),
        evaluated)
