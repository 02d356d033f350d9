"""The split load: a checker process matches each file's rows while the
load builds their facts. With the checker forced, and with none (the
per-line path, each line matched and built in turn), a load gives the
store, or the exit-2 message, that the per-line path gives."""

from __future__ import annotations

import contextlib
import io
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from bridgewatch import cli, facts as f
from bridgewatch.scenario import AnomalySpec, ScenarioParams, generate
from conftest import AA, B1, H1, U1, place_check, txh
from randstores import random_store

SRC = str(Path(f.__file__).resolve().parents[1])

# The two placements of the check, each forced by place_check: in a checker
# process, or in the loading process by the per-line path.
PLACEMENTS = {"checker-process": True, "in-process": False}


@pytest.fixture(params=PLACEMENTS.values(), ids=PLACEMENTS)
def placement(request, monkeypatch) -> bool:
    place_check(monkeypatch, request.param)
    return request.param


@pytest.fixture
def forks(monkeypatch) -> list[int]:
    """The pid of each process that ``os.fork`` starts from now on."""
    pids: list[int] = []
    fork = os.fork

    def counting_fork() -> int:
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def _outcome(root: Path) -> tuple:
    """What loading ``root`` gives: each relation's facts in the store's
    order and the finality map, or the ``FactsParseError`` message."""
    try:
        store = f.load_facts_dir(root)
    except f.FactsParseError as exc:
        return ("refused", str(exc))
    return ("loaded", {name: store.relation(name) for name in f.RELATIONS}, store.finality)


def _per_line_outcome(root: Path, monkeypatch) -> tuple:
    """:func:`_outcome` with every file read by the per-line path: each
    line matched and built from its groups, or checked column by column."""
    with monkeypatch.context() as patched:
        place_check(patched, False)
        return _outcome(root)


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture(scope="module")
def base_store(tmp_path_factory) -> dict[str, bytes]:
    """The dumped files of a small scenario with every anomaly kind."""
    root = tmp_path_factory.mktemp("base")
    generate(ScenarioParams(1, 4, 4, AnomalySpec(1, 1, 1, 1, 1))).write_facts_dir(root)
    return {p.name: p.read_bytes() for p in sorted(root.glob("*.facts"))}


def _write(root: Path, files: dict[str, bytes]) -> Path:
    root.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (root / name).write_bytes(data)
    return root


def _row(*columns) -> bytes:
    return "\t".join(map(str, columns)).encode() + b"\n"


# (file, its bytes) over the base store: each file is refused, with a message
# naming its first bad line. Files sort after the base store's first ones, so
# the checker has answered for earlier files before it meets the bad one.
BAD_FILES = {
    "wrong-column-count": ("sc_token_deposited.facts",
                           _row(H1, 1, 7, U1, AA, B1, 100, "ERC20")),
    "zero-chain-id": ("cctx_finality.facts", b"0\t1800\n"),
    "bad-integer": ("cctx_finality.facts", b"1\t1_800\n"),
    "leading-zero": ("cctx_finality.facts", b"1\t007\n"),
    "cr-in-integer": ("cctx_finality.facts", b"1\t1800\r\n"),
    "amount-above-uint256": ("sc_deposit.facts", _row(H1, 0, U1, B1, 2**256)),
    "repeated-bad-row": ("cctx_finality.facts", b"1\t1800\n1\t1800\n0\t1800\n100\t45\n0\t1800\n"),
    "finality-conflict": ("cctx_finality.facts", b"1\t1800\n1\t1800\n100\t45\n1\t900\n1\t1800\n"),
    "text-before-integer": ("erc20_transfer.facts", f"0xzz\tabc\t0\t{AA}\t{U1}\t{B1}\t5\n".encode()),
    "negative-integer": ("cctx_finality.facts", b"1\t-5\n"),
    "not-utf8": ("cctx_finality.facts", b"1\t1800\n100\t4\xff5\n"),
    "bad-row-before-bad-byte": ("cctx_finality.facts", b"1\t1800\n100\tabc\n5\t45\n7\t\xff\n"),
    "not-a-row": ("transaction.facts", None),
    "bad-byte-after-a-tab": ("transaction.facts", None),
}


def _bad_file(case: str, base: dict[str, bytes]) -> tuple[str, bytes]:
    name, data = BAD_FILES[case]
    if case == "not-a-row":
        data = base[name].replace(b"\n", b"\nnot a row\n", 1)
    elif case == "bad-byte-after-a-tab":
        data = base[name].replace(b"\t", b"\t\xff", 1)
    return name, data


@pytest.mark.parametrize("case", BAD_FILES)
def test_a_bad_file_is_refused_with_the_per_line_message(tmp_path, monkeypatch, base_store,
                                                         placement, forks, case):
    name, data = _bad_file(case, base_store)
    root = _write(tmp_path / "facts", {**base_store, name: data})
    expected = _per_line_outcome(root, monkeypatch)
    assert expected[0] == "refused"
    assert expected[1].startswith(f"{root / name}:")
    forks.clear()
    assert _outcome(root) == expected
    assert len(forks) == placement
    assert _no_child_left()


@pytest.mark.parametrize("seed", range(20))
def test_a_random_store_loads_as_on_the_per_line_path(tmp_path, monkeypatch, placement, forks,
                                                      seed):
    store = random_store(seed, mutants=40, noise=40)
    f.dump_facts_dir(store, tmp_path)
    expected = _per_line_outcome(tmp_path, monkeypatch)
    forks.clear()
    assert _outcome(tmp_path) == expected
    assert len(forks) == placement
    loaded = f.load_facts_dir(tmp_path)
    assert loaded == store and loaded.finality == store.finality


def _upper_hex(row: bytes) -> bytes:
    return row.upper().replace(b"0X", b"0x")


# Files whose rows take the checked path: each a list of rows, from which
# the store keeps one fact per distinct fact, in the order first seen.
CHECKED_ROWS = {
    "upper-case-hex": ("sc_deposit.facts", [_upper_hex(_row(H1, 0, U1, B1, 5))]),
    "78-digit-integer": ("sc_deposit.facts", [_row(H1, 0, U1, B1, 10**77)]),
    "repeat-in-another-case": ("sc_deposit.facts", [
        _row(H1, 0, U1, B1, 5), _row(txh("02"), 0, U1, B1, 5), _upper_hex(_row(H1, 0, U1, B1, 5)),
        _row(txh("03"), 0, U1, B1, 10**77)]),
    "78-digit-finality": ("cctx_finality.facts", [b"1\t1800\n", _row(7, 10**77), b"1\t1800\n"]),
}


@pytest.mark.parametrize("case", CHECKED_ROWS)
def test_checked_rows_load_as_on_the_per_line_path(tmp_path, monkeypatch, base_store, placement,
                                                   case):
    name, rows = CHECKED_ROWS[case]
    root = _write(tmp_path / "facts", {**base_store, name: base_store[name] + b"".join(rows)})
    expected = _per_line_outcome(root, monkeypatch)
    assert expected[0] == "loaded"
    assert _outcome(root) == expected


def test_the_load_forks_one_checker_and_reaps_it(tmp_path, monkeypatch, base_store, forks):
    place_check(monkeypatch, True)
    root = _write(tmp_path / "facts", base_store)
    f.load_facts_dir(root)
    assert len(forks) == 1
    assert _no_child_left()


def test_a_refused_load_reaps_its_checker(tmp_path, monkeypatch, base_store, forks):
    place_check(monkeypatch, True)
    name, data = _bad_file("not-a-row", base_store)
    root = _write(tmp_path / "facts", {**base_store, name: data})
    with pytest.raises(f.FactsParseError):
        f.load_facts_dir(root)
    assert len(forks) == 1
    assert _no_child_left()


def test_a_load_interrupted_mid_build_reaps_its_checker(tmp_path, monkeypatch, base_store, forks):
    place_check(monkeypatch, True)
    split_facts = f._split_facts
    built: list[str] = []

    def interrupted(fact_type, lines):
        if fact_type is f.TransactionFact:  # the checker holds this file's lines
            raise KeyboardInterrupt
        built.append(fact_type.RELATION)
        return split_facts(fact_type, lines)

    monkeypatch.setattr(f, "_split_facts", interrupted)
    with pytest.raises(KeyboardInterrupt):
        f.load_facts_dir(_write(tmp_path / "facts", base_store))
    assert built and len(forks) == 1
    assert _no_child_left()


def _dies_before_its_verdict(requests: int, verdicts: int) -> None:
    """A checker that takes the first file's lines and is killed."""
    with os.fdopen(requests, "rb") as inp:
        inp.read(int(inp.readline().split()[1]))
    os.kill(os.getpid(), signal.SIGKILL)


def _gone_at_once(requests: int, verdicts: int) -> None:
    """A checker that exits before it reads: its pipe breaks."""


def _long_first_file() -> bytes:
    """The first file of a load, with more lines than a pipe and its write
    buffer hold, so that a write to a checker that is gone breaks the pipe."""
    return b"".join(_row(1 + i % 7, "0x" + f"{i:x}".rjust(40, "0")) for i in range(4_000))


@pytest.mark.parametrize("checker", [_dies_before_its_verdict, _gone_at_once],
                         ids=["killed-before-a-verdict", "broken-pipe"])
@pytest.mark.parametrize("case", [None, "not-a-row", "bad-row-before-bad-byte"],
                         ids=["good", "bad-row", "bad-row-before-bad-byte"])
def test_a_lost_checker_leaves_the_check_to_the_load(tmp_path, monkeypatch, base_store, forks,
                                                     checker, case):
    files = {**base_store, "bridge_controlled_address.facts": _long_first_file()}
    if case is not None:
        name, data = _bad_file(case, files)
        files[name] = data
    root = _write(tmp_path / "facts", files)
    expected = _per_line_outcome(root, monkeypatch)
    assert expected[0] == ("loaded" if case is None else "refused")
    place_check(monkeypatch, True)
    monkeypatch.setattr(f, "_serve", checker)
    per_line: list[int] = []  # the pid that read each file by the per-line path
    line_facts = f._line_facts

    def counting(*args):
        per_line.append(os.getpid())
        return line_facts(*args)

    monkeypatch.setattr(f, "_line_facts", counting)
    handed: list[bool] = []  # whether the checker took each file's lines
    hand = f._Checker.hand

    def recorded_hand(self, fact_type, lines):
        handed.append(hand(self, fact_type, lines))
        return handed[-1]

    monkeypatch.setattr(f._Checker, "hand", recorded_hand)
    assert _outcome(root) == expected
    assert len(forks) == 1 and _no_child_left()
    # the first file goes down the pipe, or breaks it; no later file is
    # handed over, and every file is read by the per-line path here
    assert handed == [checker is _dies_before_its_verdict] + [False] * (len(handed) - 1)
    assert per_line == [os.getpid()] * len(handed)


def _reap_every_child(signum, frame) -> None:
    with contextlib.suppress(ChildProcessError):
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass


@pytest.mark.parametrize("disposition", [signal.SIG_IGN, _reap_every_child],
                         ids=["ignored", "reaped-by-a-handler"])
@pytest.mark.parametrize("checker", [None, _gone_at_once], ids=["checker", "lost-checker"])
def test_a_load_returns_its_store_whatever_becomes_of_sigchld(tmp_path, monkeypatch, base_store,
                                                              forks, disposition, checker):
    """A caller that ignores ``SIGCHLD``, or reaps every child in its
    handler, leaves the load no checker to reap."""
    root = _write(tmp_path / "facts",
                  {**base_store, "bridge_controlled_address.facts": _long_first_file()})
    expected = _per_line_outcome(root, monkeypatch)
    assert expected[0] == "loaded"
    place_check(monkeypatch, True)
    if checker is not None:
        monkeypatch.setattr(f, "_serve", checker)
    previous = signal.signal(signal.SIGCHLD, disposition)
    try:
        assert _outcome(root) == expected
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert len(forks) == 1 and _no_child_left()


# Loads, in a new interpreter with unflushed text on stdout, with a checker
# process forced as place_check forces it: a good store, a refused one, and
# one whose checker raises.
SILENT_SCRIPT = """
import os, sys
from bridgewatch import facts
facts.CHECKER_MIN_BYTES = 0
os.sched_getaffinity = lambda pid: {0, 1}
print("before", end="")  # in stdout's buffer when the checker is forked
facts.load_facts_dir(sys.argv[1])
try:
    facts.load_facts_dir(sys.argv[2])
except facts.FactsParseError:
    pass
def raising(requests, verdicts):
    raise RuntimeError("the checker failed")
facts._serve = raising
facts.load_facts_dir(sys.argv[1])
print(" after", end="")
"""


def test_the_checker_writes_nothing_to_stdout_or_stderr(tmp_path, base_store):
    good = _write(tmp_path / "good", base_store)
    name, data = _bad_file("not-a-row", base_store)
    bad = _write(tmp_path / "bad", {**base_store, name: data})
    proc = subprocess.run([sys.executable, "-c", SILENT_SCRIPT, str(good), str(bad)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    assert (proc.stdout, proc.stderr) == ("before after", "")


# `python -m bridgewatch.cli`, run by runpy as -m runs it, after the checker
# process is forced as place_check forces it and each fork is announced on
# stdout.
FORCED_CHECKER_CLI = """
import os, runpy
from bridgewatch import facts
facts.CHECKER_MIN_BYTES = 0
os.sched_getaffinity = lambda pid: {0, 1}
os.register_at_fork(after_in_parent=lambda: print("forked a checker"))
runpy.run_module("bridgewatch.cli", run_name="__main__", alter_sys=True)
"""


def test_eval_with_a_checker_process_raises_no_warning_in_dev_mode(tmp_path, monkeypatch):
    """Under ``-X dev -W error`` a pipe left open raises ``ResourceWarning``,
    and so fails the run."""
    facts = tmp_path / "facts"
    generate(ScenarioParams(3, 20, 20, AnomalySpec(1, 1, 1, 1, 1))).write_facts_dir(facts)
    place_check(monkeypatch, False)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["eval", "--facts", str(facts), "--out", str(tmp_path / "reference.json")])
    out = tmp_path / "report.json"
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", FORCED_CHECKER_CLI,
                           "eval", "--facts", str(facts), "--out", str(out)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == code == cli.EXIT_ANOMALIES, proc.stderr
    assert out.read_bytes() == (tmp_path / "reference.json").read_bytes()
    assert proc.stdout == "forked a checker\n"
    reference_lines = err.getvalue().replace(str(tmp_path / "reference.json"), str(out))
    assert proc.stderr.splitlines() == reference_lines.splitlines()
    assert len(reference_lines.splitlines()) == 2


def _padded_to(root: Path, size: int) -> Path:
    """``root`` with blank lines added to one file, so that its ``.facts``
    files hold ``size`` bytes."""
    listed = sum(p.stat().st_size for p in root.glob("*.facts"))
    with open(root / "transaction.facts", "ab") as fh:
        fh.write(b"\n" * (size - listed))
    return root


@pytest.mark.parametrize("cpus, size, forked", [
    ({0, 1}, f.CHECKER_MIN_BYTES - 1, 0),
    ({0, 1}, f.CHECKER_MIN_BYTES, 1),
    ({0}, f.CHECKER_MIN_BYTES, 0),
], ids=["two-cpus-below-the-cutoff", "two-cpus-at-the-cutoff", "one-cpu"])
def test_a_checker_is_forked_for_large_loads_on_two_cpus(tmp_path, monkeypatch, base_store, forks,
                                                         cpus, size, forked):
    root = _padded_to(_write(tmp_path / "facts", base_store), size)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    expected = _per_line_outcome(root, monkeypatch)
    assert _outcome(root) == expected
    assert len(forks) == forked


def test_no_checker_is_forked_without_fork(tmp_path, monkeypatch, base_store):
    root = _padded_to(_write(tmp_path / "facts", base_store), f.CHECKER_MIN_BYTES)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.delattr(os, "fork")
    assert _outcome(root) == _per_line_outcome(root, monkeypatch)


def test_no_checker_is_forked_beside_another_thread(tmp_path, monkeypatch, base_store, forks):
    root = _padded_to(_write(tmp_path / "facts", base_store), f.CHECKER_MIN_BYTES)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(60,))
    thread.start()
    try:
        assert _outcome(root) == _per_line_outcome(root, monkeypatch)
    finally:
        stop.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert forks == []
