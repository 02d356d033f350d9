"""Windows agree with the whole: receipts ingested in pieces give the store
and the report that one pass over all of them gives.

A monitor that runs in real time ingests one window of receipts at a time.
Since a loaded relation drops repeated rows, window dumps merge by
concatenating their ``.facts`` files, and windows that overlap merge too.
A window evaluated alone reports the legs inside it as one pass does once
it carries the receipts of the ``H`` seconds before it (README, "Windows").
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from bridgewatch import scenario
from bridgewatch.analytics import build_report
from bridgewatch.cli import EXIT_CLEAN, main
from bridgewatch.facts import FactStore, load_facts_dir
from bridgewatch.ingest import static_facts
from bridgewatch.rules import eval_all
from bridgewatch.scenario import ANOMALY_KINDS, SOURCE, AnomalySpec, ScenarioParams


def _ingest(receipts: Path, config: Path, out: Path) -> None:
    assert main(["ingest", "--receipts", str(receipts), "--config", str(config),
                 "--out", str(out)]) == EXIT_CLEAN


def _eval(facts: Path) -> tuple[int, bytes]:
    report = facts.parent / f"{facts.name}.report.json"
    code = main(["eval", "--facts", str(facts), "--out", str(report)])
    return code, report.read_bytes()


def _dump(facts: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(facts.glob("*.facts"))}


@pytest.fixture(scope="module")
def whole(tmp_path_factory) -> Path:
    """Receipts with every anomaly kind, and their one-pass ingest under ``whole``."""
    root = tmp_path_factory.mktemp("windows")
    anomalies = ",".join(f"{kind}=2" for kind in ANOMALY_KINDS)
    assert main(["simulate", "--seed", "7", "--deposits", "40", "--withdrawals", "40",
                 "--anomalies", anomalies, "--out", str(root), "--emit", "receipts"]) == EXIT_CLEAN
    _ingest(root / "receipts.jsonl", root / "decoder_config.json", root / "whole")
    return root


def _windows(lines: list[str], k: int, overlap: bool) -> list[list[str]]:
    """``lines`` in ``k`` contiguous windows; with ``overlap``, each window
    but the first also holds the last half of the window before it."""
    size = -(-len(lines) // k)
    back = size // 2 if overlap else 0
    return [lines[max(0, i * size - back):(i + 1) * size] for i in range(k)]


@pytest.mark.parametrize("overlap", [False, True], ids=["disjoint", "overlapping"])
@pytest.mark.parametrize("k", [2, 5])
def test_window_dumps_concatenated_load_to_the_one_pass_store(whole, tmp_path, k, overlap):
    lines = (whole / "receipts.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    merged: dict[str, bytes] = {}
    for i, window in enumerate(_windows(lines, k, overlap)):
        receipts = tmp_path / f"window{i}.jsonl"
        receipts.write_text("".join(window), encoding="utf-8")
        _ingest(receipts, whole / "decoder_config.json", tmp_path / f"window{i}")
        for name, data in _dump(tmp_path / f"window{i}").items():
            merged[name] = merged.get(name, b"") + data
    (tmp_path / "merged").mkdir()
    for name, data in merged.items():
        (tmp_path / "merged" / name).write_bytes(data)
    assert load_facts_dir(tmp_path / "merged") == load_facts_dir(whole / "whole")
    assert _eval(tmp_path / "merged") == _eval(whole / "whole")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ingest_dump_is_unmoved_by_line_order_and_repeats(whole, tmp_path, seed):
    rng = random.Random(seed)
    lines = (whole / "receipts.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    lines += rng.sample(lines, len(lines) // 10)
    rng.shuffle(lines)
    (tmp_path / "receipts.jsonl").write_text("".join(lines), encoding="utf-8")
    _ingest(tmp_path / "receipts.jsonl", whole / "decoder_config.json", tmp_path / "facts")
    assert _dump(tmp_path / "facts") == _dump(whole / "whole")


# The history a window carries: the largest finality window (the source
# chain's) plus the largest time from its end to a release. The generator
# releases at most 3600 s after it, and a replayed id's k-th release k
# source blocks later (fan-out 3 by default).
HISTORY = SOURCE.finality_seconds + 3600 + 3 * SOURCE.block_time


@pytest.fixture(scope="module")
def long_run():
    """Every anomaly kind three times in 1000 flows each way: 4,015
    transactions over 17,099 s, more than 3 * HISTORY, so that no window's
    history holds the whole of an earlier window."""
    generated = scenario.generate(ScenarioParams(
        seed=7, n_deposits=1000, n_withdrawals=1000,
        anomalies=AnomalySpec(**{kind: 3 for kind in ANOMALY_KINDS})))
    timestamps = {tx.tx_hash: tx.timestamp for tx, _ in generated.txs}
    start, end = min(timestamps.values()), max(timestamps.values()) + 1
    assert end - start > 3 * HISTORY
    return generated, timestamps, start, end, _legs(_report(generated, start, end))


def _report(generated, start: int, end: int) -> dict:
    """The ``eval`` report of the receipts from ``start`` up to ``end``,
    built from their transactions' facts, which is what ``ingest`` decodes
    from them."""
    store = FactStore([*static_facts(generated.config),
                       *(fact for tx, events in generated.txs if start <= tx.timestamp < end
                         for fact in (tx, *events))]).seal()
    return build_report(store, eval_all(store))


def _legs(report: dict) -> dict[str, set[tuple[str, str]]]:
    """The unmatched legs of each side and the finality violations, as
    ``(kind, tx hash)`` with the leg's tx hash (the release's, for a
    violation)."""
    legs: dict[str, set[tuple[str, str]]] = {"escrow": set(), "release": set()}
    for kind in ("UnmatchedLocalDeposit", "UnmatchedLocalWithdrawal"):
        for anomaly in report["anomalies"].get(kind, ()):
            legs[anomaly["evidence"]["side"]].add((kind, anomaly["tx_hashes"][0]))
    for anomaly in report["anomalies"].get("FinalityViolation", ()):
        legs["release"].add(("FinalityViolation", anomaly["evidence"]["release_tx"]))
    return legs


@pytest.mark.parametrize("k", [2, 3])
def test_a_window_with_its_history_reports_its_legs_as_one_pass_does(long_run, k):
    generated, timestamps, start, end, whole = long_run
    size = -(-(end - start) // k)
    for lo in range(start, end, size):
        hi = min(end, lo + size)
        window = _legs(_report(generated, lo - HISTORY, hi))
        # every release inside the window, and every escrow at least HISTORY
        # before its end: the window reports these legs as one pass does
        for side, first, last in (("release", lo, hi), ("escrow", lo - HISTORY, hi - HISTORY)):
            assert ({leg for leg in window[side] if first <= timestamps[leg[1]] < last}
                    == {leg for leg in whole[side] if first <= timestamps[leg[1]] < last})
    # the three forged releases are the one pass's release-side legs, beside
    # the three finality violations
    assert len(whole["release"]) == 6 and not whole["escrow"]
