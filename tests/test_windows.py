"""Windows agree with the whole: receipts ingested in pieces give the store
and the report that one pass over all of them gives.

A monitor that runs in real time ingests one window of receipts at a time.
Since a loaded relation drops repeated rows, window dumps merge by
concatenating their ``.facts`` files, and windows that overlap merge too.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from bridgewatch.cli import EXIT_CLEAN, main
from bridgewatch.facts import load_facts_dir
from bridgewatch.scenario import ANOMALY_KINDS


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
