"""Command-line surface for the monitoring pipeline.

Subcommands: ``ingest`` decodes receipts into a facts directory, ``eval``
runs the rules plus analytics over a facts directory and writes the
report (anomalies, and latency and value statistics), ``simulate``
generates synthetic scenarios, and ``check`` diffs the hash-join engine
against the brute-force evaluator. Machine-readable output goes to stdout
or to files, each written whole by ``facts.write_whole`` (a reader sees the
old file or the new one); progress and diagnostics go to stderr.

Exit codes: 0 clean, 1 anomalies found, 2 input/config error (an
``InputError`` or ``OSError``), 3 internal error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

from .facts import InputError, dump_facts_dir, load_facts_dir, write_whole

EXIT_CLEAN = 0
EXIT_ANOMALIES = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL = 3


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def _input_error(exc: Exception) -> int:
    _progress(f"error: {exc}")
    return EXIT_INPUT_ERROR


def _output(text: str) -> None:
    """Print ``text`` to stdout. A reader that has gone away is not an
    error: the output is dropped and the command keeps its exit code."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # later output, and the flush at exit, go to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# Each command imports only the modules it runs: ``ingest`` never loads
# rules or analytics, ``eval`` never loads the decoder or keccak. The three
# stages below stay attributes of this module, looked up by the commands at
# each call, so that they can be wrapped here; each imports its module on
# its first call.
def load_config(path: str | Path):
    from .ingest import load_config
    return load_config(path)


def ingest_jsonl(receipts_path: str | Path, config):
    from .ingest import ingest_jsonl
    return ingest_jsonl(receipts_path, config)


def eval_all(store):
    from .rules import eval_all
    return eval_all(store)


def cmd_ingest(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    store, report = ingest_jsonl(args.receipts, config)
    out_dir = Path(args.out)
    dump_facts_dir(store, out_dir)
    _progress(
        f"ingested {report.receipts} receipts -> {store.total_facts()} facts "
        f"({len(report.warnings)} warnings) in {out_dir}"
    )
    _output(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    return EXIT_CLEAN


def cmd_eval(args: argparse.Namespace) -> int:
    from . import analytics

    prices = analytics.load_prices(args.prices)
    store = load_facts_dir(args.facts).seal()
    outputs = eval_all(store)
    report = analytics.build_report(store, outputs, prices=prices)
    n_facts = store.total_facts()
    # the render's transient then fits into the memory the store just freed
    del store, outputs
    rendered = analytics.report_to_json(report)
    write_whole(args.out, (rendered,))
    n_anomalies = analytics.total_anomalies(report)
    _progress(
        f"evaluated {n_facts} facts: "
        + ", ".join(f"{name}={count}" for name, count in report["rule_counts"].items())
    )
    _progress(f"anomalies: {n_anomalies} -> {args.out}")
    return EXIT_ANOMALIES if n_anomalies else EXIT_CLEAN


def cmd_simulate(args: argparse.Namespace) -> int:
    from .scenario import AnomalySpec, ScenarioParams, generate, parse_count

    anomalies = AnomalySpec.from_spec_string(args.anomalies)
    if args.replay_fanout is not None:
        anomalies = anomalies._replace(
            replay_fanout=parse_count(args.replay_fanout, "--replay-fanout"))
    scenario = generate(ScenarioParams(
        seed=parse_count(args.seed, "--seed"),
        n_deposits=parse_count(args.deposits, "--deposits"),
        n_withdrawals=parse_count(args.withdrawals, "--withdrawals"),
        anomalies=anomalies,
    ))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    scenario.write_ground_truth(out_dir / "ground_truth.json")
    if args.emit == "facts":
        scenario.write_facts_dir(out_dir)
        _progress(f"wrote {scenario.store.total_facts()} facts to {out_dir}")
    else:
        scenario.write_receipts_jsonl(out_dir / "receipts.jsonl")
        scenario.write_config(out_dir / "decoder_config.json")
        _progress(f"wrote receipts + decoder config to {out_dir}")
    return EXIT_CLEAN


def cmd_check(args: argparse.Namespace) -> int:
    from .oracle import OracleSizeError, brute_force
    from .rules import RULE_NAMES

    store = load_facts_dir(args.facts).seal()
    try:
        expected = {rule_id: brute_force(rule_id, store) for rule_id in RULE_NAMES}
    except OracleSizeError as exc:
        return _input_error(exc)
    diffs = []
    for rule_id, engine_set in eval_all(store).by_rule().items():
        oracle_set = expected[rule_id]
        if engine_set != oracle_set:
            for tup in sorted(oracle_set - engine_set):
                diffs.append(f"{RULE_NAMES[rule_id]}: engine missing {tup}")
            for tup in sorted(engine_set - oracle_set):
                diffs.append(f"{RULE_NAMES[rule_id]}: engine extra {tup}")
    if diffs:
        for line in diffs:
            _output(line)
        _progress(f"{len(diffs)} differences between engine and reference evaluator")
        return EXIT_INTERNAL
    _progress("engine output matches the reference evaluator on all 8 rules")
    return EXIT_CLEAN


def build_parser() -> argparse.ArgumentParser:
    # every parser refuses a prefix of an option (--deposit for --deposits)
    parser = argparse.ArgumentParser(
        prog="bridgewatch",
        description="Cross-chain bridge monitoring: decode, evaluate, detect.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", allow_abbrev=False,
                       help="decode receipts JSONL into a facts directory")
    p.add_argument("--receipts", required=True, help="receipts JSONL file")
    p.add_argument("--config", required=True, help="decoder config JSON")
    p.add_argument("--out", required=True, help="output facts directory")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("eval", allow_abbrev=False,
                       help="evaluate rules and analytics over a facts directory")
    p.add_argument("--facts", required=True, help="facts directory")
    p.add_argument("--out", required=True, help="report JSON output path")
    p.add_argument("--prices", help="optional static price table JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate", allow_abbrev=False,
                       help="generate a synthetic two-chain scenario")
    # integers are read as canonical text by cmd_simulate, not by argparse's int()
    p.add_argument("--seed", required=True)
    p.add_argument("--deposits", required=True)
    p.add_argument("--withdrawals", required=True)
    p.add_argument("--anomalies", default="", help="kind=count[,kind=count...]")
    p.add_argument("--replay-fanout", default=None,
                   help="releases per replayed id (default 3)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--emit", choices=("facts", "receipts"), default="facts")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check", allow_abbrev=False,
                       help="diff the engine against the brute-force evaluator")
    p.add_argument("--facts", required=True, help="facts directory")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Facts, store indexes and rule tuples hold no reference cycles, so the
    # cyclic collector would only re-walk them: reference counting frees them.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    # OSError: a path that cannot be read or written, as a directory given for a file
    except (OSError, InputError) as exc:
        return _input_error(exc)
    except Exception as exc:  # pragma: no cover - defensive
        _progress(f"internal error: {exc.__class__.__name__}: {exc}")
        return EXIT_INTERNAL
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
