"""Per-layer tracing from outside the program.

Wraps the public functions of ``facts``, ``ingest``, ``rules``,
``analytics``, ``scenario`` and ``keccak`` where their callers look them up,
records one span (name, start, end, parent) per call plus one span per
cyclic-GC pause (a child of the innermost open span), keeps them in memory
and writes them out when the traced process ends. Per-layer metrics are
derived from the spans afterwards.

Run as a script it traces one fresh process, which is either the workload's
set-up or one in-process call of the ``bridgewatch`` CLI entry point::

    python3 bench/tracing.py --spans setup.json setup --workload eval-clean \\
        --seed 1 --inputs DIR
    python3 bench/tracing.py --spans cli.json cli -- eval --facts DIR --out R

``run.py`` starts both with ``src`` on ``PYTHONPATH``. The ``cli`` mode
exits with the CLI's own exit code.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

RULES = range(1, 9)
ANALYTICS_PASSES = (
    "local_mismatches", "unmatched_local", "finality_violations", "duplicate_ids",
    "match_accounting", "matched_projections", "latency_stats",
)

# Per-layer metrics, in BENCHMARK.json order: (name, unit).
PER_LAYER = [
    ("cli.main_s", "s"), ("cli.self_s", "s"),
    ("facts.load_facts_dir_s", "s"), ("facts.rows_loaded", "count"),
    ("facts.seal_s", "s"),
    ("facts.dump_facts_dir_s", "s"), ("facts.rows_dumped", "count"),
    ("ingest.load_config_s", "s"), ("ingest.ingest_jsonl_s", "s"),
    ("ingest.ingest_jsonl_self_s", "s"), ("ingest.decode_receipt_s", "s"),
    ("ingest.decode_receipt.calls", "count"), ("ingest.receipts", "count"),
    ("ingest.facts_out", "count"), ("ingest.warnings", "count"),
    ("rules.eval_all_s", "s"),
    *((f"rules.eval_rule{i}_s", "s") for i in RULES),
    *((f"rules.rule{i}.tuples", "count") for i in RULES),
    ("analytics.build_report_s", "s"), ("analytics.build_report_self_s", "s"),
    *((f"analytics.{p}_s", "s") for p in ANALYTICS_PASSES),
    ("analytics.matched_projections.calls", "count"),
    ("analytics.report_to_json_s", "s"),
    ("analytics.anomalies", "count"), ("analytics.report_bytes", "bytes"),
    ("scenario.generate_s", "s"), ("scenario.write_facts_dir_s", "s"),
    ("scenario.write_receipts_jsonl_s", "s"),
    ("keccak.event_topic.calls", "count"), ("keccak.event_topic_s", "s"),
    ("gc.pause_s", "s"), ("gc.gen2.collections", "count"),
    ("tracing.overhead_s", "s"),
]

# Metrics that are a span's self time: metric name -> span name.
SELF_METRICS = {
    "cli.self_s": "cli.main",
    "ingest.ingest_jsonl_self_s": "ingest.ingest_jsonl",
    "analytics.build_report_self_s": "analytics.build_report",
}


class Tracer:
    """Spans and counters of one process; single-threaded."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._gc_start = 0.0

    def _begin(self, name: str) -> int:
        self.spans.append([name, perf_counter(), None, self._open[-1] if self._open else None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._open.pop()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``count(result, args)`` returns counters to add after the span ends.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            self.counts[f"{name}.calls"] += 1
            if count is not None:
                self.counts.update(count(result, args))
            return result

        setattr(owner, attr, traced)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
            return
        parent = self._open[-1] if self._open else None
        self.spans.append([f"gc.gen{info['generation']}", self._gc_start, perf_counter(), parent])

    def start_gc_hook(self) -> None:
        gc.callbacks.append(self._on_gc)

    def stop_gc_hook(self) -> None:
        gc.callbacks.remove(self._on_gc)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}), encoding="utf-8")


def instrument(tracer: Tracer) -> None:
    """Wrap every measured layer function where its caller looks it up."""
    from bridgewatch import analytics, cli, facts, ingest, rules, scenario

    rows = lambda result, args: {"facts.rows_loaded": result.total_facts()}  # noqa: E731
    dumped = lambda result, args: {"facts.rows_dumped": args[0].total_facts()}  # noqa: E731
    tracer.wrap(cli, "load_facts_dir", "facts.load_facts_dir", rows)
    tracer.wrap(facts.FactStore, "seal", "facts.seal")
    tracer.wrap(cli, "dump_facts_dir", "facts.dump_facts_dir", dumped)
    tracer.wrap(scenario, "dump_facts_dir", "facts.dump_facts_dir", dumped)

    tracer.wrap(cli, "load_config", "ingest.load_config")
    tracer.wrap(cli, "ingest_jsonl", "ingest.ingest_jsonl", lambda result, args: {
        "ingest.receipts": result[1].receipts,
        "ingest.facts_out": result[0].total_facts(),
        "ingest.warnings": len(result[1].warnings),
    })
    tracer.wrap(ingest, "decode_receipt", "ingest.decode_receipt")

    tracer.wrap(cli, "eval_all", "rules.eval_all")
    for i in RULES:
        tracer.wrap(rules, f"eval_rule{i}", f"rules.eval_rule{i}",
                    lambda result, args, i=i: {f"rules.rule{i}.tuples": len(result)})

    tracer.wrap(analytics, "build_report", "analytics.build_report",
                lambda result, args: {"analytics.anomalies": analytics.total_anomalies(result)})
    for name in ANALYTICS_PASSES:
        tracer.wrap(analytics, name, f"analytics.{name}")
    tracer.wrap(analytics, "report_to_json", "analytics.report_to_json",
                lambda result, args: {"analytics.report_bytes": len(result.encode("utf-8"))})

    tracer.wrap(scenario, "generate", "scenario.generate")
    tracer.wrap(scenario.GeneratedScenario, "write_facts_dir", "scenario.write_facts_dir")
    tracer.wrap(scenario.GeneratedScenario, "write_receipts_jsonl", "scenario.write_receipts_jsonl")
    tracer.wrap(scenario, "event_topic", "keccak.event_topic")
    tracer.wrap(ingest, "event_topic", "keccak.event_topic")


def busy_and_self(spans: list[list]) -> tuple[Counter, Counter]:
    """Busy time per span name, and self time: busy minus direct children."""
    busy: Counter = Counter()
    child: Counter = Counter()
    for name, start, end, parent in spans:
        busy[name] += end - start
        if parent is not None:
            child[parent] += end - start
    own: Counter = Counter()
    for index, (name, start, end, _) in enumerate(spans):
        own[name] += end - start - child[index]
    return busy, own


def layer_metrics(setup: dict, run: dict) -> dict[str, float]:
    """Per-layer metrics from a traced set-up and a traced CLI run.

    Times and counts add over both processes; GC metrics cover the CLI run
    only, since that is what ``wall_s`` measures.
    """
    offset = len(setup["spans"])
    spans = setup["spans"] + [
        [name, start, end, None if parent is None else parent + offset]
        for name, start, end, parent in run["spans"]
    ]
    busy, own = busy_and_self(spans)
    counts = Counter(setup["counts"]) + Counter(run["counts"])
    gc_spans = [s for s in run["spans"] if s[0].startswith("gc.gen")]
    metrics: dict[str, float] = {}
    for name, unit in PER_LAYER:
        if name in ("gc.pause_s", "gc.gen2.collections", "tracing.overhead_s"):
            continue
        if name in SELF_METRICS:
            metrics[name] = own[SELF_METRICS[name]]
        elif name.endswith("_s"):
            metrics[name] = busy[name[:-2]]
        else:
            metrics[name] = counts[name]
    metrics["gc.pause_s"] = sum(end - start for _, start, end, _ in gc_spans)
    metrics["gc.gen2.collections"] = sum(1 for s in gc_spans if s[0] == "gc.gen2")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "cli"))
    parser.add_argument("--spans", required=True, type=Path, help="where to write the spans")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--inputs", type=Path)
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    cli_args = argv[split + 1:]

    tracer = Tracer()
    instrument(tracer)
    tracer.start_gc_hook()
    try:
        if args.mode == "setup":
            import workloads

            workloads.set_up(args.workload, workloads.params(args.workload, args.seed, args.scale),
                             args.inputs)
            code = 0
        else:
            from bridgewatch import cli

            tracer.wrap(cli, "main", "cli.main")
            code = cli.main(cli_args)
    finally:
        tracer.stop_gc_hook()
    tracer.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
