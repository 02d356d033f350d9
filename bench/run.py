"""bridgewatch benchmark: the CLI ``eval`` and ``ingest`` commands end to end.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload eval-clean --seed 1 --seconds 30 --trace 0

The run generates its inputs from ``--seed`` (``SET_UPS`` times, each in a
fresh process; the median is ``setup_s``), then runs ``python3 -m
bridgewatch.cli`` in a fresh interpreter, one run at a time (closed loop,
one client), until ``--seconds`` have passed. Every run's exit code and
output are checked against a reference computed in memory. With
``--trace 1`` it also traces one set-up and one in-process CLI run (see
``tracing.py``) and reports per-layer metrics instead of end-to-end ones.

The host's speed drifts, so reported times are scaled to a reference speed
by ``SpeedGauge``; the raw times are in the record. Nothing heavy runs in
this process: the kernel counts the peak RSS of the process that starts a
child into the child's ``ru_maxrss``.

Summary lines go to stdout, with one JSON object as the last line. The
full record (machine, input size, every sample, any failed check) is
written under ``.bench_work/results/``. Exit code 0 when every check
passed, 1 when one failed, 2 when the checkout has no ``src/bridgewatch``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SET_UPS = 3
CHILD_LIMIT_S = 120
# Time of calibrate() on the machine the bounds were set on (2-vCPU Xeon at
# 2.1 GHz, CPython 3.11.7) in a quiet phase. It only sets the scale of the
# reported times.
CAL_REF_S = 0.1

END_TO_END = [
    ("wall_s", "s"),
    ("facts_per_s", "facts/s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
]


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop, a gauge of the machine's speed."""
    start = perf_counter()
    total = 0
    for i in range(1_500_000):
        total += i * i
    return perf_counter() - start


class SpeedGauge:
    """Scales measured times to the reference machine speed.

    On a shared host the speed of a core drifts by tens of percent over
    minutes, and the drift slows every job alike. The gauge times
    ``calibrate()`` before the first measured interval and after each one;
    an interval is scaled by CAL_REF_S over the mean of the calibrations on
    either side of it. Raw times are kept as well.
    """

    def __init__(self):
        self.calibrations = [calibrate()]

    def measure(self, job):
        """Run ``job() -> (seconds, result)``: (scaled seconds, raw seconds, result)."""
        seconds, result = job()
        self.calibrations.append(calibrate())
        scale = 2 * CAL_REF_S / (self.calibrations[-2] + self.calibrations[-1])
        return seconds * scale, seconds, result


class ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ChildTimeout(f"a child process ran longer than {CHILD_LIMIT_S} s")


def run_child(argv: list[str], stdout: Path) -> tuple[int, float, float]:
    """Run one process to completion: (exit code, wall seconds, peak RSS MiB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(stdout, "wb") as out, open(stdout.with_suffix(".stderr"), "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        signal.alarm(CHILD_LIMIT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildTimeout:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        finally:
            signal.alarm(0)
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024  # ru_maxrss is KiB on Linux


def stderr_tail(stdout: Path, chars: int = 2000) -> str:
    """The end of what the child that wrote ``stdout`` wrote to stderr."""
    return stdout.with_suffix(".stderr").read_text(errors="replace")[-chars:]


def run_traced(mode_args: list[str], spans: Path, stdout: Path) -> tuple[int, float, dict]:
    """Run ``tracing.py`` in a fresh process: (exit code, wall seconds, its spans)."""
    remove(spans)
    code, wall, _ = run_child([sys.executable, str(BENCH / "tracing.py"), "--spans", str(spans),
                               *mode_args], stdout)
    if not spans.is_file():
        raise RuntimeError(f"traced {mode_args[0]} wrote no spans (exit {code}): "
                           f"{stderr_tail(stdout)}")
    return code, wall, json.loads(spans.read_text())


def tree_digest(path: Path) -> str:
    """SHA-256 over the relative names and bytes of every file under ``path``."""
    h = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(file.relative_to(path)).encode() + b"\0")
        with open(file, "rb") as fh:
            h.update(hashlib.file_digest(fh, "sha256").digest())
    return h.hexdigest()


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
    }


def cli_argv(command: str, inputs: Path, output: Path) -> list[str]:
    """Arguments of one ``bridgewatch`` run on the files a set-up wrote."""
    if command == "eval":
        return ["eval", "--facts", str(inputs / "facts"), "--out", str(output)]
    return ["ingest", "--receipts", str(inputs / "receipts.jsonl"),
            "--config", str(inputs / "decoder_config.json"), "--out", str(output)]


def set_up(args, inputs: Path, stdout: Path, reference: Path | None = None) -> dict:
    """One set-up in a fresh process (``workloads.py``); returns what it printed."""
    argv = [sys.executable, str(BENCH / "workloads.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--scale", str(args.scale), "--inputs", str(inputs)]
    code, _, _ = run_child(argv + (["--reference", str(reference)] if reference else []), stdout)
    if code != 0:
        raise RuntimeError(f"set-up failed (exit {code}): {stderr_tail(stdout)}")
    return json.loads(stdout.read_text())


def check_run(command: str, expected: dict, code: int, stdout: Path, output: Path) -> list[str]:
    """Every way one CLI run's exit code and output differ from the reference."""
    problems = []
    if code != expected["exit"]:
        problems.append(f"exit code {code}, expected {expected['exit']}: "
                        f"{stderr_tail(stdout, 500)}")
    if command == "eval":
        if not output.is_file() or output.read_bytes() != expected["report"]:
            problems.append("report differs from the in-memory reference")
        return problems
    if not output.is_dir() or tree_digest(output) != expected["facts_digest"]:
        problems.append("facts dir differs from write_facts_dir of the same scenario")
    try:
        report = json.loads(stdout.read_text())
    except ValueError:
        return problems + ["ingest stdout is not a JSON report"]
    if report.get("warnings") != [] or report.get("receipts") != expected["receipts"]:
        problems.append(f"ingest report: {len(report.get('warnings') or [])} warnings, "
                        f"{report.get('receipts')} receipts of {expected['receipts']}")
    return problems


def remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


def measure(args, work: Path) -> dict:
    name = args.workload
    inputs = work / "inputs"
    output = work / "output"
    stdout = work / "stdout.txt"
    work.mkdir(parents=True)

    def timed_set_up(into: Path, reference: Path | None = None):
        printed = set_up(args, into, stdout, reference)
        return printed["setup_s"], printed

    def cli_run():
        remove(output)
        code, wall, peak = run_child([sys.executable, "-m", "bridgewatch.cli", *argv], stdout)
        return wall, (code, peak)

    gauge = SpeedGauge()
    setup_s, setup_raw, expected = gauge.measure(lambda: timed_set_up(inputs, work / "reference"))
    setups, setups_raw, digest = [setup_s], [setup_raw], tree_digest(inputs)
    problems, size = expected.pop("problems"), expected.pop("inputs")
    command = expected["command"]
    argv = cli_argv(command, inputs, output)
    if command == "eval":
        expected["report"] = (work / "reference" / "report.json").read_bytes()
    else:
        expected["facts_digest"] = tree_digest(work / "reference" / "facts")

    walls, walls_raw, rss, attempted, failed = [], [], [], 0, 0
    start = perf_counter()
    while not walls or len(setups) < SET_UPS or perf_counter() - start < args.seconds:
        # The other set-ups are spread over the run, so that slow drifts in
        # the machine's speed weigh on setup_s as they do on wall_s.
        if perf_counter() - start >= args.seconds * len(setups) / SET_UPS:
            setup_s, setup_raw, _ = gauge.measure(lambda: timed_set_up(work / "again"))
            setups.append(setup_s)
            setups_raw.append(setup_raw)
            if tree_digest(work / "again") != digest:
                problems.append("set-ups of the same seed wrote different inputs")
            remove(work / "again")
            continue
        wall, wall_raw, (code, peak) = gauge.measure(cli_run)
        walls.append(wall)
        walls_raw.append(wall_raw)
        rss.append(peak)
        attempted += 1
        run_problems = check_run(command, expected, code, stdout, output)
        failed += bool(run_problems)
        problems += [f"run {attempted}: {msg}" for msg in run_problems]

    # This process's own peak is a floor under every child's ru_maxrss; only
    # tiny inputs (the smoke test) come near it.
    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    warnings = [] if own_rss < min(rss) else [
        f"peak_rss_mib is at this process's own peak RSS ({own_rss:.1f} MiB), not the CLI's"]
    record = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "scale": args.scale,
        "trace": args.trace, "machine": machine(), "inputs": size,
        "benchmark_peak_rss_mib": own_rss, "cal_ref_s": CAL_REF_S,
        "calibrations_s": gauge.calibrations,
        "samples": {"wall_s": walls, "raw_wall_s": walls_raw, "peak_rss_mib": rss,
                    "setup_s": setups, "raw_setup_s": setups_raw},
    }
    if args.trace:
        traced_inputs = work / "traced_inputs"
        spans = WORK / "results" / f"{name}-seed{args.seed}"
        code, _, setup_trace = run_traced(
            ["setup", "--workload", name, "--seed", str(args.seed), "--scale", str(args.scale),
             "--inputs", str(traced_inputs)], Path(f"{spans}-setup-spans.json"), stdout)
        if code != 0 or tree_digest(traced_inputs) != digest:
            problems.append("traced set-up wrote different inputs")

        def traced_cli_run():
            remove(output)
            code, wall, trace = run_traced(["cli", "--", *argv], Path(f"{spans}-cli-spans.json"),
                                           stdout)
            return wall, (code, trace)

        traced_wall, _, (code, cli_trace) = gauge.measure(traced_cli_run)
        attempted += 1
        run_problems = check_run(command, expected, code, stdout, output)
        failed += bool(run_problems)
        problems += [f"traced run: {msg}" for msg in run_problems]
        metrics = tracing.layer_metrics(setup_trace, cli_trace)
        metrics["tracing.overhead_s"] = traced_wall - statistics.median(walls)
        units = dict(tracing.PER_LAYER)
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "facts_per_s": statistics.median(size["facts"] / t for t in walls),
            "peak_rss_mib": statistics.median(rss),
            "setup_s": statistics.median(setups),
        }
        units = dict(END_TO_END)
    record.update(attempted=attempted, failed=failed, error_rate=failed / attempted,
                  problems=problems, correct=not problems, warnings=warnings,
                  metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()})
    return record


def summary(record: dict) -> list[str]:
    m, inputs, samples = record["machine"], record["inputs"], record["samples"]
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
        f"machine nproc={m['nproc']} {m['python']} {m['platform']}",
        f"inputs facts={inputs['facts']} receipts={inputs['receipts']} "
        f"anomalies_injected={sum(inputs['anomalies_injected'].values())} "
        f"replay_fanout={inputs['replay_fanout']}",
        f"runs {len(samples['wall_s'])} untraced CLI runs in a closed loop, one at a time; "
        f"unscaled medians: wall {statistics.median(samples['raw_wall_s']):.6g} s, "
        f"set-up {statistics.median(samples['raw_setup_s']):.6g} s",
    ]
    lines += [f"{k:40s} {v['value']:.6g} {v['unit']}" for k, v in record["metrics"].items()]
    lines.append(f"{'error_rate':40s} {record['error_rate']:.6g} "
                 f"({record['failed']} of {record['attempted']} runs failed)")
    lines += [f"WARNING {warning}" for warning in record["warnings"]]
    lines += [f"FAILED {problem}" for problem in record["problems"][:20]]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="bridgewatch CLI benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size multiplier; the smoke test runs tiny scales")
    args = parser.parse_args(argv)
    if not (SRC / "bridgewatch" / "cli.py").is_file():
        print(f"error: no bridgewatch sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    try:
        record = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result_path = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print("\n".join(summary(record)))
    print(f"record {result_path.relative_to(ROOT)}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
