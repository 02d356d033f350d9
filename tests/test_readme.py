"""README examples run as written."""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from bridgewatch import cli

ROOT = Path(__file__).resolve().parents[1]


def test_library_use_block_runs_in_a_fresh_interpreter():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "CCTX_ValidDeposit" in proc.stdout


def readme_commands() -> list[list[str]]:
    """The arguments of every ``bridgewatch`` command in README's ``bash``
    blocks, with ``\\`` continuations joined and ``#`` comments dropped."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", readme, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["bridgewatch"]:
                commands.append(words[1:])
    return commands


def test_readme_commands_parse(capsys):
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"simulate", "eval", "ingest", "check"}
    parser = cli.build_parser()
    refused = []
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            refused.append(f"bridgewatch {shlex.join(argv)}: {capsys.readouterr().err}")
    assert not refused, "\n".join(refused)
