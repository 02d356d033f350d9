"""The benchmark's tracer wraps program functions by name; every name it
wraps must still exist, or only traced benchmark runs would notice."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_instruments_every_layer():
    script = "import tracing; tracing.instrument(tracing.Tracer())"
    path = os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, cwd=ROOT / "bench")
    assert proc.returncode == 0, proc.stderr
