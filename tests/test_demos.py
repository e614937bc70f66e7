"""Each demo script runs to completion and prints one line it is known for."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

DEMOS = [
    # hand-built structures through the whole checker
    ("separation_trees.py", "  white UE stripes       -> True  (shared bound k = 6)"),
    # the checker's refusal is reported next to the oracle counts, not raised
    ("periodic_satisfaction.py",
     "    checker refused: no periodic pattern certified for 'true UA p' at state x "
     "within counters 0..30; raise the caps or supply a pair"),
    ("constants_and_shift.py", "    shift(4) = 6"),
]


@pytest.mark.parametrize("script, line", DEMOS, ids=[script for script, _ in DEMOS])
def test_demo_runs(script, line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()
