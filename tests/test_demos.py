"""Smoke test: the demos run to completion against the current API.

Demo 04 is left out; it repeats the CLI protocol test.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("01_adaptive_intervals.py", "02_transform_families.py",
         "03_marginal_validity.py")
# what a demo must print, so that its demonstration cannot silently go:
# demo 02 shows the codomain failure (criterion 9) and its repair
SHOWS = {"02_transform_families.py": ("inversion fails as expected",
                                      "log-composed repair inverts fine")}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for text in SHOWS.get(demo, ()):
        assert text in proc.stdout
