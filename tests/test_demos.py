"""Smoke test: the demos and README's library quick start run to
completion against the current API, and the library loads nothing beyond
numpy and the standard library.

Demo 04 is left out; it repeats the CLI protocol test.
"""

import os
import re
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


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    stdout = run_python([str(ROOT / "demos" / demo)], tmp_path)
    for text in SHOWS.get(demo, ()):
        assert text in stdout


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert len(blocks) == 1  # the library quick start
    run_python(["-c", blocks[0]], tmp_path)


def test_runtime_needs_only_numpy(tmp_path):
    # the modules importing the library and its CLI adds, by top-level name;
    # the test oracles in tests/support.py must not be among them
    code = ("import sys; before = set(sys.modules); "
            "import scoremorph, scoremorph.cli; "
            "print(*{m.split('.')[0] for m in set(sys.modules) - before})")
    loaded = set(run_python(["-c", code], tmp_path).split())
    assert loaded - set(sys.stdlib_module_names) == {"numpy", "scoremorph"}
    assert not loaded & {"support", "tests"}
