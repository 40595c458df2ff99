"""The public surface: every demo script and the README quick start run to
completion against the source tree, and amtrl.__all__ names what the package
holds."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

import amtrl

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run_python(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.parametrize("demo", sorted(p.name for p in
                                        (ROOT / "demos").glob("0*_*.py")))
def test_demo_runs(demo):
    _run_python(str(ROOT / "demos" / demo))


def test_readme_quick_start_runs():
    # so an API change cannot leave the front page's example stale
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 1
    assert _run_python("-c", blocks[0]).strip()


def test_public_names_resolve_once():
    assert [n for n in amtrl.__all__ if not hasattr(amtrl, n)] == []
    assert len(set(amtrl.__all__)) == len(amtrl.__all__)
