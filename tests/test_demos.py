"""Every demo runs to completion as a script and prints something, the
lines demos print from their checks stay as they are, a demo whose reader
closes stdout ends quietly, and every python example of README.md runs as
written."""

import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_EXAMPLES = re.findall(r"^```python\n(.*?)^```$",
                             (ROOT / "README.md").read_text(encoding="utf-8"),
                             re.M | re.S)
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
# Lines a demo prints from its checks, each block verbatim.
DEMO_LINES = {
    "02_three_oracles_for_dual_cyclic": (
        "the h-vector route across a grid (whole f-vectors agree; f_0 shown):\n"
        "  n=5:  d=2: 5  d=3: 6  d=4: 5\n"
        "  n=6:  d=2: 6  d=3: 8  d=4: 9  d=5: 6\n"
        "  n=7:  d=2: 7  d=3: 10  d=4: 14  d=5: 12\n"
        "  n=8:  d=2: 8  d=3: 12  d=4: 20  d=5: 20\n"
        "  n=9:  d=2: 9  d=3: 14  d=4: 27  d=5: 30\n"
        "  n=10:  d=2: 10  d=3: 16  d=4: 35  d=5: 42\n",),
    "03_orientation_histograms": (
        "componentwise comparison against the dual cyclic histogram:\n"
        "  h_0: 1 = 1\n  h_1: 4 = 4\n  h_2: 6 < 10\n  h_3: 4 = 4\n  h_4: 1 = 1\n"
        "  satisfied: True\n",
        "the prism attains the d=3 histogram exactly:\n"
        "  h_0: 1 vs 1\n  h_1: 5 vs 5\n  h_2: 5 vs 5\n  h_3: 1 vs 1\n"),
    "04_separation_bounds": (
        "vertex-count ratios at d=4 against its limit 2 as n grows:\n"
        "  n= 8  c*:   20  P*:   16  ratio    5/4  (limit 2)\n"
        "  n=12  c*:   54  P*:   36  ratio    3/2  (limit 2)\n"
        "  n=16  c*:  104  P*:   64  ratio   13/8  (limit 2)\n"
        "  n=20  c*:  170  P*:  100  ratio  17/10  (limit 2)\n"
        "  n=24  c*:  252  P*:  144  ratio    7/4  (limit 2)\n"
        "  n=28  c*:  350  P*:  196  ratio  25/14  (limit 2)\n"
        "  n=32  c*:  464  P*:  256  ratio  29/16  (limit 2)\n"
        "  n=36  c*:  594  P*:  324  ratio   11/6  (limit 2)\n"
        "  n=40  c*:  740  P*:  400  ratio  37/20  (limit 2)\n",
        "per-k separation bounds at n=60, n'=60, d=4 (deficit 235):\n"
        "  f_0_bound: f_k <= 1475\n  f_1_bound: f_k <= 2950\n"
        "  f_2_bound: f_k <= 1535\n",),
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    result = subprocess.run([sys.executable, str(demo)], capture_output=True,
                            text=True, env=ENV, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    for block in DEMO_LINES.get(demo.stem, ()):
        assert block in result.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_ends_quietly_on_a_closed_stdout(demo):
    # Killed by SIGPIPE, as li2poly exits on a closed pipe: no traceback.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run([sys.executable, str(demo)], stdout=write_end,
                                stderr=subprocess.PIPE, text=True, env=ENV, timeout=60)
    finally:
        os.close(write_end)
    assert result.returncode == -signal.SIGPIPE, result.stderr
    assert result.stderr == ""


@pytest.mark.parametrize("example", README_EXAMPLES,
                         ids=[f"readme_{i}" for i in range(len(README_EXAMPLES))])
def test_readme_example_runs(example, tmp_path):
    result = subprocess.run([sys.executable, "-c", example], capture_output=True,
                            text=True, env=ENV, cwd=tmp_path, timeout=60)
    assert result.returncode == 0, result.stderr
