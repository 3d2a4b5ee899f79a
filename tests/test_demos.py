"""Every demo runs to completion as a script and prints something, and
every python example of README.md runs as written."""

import os
import re
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


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    result = subprocess.run([sys.executable, str(demo)], capture_output=True,
                            text=True, env=ENV, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


@pytest.mark.parametrize("example", README_EXAMPLES,
                         ids=[f"readme_{i}" for i in range(len(README_EXAMPLES))])
def test_readme_example_runs(example, tmp_path):
    result = subprocess.run([sys.executable, "-c", example], capture_output=True,
                            text=True, env=ENV, cwd=tmp_path, timeout=60)
    assert result.returncode == 0, result.stderr
