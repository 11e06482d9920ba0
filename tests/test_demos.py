"""Run every demo script end to end, and README's Python examples as doctests."""

import doctest
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_readme_python_examples():
    # only the body of each python block: doctest.testfile would also read the
    # closing fence as the last example's expected output
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    report = []
    for number, block in enumerate(blocks, 1):
        test = parser.get_doctest(block, {}, f"README python block {number}", str(README), 0)
        runner.run(test, out=report.append)
    assert runner.tries > 0
    assert runner.failures == 0, "".join(report)
