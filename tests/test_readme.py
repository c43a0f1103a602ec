"""The README's library quick start runs as written and prints what its
comments say it prints."""

import os
import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src"


def quick_start_blocks():
    section = README.read_text().split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def commented_results(block):
    """The results written after print calls: `print(x)  # "pass"` expects
    an output line `pass`; text after a semicolon in the comment is prose."""
    out = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if code.strip().startswith("print(") and comment.strip():
            out.append(comment.split(";")[0].strip().strip('"'))
    return out


def test_quick_start_blocks_print_their_commented_results():
    blocks = quick_start_blocks()
    assert len(blocks) == 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    results = []
    for block in blocks:
        want = commented_results(block)
        results.extend(want)
        run = subprocess.run([sys.executable, "-c", block], capture_output=True,
                             text=True, env=env, timeout=300)
        assert run.returncode == 0, run.stderr
        # each commented result is an output line, in the order of the prints
        lines = iter(run.stdout.splitlines())
        assert all(w in lines for w in want), (want, run.stdout)
    assert results == ["pass", "pass", "(1, -4)"]
