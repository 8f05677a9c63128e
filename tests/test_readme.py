"""The README's CLI walkthrough, replayed twice, and its library example, run as documented."""
from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from knowall.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def readme_examples(text: str) -> list[tuple[str, str]]:
    """Single-line `$ knowall ...` commands without a pipe, each with the line under it."""
    lines = text.splitlines()
    return [(line[2:], lines[i + 1]) for i, line in enumerate(lines)
            if line.startswith("$ knowall ") and "|" not in line
            and not line.endswith("\\")]


def test_readme_examples_are_byte_identical(capsys, tmp_path, monkeypatch):
    text = README.read_text()
    for name, graph in re.findall(r"cat > (\S+\.json) <<'EOF'\n(.*?)\nEOF\n", text, re.S):
        (tmp_path / name).write_text(graph + "\n")
    monkeypatch.chdir(tmp_path)

    examples = readme_examples(text)
    assert [cmd.split()[1] for cmd, _ in examples] == [
        "bound", "bound", "solve", "refute", "check", "check", "refute"]
    # a second pass in reverse order, in the same process, must print the
    # same bytes
    for cmd, expected in examples + examples[::-1]:
        main(shlex.split(cmd)[1:])
        assert capsys.readouterr().out == expected + "\n", cmd


def test_readme_library_example_runs(tmp_path):
    # the "Library use" block, in a fresh interpreter that sees only the
    # standard library and the package source
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-S", "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "21100\n", "")
