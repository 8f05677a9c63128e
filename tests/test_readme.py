"""The README's CLI walkthrough, replayed twice: every output it prints must match."""
from __future__ import annotations

import re
import shlex
from pathlib import Path

from knowall.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples(text: str) -> list[tuple[str, str]]:
    """Single-line `$ knowall ...` commands without a pipe, each with the line under it."""
    lines = text.splitlines()
    return [(line[2:], lines[i + 1]) for i, line in enumerate(lines)
            if line.startswith("$ knowall ") and "|" not in line
            and not line.endswith("\\")]


def test_readme_examples_are_byte_identical(capsys, tmp_path, monkeypatch):
    text = README.read_text()
    graph = re.search(r"cat > c5\.json <<'EOF'\n(.*?)\nEOF\n", text, re.S)
    (tmp_path / "c5.json").write_text(graph.group(1) + "\n")
    monkeypatch.chdir(tmp_path)

    examples = readme_examples(text)
    assert [cmd.split()[1] for cmd, _ in examples] == [
        "bound", "bound", "solve", "refute", "check", "check"]
    # a second pass in reverse order, in the same process, reuses the parser
    # of the first and must print the same bytes
    for cmd, expected in examples + examples[::-1]:
        main(shlex.split(cmd)[1:])
        assert capsys.readouterr().out == expected + "\n", cmd
