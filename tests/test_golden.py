"""The golden replay of tests/golden.py, run in process through knowall.cli.main."""
from __future__ import annotations

import json
import shlex

import golden


def test_golden_replay_is_byte_identical():
    # every benchmark query of seeds 1-3, closure, the README examples and
    # the usage errors print what the committed digests recorded
    expected = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    replayed = golden.replay()
    assert golden.differences(replayed, expected) == []
    assert sum(map(len, expected.values())) == 1780
    # a changed digest is reported by group, position and argv
    expected["check/2"][5] = "0" * 16
    argv = shlex.join(replayed["check/2"][5][0])
    assert golden.differences(replayed, expected) == [f"check/2: query 5 differs: knowall {argv}"]
