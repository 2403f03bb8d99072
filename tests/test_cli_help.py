"""Golden help and usage text: stdout, stderr and exit code, byte for byte.

`tests/golden/cli_transcript.json` pins real commands only; this file pins
what argparse prints: the top-level and per-command ``--help`` and two usage
errors.  Text is captured with ``COLUMNS=80``.  To regenerate it after an
intended change, run from the repository root:

    PYTHONPATH=src python tests/test_cli_help.py --write
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from relugeo.cli import run

GOLDEN = Path(__file__).with_name("golden") / "cli_help.json"

COMMANDS = ["canon", "classify", "enum", "equiv", "synth", "eval", "random"]

INVOCATIONS = [
    ["--help"],
    *([command, "--help"] for command in COMMANDS),
    ["frobnicate"],
    ["classify", "f.json", "--cap", "abc"],
]


def capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_help_and_usage_are_byte_identical(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [e["argv"] for e in expected] == INVOCATIONS
    for e in expected:
        got = capture(e["argv"])
        assert got["code"] == e["code"], e["argv"]
        assert got["stdout"].encode() == e["stdout"].encode(), e["argv"]
        assert got["stderr"].encode() == e["stderr"].encode(), e["argv"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    os.environ["COLUMNS"] = "80"
    records = [capture(argv) for argv in INVOCATIONS]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
