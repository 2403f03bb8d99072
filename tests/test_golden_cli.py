"""Golden CLI transcript: stdout and exit code must stay byte-identical.

The invocations are the criterion-9 determinism set, the README examples
and two inputs that reach the span and transversality checks.  Criterion 9
only checks that two runs in one process agree; this test pins the output
itself across refactors.  To regenerate the transcript after an intended
output change, run from the repository root:

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from relugeo.cli import run

GOLDEN = Path(__file__).with_name("golden") / "cli_transcript.json"

INPUTS = {
    "relu.json": {"W1": [["1"]], "b1": ["0"], "W2": ["1"], "b2": "0"},
    "abs.json": {"W1": [["1"], ["-1"]], "b1": ["0", "0"], "W2": ["1", "1"], "b2": "0"},
    "spec.json": {
        "expr": "relu(affine([1,0],0)) + 2*relu(affine([1,1],-1))",
        "breaklines": "auto",
    },
    "tuple.json": {"neurons": [{"d": [1], "q": "0", "kink": "1", "orient": 1}], "bias": "0"},
    "form.json": {
        "terms": [{"d": [1], "q": "0", "kink": "2"}],
        "affine": ["-1"],
        "bias": "0",
        "d0": 1,
    },
    "case3.json": {
        "terms": [{"d": [0, 1], "q": "1", "kink": "1"}, {"d": [1, 0], "q": "0", "kink": "1"}],
        "affine": ["1", "1"],
        "bias": "0",
        "d0": 2,
    },
    "counter.json": {
        "expr": (
            "max(min(affine([0,1],0), affine([1,1],0)),"
            " min(max(affine([0,1],0), affine([1,1],0)), affine([0,0],0)))"
        ),
        "breaklines": [{"d": [1, 0], "q": "0"}, {"d": [0, 1], "q": "0"}, {"d": [1, 1], "q": "0"}],
    },
}

INVOCATIONS = [
    # criterion 9
    ["canon", "abs.json"],
    ["classify", "abs.json"],
    ["enum", "abs.json", "--r", "0,1"],
    ["equiv", "relu.json", "abs.json"],
    ["synth", "spec.json", "--seed", "11"],
    ["eval", "abs.json", "--x=-3/2"],
    ["random", "--d0", "2", "--d1", "4", "--seed", "17", "--transversal"],
    # README
    ["canon", "relu.json"],
    ["canon", "tuple.json"],
    ["canon", "form.json"],
    ["classify", "relu.json"],
    ["enum", "form.json", "--r", "0,1,-2"],
    ["equiv", "relu.json", "tuple.json"],
    ["synth", "spec.json", "--seed", "3"],
    ["synth", "spec.json", "--unchecked"],
    ["eval", "relu.json", "--x=-3/2"],
    ["random", "--d0", "2", "--d1", "4", "--seed", "7", "--transversal"],
    # case III (pair spans) and a transversality violation
    ["classify", "case3.json"],
    ["synth", "counter.json"],
    ["synth", "counter.json", "--unchecked"],
]


def transcript(workdir):
    """Run every invocation with input files written to workdir."""
    workdir = Path(workdir)
    for name, data in INPUTS.items():
        (workdir / name).write_text(json.dumps(data))
    records = []
    for argv in INVOCATIONS:
        resolved = [str(workdir / a) if a in INPUTS else a for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run(resolved)
        records.append({"argv": argv, "code": code, "stdout": out.getvalue()})
    return records


def test_transcript_is_byte_identical(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = transcript(tmp_path)
    assert [r["argv"] for r in got] == [r["argv"] for r in expected]
    for g, e in zip(got, expected):
        assert (g["code"], g["stdout"].encode()) == (e["code"], e["stdout"].encode()), g["argv"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        records = transcript(tmp)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
