"""A JSON input without a required key exits 2 naming the file and the key.

Every other schema error names the file (``jsonio.load`` raises SchemaError),
and so does a missing key: ``error: <path>: missing key 'q'``.  Each required
key of a net, an effective tuple, one of its neurons, a form, one of its
terms and a spec's declared breakline is dropped in turn.  The key that tells
the schemas apart (W1, neurons, terms, expr) cannot be missing from its
object: without it the object is no known schema.
"""

import copy
import json

import pytest

from relugeo.cli import run

NET = {"d0": 1, "d1": 1, "W1": [["1"]], "b1": ["0"], "W2": ["2"], "b2": "1"}
NEURON = {"d": [1, 0], "q": "1/2", "kink": "3", "orient": -1}
TUPLE = {"neurons": [NEURON], "bias": "1/4"}
TERM = {"d": [0, 1], "q": "0", "kink": "2"}
FORM = {"terms": [TERM], "affine": ["1", "0"], "bias": "0", "d0": 2}
BREAKLINE = {"d": [1], "q": "0"}
SPEC = {"expr": "relu(affine([1],0))", "breaklines": [BREAKLINE]}

# (command, document, path to the object a key is dropped from, that key)
CASES = [
    *(("canon", NET, (), key) for key in ("b1", "W2", "b2")),
    ("canon", TUPLE, (), "bias"),
    *(("canon", TUPLE, ("neurons", 0), key) for key in NEURON),
    *(("canon", FORM, (), key) for key in ("affine", "bias", "d0")),
    *(("canon", FORM, ("terms", 0), key) for key in TERM),
    *(("synth", SPEC, ("breaklines", 0), key) for key in BREAKLINE),
]


def _write(tmp_path, data):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("command, document, where, key", CASES)
def test_missing_key_names_file_and_key(command, document, where, key, tmp_path, capsys):
    data = copy.deepcopy(document)
    obj = data
    for step in where:
        obj = obj[step]
    del obj[key]
    path = _write(tmp_path, data)
    assert run([command, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: missing key '{key}'\n"


@pytest.mark.parametrize(
    "document, key", [(NET, "W1"), (TUPLE, "neurons"), (FORM, "terms"), (SPEC, "expr")]
)
def test_schema_key_missing_is_unrecognized(document, key, tmp_path, capsys):
    data = {k: v for k, v in document.items() if k != key}
    assert run(["canon", _write(tmp_path, data)]) == 2
    assert "unrecognized JSON object" in capsys.readouterr().err

