"""Every array field of a spec, tuple or form must be a JSON array.

A spec's declared ``breaklines``, a form's ``terms``, a tuple's ``neurons``
and every direction ``d`` exit 2 with ``expected a JSON array`` when they are
an object or a string, as ``W1``, ``b1``, ``W2`` and ``affine`` do.  An empty
object or string is not read as an empty list.
"""

import contextlib
import io
import json

import pytest

from relugeo.cli import run

SPEC = {"expr": "relu(affine([1],0))", "breaklines": [{"d": [1], "q": "0"}]}
TUPLE = {"neurons": [{"d": [1], "q": "0", "kink": "1", "orient": 1}], "bias": "0"}
FORM = {"terms": [{"d": [1], "q": "0", "kink": "2"}], "affine": ["-1"], "bias": "0", "d0": 1}


def _with_d(data, key, d):
    return {**data, key: [{**data[key][0], "d": d}]}


CASES = {
    "spec-breaklines": (["synth"], lambda v: {**SPEC, "breaklines": v}),
    "spec-d": (["synth"], lambda v: _with_d(SPEC, "breaklines", v)),
    "form-terms": (["canon"], lambda v: {**FORM, "terms": v}),
    "form-d": (["canon"], lambda v: _with_d(FORM, "terms", v)),
    "tuple-neurons": (["canon"], lambda v: {**TUPLE, "neurons": v}),
    "tuple-d": (["canon"], lambda v: _with_d(TUPLE, "neurons", v)),
}


@pytest.mark.parametrize("value, found", [({}, "dict"), ("", "str"), ({"1": 0}, "dict")])
@pytest.mark.parametrize("case", CASES)
def test_non_arrays_exit_2(tmp_path, case, value, found):
    argv, build = CASES[case]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(build(value)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([*argv, str(path)])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue() == f"error: {path}: expected a JSON array, found {found}\n"


@pytest.mark.parametrize("argv, data", [(["synth"], SPEC), (["canon"], FORM), (["canon"], TUPLE)])
def test_the_unedited_documents_exit_0(tmp_path, argv, data):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    with contextlib.redirect_stdout(io.StringIO()):
        assert run([*argv, str(path)]) == 0
