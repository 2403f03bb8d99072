"""Comma-separated rational flags (--r, --x): empty entries are named by flag and position."""

import json

import pytest

from relugeo.cli import run

FORM = {"terms": [{"d": [1], "q": "0", "kink": "1"}], "affine": ["0"], "bias": "0", "d0": 1}
NET = {"W1": [["1"], ["-1"]], "b1": ["0", "0"], "W2": ["1", "1"], "b2": "0"}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "form.json", "--r="], "--r entry 1 is empty"),
        (["classify", "form.json", "--r", "0,,1"], "--r entry 2 is empty"),
        (["enum", "form.json", "--r", "1,"], "--r entry 2 is empty"),
        (["eval", "net.json", "--x="], "--x entry 1 is empty"),
        (["eval", "net.json", "--x", "1,,2"], "--x entry 2 is empty"),
        # the first empty entry is named before any literal is parsed
        (["classify", "form.json", "--r", "x,,1,"], "--r entry 2 is empty"),
    ],
)
def test_empty_entry_exits_2_naming_flag_and_entry(tmp_path, monkeypatch, capsys, argv, message):
    (tmp_path / "form.json").write_text(json.dumps(FORM))
    (tmp_path / "net.json").write_text(json.dumps(NET))
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
