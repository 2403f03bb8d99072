"""Inputs of the enumeration: the term cap and the extra-breakline offsets.

A cap below zero is rejected by name wherever a cap is taken, before any
term is counted, and repeated offsets give one tuple each, kept in order of
first appearance.
"""

import json
from fractions import Fraction

import pytest

from relugeo.canonical import CanonicalForm
from relugeo.cli import run
from relugeo.minimality import (
    KIND_FRESH,
    classify,
    compute_J,
    compute_J_pair,
    compute_J_single,
    enumerate_minimal,
)
from relugeo.network import Breakline

F = Fraction

# x -> x: no terms, so every cap of 0 or more admits it
AFFINE = {"terms": [], "affine": ["1"], "bias": "0", "d0": 1}
AFFINE_FORM = CanonicalForm((), (F(1),), F(0), 1)
# x_+ + y_+ + x + y: case III, whose extra-breakline families sample the offsets
CASE_III = CanonicalForm(
    ((Breakline((0, 1), 0), F(1)), (Breakline((1, 0), 0), F(1))), (F(1), F(1)), F(0), 2
)

CAPPED = [
    lambda cf, cap: compute_J(cf, cap=cap),
    lambda cf, cap: compute_J_single(cf, (1, 0), cap=cap),
    lambda cf, cap: compute_J_pair(cf, (1, 0), (0, 1), cap=cap),
    lambda cf, cap: enumerate_minimal(cf, cap=cap),
    lambda cf, cap: classify(cf, cap=cap),
]


@pytest.mark.parametrize("call", CAPPED, ids=["J", "J_single", "J_pair", "enum", "classify"])
@pytest.mark.parametrize("cap", [-1, -5])
def test_negative_cap_is_rejected_by_name(call, cap):
    with pytest.raises(ValueError, match=f"enumeration cap must be at least 0, got {cap}"):
        call(CASE_III, cap)


def test_zero_cap_still_admits_an_affine_form():
    assert classify(AFFINE_FORM, cap=0).case == "affine"


@pytest.mark.parametrize("command", ["classify", "enum"])
def test_cli_negative_cap_exits_2_naming_it(command, tmp_path, capsys):
    path = tmp_path / "aff.json"
    path.write_text(json.dumps(AFFINE))
    assert run([command, str(path), "--cap", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the enumeration cap must be at least 0, got -5\n"


def test_repeated_offsets_are_kept_once_in_first_order():
    families = enumerate_minimal(CASE_III, r_samples=("1", "0", "1/1", "0.0", "-2", "0/3"))
    fresh = [f for f in families if f.kind == KIND_FRESH]
    assert fresh
    for family in fresh:
        assert family.r_values == (F(1), F(0), F(-2))
        assert len(family.tuples) == len(set(family.tuples)) == 3
    report = classify(CASE_III, r_samples=("1", "1", "0"))
    assert {f.r_values for f in report.families if f.kind == KIND_FRESH} == {(F(1), F(0))}


def test_cli_enum_repeated_offsets(tmp_path, capsys):
    path = tmp_path / "aff.json"
    path.write_text(json.dumps(AFFINE))
    assert run(["enum", str(path), "--r", "0,0/1,0.0"]) == 0
    (family,) = json.loads(capsys.readouterr().out)["families"]
    assert family["r_values"] == ["0"]
    assert len(family["tuples"]) == 1
