"""A synth spec is read once: one token scan, one compile, one ``expr_dim`` walk.

``synthesize`` compiles its spec's expression once (``pwa._compile``) and
reads ``"auto"`` breaklines and the closed-form network off that one compile.
So ``"auto"`` must give what declaring the auto breaklines gives, a nested
``"auto"`` spec must raise ``flat_form``'s NotFlat, and the counts of
outermost compiles and ``expr_dim`` walks per call are pinned: ``jsonio``
walks no expression, as ``synthesize`` checks declared dimensions.  ``jsonio``
passes ``"auto"`` through, so commands that take no spec report their own
error on a nested ``"auto"`` spec.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_flat_read_off import flat_exprs, outcome

from relugeo import jsonio, pwa, synthesis
from relugeo.cli import run
from relugeo.errors import NotFlat, ParseError
from relugeo.network import Breakline
from relugeo.pwa import PWASpec, flat_breaklines, flat_form, parse_pwa
from relugeo.synthesis import synthesize

FLAT = "relu(affine([1,0],0)) + 2*relu(affine([1,1],-1)) + affine([1,2],3)"
NESTED = "relu(relu(affine([1],0)) + affine([-1],1))"
FLAT_DECLARED = [{"d": [1, 0], "q": "0"}, {"d": [1, 1], "q": "1"}]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(flat_exprs), st.booleans())
def test_auto_is_the_auto_breaklines_declared(e, check):
    declared = PWASpec(e, tuple(flat_breaklines(e)))
    auto = outcome(synthesize, PWASpec(e, "auto"), check=check)
    assert auto == outcome(synthesize, declared, check=check)


@pytest.mark.parametrize("check", [True, False])
@pytest.mark.parametrize("expr", [NESTED, "relu(relu(affine([1],0)) + affine([1,1],0))"])
def test_nested_auto_raises_flat_forms_not_flat(expr, check):
    # the second expression mixes dimensions: NotFlat still comes first
    e = parse_pwa(expr)
    with pytest.raises(NotFlat) as want:
        flat_form(e)
    with pytest.raises(NotFlat) as got:
        synthesize(PWASpec(e, "auto"), check=check)
    assert str(got.value) == str(want.value)


@pytest.fixture
def counts(monkeypatch):
    """Outermost ``_compile`` calls and ``expr_dim`` walks, in every module."""
    counts = {"compile": 0, "expr_dim": 0}
    depth = [0]  # _compile recurses through the module global
    compile_, expr_dim = pwa._compile, pwa.expr_dim

    def counted_compile(e):
        counts["compile"] += depth[0] == 0
        depth[0] += 1
        try:
            return compile_(e)
        finally:
            depth[0] -= 1

    def counted_expr_dim(e):
        counts["expr_dim"] += 1
        return expr_dim(e)

    for module in (pwa, synthesis):
        monkeypatch.setattr(module, "_compile", counted_compile)
    for module in (pwa, synthesis):
        monkeypatch.setattr(module, "expr_dim", counted_expr_dim)
    return counts


@pytest.mark.parametrize(
    "expr, declared, check",
    [
        (FLAT, "auto", True),
        (FLAT, tuple(flat_breaklines(parse_pwa(FLAT))), True),
        ("max(affine([1],0), affine([-1],0))", (Breakline((1,), 0),), True),
        (NESTED, (Breakline((1,), 0), Breakline((1,), 1)), True),
        (FLAT, "auto", False),
        (NESTED, (Breakline((1,), 0), Breakline((1,), 1)), False),
    ],
    ids=["auto", "declared", "declared-max", "declared-nested", "unchecked", "nested-unchecked"],
)
def test_one_compile_and_one_walk_per_synthesize(counts, expr, declared, check):
    synthesize(PWASpec(parse_pwa(expr), declared), check=check)
    assert counts == {"compile": 1, "expr_dim": 1}


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "data, flags",
    [
        ({"expr": FLAT, "breaklines": "auto"}, []),
        ({"expr": FLAT, "breaklines": "auto"}, ["--unchecked"]),
        ({"expr": FLAT, "breaklines": FLAT_DECLARED}, []),
        ({"expr": NESTED, "breaklines": [{"d": [1], "q": "0"}, {"d": [1], "q": "1"}]}, []),
    ],
    ids=["auto", "auto-unchecked", "declared-flat", "declared-nested"],
)
def test_one_compile_per_synth_command(counts, tmp_path, data, flags):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    code, _, err = invoke(["synth", str(path), *flags])
    assert (code, err) == (0, "")
    assert counts == {"compile": 1, "expr_dim": 1}


def test_peek_and_next_run_no_regex(monkeypatch):
    text = "max(affine([1, 2/3], -1), 2 * relu(affine([0, 1], 0))) + affine([1,1],0)"
    expected = parse_pwa(text)
    lexers = pwa._Lexer(text), pwa._Lexer(text + " $")
    monkeypatch.setattr(pwa, "_TOKEN", None)  # both texts are scanned already
    assert pwa._parse_sum(lexers[0]) == expected
    assert lexers[0].next() == (None, None, len(text) + 1)
    with pytest.raises(ParseError) as err:
        pwa._parse_sum(lexers[1])
    assert (err.value.position, err.value.found) == (len(text) + 2, "$")


def test_loading_keeps_auto():
    assert jsonio.from_dict({"expr": NESTED, "breaklines": "auto"}).breaklines == "auto"
    assert jsonio.from_dict({"expr": NESTED}).breaklines == "auto"


@pytest.mark.parametrize(
    "command, message",
    [
        (["canon"], "expected a net, effective tuple or canonical form"),
        (["classify"], "expected a net, effective tuple or canonical form"),
        (["eval", "--x=1"], "eval expects a net, effective tuple or canonical form"),
        (["synth"], "relu argument is not affine"),
    ],
)
def test_nested_auto_spec_errors(tmp_path, command, message):
    path = tmp_path / "nested.json"
    path.write_text(json.dumps({"expr": NESTED, "breaklines": "auto"}))
    code, out, err = invoke([command[0], str(path), *command[1:]])
    assert (code, out, err) == (2, "", f"error: {message}\n")
