"""Nested specs with a kink outside the sampled box (ROADMAP item 1).

A nested expression has no flat form, so ``synthesize`` can only measure it:
jumps at points on the declared breaklines, then the residual fit and the
sampled check, all near the origin.  A kink the spec does not declare, far
from every probe, goes unseen and ``synth`` exits 0 with a network that
differs from f beyond it.  The two specs below show it: at x = 2000 the first
is 3000 while the printed network is relu(x), and the second is 1000 while
the printed network is empty.  Those tests are strict xfails until the walk
of ROADMAP item 1 finds such kinks; their companions declare the far
breaklines and must synthesize f exactly.
"""

import json

import pytest

from relugeo.cli import run
from relugeo.jsonio import tuple_from_dict
from relugeo.network import evaluate_tuple
from relugeo.pwa import eval_pwa, parse_pwa

MAX_EXPR = "max(relu(affine([1],0)) + affine([1],-1000), relu(affine([1],0)) + affine([0],0))"
ABS_EXPR = "relu(relu(affine([1],0)) + relu(affine([-1],0)) + -1000*affine([0],1))"

# (expression, declared breaklines as (d, q))
UNDECLARED = [(MAX_EXPR, [([1], "0")]), (ABS_EXPR, [])]
DECLARED = [(MAX_EXPR, [([1], "0"), ([1], "1000")]), (ABS_EXPR, [([1], "-1000"), ([1], "1000")])]


def synth(expr, declared, flags, tmp_path, capsys):
    """(exit code, the printed network or None)."""
    path = tmp_path / "spec.json"
    breaklines = [{"d": d, "q": q} for d, q in declared]
    path.write_text(json.dumps({"expr": expr, "breaklines": breaklines}))
    code = run(["synth", str(path), *flags])
    out = capsys.readouterr().out
    return code, tuple_from_dict(json.loads(out)) if code == 0 else None


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
@pytest.mark.parametrize("flags", [[], ["--unchecked"]], ids=["checked", "unchecked"])
@pytest.mark.parametrize("expr, declared", UNDECLARED, ids=["max", "abs"])
def test_no_wrong_network_beyond_the_sampled_box(expr, declared, flags, tmp_path, capsys):
    code, net = synth(expr, declared, flags, tmp_path, capsys)
    x = (2000,)
    assert code != 0 or evaluate_tuple(net, x) == eval_pwa(parse_pwa(expr), x)


@pytest.mark.parametrize("flags", [[], ["--unchecked"]], ids=["checked", "unchecked"])
@pytest.mark.parametrize("expr, declared", DECLARED, ids=["max", "abs"])
def test_declared_far_kinks_synthesize_f(expr, declared, flags, tmp_path, capsys):
    code, net = synth(expr, declared, flags, tmp_path, capsys)
    assert code == 0
    for x in [(-2000,), (0,), (2000,)]:
        assert evaluate_tuple(net, x) == eval_pwa(parse_pwa(expr), x)
