"""Nested specs with a kink far from every probe (ROADMAP item 1).

A nested expression has no flat form, so ``synthesize`` measures it: jumps
at points on the declared breaklines and the residual fit, all near the
origin.  A kink the spec does not declare, far from every probe, is seen
only by the final check, which compares f with the network at one point of
every cell of f's own hyperplanes and the declared ones.  A sampled check in
a box around the origin missed the kinks below: at x = 2000 the first spec
is 3000 while its measured network is relu(x), the second is 1000 while its
network is empty, and at (2000, 2000) the third is 5000 while its network is
relu(x1).  None may print a network that differs from f at its witness
point; each must exit 1 with MissingBreakline, checked and unchecked.  Their
companions declare the far breaklines and must synthesize f exactly.
"""

import json

import pytest

from relugeo.cli import run
from relugeo.jsonio import tuple_from_dict
from relugeo.network import evaluate_tuple
from relugeo.pwa import eval_pwa, parse_pwa

MAX_EXPR = "max(relu(affine([1],0)) + affine([1],-1000), relu(affine([1],0)) + affine([0],0))"
ABS_EXPR = "relu(relu(affine([1],0)) + relu(affine([-1],0)) + -1000*affine([0],1))"
PLANE_EXPR = (
    "max(relu(affine([1,0],0)) + affine([1,1],-1000), relu(affine([1,0],0)) + affine([0,0],0))"
)

# (expression, declared breaklines as (d, q), witness points)
UNDECLARED = [
    (MAX_EXPR, [([1], "0")], [(2000,)]),
    (ABS_EXPR, [], [(2000,)]),
    (PLANE_EXPR, [([1, 0], "0")], [(2000, 2000)]),
]
DECLARED = [
    (MAX_EXPR, [([1], "0"), ([1], "1000")], [(-2000,), (0,), (2000,)]),
    (ABS_EXPR, [([1], "-1000"), ([1], "1000")], [(-2000,), (0,), (2000,)]),
    (PLANE_EXPR, [([1, 0], "0"), ([1, 1], "1000")], [(-2000, 0), (0, 0), (2000, 2000), (1, 999)]),
]
IDS = ["max", "abs", "plane"]


def synth(expr, declared, flags, tmp_path, capsys):
    """(exit code, the printed JSON or None, the printed network or None)."""
    path = tmp_path / "spec.json"
    breaklines = [{"d": d, "q": q} for d, q in declared]
    path.write_text(json.dumps({"expr": expr, "breaklines": breaklines}))
    code = run(["synth", str(path), *flags])
    out = capsys.readouterr().out
    data = json.loads(out) if out else None
    return code, data, tuple_from_dict(data) if code == 0 else None


@pytest.mark.parametrize("flags", [[], ["--unchecked"]], ids=["checked", "unchecked"])
@pytest.mark.parametrize("expr, declared, witnesses", UNDECLARED, ids=IDS)
def test_no_wrong_network_beyond_the_sampled_box(
    expr, declared, witnesses, flags, tmp_path, capsys
):
    code, data, net = synth(expr, declared, flags, tmp_path, capsys)
    f = parse_pwa(expr)
    wrong = [x for x in witnesses if net and evaluate_tuple(net, x) != eval_pwa(f, x)]
    assert code == 1, f"exit {code}; the network differs from f at {wrong}"
    assert data == {"error": "NotRepresentable", "reason": "MissingBreakline"}


@pytest.mark.parametrize("flags", [[], ["--unchecked"]], ids=["checked", "unchecked"])
@pytest.mark.parametrize("expr, declared, witnesses", DECLARED, ids=IDS)
def test_declared_far_kinks_synthesize_f(expr, declared, witnesses, flags, tmp_path, capsys):
    code, _, net = synth(expr, declared, flags, tmp_path, capsys)
    assert code == 0
    for x in witnesses:
        assert evaluate_tuple(net, x) == eval_pwa(parse_pwa(expr), x)
