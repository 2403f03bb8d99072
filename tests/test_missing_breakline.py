"""A flat spec with a kink off its declared breaklines never synthesizes.

The flat form of a flat spec is f exactly, so a nonzero kink on a breakline
the spec does not declare means f has no network on the declared
breaklines.  The measuring path finds such a kink only if a probe or one of
its sampled points reaches it; these kinks lie outside the sampled box, where
it used to return a wrong network.  ``synthesize`` raises
NotRepresentable("MissingBreakline") for them, checked and unchecked, and the
``synth`` command exits 1.
"""

import json

import pytest

from relugeo.cli import run
from relugeo.errors import NotRepresentable
from relugeo.network import Breakline
from relugeo.pwa import PWASpec, parse_pwa
from relugeo.synthesis import synthesize

# (expression, declared breaklines as (d, q), the undeclared kinked breakline)
SPECS = [
    ("relu(affine([1],-1000))", [], ((1,), 1000)),
    ("relu(affine([1],0)) + relu(affine([1],-1000))", [((1,), 0)], ((1,), 1000)),
    (
        "relu(affine([1,0],-1)) + relu(affine([0,1],-500))",
        [((1, 0), 1)],
        ((0, 1), 500),
    ),
]


@pytest.mark.parametrize("check", [True, False])
@pytest.mark.parametrize("expr, declared, missing", SPECS)
def test_library_raises_missing_breakline(expr, declared, missing, check):
    spec = PWASpec(parse_pwa(expr), tuple(Breakline(d, q) for d, q in declared))
    with pytest.raises(NotRepresentable) as err:
        synthesize(spec, check=check)
    assert err.value.reason == "MissingBreakline"
    bl = Breakline(*missing)
    assert err.value.detail == f"kink on {list(bl.direction)}.x = {bl.offset}"


@pytest.mark.parametrize("flags", [[], ["--unchecked"]])
@pytest.mark.parametrize("expr, declared, missing", SPECS)
def test_synth_exits_1(expr, declared, missing, flags, tmp_path, capsys):
    path = tmp_path / "spec.json"
    breaklines = [{"d": list(d), "q": str(q)} for d, q in declared]
    path.write_text(json.dumps({"expr": expr, "breaklines": breaklines}))
    assert run(["synth", str(path), *flags]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out == {"error": "NotRepresentable", "reason": "MissingBreakline"}


def test_declared_far_kink_still_synthesizes():
    spec = PWASpec(parse_pwa("relu(affine([1],-1000))"), (Breakline((1,), 1000),))
    for check in (True, False):
        t = synthesize(spec, check=check)
        assert [(nr.breakline, nr.kink) for nr in t.neurons] == [(Breakline((1,), 1000), 1)]
