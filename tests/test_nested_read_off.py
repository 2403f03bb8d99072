"""Nested specs read off their cells: one exact decision, no measuring.

``synthesize`` reads a nested spec's kinks at one point of each hyperplane of
its arrangement, fits the affine part, and checks that form on every cell.
So the nested max(g + A, g + B) must give the same tuple as the flat
g + B + relu(A - B), checked and unchecked; no spec, nested or flat, may reach
the measuring path (``synthesize_evaluator``, ``point_on_breakline``,
``jump_vector``), each must compile once, a nested one walk its hyperplanes
once and a flat one never, and each must print the same bytes whatever
``--seed``.  A function that is no network's response raises
ResidualNotAffine, a network's response with a kinked hyperplane left
undeclared MissingBreakline, and a declared hyperplane repeated unchecked is
read once.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_flat_read_off import outcome
from test_golden_cli import INPUTS
from test_undeclared_kinks import affine, directions, kinks, small, term

from relugeo import pwa, synthesis
from relugeo.cli import run
from relugeo.errors import NotRepresentable
from relugeo.network import Breakline
from relugeo.pwa import PWASpec, parse_pwa
from relugeo.synthesis import check_transversality, synthesize

F = Fraction


@st.composite
def nested_pairs(draw):
    """(nested, flat, breaklines): max(g + A, g + B) and g + B + relu(A - B)
    with A - B = s * (d . x - q), on the transversal breaklines of g's terms
    and of d . x = q."""
    d0 = draw(st.integers(1, 3))
    lines = draw(st.lists(st.tuples(directions(d0), small), min_size=1, max_size=4, unique=True))
    breaklines = [Breakline(d, q) for d, q in lines]
    assume(check_transversality(breaklines) is None)
    (d, q), *rest = lines
    g = " + ".join([term(draw(kinks), dn, qn) for dn, qn in rest] + [affine([0] * d0, 0)])
    a0, b0, s = draw(st.lists(small, min_size=d0, max_size=d0)), draw(small), draw(kinks)
    a = affine([x + s * y for x, y in zip(a0, d)], b0 - s * q)
    b = affine(a0, b0)
    diff = affine([s * y for y in d], -s * q)
    return f"max({g} + {a}, {g} + {b})", f"{g} + {b} + relu({diff})", breaklines


@settings(max_examples=80, deadline=None)
@given(nested_pairs(), st.booleans())
def test_nested_reads_off_what_its_flat_twin_compiles(pair, check):
    nested, flat, breaklines = pair
    got = outcome(synthesize, PWASpec(parse_pwa(nested), tuple(breaklines)), check=check)
    want = outcome(synthesize, PWASpec(parse_pwa(flat), tuple(breaklines)), check=check)
    assert got == want
    assert got[0] == "ok"


MAX_EXPR = "max(relu(affine([1],0)) + affine([1],-3), relu(affine([1],0)) + affine([0],0))"
HAT = "relu(relu(affine([1,0],0)) + relu(affine([0,1],0)) + affine([0,0],-1))"
# its five kinked lines: x1 = 0 and x2 = 0 inside, x1 = 1, x2 = 1 and x1 + x2 = 1 outside
HAT_LINES = [([1, 0], "0"), ([0, 1], "0"), ([1, 0], "1"), ([0, 1], "1"), ([1, 1], "1")]
SHIFTED = "relu(relu(affine([0,0],1)) + affine([1,0],0))"  # relu(1 + x1): its kink is x1 = -1

SPECS = [
    (MAX_EXPR, [([1], "0"), ([1], "3")]),
    (MAX_EXPR, [([1], "0")]),
    (HAT, HAT_LINES),
    (SHIFTED, [([1, 0], "0")]),
]
# flat specs are read off their compile: no hyperplanes are walked
FLAT_SPECS = [
    ("relu(affine([1,0],0)) + 2*relu(affine([1,1],-1))", "auto"),
    ("relu(affine([1],0)) + relu(affine([1],-1))", [([1], "0")]),  # x = 1 left out
    ("relu(affine([1,0],0))", [([2, 0], "1"), ([0, 3], "1"), ([6, 6], "5")]),  # meet at (1/2, 1/3)
]


@pytest.fixture
def counts(monkeypatch):
    """Calls of the measuring path, outermost ``_compile`` calls and ``_cuts`` walks."""
    counts = dict.fromkeys(["synthesize_evaluator", "point_on_breakline", "jump_vector"], 0)
    counts |= {"compile": 0, "cuts": 0}
    for name in ("synthesize_evaluator", "point_on_breakline", "jump_vector"):
        original = getattr(synthesis, name)

        def counted(*args, name=name, original=original, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(synthesis, name, counted)
    def walked(key, original):
        depth = [0]  # each recurses through its module's global

        def counted(*args):
            counts[key] += depth[0] == 0
            depth[0] += 1
            try:
                return original(*args)
            finally:
                depth[0] -= 1

        return counted

    monkeypatch.setattr(pwa, "_compile", walked("compile", pwa._compile))
    monkeypatch.setattr(synthesis, "_compile", pwa._compile)
    monkeypatch.setattr(synthesis, "_cuts", walked("cuts", synthesis._cuts))
    return counts


def synth(tmp_path, expr, declared, *flags):
    path = tmp_path / "spec.json"
    breaklines = declared if declared == "auto" else [{"d": d, "q": q} for d, q in declared]
    path.write_text(json.dumps({"expr": expr, "breaklines": breaklines}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(["synth", str(path), *flags])
    return code, out.getvalue()


@pytest.mark.parametrize("flags", [[], ["--unchecked"]], ids=["checked", "unchecked"])
@pytest.mark.parametrize(
    "expr, declared",
    SPECS + FLAT_SPECS,
    ids=["max", "max-dropped", "hat", "shifted", "flat-auto", "flat-dropped", "flat-meet"],
)
def test_one_exact_path_whatever_the_seed(counts, tmp_path, expr, declared, flags):
    printed = set()
    for seed in ("0", "1", "997"):
        before = dict(counts)
        code, out = synth(tmp_path, expr, declared, "--seed", seed, *flags)
        printed.add((code, out))
        calls = {key: counts[key] - before[key] for key in counts}
        # none once the check rejects (the hat's lines meet at (0, 1)) or for a flat spec
        walks = 0 if "NotTransversal" in out or (expr, declared) in FLAT_SPECS else 1
        assert calls == {
            "synthesize_evaluator": 0,
            "point_on_breakline": 0,
            "jump_vector": 0,
            "compile": 1,
            "cuts": walks,
        }
    assert len(printed) == 1


def reason(expr, declared, check):
    spec = PWASpec(parse_pwa(expr), tuple(Breakline(d, F(q)) for d, q in declared))
    with pytest.raises(NotRepresentable) as err:
        synthesize(spec, check=check)
    return err.value.reason


def test_counterexample_unchecked_is_not_a_network():
    counter = INPUTS["counter.json"]
    declared = [(bl["d"], bl["q"]) for bl in counter["breaklines"]]
    assert reason(counter["expr"], declared, False) == "ResidualNotAffine"


def test_hat_on_its_five_lines_is_not_a_network():
    # on x2 = 1 the kink is 1 where x1 < 0 and 0 where x1 > 0
    assert reason(HAT, HAT_LINES, False) == "ResidualNotAffine"


@pytest.mark.parametrize("check", [True, False])
def test_undeclared_kink_of_a_network_is_missing(check):
    assert reason(SHIFTED, [([1, 0], "0")], check) == "MissingBreakline"


def test_repeated_breakline_is_read_once_unchecked(tmp_path):
    code, out = synth(tmp_path, MAX_EXPR, [([1], "0"), ([1], "3"), ([1], "0")], "--unchecked")
    assert (code, out) == synth(tmp_path, MAX_EXPR, [([1], "0"), ([1], "3")], "--unchecked")
    assert code == 0
