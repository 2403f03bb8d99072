"""A spec's declared breaklines are a set of hyperplanes.

Unchecked, the declaration is read as a set, first occurrences in order:
``synthesize`` and ``synthesize_evaluator`` return or raise exactly what they
do on ``dict.fromkeys(declared)``, for flat and nested expressions, with exact
and rescaled repeats and breaklines of another dimension.  Checked,
``synthesize`` reports the first breakline outside the expression's Q^d0,
before the transversality check, and a repeated hyperplane is a violation,
the one ``check_transversality`` reports.  An unchecked flat spec, which has
no breakline cap, must stay fast with many declared breaklines.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relugeo
from relugeo.errors import DimensionMismatch, NotTransversal
from relugeo.jsonio import _breakline_from_dict
from relugeo.network import Breakline
from relugeo.pwa import PWASpec, evaluator, parse_pwa
from relugeo.synthesis import Violation, check_transversality, point_on_breakline, synthesize
from relugeo.synthesis import synthesize_evaluator

# few directions and offsets, so declarations repeat a hyperplane often
DIRECTIONS = {1: [(1,)], 2: [(1, 0), (0, 1), (1, -1)], 3: [(1, 0, 0), (0, 1, -1), (1, 1, 0)]}
OFFSETS = [Fraction(0), Fraction(1), Fraction(1, 2)]
OTHER = (1, 1, 1, 1)  # a direction in no expression's dimension


@st.composite
def declarations(draw):
    """(expr, d0, declared): a flat or nested expression kinked on hyperplanes
    of the pool, and hyperplanes of the pool, now and then one of another
    dimension, each written as s * (d, q) for a scale s, sometimes not 1, and
    read back as ``jsonio`` reads it."""
    d0 = draw(st.integers(1, 3))
    pool = st.tuples(st.sampled_from(DIRECTIONS[d0]), st.sampled_from(OFFSETS))
    (a, p), (b, q) = draw(pool), draw(pool)
    other = st.tuples(st.just(OTHER), st.sampled_from(OFFSETS))
    lines = pool | other if draw(st.booleans()) else pool
    kind = draw(st.sampled_from(["flat", "nested"]))
    inner = f"relu(affine({list(a)},{-p})) + affine({list(b)},{-q})"
    expr = f"relu({inner})" if kind == "nested" else f"{inner} + 2*relu(affine({list(b)},{-q}))"
    scaled = st.lists(st.tuples(lines, st.sampled_from([1, 1, 2, -3])), max_size=8)
    declared = [
        _breakline_from_dict({"d": [s * e for e in d], "q": str(s * offset)})
        for (d, offset), s in draw(scaled)
    ]
    return parse_pwa(expr), d0, declared


def outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:  # the type, message and violation are the outcome
        return type(exc).__name__, str(exc), getattr(exc, "violation", None)


def both_paths(e, d0, declared, check):
    """The outcomes of ``synthesize`` and ``synthesize_evaluator``."""
    read = outcome(synthesize, PWASpec(e, tuple(declared)), check=check)
    measured = outcome(synthesize_evaluator, evaluator(e), declared, d0, check=check, n_verify=100)
    return read, measured


@settings(max_examples=120, deadline=None)
@given(declarations())
def test_unchecked_declaration_is_read_as_a_set(spec):
    e, d0, declared = spec
    once = list(dict.fromkeys(declared))
    assert both_paths(e, d0, declared, False) == both_paths(e, d0, once, False)


@settings(max_examples=120, deadline=None)
@given(declarations())
def test_checked_declaration_reports_a_repeat_as_its_violation(spec):
    e, d0, declared = spec
    read, measured = both_paths(e, d0, declared, True)
    if wrong := [(i, bl.d0) for i, bl in enumerate(declared, 1) if bl.d0 != d0]:
        i, k = wrong[0]
        message = f"declared breakline {i} has dimension {k}, the expression {d0}"
        assert read == ("DimensionMismatch", message, None)
    elif (violation := check_transversality(declared)) is not None:
        assert read == measured and read[0::2] == ("NotTransversal", violation)
    else:  # no repeat either: checked reads what unchecked reads
        assert (read, measured) == both_paths(e, d0, declared, False)


def test_wrong_dimension_comes_before_the_transversality_check():
    # the repeat of x1 = 0 is a violation, and 21 breaklines exceed its cap;
    # unchecked, the repeats are one breakline
    bl, other = Breakline((1, 0), 0), Breakline((1,), 0)
    for declared in ([bl, bl, other], [bl] * 20 + [other]):
        spec = PWASpec(parse_pwa("relu(affine([1,0],0))"), tuple(declared))
        for check, i in ((True, len(declared)), (False, 2)):
            with pytest.raises(DimensionMismatch) as err:
                synthesize(spec, check=check)
            assert str(err.value) == f"declared breakline {i} has dimension 1, the expression 2"


def test_point_on_a_repeated_breakline_raises_the_pair():
    # no point of one avoids the other: the pair and the point whose
    # coordinates but the pivot are 0
    a, b = Breakline((1, 2), Fraction(1, 2)), Breakline((0, 1), 0)
    for i in (0, 2):
        with pytest.raises(NotTransversal) as err:
            point_on_breakline([a, b, a], i)
        assert err.value.violation == Violation((0, 2), (Fraction(1, 2), Fraction(0)))


def test_many_unchecked_breaklines_exit_0_quickly(tmp_path):
    # 20,002 declared breaklines, the two kinked ones declared twice (one
    # rescaled): 0.4 s in process on a 2-CPU x86-64 host, where a check per
    # index against every other took over 120 s at 2,000
    lines = [{"d": [1, 0], "q": "0"}, {"d": [1, 1], "q": "1"}]
    lines += [{"d": [1, 2], "q": str(q)} for q in range(19_998)]
    lines += [{"d": [1, 0], "q": "0"}, {"d": [2, 2], "q": "2"}]
    spec = {"expr": "relu(affine([1,0],0)) + 2*relu(affine([1,1],-1))", "breaklines": lines}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(Path(relugeo.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "relugeo.cli", "synth", str(path), "--unchecked"],
        capture_output=True,
        text=True,
        timeout=20,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    kinks = [(n["d"], n["q"], n["kink"]) for n in json.loads(proc.stdout)["neurons"]]
    assert kinks == [([1, 0], "0", "1"), ([1, 1], "1", "2")]
