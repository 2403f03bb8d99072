"""Inputs from outside the program: every one exits 0, 1 or 2, never a traceback.

Regression tests for deep expression nesting, deeply nested JSON,
non-integer JSON integer fields and unbounded ``random`` runs, then an
in-process Hypothesis fuzz of the CLI on tuples, forms and specs and on the
``--x``, ``--r`` and ``--cap`` arguments.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import relugeo
from relugeo.cli import run
from relugeo.errors import NotFlat, ParseError
from relugeo.exact import primitive_direction, rat
from relugeo.pwa import _MAX_DEPTH, evaluator, expr_dim, flat_breaklines, parse_pwa, pretty

RELU = "relu(affine([1],0))"


def invoke(argv, files=()):
    """Run the CLI in process on JSON files written from ``files``."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, data in enumerate(files):
            path = Path(tmp) / f"in{i}.json"
            path.write_text(json.dumps(data))
            paths.append(str(path))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([argv[0], *paths, *argv[1:]])
    return code, out.getvalue(), err.getvalue()


def assert_contract(code, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    # every exit-2 stderr starts with "error: "; usage errors add the usage line
    assert ("error: " in err) if code == 2 else err == ""


# -- nesting depth ---------------------------------------------------------


def nested(groups):
    """RELU inside ``groups`` of "-(affine([0],1) + 2 * (": 3 levels each."""
    return "-(affine([0],1) + 2 * (" * groups + RELU + "))" * groups


@pytest.mark.parametrize(
    "expr",
    ["(" * 3000 + RELU + ")" * 3000, "-" * 3000 + RELU, nested(1000)],
    ids=["parentheses", "unary-minus", "mixed"],
)
@pytest.mark.parametrize("breaklines", ["auto", [{"d": [1], "q": "0"}]], ids=["auto", "declared"])
def test_deep_nesting_exits_2(expr, breaklines):
    code, out, err = invoke(["synth"], [{"expr": expr, "breaklines": breaklines}])
    assert code == 2 and out == ""
    assert err.startswith("error: parse error at position ")
    assert f"expected at most {_MAX_DEPTH} levels of nesting" in err


def test_depth_bound_is_exact():
    # a factor inside k groups sits at depth 3k + 1 and relu's argument one deeper
    groups = (_MAX_DEPTH - 2) // 3
    parse_pwa(nested(groups))
    parse_pwa("-" * (_MAX_DEPTH - 2) + RELU)
    parse_pwa("(" * (_MAX_DEPTH - 2) + RELU + ")" * (_MAX_DEPTH - 2))
    for text in ("-" * (_MAX_DEPTH - 1) + RELU, "(" * (_MAX_DEPTH - 1) + RELU + ")" * (_MAX_DEPTH - 1)):
        with pytest.raises(ParseError) as err:
            parse_pwa(text)
        assert err.value.position == text.index("affine") + 1  # the first factor past the bound


@pytest.mark.parametrize("argv", [["canon"], ["equiv", "x"], ["synth"], ["eval", "--x", "1"]])
def test_deeply_nested_json_exits_2(argv, tmp_path):
    # deeper than the JSON decoder recurses: json.load raises RecursionError
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([argv[0], str(path), *argv[1:]])
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue() == f"error: {path}: JSON nested too deeply\n"


def test_depth_counts_nesting_not_length():
    wide = " + ".join(["-(" + RELU + ")"] * (3 * _MAX_DEPTH))
    assert len(parse_pwa(wide).children) == 3 * _MAX_DEPTH
    assert parse_pwa(f"max({wide}, -{wide})").left == parse_pwa(wide)


def test_deepest_expression_runs_through_every_walk():
    groups = (_MAX_DEPTH - 2) // 3
    e = parse_pwa(nested(groups))
    assert parse_pwa(pretty(e)) == e
    assert expr_dim(e) == 1
    # -(1 + 2 * (...)) applied `groups` times to relu(x)
    expected = lambda x: -sum((-2) ** i for i in range(groups)) + (-2) ** groups * max(x, 0)
    assert [evaluator(e)((x,)) for x in (-3, 0, 5)] == [expected(x) for x in (-3, 0, 5)]
    assert [(bl.direction, bl.offset) for bl in flat_breaklines(e)] == [((1,), 0)]
    with pytest.raises(NotFlat):
        flat_breaklines(parse_pwa("relu(" * (_MAX_DEPTH - 1) + "affine([1],0)" + ")" * (_MAX_DEPTH - 1)))
    code, out, err = invoke(["synth"], [{"expr": nested(groups), "breaklines": "auto"}])
    assert code == 0, err
    assert [nr["kink"] for nr in json.loads(out)["neurons"]] == [str((-2) ** groups)]


# -- JSON integer fields -----------------------------------------------------

RELU_NET = {"W1": [["1"]], "b1": ["0"], "W2": ["1"], "b2": "0"}
RELU_TUPLE_NEURON = {"d": [1], "q": "0", "kink": "1", "orient": 1}
RELU_FORM = {"terms": [{"d": [1], "q": "0", "kink": "1"}], "affine": ["0"], "bias": "0", "d0": 1}
RELU_SPEC = {"expr": RELU, "breaklines": [{"d": [1], "q": "0"}]}


def _with(data, path, value):
    """A deep copy of data with data[path[0]][path[1]]... set to value."""
    data = json.loads(json.dumps(data))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


@pytest.mark.parametrize(
    "command, data",
    [
        ("canon", _with(RELU_FORM, ["d0"], 1.5)),
        ("canon", _with(RELU_FORM, ["d0"], True)),
        ("canon", _with(RELU_FORM, ["d0"], "1")),
        ("canon", _with(RELU_FORM, ["terms", 0, "d"], [1.0])),
        ("canon", {"neurons": [dict(RELU_TUPLE_NEURON, orient=1.7)], "bias": "0"}),
        ("canon", {"neurons": [dict(RELU_TUPLE_NEURON, d=[True])], "bias": "0"}),
        ("canon", {"neurons": [dict(RELU_TUPLE_NEURON, d=["1"])], "bias": "0"}),
        ("canon", dict(RELU_NET, d0=True)),
        ("canon", dict(RELU_NET, d1=1.0)),
        ("synth", _with(RELU_SPEC, ["breaklines", 0, "d"], [1.5])),
        ("synth", _with(RELU_SPEC, ["breaklines", 0, "d"], [True])),
    ],
    ids=[
        "form-d0-float",
        "form-d0-bool",
        "form-d0-string",
        "form-direction-float",
        "tuple-orient-float",
        "tuple-direction-bool",
        "tuple-direction-string",
        "net-d0-bool",
        "net-d1-float",
        "spec-direction-float",
        "spec-direction-bool",
    ],
)
def test_integer_fields_take_json_integers_only(command, data):
    code, out, err = invoke([command], [data])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "expected a JSON integer" in err


# -- bounded `random` --------------------------------------------------------


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--d0", "2", "--d1", "30", "--bound", "1", "--transversal"], "no transversal net found"),
        (["--d0", "3000", "--d1", "3000"], "d0 * d1 = 9000000 exceeds"),
    ],
    ids=["no-transversal-net", "too-many-weights"],
)
def test_random_is_bounded(argv, message):
    env = dict(os.environ, PYTHONPATH=str(Path(relugeo.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "relugeo.cli", "random", *argv],
        capture_output=True,
        text=True,
        timeout=20,
        env=env,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(f"error: {message}"), proc.stderr


# -- CLI fuzz on tuples, forms, specs and arguments -------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**6), 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=5),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
small = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
odd_literals = st.sampled_from(["1e3", "1e400", "1e100000000", "1/0", " 3 ", "0.25", "x", ""])
dims = st.integers(1, 2)


def weighted(common, rare, odds=9):
    """common ``odds`` times out of ``odds + 1``, rare otherwise.

    (``st.one_of`` would merge repeated copies of a strategy, so repeating
    one there does not weight it.)
    """
    return st.integers(0, odds).flatmap(lambda i: rare if i == odds else common)


literals = weighted(small.map(lambda f: f"{f.numerator}/{f.denominator}"), odd_literals)


def sometimes(strategy):
    """Mostly well-typed values, now and then any JSON value."""
    return weighted(strategy, json_values)


def directions(d0):
    raw = st.lists(st.integers(-3, 3), min_size=d0, max_size=d0)
    primitive = raw.filter(any).map(lambda v: list(primitive_direction(v)[0]))
    return sometimes(weighted(primitive, raw, 4))


def sort_terms(terms):
    """Terms in canonical order when they can be ordered, as they come otherwise."""
    try:
        return sorted(terms, key=lambda t: (t["d"], rat(t["q"])))
    except (TypeError, ValueError, KeyError):
        return terms


def tuples(d0):
    neuron = st.fixed_dictionaries(
        {
            "d": directions(d0),
            "q": sometimes(literals),
            "kink": sometimes(literals),
            "orient": sometimes(st.sampled_from([1, -1, 1, -1, 0, 2])),
        }
    )
    neurons = st.lists(neuron, min_size=1, max_size=4)
    return st.fixed_dictionaries({"neurons": sometimes(neurons), "bias": sometimes(literals)})


def forms(d0):
    term = st.fixed_dictionaries(
        {"d": directions(d0), "q": sometimes(literals), "kink": sometimes(literals)}
    )
    return st.fixed_dictionaries(
        {
            "terms": sometimes(st.lists(term, max_size=4).map(sort_terms)),
            "affine": sometimes(st.lists(literals, min_size=d0, max_size=d0)),
            "bias": sometimes(literals),
            "d0": sometimes(st.sampled_from([d0, d0, d0, 0, -1, d0 + 1])),
        }
    )


def expressions(d0):
    """Expression text over leaves of d0 coefficients, now and then d0 + 1.

    Mostly flat sums of scaled relu/max/min terms of affine arguments, which
    synth can read breaklines off; otherwise any nesting.
    """
    number = small.map(lambda f: str(f) if f >= 0 else f"-{-f}")
    leaf = st.builds(
        lambda cs, c: f"affine([{', '.join(cs)}], {c})",
        weighted(
            st.lists(number, min_size=d0, max_size=d0),
            st.lists(number, min_size=d0 + 1, max_size=d0 + 1),
            5,
        ),
        number,
    )

    def extend(inner):
        return st.one_of(
            st.builds("relu({})".format, inner),
            st.builds("max({}, {})".format, inner, inner),
            st.builds("min({}, {})".format, inner, inner),
            st.builds("{} + {}".format, inner, inner),
            st.builds("{} * ({})".format, number, inner),
            st.builds("-{}".format, inner),
        )

    linear = st.one_of(leaf, st.builds("{} + {}".format, leaf, leaf), st.builds("-{}".format, leaf))
    kink = st.one_of(
        st.builds("relu({})".format, linear),
        st.builds("max({}, {})".format, linear, linear),
        st.builds("min({}, {})".format, linear, linear),
    )
    term = st.builds("{} * {}".format, number, kink)
    flat = st.lists(st.one_of(term, leaf), min_size=1, max_size=4).map(" + ".join)
    return weighted(flat, st.recursive(leaf, extend, max_leaves=5), 2)


def specs(d0):
    expr = weighted(
        expressions(d0),
        st.one_of(
            st.text("()[],+*-/.0123456789 afinelurmxo", max_size=30),
            st.sampled_from(["(" * 3000 + RELU + ")" * 3000, "-" * 3000 + RELU, nested(40)]),
        ),
        4,
    )
    breakline = st.fixed_dictionaries({"d": directions(d0), "q": sometimes(literals)})
    breaklines = st.one_of(st.just("auto"), weighted(st.lists(breakline, max_size=4), json_values, 4))
    return st.fixed_dictionaries({"expr": sometimes(expr), "breaklines": breaklines})


points = weighted(st.lists(literals, min_size=1, max_size=3).map(",".join), st.text(max_size=8))
caps = weighted(st.integers(-2, 30).map(str), st.text(max_size=4))
functions = dims.flatmap(lambda d0: st.one_of(tuples(d0), forms(d0)))
any_object = st.one_of(functions, dims.flatmap(specs))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(["canon", "classify", "enum", "equiv", "eval", "synth"]),
    data=st.data(),
    x=points,
    r=points,
    cap=caps,
)
def test_cli_on_arbitrary_documents(command, data, x, r, cap):
    # mostly the kind of document the command takes, sometimes any kind
    expected = dims.flatmap(specs) if command == "synth" else functions
    data, other = (data.draw(weighted(expected, any_object, 4)) for _ in range(2))
    argv, files = {
        "canon": (["canon"], [data]),
        "classify": (["classify", f"--r={r}", f"--cap={cap}"], [data]),
        "enum": (["enum", f"--r={r}", f"--cap={cap}"], [data]),
        "equiv": (["equiv"], [data, other]),
        "eval": (["eval", f"--x={x}"], [data]),
        "synth": (["synth"], [data]),
    }[command]
    start = time.perf_counter()
    code, _, err = invoke(argv, files)
    assert time.perf_counter() - start < 10
    assert_contract(code, err)
