"""`jsonio.dumps` is the stdlib encoder.

``jsonio.dumps`` is ``json.dumps(x, indent=2)`` itself; this test pins that:
every JSON tree, including trees that hold one dict or list object at several
places, must come out byte-identical to ``json.dumps(x, indent=2)``.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from relugeo import jsonio

# quotes, backslashes, control characters, non-ASCII, astral and lone surrogates
awkward = st.sampled_from(['"', "\\", "\x00", "\n", "\t", "\x1f", "\x7f", "é", "€", "😀", "\ud800"])
text = st.lists(st.one_of(awkward, st.characters()), max_size=6).map("".join)
scalars = st.one_of(
    text,
    st.integers(),
    st.integers(2**64, 2**70),
    st.integers(-(2**70), -1),
    st.booleans(),
    st.none(),
    st.floats(),
)
trees = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(text, children, max_size=4),
    max_leaves=24,
)
containers = st.one_of(
    st.dictionaries(text, scalars, max_size=4),
    st.lists(scalars, max_size=4),
    st.dictionaries(text, trees, max_size=3),
    st.lists(trees, max_size=3),
)


@st.composite
def shared_trees(draw):
    """One container placed twice at one depth and once at two depths."""
    shared = draw(containers)
    other = draw(trees)
    return [shared, other, shared, {draw(text): shared, "tail": [shared]}]


@settings(max_examples=300, deadline=None)
@given(trees)
def test_trees_match_the_stdlib(data):
    assert jsonio.dumps(data) == json.dumps(data, indent=2)


@settings(max_examples=200, deadline=None)
@given(shared_trees())
def test_shared_objects_match_the_stdlib(data):
    assert jsonio.dumps(data) == json.dumps(data, indent=2)


def test_mixed_and_empty_containers():
    leaf = {"d": [1, -2], "q": "1/2", "kink": "-3", "orient": -1}
    data = {"a": [], "b": {}, "c": [1, "x", [], {}, [leaf]], "d": [leaf, leaf], "e": leaf}
    assert jsonio.dumps(data) == json.dumps(data, indent=2)


def test_int_over_the_digit_limit_raises_like_the_stdlib():
    data = {"n": [10**5000]}
    with pytest.raises(ValueError) as stdlib:
        json.dumps(data, indent=2)
    with pytest.raises(ValueError) as ours:
        jsonio.dumps(data)
    assert ours.type is stdlib.type
