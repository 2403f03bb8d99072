"""The transversality check against the per-subset ``solve_affine`` loop it replaced.

``check_transversality`` scales each breakline to one integer row once and
runs one ``exact.eliminate`` per subset, reading Rouche-Capelli off the
result: the subset meets iff no row past the pivots has a nonzero offset, and
violates iff it meets with fewer pivots than members.  Only a violating
subset is solved for its reported point.  The reference here is the loop it
replaced, one ``solve_affine`` per subset, with its caps, kept verbatim.
Both must give the same Violation or None, or raise the same exception with
the same message, on random, repeated, parallel-shifted and concurrent
breaklines.  Breaklines of mixed dimension are refused before any subset.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from relugeo.errors import CapExceeded, DimensionMismatch
from relugeo.exact import dot, primitive_direction, solve_affine
from relugeo.network import Breakline
from relugeo.synthesis import _MAX_BREAKLINES, _MAX_WORK, Violation, check_transversality


def reference_check(breaklines):
    breaklines = list(breaklines)
    n = len(breaklines)
    if n > _MAX_BREAKLINES:
        raise CapExceeded(f"{n} breaklines exceed the transversality cap of {_MAX_BREAKLINES}")
    if n == 0:
        return None
    d0 = breaklines[0].d0
    sizes = range(2, min(n, d0 + 1) + 1)
    work = sum(comb(n, size) * size * size * d0 for size in sizes)
    if work > _MAX_WORK:
        raise CapExceeded(f"{work} units of work exceed the transversality cap of {_MAX_WORK}")
    for size in sizes:
        for subset in combinations(range(n), size):
            rows = [breaklines[i].direction for i in subset]
            rhs = [breaklines[i].offset for i in subset]
            sol = solve_affine(rows, rhs, d0)
            # a meeting subset whose normals have rank below its size
            if sol is not None and d0 - len(sol[1]) < size:
                return Violation(subset, sol[0])
    return None


def outcome(check, breaklines):
    try:
        return repr(check(breaklines))
    except Exception as e:  # the type and message are part of the contract
        return type(e).__name__, str(e)


rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def directions(d0):
    raw = st.lists(st.integers(-3, 3), min_size=d0, max_size=d0).filter(any)
    return raw.map(lambda v: primitive_direction(v)[0])


@st.composite
def arrangements(draw):
    """d0 in 1-4 and 0-10 breaklines: random ones, repeats of earlier ones,
    parallel shifts of earlier ones, and ones through a shared point."""
    d0 = draw(st.integers(1, 4))
    n = draw(st.integers(0, 10))
    point = draw(st.tuples(*[rationals] * d0))
    out = []
    for _ in range(n):
        kind = draw(st.sampled_from(["random", "through", "repeat", "shift"]))
        if kind in ("repeat", "shift") and out:
            bl = draw(st.sampled_from(out))
            shift = draw(rationals.filter(bool)) if kind == "shift" else 0
            out.append(Breakline(bl.direction, bl.offset + shift))
            continue
        d = draw(directions(d0))
        out.append(Breakline(d, dot(d, point) if kind == "through" else draw(rationals)))
    return out


@st.composite
def concurrent(draw):
    """d0 + 1 breaklines through one rational point, among up to 10 in all."""
    d0 = draw(st.integers(1, 4))
    point = draw(st.tuples(*[rationals] * d0))
    normals = draw(st.lists(directions(d0), min_size=d0 + 1, max_size=d0 + 1))
    through = [Breakline(d, dot(d, point)) for d in normals]
    extra = draw(st.lists(st.builds(Breakline, directions(d0), rationals), max_size=9 - d0))
    return draw(st.permutations(through + extra))


@settings(max_examples=600, deadline=None)
@given(arrangements())
def test_matches_the_solve_affine_loop(breaklines):
    assert outcome(check_transversality, breaklines) == outcome(reference_check, breaklines)


@settings(max_examples=300, deadline=None)
@given(concurrent())
def test_concurrent_breaklines_match_the_solve_affine_loop(breaklines):
    got = outcome(check_transversality, breaklines)
    assert got == outcome(reference_check, breaklines)
    assert got.startswith("Violation")  # d0 + 1 normals through one point are dependent


@pytest.mark.parametrize("d0, n", [(1, 21), (3, 21), (4, 15), (5, 13), (12, 11), (3, 20)])
def test_caps_match_the_solve_affine_loop(d0, n):
    # hyperplanes sum_j i^j x_j = i^d0, in general position
    breaklines = [Breakline([i**j for j in range(d0)], i**d0) for i in range(1, n + 1)]
    assert outcome(check_transversality, breaklines) == outcome(reference_check, breaklines)


@pytest.mark.parametrize(
    "breaklines, before",
    [
        ([((1,), 0), ((1,), 0), ((1, 0), 0)], "Violation(indices=(0, 1), point=(Fraction(0, 1),))"),
        ([((1,), 0), ((1, 0), 0)], ("DimensionMismatch", "solve_affine: row of wrong length")),
    ],
)
def test_mixed_dimensions_are_refused_up_front(breaklines, before):
    breaklines = [Breakline(d, q) for d, q in breaklines]
    assert outcome(reference_check, breaklines) == before
    with pytest.raises(DimensionMismatch) as err:
        check_transversality(breaklines)
    assert str(err.value) == "breaklines of dimensions [1, 2] in one arrangement"
