"""The cell sampler of the exact synth check against a brute-force batch of points.

``synthesis._probes`` must put a point strictly inside every open cell of an
arrangement of hyperplanes a . x + b = 0 in Q^d, d = 1 to 3: random ones, and
ones with parallel, concurrent or repeated hyperplanes, or with normals that
do not span Q^d.  Each of its points, and each corner Y + s * e_i, must lie
off every hyperplane in the same cell; no cell may come twice; a point marked
``across`` must have a neighbour (one sign flipped) among the points before
it; and every sign vector that a seeded batch of rational points reaches
(drawn here, without the sampler) must be the sign vector of one of its
points.  ``_cells`` must report each point's sides.  Past ``_MAX_CELL_WORK``
units it raises CapExceeded, and it spends them as it goes.  The check reads
one point of a cell across a checked facet, but the d0 + 1 corners of the
first: a network off f by an affine function that vanishes at the first
probe must still be caught.  The hyperplanes of a chain of max(x + k, ...)
are built reading each argument once, not once per enclosing max.
"""

import random
from fractions import Fraction
from operator import mul, ne

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relugeo.errors import CapExceeded, NotRepresentable
from relugeo.exact import primitive_row
from relugeo.network import Breakline, EffectiveTuple, Neuron, affine_pair, tuple_evaluator
from relugeo.pwa import _compile, parse_pwa
from relugeo.synthesis import _MAX_CELL_WORK, _cells, _check_cells, _corners, _cuts, _probes, _row

F = Fraction

normals = lambda d: st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any)
offsets = st.integers(-4, 4)


@st.composite
def arrangements(draw):
    """(d, rows): integer rows (*a, b) with a != 0, of one of five shapes."""
    d = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(["random", "parallel", "concurrent", "repeated", "nonspanning"]))
    n = draw(st.integers(0 if shape == "random" else 1, 6 if d < 3 else 5))
    if shape == "parallel":
        a = draw(normals(d))
        return d, [(*a, b) for b in draw(st.lists(offsets, min_size=n, max_size=n, unique=True))]
    if shape == "concurrent":  # all through one rational point p
        p = draw(st.lists(st.builds(F, offsets, st.integers(1, 3)), min_size=d, max_size=d))
        rows = []
        for a in draw(st.lists(normals(d), min_size=n, max_size=n)):
            c = sum(x * y for x, y in zip(a, p))  # a . x - c vanishes at p
            rows.append((*(c.denominator * x for x in a), -c.numerator))
        return d, rows
    if shape == "nonspanning":  # normals in the span of one or two fixed vectors
        basis = draw(st.lists(normals(d), min_size=1, max_size=max(1, d - 1)))
        rows = []
        for _ in range(n):
            k = draw(st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis)))
            a = [sum(c * v[i] for c, v in zip(k, basis)) for i in range(d)]
            if any(a):
                rows.append((*a, draw(offsets)))
        return d, rows
    rows = draw(st.lists(st.tuples(normals(d), offsets), min_size=n, max_size=n))
    rows = [(*a, b) for a, b in rows]
    if shape == "repeated" and rows:  # the same hyperplane again, sometimes scaled
        k = draw(st.sampled_from([1, 2, -1]))
        rows += [tuple(k * e for e in draw(st.sampled_from(rows)))]
    return d, rows


def sign_vector(rows, x, D=1):
    """Signs of a . x + b * D over the rows; 0 on a hyperplane."""
    values = (sum(a * c for a, c in zip(row, x)) + row[-1] * D for row in rows)
    return tuple((v > 0) - (v < 0) for v in values)


def brute_force_points(d, seed, count=3000):
    """Rational points X / D near the origin, where the vertices lie, and far out."""
    rng = random.Random(seed)
    for i in range(count):
        span = 12 if i % 4 else 1000
        D = rng.choice([1, 2, 3, 4, 5, 6, 60])
        yield [rng.randint(-span * D, span * D) for _ in range(d)], D


@settings(max_examples=120, deadline=None)
@given(arrangements(), st.integers(0, 2**16))
def test_a_point_in_every_cell_the_batch_reaches(arrangement, seed):
    d, rows = arrangement
    distinct = sorted({primitive_row(row)[0] for row in rows})  # a repeat flips with its copy
    reached, facets = [], []
    for Y, E, s, across in _probes(rows, d, [0]):
        assert len(Y) == d and s > 0
        signs = sign_vector(rows, Y, E)
        assert 0 not in signs  # off every hyperplane
        assert all(sign_vector(rows, Z, E) == signs for Z in _corners(Y, s))
        once = sign_vector(distinct, Y, E)
        assert not across or any(sum(map(ne, once, seen)) == 1 for seen in facets)
        reached.append(signs)
        facets.append(once)
    assert len(set(reached)) == len(reached)  # each cell once
    batch = {sign_vector(rows, X, D) for X, D in brute_force_points(d, seed)}
    assert {signs for signs in batch if 0 not in signs} <= set(reached)


@settings(max_examples=60, deadline=None)
@given(arrangements())
def test_cells_reports_the_sides_of_its_points(arrangement):
    d, rows = arrangement
    rows = sorted({primitive_row(row)[0] for row in rows})  # one row per hyperplane
    for X, D, sides, _ in _cells(rows, d, [0]):
        assert list(sides) == [sum(map(mul, row, X)) + row[-1] * D for row in rows]


def test_no_hyperplanes_is_one_cell():
    for d in (1, 2, 3):
        assert list(_probes([], d, [0])) == [([0] * d, 1, 1, False)]


def test_cap_raises_cap_exceeded():
    rng = random.Random(5)
    rows = [(*(rng.randint(-3, 3) or 1 for _ in range(3)), rng.randint(-9, 9)) for _ in range(400)]
    message = f"the cell check exceeds its cap of {_MAX_CELL_WORK} units of work"
    work = [0]
    cells = _probes(rows, 3, work)
    next(cells)  # the sweep spends as it goes: the first cell costs little
    assert work[0] < _MAX_CELL_WORK // 100
    with pytest.raises(CapExceeded) as err:
        for _ in cells:
            pass
    assert str(err.value) == message
    with pytest.raises(CapExceeded):  # work already spent counts too
        list(_probes(rows[:4], 3, [_MAX_CELL_WORK]))


@pytest.mark.parametrize("d0", [1, 2])
def test_first_cell_is_checked_at_its_corners(d0):
    e1 = (1,) + (0,) * (d0 - 1)
    x1 = Breakline(e1, 0)
    num, m, _, knots = _compile(parse_pwa(f"relu(relu(affine({list(e1)},0)))"))
    (Y, E, _, first), (Z, G, _, second) = _probes([_row(x1)], d0, [0])
    assert not first and second
    # f = relu(x1); the network adds (x1 - y) + c * relu(x1), which vanishes at
    # both probes y and z (c * z1 = y1 - z1) but nowhere else
    y, z = Fraction(Y[0], E), Fraction(Z[0], G)
    *pair, shift = affine_pair(e1, 0)
    net = EffectiveTuple((Neuron(x1, 1 + (y - z) / z, 1), *pair), shift - y)
    rows = [_row(x1)]  # relu(relu(x1)) has no other hyperplane
    with pytest.raises(NotRepresentable, match="ResidualNotAffine"):
        _check_cells(num, m, knots[2], tuple_evaluator(net).kernel, rows, d0, [0])
    f = EffectiveTuple((Neuron(x1, 1, 1),), 0)
    assert _check_cells(num, m, knots[2], tuple_evaluator(f).kernel, rows, d0, [0]) is None


def test_max_chain_reads_each_argument_once():
    e = "relu(relu(affine([1],0)) + affine([0],-1))"
    for k in range(18):  # max(x + 17, max(x + 16, ...)) is relu(x + 17)
        e = f"max(affine([1],{k}), {e})"
    _, _, _, knots = _compile(parse_pwa(e))
    work = [0]
    assert _cuts(knots, 1, work) >= {(1, 17), (1, 0), (1, -1)}
    assert work[0] < 50_000  # 2^18 walks of the innermost relu would cost millions
