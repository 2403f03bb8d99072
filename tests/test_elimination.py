"""The integer elimination against the Fraction Gauss-Jordan it replaced.

``exact.solve_affine`` scales each equation to integers and runs one
fraction-free Gauss-Jordan elimination (``exact.eliminate``); ``rank`` and
``in_span`` read it.  The reference here is the ``Fraction`` Gauss-Jordan that
``solve_affine`` ran before, kept verbatim: the reduced row echelon form is
unique, so both must give the same particular solution, null basis and None,
and raise the same exception with the same message, Fraction for Fraction.

``minimality`` reads the normals of span(gens) off one elimination of
[gens^T | I] per direction group.  ``compute_J_single`` and ``compute_J_pair``
must keep the hits of the per-pattern loop ``in_span(sigma_affine(...))``,
generators that are rational, zero, parallel or of the wrong length included.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from relugeo.canonical import CanonicalForm, sigma_affine
from relugeo.errors import DimensionMismatch
from relugeo.exact import eliminate, in_span, is_zero, rank, rat, solve_affine, vec
from relugeo.minimality import compute_J_pair, compute_J_single
from relugeo.network import Breakline

F = Fraction


# -- the Fraction Gauss-Jordan -------------------------------------------------


def reference_solve(rows, rhs, ncols):
    aug = []
    for row, b in zip(rows, rhs):
        row = vec(row)
        if len(row) != ncols:
            raise DimensionMismatch("solve_affine: row of wrong length")
        aug.append(list(row) + [rat(b)])
    n_rows = len(aug)
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, n_rows) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = aug[r][col]
        aug[r] = [x / inv for x in aug[r]]
        for i in range(n_rows):
            if i != r and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == n_rows:
            break
    for i in range(r, n_rows):
        if aug[i][ncols] != 0:
            return None
    particular = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        particular[col] = aug[i][ncols]
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, col in enumerate(pivots):
            v[col] = -aug[i][fc]
        basis.append(tuple(v))
    return tuple(particular), basis


def reference_rank(rows):
    rows = list(rows)
    if not rows:
        return 0
    ncols = len(rows[0])
    _, nullspace = reference_solve(rows, [0] * len(rows), ncols)
    return ncols - len(nullspace)


def reference_in_span(v, basis):
    v = vec(v)
    basis = [vec(b) for b in basis]
    for b in basis:
        if len(b) != len(v):
            raise DimensionMismatch("in_span: mixed vector lengths")
    rows = [[b[k] for b in basis] for k in range(len(v))]
    sol = reference_solve(rows, v, len(basis))
    if sol is None:
        return None
    coeffs, nullspace = sol
    if len(basis) == 2 and nullspace and not is_zero(basis[0]):
        return coeffs[:1]
    return coeffs


def outcome(fn, *args):
    """repr of the result, so Fraction and int differ, or (type, message) raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


# -- systems: integer and rational, zero and dependent rows, bad lengths --------

# ints, Fractions and the literals rat() reads, zero often
entries = st.one_of(
    st.sampled_from([0, 0, 1, -1, 2]),
    st.integers(-6, 6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.sampled_from(["1/2", "-3/4", "0", "5", "2/6"]),
)


@st.composite
def systems(draw):
    """(rows, rhs, ncols): rows drawn at random, as zero rows or as
    combinations of earlier rows; now and then a row of the wrong length, a
    right-hand side list of another length, or an unreadable literal."""
    ncols = draw(st.integers(0, 4))
    rows, rhs = [], []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["random", "random", "zero", "combination", "wrong length"]))
        if kind == "zero":
            row = [0] * ncols
        elif kind == "combination" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(st.integers(-3, 3)), draw(st.fractions(-2, 2, max_denominator=3))
            row = [s * rat(x) + t * rat(y) for x, y in zip(a, b)]
        elif kind == "wrong length":
            row = draw(st.lists(entries, min_size=ncols + 1, max_size=ncols + 1))
            row = row[: draw(st.sampled_from([ncols - 1, ncols + 1]))] if ncols else row
        else:
            row = draw(st.lists(entries, min_size=ncols, max_size=ncols))
        rows.append(row)
        rhs.append(draw(entries))
    if rows and draw(st.integers(0, 9)) == 0:
        rhs = rhs[: draw(st.integers(0, len(rhs)))]
    if rhs and draw(st.integers(0, 19)) == 0:
        rhs[draw(st.integers(0, len(rhs) - 1))] = "x"
    return rows, rhs, ncols


@settings(max_examples=1500, deadline=None)
@given(systems())
def test_solve_affine_matches_fraction_gauss_jordan(system):
    assert outcome(solve_affine, *system) == outcome(reference_solve, *system)


@settings(max_examples=500, deadline=None)
@given(systems())
def test_rank_matches_fraction_gauss_jordan(system):
    rows, _, _ = system
    assert outcome(rank, rows) == outcome(reference_rank, rows)


@settings(max_examples=1000, deadline=None)
@given(st.integers(0, 4), st.data())
def test_in_span_matches_fraction_gauss_jordan(d, data):
    vectors = st.lists(entries, min_size=d, max_size=d)
    basis = data.draw(st.lists(vectors, max_size=3))
    how = data.draw(st.sampled_from(["random", "in span", "wrong length"]))
    v = data.draw(vectors)
    if how == "in span" and basis:
        cs = data.draw(st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)))
        v = [sum((c * rat(b[k]) for c, b in zip(cs, basis)), F(0)) for k in range(d)]
    elif how == "wrong length":
        v = [*v, 1]
    if len(basis) == 2 and data.draw(st.booleans()):
        basis[1] = [3 * rat(x) for x in basis[0]]  # parallel generators
    assert outcome(in_span, v, basis) == outcome(reference_in_span, v, basis)


def test_named_systems():
    cases = [
        ([], [], 0),
        ([], [], 3),
        ([[]], [0], 0),
        ([[]], [1], 0),
        ([[0, 0], [0, 0]], [0, 0], 2),
        ([[0, 0]], ["1/2"], 2),
        ([[1, 2], [2, 4]], [3, 6], 2),
        ([[1, 2], [2, 4]], [3, 7], 2),
        ([[F(1, 2), 0, 1], [0, F(1, 3), 1]], ["1", "-1/5"], 3),
        ([[1, 2, 3]], [0], 2),
        ([[1, 2]], ["1/0"], 2),
    ]
    for system in cases:
        assert outcome(solve_affine, *system) == outcome(reference_solve, *system)


def test_every_pivot_ends_equal():
    rows = [[2, 4, 1, 7], [3, -1, 0, 2], [0, 5, 5, -3]]
    pivots, p = eliminate(rows, 3)
    assert pivots == [0, 1, 2]
    assert [rows[i][c] for i, c in enumerate(pivots)] == [p] * 3
    assert all(rows[i][c] == 0 for i in range(3) for c in range(3) if c != pivots[i])


# -- the normals of span(gens) --------------------------------------------------

GENERATORS = {
    "rational": [(F(1, 2), 0)],
    "rational pair": [(F(1, 2), 0), (0, F(2, 3))],
    "zero": [(0, 0)],
    "zero and a direction": [(0, 0), (1, 1)],
    "parallel": [(2, 4), (1, 2)],
    "integer pair": [(1, -1), (3, 1)],
    "literals": [("1/3", "-2/3")],
}
POOL = [(1, 0), (0, 1), (1, 2), (1, -1)]
offsets = st.sampled_from([F(-1), F(0), F(1, 2), F(2)])
kinks = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@st.composite
def forms(draw, gens):
    """d0 = 2, n 1-5 on four directions.  The affine part cancels a random
    pattern's correction up to a combination of the generators, or is random."""
    keys = st.tuples(st.sampled_from(POOL), offsets)
    keys = draw(st.lists(keys, min_size=1, max_size=5, unique=True))
    terms = tuple((Breakline(d, q), draw(kinks)) for d, q in sorted(keys))
    sigma = draw(st.lists(st.sampled_from((1, -1)), min_size=len(terms), max_size=len(terms)))
    affine = [-a for a in sigma_affine(CanonicalForm(terms, (0, 0), 0, 2), sigma)[0]]
    if draw(st.booleans()):
        for g in gens:
            c = draw(st.integers(-2, 2))
            affine = [a + c * rat(e) for a, e in zip(affine, g)]
    else:
        affine = draw(st.lists(kinks, min_size=2, max_size=2))
    return CanonicalForm(terms, tuple(affine), 0, 2)


def reference_hits(cf, gens):
    patterns = product((1, -1), repeat=cf.n)
    return [s for s in patterns if in_span(sigma_affine(cf, s)[0], gens) is not None]


@pytest.mark.parametrize("name", GENERATORS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_span_hits_match_per_pattern_loop(name, data):
    gens = GENERATORS[name]
    cf = data.draw(forms(gens))
    compute = compute_J_single if len(gens) == 1 else compute_J_pair
    assert compute(cf, *gens) == reference_hits(cf, gens)


@pytest.mark.parametrize("gens", [[(1,)], [(1, 0, 0)], [(1, 0), (1,)], [(F(1, 2),), (0, 1)]])
def test_wrong_length_generators_raise_dimension_mismatch(gens):
    cf = CanonicalForm(((Breakline((1, 0), 0), F(1)),), (F(1, 2), 0), 0, 2)
    compute = compute_J_single if len(gens) == 1 else compute_J_pair
    with pytest.raises(DimensionMismatch, match="^solve_affine: row of wrong length$"):
        compute(cf, *gens)
    with pytest.raises(DimensionMismatch):
        reference_hits(cf, gens)
