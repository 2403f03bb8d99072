"""Exact rational scalars, vectors and small dense linear algebra.

Everything downstream (canonical forms, minimality, synthesis) relies on
equality tests being exact, so arithmetic is over ``Fraction`` or over
integers scaled by a common denominator, never floats.  Each literal shape has
one reader: ``rat_parts`` one literal (plain "p" or "p/q" by ``int``, any other
by ``Fraction``), ``block_parts`` plain literals joined by ","; ``row_parts``
tries the row as one block, then reads it literal by literal.
Directions of hyperplanes are stored as primitive integer vectors: not all
zero, gcd one, first nonzero entry positive.  The sign convention doubles as
the orientation cone: a nonzero vector is positively oriented iff its first
nonzero coordinate is positive, which is decidable over the rationals without
square roots.  ``primitive_row`` reads a direction and its orientation off an
integer row.  ``compiled`` is the one wrapper that turns a function compiled
to integers on a point's common denominator (``scaled_point``) into an exact
evaluator that checks the point's length, and leaves the integer function on
the evaluator as its ``kernel``; ``relu_sum`` is the one such function for
expressions, tuples, forms and nets, over a triple (row, c, relus) that
``relu_terms`` reads back as kinks on breaklines plus an affine part.

There is one elimination routine, ``eliminate``: fraction-free Gauss-Jordan on
integer rows.  ``minimality._span`` and ``synthesis.check_transversality``
read it directly; ``solve_affine`` reads its particular solution and null
space off it, and ``rank``, ``in_span`` and ``affine_fit`` read ``solve_affine``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import DimensionMismatch, ZeroVector

Rational = Fraction


# Largest decimal exponent a literal may carry: "1e100000000" would make
# Fraction build a hundred-million-digit integer.
_MAX_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)")


# Integer and "p/q" literals with a nonzero denominator, ASCII, no whitespace:
# every supported Python's Fraction reads them as int() does.
_PLAIN = r"[-+]?[0-9]+(?:/0*[1-9][0-9]*)?"
_PLAIN_LITERAL = re.compile(_PLAIN, re.ASCII)
_PLAIN_ROW = re.compile(rf"{_PLAIN}(?:,{_PLAIN})*", re.ASCII)


def block_parts(text, count):
    """``(nums, dens)``, unreduced, of ``count`` plain literals joined by "," in
    ``text``, else None: one pattern check, then "p" is read as "p/1" and every
    part by one ``int``."""
    literals = text.split(",")
    if len(literals) != count or not _PLAIN_ROW.fullmatch(text):
        return None
    text = ",".join([s if "/" in s else s + "/1" for s in literals])
    try:
        flat = list(map(int, text.replace("/", ",").split(",")))
    except ValueError:  # more digits than int() allows
        return None
    return flat[0::2], flat[1::2]


def row_parts(values) -> list[tuple[int, int]]:
    """``rat_parts`` of each entry of a row, with its errors, up to reduction:
    ``block_parts`` of the row joined by "," when every entry is a plain
    string, parts unreduced, else ``rat_parts`` entry by entry."""
    values = list(values)
    try:
        parts = block_parts(",".join(values), len(values))
    except TypeError:  # an entry that is not a string
        parts = None
    return [rat_parts(v) for v in values] if parts is None else list(zip(*parts))


def rat_parts(value) -> tuple[int, int]:
    """(numerator, denominator > 0) in lowest terms of any literal ``rat`` accepts:
    a plain string by ``int``, any other through ``Fraction``, where a zero
    denominator or an exponent above ``_MAX_EXPONENT`` raises ValueError."""
    # str first: isinstance against Fraction, an ABC, is slow for other types
    if isinstance(value, str):
        if _PLAIN_LITERAL.fullmatch(value):
            num, _, den = value.partition("/")
            num, den = int(num), int(den) if den else 1
            g = gcd(num, den)
            return num // g, den // g
        exponent = _EXPONENT.search(value)
        if exponent and abs(int(exponent.group(1))) > _MAX_EXPONENT:
            raise ValueError(f"exponent of {value!r} exceeds {_MAX_EXPONENT}")
        try:
            parsed = Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
        return parsed.numerator, parsed.denominator
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"cannot interpret {value!r} as a rational")


def rat(value) -> Fraction:
    """Parse a rational from "p/q", "p", a decimal string, an int or a Fraction.

    ``rat_parts`` does the parsing and raises its errors.
    """
    if type(value) is Fraction:
        return value
    return Fraction(*rat_parts(value))


def rat_str(value: Fraction) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is one."""
    return str(value if type(value) is Fraction else Fraction(value))


def vec(values) -> tuple[Fraction, ...]:
    return tuple(rat(v) for v in values)


def scaled_point(x) -> tuple[tuple[int, ...], int]:
    """A point as integer numerators over one common denominator.

    Returns ``(X, D)`` with D > 0 the lcm of the coordinates' denominators and
    X = D * x.  Positively homogeneous functions of (x, 1), such as responses
    and piecewise-affine expressions, can then be evaluated on (X, D) in
    integers alone.
    """
    x = vec(x)
    d = lcm(*(c.denominator for c in x))
    return tuple(c.numerator * (d // c.denominator) for c in x), d


def dot(a, b) -> Fraction:
    if len(a) != len(b):
        raise DimensionMismatch(f"dot of length {len(a)} with length {len(b)}")
    return sum((Fraction(x) * y for x, y in zip(a, b)), Fraction(0))


def is_zero(a) -> bool:
    return all(x == 0 for x in a)


def compiled(num, m, d0, what):
    """Exact evaluator x -> num(X, D) / (m * D) with (X, D) = ``scaled_point(x)``.

    ``num`` is an integer-compiled function of a scaled point and m > 0 its
    fixed denominator.  A point whose length is not d0 raises
    DimensionMismatch naming ``what``; ``d0=None`` accepts any length.  The
    evaluator carries ``kernel = (num, m)`` for callers that hold a point as
    integers already: num is positively homogeneous in (X, D), so any D > 0
    with X = D * x, reduced or not, gives the same value, and num checks no
    length.
    """

    def evaluate(x) -> Fraction:
        X, D = scaled_point(x)
        if d0 is not None and len(X) != d0:
            raise DimensionMismatch(f"point has length {len(X)}, {what} expects {d0}")
        return Fraction(num(X, D), m * D)

    evaluate.kernel = num, m
    return evaluate


def relu_sum(row, c, relus):
    """(X, D) -> row . X + c * D + sum k * (r . X + s * D)_+ over the integer
    triples (r, s, k) in ``relus``: the one numerator of expressions
    (``pwa._compile``) and of tuples, forms and nets (``network._relu_kernel``),
    read back by ``relu_terms``."""

    def num(X, D) -> int:
        total = sum(map(mul, row, X)) + c * D
        for r, s, k in relus:
            pre = sum(map(mul, r, X)) + s * D
            if pre > 0:
                total += k * pre
        return total

    return num


def relu_terms(row, c, relus):
    """``(kinks, row, c)``: the triple of ``relu_sum`` read as summed kinks on
    breaklines plus an affine part, the one reader of expressions, tuples,
    forms and nets.  With (d, g) = primitive_row(r), relu k (r . X + s D)_+
    is kink k |g| on {d . x = -s / g}, keyed (d, qn, qd) with qn / qd = -s / g
    in lowest terms and qd > 0, plus its argument, added to row and c, when
    g < 0, as (-z)_+ = z_+ - z.  A relu with r = 0 folds k * max(s, 0) into c.
    ``kinks`` maps each key, in order of first appearance, to its integer
    kink sum, zero sums kept."""
    kinks, flipped = {}, []
    for r, s, k in relus:
        if not any(r):
            c += k * max(s, 0)
            continue
        d, g = primitive_row(r)
        a = abs(g)
        h = gcd(s, a)
        key = d, (s if g < 0 else -s) // h, a // h
        kinks[key] = kinks.get(key, 0) + k * a
        if g < 0:
            flipped.append((r, k))
            c += k * s
    if flipped:
        rs, ks = zip(*flipped)
        row = tuple(e + sum(map(mul, col, ks)) for e, col in zip(row, zip(*rs)))
    return kinks, row, c


def primitive_row(w) -> tuple[tuple[int, ...], int]:
    """Write a nonzero integer row as g * d with d primitive and lex-positive.

    Returns ``(d, g)``: |g| is the gcd of the row and the sign of g is the
    sign of its first nonzero entry, the row's orientation.
    """
    g = gcd(*w)
    if not g:
        raise ZeroVector("cannot orient the zero vector")
    if next(filter(None, w)) < 0:
        g = -g
    return (tuple(w) if g == 1 else tuple([e // g for e in w])), g


def primitive_direction(v) -> tuple[tuple[int, ...], Fraction]:
    """Write a nonzero rational vector as s * d with d primitive and lex-positive.

    Returns ``(d, s)`` where d is an integer vector with gcd one whose first
    nonzero entry is positive, and s is a nonzero rational with v = s * d
    componentwise.  The sign of s is the orientation of v.
    """
    w, denom = scaled_point(v)
    d, g = primitive_row(w)
    return d, Fraction(g, denom)


def eliminate(rows, ncols):
    """Fraction-free Gauss-Jordan (Bareiss 1968) of integer rows, in place.

    Pivots on the first ``ncols`` columns only.  With p the new pivot and prev
    the last (1 at first), each other row becomes (p * row - row[col] *
    pivot_row) // prev, an exact division.  Returns ``(pivots, p)``: the first
    rows carry the pivots, which all end equal to p, so ``rows / p`` is the
    reduced row echelon form; the other rows are zero on the first ncols.
    """
    pivots, p = [], 1
    for col in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        pivot, prev, p = rows[r], p, rows[r][col]
        for i, row in enumerate(rows):
            if i != r:
                e = row[col]
                rows[i] = [(p * x - e * y) // prev for x, y in zip(row, pivot)]
        pivots.append(col)
    return pivots, p


def solve_affine(rows, rhs, ncols):
    """Solve the exact linear system rows . x = rhs for x of length ncols.

    Returns ``(particular, nullspace_basis)`` or None when inconsistent.
    ``nullspace_basis`` is a (possibly empty) list of vectors spanning the
    solution space of the homogeneous system.  Both are read off one
    ``eliminate`` of the equations scaled to integers.
    """
    aug = []
    for row, b in zip(rows, rhs):
        row = vec(row)
        if len(row) != ncols:
            raise DimensionMismatch("solve_affine: row of wrong length")
        aug.append(scaled_point((*row, b))[0])
    pivots, p = eliminate(aug, ncols)
    if any(row[ncols] for row in aug[len(pivots) :]):
        return None

    def column(c, sign):  # x[c] = 1 for c < ncols, x[pivot_i] = sign * aug[i][c] / p
        x = [Fraction(c == j) for j in range(ncols)]
        for row, col in zip(aug, pivots):
            x[col] = Fraction(sign * row[c], p)
        return tuple(x)

    return column(ncols, 1), [column(c, -1) for c in range(ncols) if c not in pivots]


def rank(rows) -> int:
    """Rank of the matrix with the given rows: columns minus nullity."""
    rows = list(rows)
    if not rows:
        return 0
    ncols = len(rows[0])
    _, nullspace = solve_affine(rows, [0] * len(rows), ncols)
    return ncols - len(nullspace)


def in_span(v, basis):
    """Coefficients expressing v in the span of the basis vectors, or None.

    When two generators are linearly dependent and the first is nonzero, the
    basis is reduced to its first generator and a single coefficient is
    reported.
    """
    v = vec(v)
    basis = [vec(b) for b in basis]
    for b in basis:
        if len(b) != len(v):
            raise DimensionMismatch("in_span: mixed vector lengths")
    rows = [[b[k] for b in basis] for k in range(len(v))]
    sol = solve_affine(rows, v, len(basis))
    if sol is None:
        return None
    coeffs, nullspace = sol
    if len(basis) == 2 and nullspace and not is_zero(basis[0]):
        # the first column is the only pivot, so the particular solution is
        # (c, 0) with c the coefficient on the first generator alone
        return coeffs[:1]
    return coeffs


def affine_fit(points, values):
    """The unique affine map x -> g.x + c through d0+1 points, or None.

    None signals that the points are affinely dependent (the interpolation
    problem is singular or inconsistent).
    """
    points = [vec(p) for p in points]
    d0 = len(points[0])
    for p in points:
        if len(p) != d0:
            raise DimensionMismatch("affine_fit: mixed point dimensions")
    if len(points) != d0 + 1 or len(values) != d0 + 1:
        raise DimensionMismatch("affine_fit needs exactly d0+1 points and values")
    rows = [list(p) + [Fraction(1)] for p in points]
    sol = solve_affine(rows, [rat(v) for v in values], d0 + 1)
    if sol is None or sol[1]:
        return None
    particular = sol[0]
    return tuple(particular[:d0]), particular[d0]
