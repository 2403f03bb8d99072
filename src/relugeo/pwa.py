"""Expression language for continuous piecewise-affine functions.

Grammar (whitespace-insensitive, rationals as ``p/q`` or decimals)::

    expr   := product ('+' product)*
    product:= signed ('*' signed)*
    signed := '-' signed | atom
    atom   := 'affine' '(' '[' num (',' num)* ']' ',' num ')'
            | 'relu' '(' expr ')'
            | 'max' '(' expr ',' expr ')'
            | 'min' '(' expr ',' expr ')'
            | '(' expr ')'
            | num                       -- only as a factor of '*'

Unary minus binds tighter than '*', which binds tighter than '+'.  At most one
factor of a product may be a function; the rest must be scalar literals.
Factors nest at most ``_MAX_DEPTH`` deep, each parenthesis, call or unary
minus adding a level, which bounds every recursive walk over a parsed tree.

One compile, ``_compile``, evaluates an expression and finds its flat form:
each flat subtree is one triple for ``exact.relu_sum``, the numerator of
expressions, tuples, forms and nets alike, and ``_read_flat`` reads it off
with ``exact.relu_terms``, as ``canonical`` reads tuples, forms and nets.
Every other subtree keeps its knots, from which synthesis builds the
hyperplanes off which it is affine.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import DimensionMismatch, NotFlat, ParseError
from .exact import compiled, rat, rat_parts, rat_str, relu_sum, relu_terms, scaled_point
from .network import Breakline


@dataclass(frozen=True)
class Affine:
    coeffs: tuple[Fraction, ...]
    const: Fraction


@dataclass(frozen=True)
class Relu:
    child: "PWAExpr"


@dataclass(frozen=True)
class Max:
    left: "PWAExpr"
    right: "PWAExpr"


@dataclass(frozen=True)
class Min:
    left: "PWAExpr"
    right: "PWAExpr"


@dataclass(frozen=True)
class Sum:
    children: tuple["PWAExpr", ...]


@dataclass(frozen=True)
class Scale:
    factor: Fraction
    child: "PWAExpr"


@dataclass(frozen=True)
class Neg:
    child: "PWAExpr"


PWAExpr = Affine | Relu | Max | Min | Sum | Scale | Neg


@dataclass(frozen=True)
class PWASpec:
    expr: PWAExpr
    breaklines: tuple[Breakline, ...] | str  # or "auto": synthesize reads them off the flat form


# the parser spends about four frames per level; Python allows 1000 in all
_MAX_DEPTH = 100

# any other non-space character is a "bad" token, reported when the parser reaches it
_TOKEN = re.compile(r"\s*(?:(\d+(?:\.\d+)?(?:/\d+)?)|(affine|relu|max|min)|([()\[\],+*-])|(\S))")


class _Lexer:
    def __init__(self, text):
        self.tokens = [  # (kind, value, 1-based position), scanned once
            ({1: "num", 2: "name", 4: "bad"}.get(i, m[i]), m[i], m.start(i) + 1)
            for m in _TOKEN.finditer(text)
            for i in (m.lastindex,)  # exactly one of the four alternatives matched
        ]
        self.tokens.append((None, None, len(text) + 1))
        self.i = 0  # index of the next token
        self.depth = 0  # nesting level of the factor being parsed

    def peek(self):
        """(kind, value, 1-based position) of the next token; kind None at end."""
        tok = self.tokens[self.i]
        if tok[0] == "bad":
            raise ParseError(tok[2], {"a token"}, tok[1])
        return tok

    def next(self):
        tok = self.peek()
        if tok[0] is not None:
            self.i += 1
        return tok

    def expect(self, kind, what=None):
        k, v, at = self.next()
        if k != kind:
            raise ParseError(at, {what or repr(kind)}, v)
        return v


def parse_pwa(text: str) -> PWAExpr:
    """Parse an expression, raising ParseError with a 1-based position."""
    lx = _Lexer(text)
    expr = _parse_sum(lx)
    k, v, at = lx.peek()
    if k is not None:
        raise ParseError(at, {"'+'", "end of input"}, v)
    return expr


def _parse_sum(lx):
    parts = [_parse_product(lx)]
    while lx.peek()[0] == "+":
        lx.next()
        parts.append(_parse_product(lx))
    return parts[0] if len(parts) == 1 else Sum(tuple(parts))


def _parse_product(lx):
    items = [_parse_signed(lx)]
    while lx.peek()[0] == "*":
        lx.next()
        items.append(_parse_signed(lx))
    coeff = Fraction(1)
    exprs = []
    for item, at in items:
        if isinstance(item, Fraction):
            coeff *= item
        else:
            exprs.append((item, at))
    if not exprs:
        raise ParseError(items[0][1], {"a function expression (bare scalars need '* expr')"})
    if len(exprs) > 1:
        raise ParseError(exprs[1][1], {"a scalar factor (functions cannot be multiplied)"})
    expr = exprs[0][0]
    if coeff != 1:
        expr = Scale(coeff, expr)
    return expr


def _parse_signed(lx):
    """Returns (Fraction | expr, 1-based position)."""
    k, v, at = lx.peek()
    if lx.depth == _MAX_DEPTH:
        raise ParseError(at, {f"at most {_MAX_DEPTH} levels of nesting"}, v)
    lx.depth += 1
    if k == "-":
        lx.next()
        inner, _ = _parse_signed(lx)
        result = (-inner if isinstance(inner, Fraction) else Neg(inner)), at
    else:
        result = _parse_atom(lx)
    lx.depth -= 1
    return result


def _parse_number(lx):
    """Rational literal with an optional leading minus."""
    neg = False
    while lx.peek()[0] == "-":
        lx.next()
        neg = not neg
    value = rat(lx.expect("num", "a rational"))
    return -value if neg else value


def _parse_atom(lx):
    k, v, at = lx.next()
    if k == "num":
        return rat(v), at
    if k == "(":
        expr = _parse_sum(lx)
        lx.expect(")", "')'")
        return expr, at
    if k == "name":
        lx.expect("(", "'('")
        if v == "affine":
            lx.expect("[", "'['")
            coeffs = [_parse_number(lx)]
            while lx.peek()[0] == ",":
                lx.next()
                coeffs.append(_parse_number(lx))
            lx.expect("]", "']'")
            lx.expect(",", "','")
            const = _parse_number(lx)
            lx.expect(")", "')'")
            return Affine(tuple(coeffs), const), at
        if v == "relu":
            child = _parse_sum(lx)
            lx.expect(")", "')'")
            return Relu(child), at
        left = _parse_sum(lx)
        lx.expect(",", "','")
        right = _parse_sum(lx)
        lx.expect(")", "')'")
        return (Max if v == "max" else Min)(left, right), at
    raise ParseError(
        at, {"'affine'", "'relu'", "'max'", "'min'", "'('", "'-'", "a rational"}, v
    )


def pretty(e: PWAExpr) -> str:
    """Grammar text for an expression; parse(pretty(e)) == e."""
    if isinstance(e, Affine):
        return f"affine([{', '.join(rat_str(c) for c in e.coeffs)}], {rat_str(e.const)})"
    if isinstance(e, Relu):
        return f"relu({pretty(e.child)})"
    if isinstance(e, Max):
        return f"max({pretty(e.left)}, {pretty(e.right)})"
    if isinstance(e, Min):
        return f"min({pretty(e.left)}, {pretty(e.right)})"
    if isinstance(e, Sum):
        return " + ".join(
            f"({pretty(c)})" if isinstance(c, Sum) else pretty(c) for c in e.children
        )
    if isinstance(e, Scale):
        child = pretty(e.child)
        if isinstance(e.child, Sum):
            child = f"({child})"
        return f"{rat_str(e.factor)} * {child}"
    if isinstance(e, Neg):
        child = pretty(e.child)
        if isinstance(e.child, (Sum, Scale)):
            child = f"({child})"
        return f"-{child}"
    raise TypeError(f"not a PWA expression: {e!r}")


def expr_dim(e: PWAExpr) -> int:
    """Ambient dimension shared by all Affine leaves."""
    dims = set()

    def walk(node):
        if isinstance(node, Affine):
            dims.add(len(node.coeffs))
        elif isinstance(node, (Relu, Scale, Neg)):
            walk(node.child)
        elif isinstance(node, (Max, Min)):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Sum):
            for c in node.children:
                walk(c)

    walk(e)
    if len(dims) != 1:
        raise DimensionMismatch(f"affine leaves disagree on dimension: {sorted(dims)}")
    return dims.pop()


def evaluator(e: PWAExpr):
    """Compile an expression into an exact evaluator x -> e(x).

    Every node is positively homogeneous in (x, 1), and max, min and relu
    commute with positive scaling.  So with x = X / D (``scaled_point``) each
    node's value is N / (m * D), where the integer N depends on X and D only
    and the denominator m > 0 is fixed here (``_compile``, ``exact.relu_sum``).
    Leaves of different dimensions raise DimensionMismatch here, a point of
    the wrong length raises it on each call.
    """
    num, m, flat, _ = _compile(e)
    return compiled(num or relu_sum(*flat), m, expr_dim(e), "leaf")


def eval_pwa(e: PWAExpr, x) -> Fraction:
    return evaluator(e)(x)


def _compile(e):
    """(num, m, flat, knots) with e(X / D) == num(X, D) / (m * D) for integer X and D > 0.

    ``flat`` is the integer triple (row, c, relus) when every Relu and Max/Min
    argument in the subtree is affine, and num and knots are then None (a caller
    that evaluates it builds relu_sum(*flat)), else the NotFlat message of the
    first that is not.  Built bottom up: an Affine leaf is one row over the lcm
    of its denominators and no relus, relu(a) one relu on a zero row, max(a, b)
    b + relu(a - b) and min(a, b) a - relu(a - b); Scale and Neg multiply row,
    c and each k, and a Sum adds its flat children's triples at the common m.

    ``knots`` of a subtree that is not flat is (triples, args, cost): it is
    affine off the kinked breaklines of each flat triple and, for each relu
    argument that is not affine (a - b for max and min) as a compile (num, m,
    flat, knots) of its own, off its hyperplanes and the zero set of its affine
    piece on each of their cells (``synthesis`` reads them).  ``cost`` counts
    the terms one call of num reads (``_cost``).  The argument a - b of a
    max/min holds every hyperplane of a and b, so the base b (or a) adds only
    its triple, when a - b is one triple in which their kinks may cancel.
    """
    if isinstance(e, Affine):
        (*row, c), m = scaled_point((*e.coeffs, e.const))
        return None, m, (tuple(row), c, ()), None
    if isinstance(e, Relu):
        child, m, flat, knots = _compile(e.child)
        if _affine(flat):
            return None, m, ((0,) * len(flat[0]), 0, ((*flat[:2], 1),)), None
        child = child or relu_sum(*flat)
        num = lambda X, D: max(child(X, D), 0)
        arg = child, m, flat, knots
        return num, m, "relu argument is not affine", ((), (arg,), _cost(flat, knots) + 1)
    if isinstance(e, (Max, Min)):
        [(left, wl, fl, kl), (right, wr, fr, kr)], m = _common((e.left, e.right))
        if _affine(fl) and _affine(fr):
            (a, ca, _), (b, cb, _) = _scaled(fl, wl), _scaled(fr, wr)
            diff = tuple(x - y for x, y in zip(a, b)), ca - cb
            flat = (b, cb, ((*diff, 1),)) if isinstance(e, Max) else (a, ca, ((*diff, -1),))
            return None, m, flat, None
        left, right = left or relu_sum(*fl), right or relu_sum(*fr)
        pick, base = (max, fr) if isinstance(e, Max) else (min, fl)
        num = lambda X, D: pick(wl * left(X, D), wr * right(X, D))
        what = "max/min argument is not affine"
        diff = lambda X, D: wl * left(X, D) - wr * right(X, D)
        sub = _knots([(fl, kl), (fr, kr)])
        if kl is None and kr is None:  # a - b of flat a and b is one triple
            arg = diff, m, _sum([_scaled(fl, wl), _scaled(fr, -wr)]), None
            return num, m, what, ((base,), (arg,), sub[2])
        return num, m, what, ((), ((diff, m, what, sub),), sub[2])
    if isinstance(e, Sum):
        parts, m = _common(e.children)
        flat = _sum([_scaled(flat, w) for _, w, flat, _ in parts if not isinstance(flat, str)])
        kinked = [part for part in parts if isinstance(part[2], str)]
        if not kinked:
            return None, m, flat, None
        flat_num = relu_sum(*flat)  # the flat children in one loop, the rest one by one
        pairs = [(part, w) for part, w, _, _ in kinked]
        num = lambda X, D: flat_num(X, D) + sum(w * part(X, D) for part, w in pairs)
        return num, m, kinked[0][2], _knots([(flat, None), *((f, k) for *_, f, k in kinked)])
    if isinstance(e, (Scale, Neg)):
        child, m, flat, knots = _compile(e.child)
        p, q = rat_parts(e.factor) if isinstance(e, Scale) else (-1, 1)
        if isinstance(flat, str):
            return (lambda X, D: p * child(X, D)), m * q, flat, knots
        return None, m * q, _scaled(flat, p), None
    raise TypeError(f"not a PWA expression: {e!r}")


def _affine(flat):
    """Whether ``flat`` is a triple with no relus: the subtree is affine."""
    return not isinstance(flat, str) and not flat[2]


def _scaled(flat, w):
    """The triple of w times a flat subtree."""
    row, c, relus = flat
    return tuple(w * a for a in row), w * c, tuple((r, s, w * k) for r, s, k in relus)


def _sum(flats):
    """The triple of a sum of flat triples."""
    rows, cs, relus = zip(*flats) if flats else ((), (), ())
    return tuple(map(sum, zip(*rows))), sum(cs), sum(relus, ())


def _knots(parts):
    """The knots of a sum of (flat, knots) parts: a flat part adds its triple."""
    triples, args = [], []
    for flat, knots in parts:
        if knots is None:
            triples.append(flat)
        else:
            triples += knots[0]
            args += knots[1]
    return tuple(triples), tuple(args), 1 + sum(_cost(flat, knots) for flat, knots in parts)


def _cost(flat, knots):
    """Terms one call of a subtree's numerator reads: a flat triple's relus and
    row, or the cost its knots carry."""
    return len(flat[2]) + 1 if knots is None else knots[2]


def _common(children):
    """[(num, weight, flat, knots) per child] and their common denominator m."""
    compiled = [_compile(c) for c in children]
    m = lcm(*(mc for _, mc, _, _ in compiled))
    return [(num, m // mc, flat, knots) for num, mc, flat, knots in compiled], m


def flat_form(e: PWAExpr):
    """(terms, affine, bias) with e(x) == sum kink * (d . x - q)_+ + affine . x + bias.

    A non-flat expression (``_compile``) raises NotFlat: its breaklines must
    be declared.  The compiled triple over m is read by ``exact.relu_terms``:
    ``terms`` maps each breakline, in order of first appearance, to its summed
    kink over m, zero included.
    Leaves of different dimensions raise DimensionMismatch (``expr_dim``).
    """
    _, m, flat, _ = _compile(e)
    form = _read_flat(m, flat)
    expr_dim(e)
    return form


def _read_flat(m, flat):
    """``flat_form`` of the expression whose ``_compile`` gave ``m`` and ``flat``."""
    if isinstance(flat, str):
        raise NotFlat(flat)
    kinks, row, c = relu_terms(*flat)
    terms = {Breakline(d, Fraction(qn, qd)): Fraction(k, m) for (d, qn, qd), k in kinks.items()}
    return terms, tuple(Fraction(a, m) for a in row), Fraction(c, m)


def flat_breaklines(e: PWAExpr) -> list[Breakline]:
    """Candidate breaklines of a flat expression (``flat_form``), zero-kink ones included."""
    return list(flat_form(e)[0])
