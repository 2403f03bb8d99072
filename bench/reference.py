"""Reference arithmetic for the output checks, written without relugeo.

Every check the benchmark makes on the program's output goes through this
module, so a defect in a relugeo layer cannot hide by also producing the
expected value.  Neurons are ``(d, q, kink, orient)`` rows: ``d`` a primitive
integer direction, ``q`` the offset, and the neuron contributes
``kink * (orient * (d.x - q))_+``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm


def dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def primitive(v) -> tuple[tuple[int, ...], Fraction]:
    """(d, s) with v = s * d, d integer with gcd one and first nonzero entry positive."""
    v = [Fraction(x) for x in v]
    denom = lcm(*(x.denominator for x in v))
    w = [int(x * denom) for x in v]
    g = 0
    for e in w:
        g = gcd(g, e)
    sign = 1 if next(e for e in w if e) > 0 else -1
    return tuple(sign * e // g for e in w), Fraction(sign * g, denom)


def net_value(w1, b1, w2, b2, x) -> Fraction:
    """b2 + sum_j w2_j * max(w1_j . x + b1_j, 0)."""
    total = Fraction(b2)
    for row, b, w in zip(w1, b1, w2):
        pre = dot(row, x) + b
        if pre > 0:
            total += w * pre
    return total


def tuple_value(neurons, bias, x) -> Fraction:
    total = Fraction(bias)
    for d, q, kink, orient in neurons:
        pre = orient * (dot(d, x) - q)
        if pre > 0:
            total += kink * pre
    return total


def form_value(terms, affine, bias, x) -> Fraction:
    return tuple_value([(d, q, k, 1) for d, q, k in terms], bias + dot(affine, x), x)


def canonical(neurons, bias, affine):
    """(terms, affine, bias) of the response, terms sorted by (d, q) with nonzero kinks.

    Uses k*(-(d.x-q))_+ = k*(d.x-q)_+ - k*(d.x-q) for negatively oriented neurons.
    """
    kinks = {}
    affine = [Fraction(a) for a in affine]
    bias = Fraction(bias)
    for d, q, kink, orient in neurons:
        kinks[(d, q)] = kinks.get((d, q), 0) + kink
        if orient == -1:
            affine = [a - kink * e for a, e in zip(affine, d)]
            bias += kink * q
    terms = tuple((d, q, k) for (d, q), k in sorted(kinks.items()) if k != 0)
    return terms, tuple(affine), bias


def parse_neurons(rows):
    """Neuron rows from the program's JSON tuple schema."""
    return [
        (tuple(r["d"]), Fraction(r["q"]), Fraction(r["kink"]), r["orient"]) for r in rows
    ]


def parse_form(data):
    terms = tuple((tuple(t["d"]), Fraction(t["q"]), Fraction(t["kink"])) for t in data["terms"])
    return terms, tuple(Fraction(a) for a in data["affine"]), Fraction(data["bias"])


def _meet(rows, rhs):
    """(rank of rows, whether rows . x = rhs has a solution), by Gauss-Jordan elimination."""
    aug = [[Fraction(e) for e in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    rank = 0
    for col in range(len(rows[0])):
        p = next((i for i in range(rank, len(aug)) if aug[i][col] != 0), None)
        if p is None:
            continue
        aug[rank], aug[p] = aug[p], aug[rank]
        for i in range(len(aug)):
            if i != rank and aug[i][col] != 0:
                f = aug[i][col] / aug[rank][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[rank])]
        rank += 1
    return rank, all(row[-1] == 0 for row in aug[rank:])


def is_transversal(breaklines) -> bool:
    """True iff no family of breaklines with dependent directions meets in a point.

    A minimal offending family has at most d0+1 members.
    """
    d0 = len(breaklines[0][0])
    for size in range(2, min(len(breaklines), d0 + 1) + 1):
        for subset in combinations(breaklines, size):
            rank, meets = _meet([d for d, _ in subset], [q for _, q in subset])
            if rank < size and meets:
                return False
    return True
