"""Shallow ReLU network model and its geometric reparametrization.

A raw network is the weight tuple (W1, b1, W2, b2) with one output.  Each
non-degenerate hidden neuron is equivalently described by a breakline (a
hyperplane in primitive-integer-direction form), a nonzero kink and an
orientation; together with the output bias these form the effective tuple,
which determines the response uniquely.  Unit normals are replaced throughout
by primitive integer directions: the triple (normal, offset, kink) only enters
the response through kink * (sign * (normal.x - offset))_+, which is invariant
under rescaling (normal, offset, kink) -> (c*normal, c*offset, kink/c) for
c > 0, so every exact statement survives the integer rescaling.

A raw network holds hidden neuron j as the integer row (W_j, B_j, D_j) with
w1_j = W_j / D_j, b1_j = B_j / D_j and D_j the lcm of their denominators,
parsed a block of W1 rows at a time (row by row in a block with a literal
that is not plain) and reduced once per neuron, and its output weight w2_j as
the reduced integer pair (n_j, m_j).  The effective tuple and the canonical
form are read off these integers and ``evaluate_net`` compiles them, so raw
networks do no per-entry Fraction arithmetic.

Tuples, forms, raw nets (``_net_relus``, the one place a net's relus are
written) and synthesis's nested forms are integer relus, and ``_response``
compiles each: one triple, ``_relu_kernel``, summed by ``exact.relu_sum`` (the
numerator expressions use too) under ``exact.compiled``; ``canonical`` reads
the same triple back with ``exact.relu_terms``.  An affine part
costs a cancelling pair of neurons on a fresh breakline; ``affine_pair``
builds it for ``affine_family`` and synthesis.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import DegenerateNeuron, DimensionMismatch, NonPositiveScale
from .exact import compiled, dot, is_zero, primitive_direction, primitive_row, rat, relu_sum
from .exact import block_parts, row_parts, vec


@dataclass(frozen=True, order=True)
class Breakline:
    """Hyperplane {x : direction . x = offset} with primitive lex-positive direction."""

    direction: tuple[int, ...]
    offset: Fraction

    def __post_init__(self):
        d = tuple(map(int, self.direction))
        if primitive_row(d)[1] != 1:
            raise ValueError(f"direction {list(d)} is not primitive and lex-positive")
        object.__setattr__(self, "direction", d)
        object.__setattr__(self, "offset", rat(self.offset))

    @property
    def d0(self) -> int:
        return len(self.direction)

    def side(self, x) -> Fraction:
        """direction . x - offset; zero exactly on the breakline."""
        return dot(self.direction, x) - self.offset


@dataclass(frozen=True)
class Neuron:
    breakline: Breakline
    kink: Fraction
    orientation: int  # +1 or -1

    def __post_init__(self):
        object.__setattr__(self, "kink", rat(self.kink))
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")


@dataclass(frozen=True)
class EffectiveTuple:
    neurons: tuple[Neuron, ...]
    out_bias: Fraction

    def __post_init__(self):
        object.__setattr__(self, "neurons", tuple(self.neurons))
        object.__setattr__(self, "out_bias", rat(self.out_bias))
        dims = {len(nr.breakline.direction) for nr in self.neurons}
        if len(dims) > 1:
            raise DimensionMismatch(f"neurons of mixed breakline dimensions {sorted(dims)}")

    @property
    def d0(self) -> int:
        if not self.neurons:
            raise ValueError("empty tuple has no intrinsic dimension")
        return self.neurons[0].breakline.d0

    @property
    def d1(self) -> int:
        return len(self.neurons)

    def sorted(self) -> "EffectiveTuple":
        """Permutation-canonical representative: neurons in a fixed total order."""
        key = lambda nr: (nr.breakline.direction, nr.breakline.offset, nr.orientation, nr.kink)
        return EffectiveTuple(tuple(sorted(self.neurons, key=key)), self.out_bias)


@dataclass(frozen=True, init=False, repr=False)
class ShallowNet:
    """Raw configuration (W1, b1, W2, b2) over exact rationals, output dimension 1.

    Hidden neuron j is held as the integer row ``(W_j, B_j, D_j)``, the
    primitive integer vector with D_j > 0 proportional to (w1_j, b1_j, 1),
    divided by its gcd once.  W1 is parsed ``_BLOCK`` rows at a time, then b1
    and W2 as one block each (``_parts``), a block with a literal that is not
    plain row by row, with its errors; the rows are built once the shapes are
    checked.  W2 is held as reduced integer pairs ``(n_j, m_j)``, m_j > 0,
    one ``gcd`` each.  Row and pair are unique, so equality is equality of
    weights.  ``w1``, ``b1`` and ``w2`` give the weights back as Fractions.
    """

    rows: tuple[tuple[tuple[int, ...], int, int], ...]
    _w2: tuple[tuple[int, int], ...]
    b2: Fraction

    def __init__(self, w1, b1, w2, b2):
        w1 = list(w1)
        blocks = [_parts(w1[i : i + _BLOCK]) for i in range(0, len(w1), _BLOCK)]
        (bn, bd, _), (wn, wd, _) = _parts([b1]), _parts([w2])
        b2 = rat(b2)
        widths = set().union(*(lengths for *_, lengths in blocks))
        if len(bn) != len(w1) or len(wn) != len(w1):
            raise DimensionMismatch("b1/W2 length must equal the number of hidden neurons")
        if not w1:
            raise DimensionMismatch("need at least one hidden neuron")
        if len(widths) > 1:
            raise DimensionMismatch("W1 rows of unequal length")
        rows, (d0,) = [], widths
        for nums, dens, lengths in blocks:
            for k in range(len(lengths)):
                j, start = len(rows), k * d0
                rows.append(_row(nums[start : start + d0], dens[start : start + d0], bn[j], bd[j]))
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "_w2", tuple(map(_reduced, wn, wd)))
        object.__setattr__(self, "b2", b2)

    def __repr__(self):
        return f"ShallowNet(w1={self.w1!r}, b1={self.b1!r}, w2={self.w2!r}, b2={self.b2!r})"

    @property
    def w1(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(e, den) for e in row) for row, _, den in self.rows)

    @property
    def b1(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(b, den) for _, b, den in self.rows)

    @property
    def w2(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, d) for n, d in self._w2)

    @property
    def d0(self) -> int:
        return len(self.rows[0][0])

    @property
    def d1(self) -> int:
        return len(self.rows)


# W1 rows parsed as one text: a bounded block, never the whole matrix at once
_BLOCK = 64


def _parts(rows):
    """``(nums, dens, lengths)`` of ``rows``: their parts, unreduced, in one flat
    list each, and each row's length.  One ``exact.block_parts`` when every
    entry is plain, else ``exact.row_parts`` per row, which raises the errors."""
    try:
        lengths = list(map(len, rows))  # before the join, which would use up a generator
        parts = block_parts(",".join(map(",".join, rows)), sum(lengths))
    except TypeError:  # a row without a length, an entry that is not a string
        parts = None
    if parts is None:
        parsed = list(map(row_parts, rows))
        flat = [p for row in parsed for p in row]
        return [n for n, _ in flat], [d for _, d in flat], list(map(len, parsed))
    return *parts, lengths


def _row(nums, dens, bn, bd):
    """The neuron row ``(W, B, D)`` of weights nums / dens and bias bn / bd."""
    den = lcm(bd, *dens)
    W, B = list(map(mul, nums, map(den.__floordiv__, dens))), bn * (den // bd)
    if (g := gcd(den, B, *W)) > 1:
        W, B, den = [e // g for e in W], B // g, den // g
    return tuple(W), B, den


def _reduced(num, den):
    """``num / den`` in lowest terms, as an integer pair; den > 0."""
    g = gcd(num, den)
    return num // g, den // g


def evaluate_net(net: ShallowNet, x) -> Fraction:
    """Exact response b2 + sum_j w2_j * max(w1_j . x + b1_j, 0) (``_net_relus``)."""
    return _response(_net_relus(net), (), net.b2, net.d0, "net")(x)


def _net_relus(net):
    """The integer relus (r, s, p, t) of ``_relu_kernel`` of a net's neurons: on
    x = X / D neuron j is (w2_j / D_j) (W_j . X + B_j D)_+ / D, so a zero row is
    the constant w2_j * (b1_j)_+."""
    return [(W, B, n, d * D) for (W, B, D), (n, d) in zip(net.rows, net._w2)]


def _response(relus, affine, bias, d0, what):
    """The exact evaluator (``exact.compiled``, checking d0 and naming ``what``)
    of bias + affine . x + the integer relus of ``_relu_kernel``."""
    triple, m = _relu_kernel(relus, affine, bias)
    return compiled(relu_sum(*triple), m, d0, what)


def _relus(neurons):
    """The integer relus (r, s, p, t) of ``_relu_kernel`` of neurons."""
    relus = []
    for nr in neurons:
        q, k, o = nr.breakline.offset, nr.kink, nr.orientation
        row = tuple(o * q.denominator * e for e in nr.breakline.direction)
        relus.append((row, -o * q.numerator, k.numerator, k.denominator * q.denominator))
    return relus


def _relu_kernel(relus, affine, bias):
    """bias + affine . x + sum (p / t) * (r . X + s D)_+ / D over integer tuples
    (r, s, p, t), on x = X / D, as the triple (row, c, relus) of
    ``exact.relu_sum`` and ``exact.relu_terms`` over m, the lcm of every
    denominator: the value is relu_sum(row, c, relus)(X, D) / (m D)."""
    m = lcm(bias.denominator, *(a.denominator for a in affine), *{t for _, _, _, t in relus})
    A = tuple(a.numerator * (m // a.denominator) for a in affine)
    relus = [(r, s, p * (m // t)) for r, s, p, t in relus]
    return (A, bias.numerator * (m // bias.denominator), relus), m


def tuple_evaluator(t: EffectiveTuple):
    """Compile a tuple into an exact evaluator of its response (``_response``)."""
    return _response(_relus(t.neurons), (), t.out_bias, t.d0 if t.neurons else None, "tuple")


def evaluate_tuple(t: EffectiveTuple, x) -> Fraction:
    """Exact response out_bias + sum_j kink_j * (orient_j * (d_j . x - q_j))_+."""
    return tuple_evaluator(t)(x)


def effective_tuple(net: ShallowNet) -> EffectiveTuple:
    """Geometric description of a non-degenerate network.

    On the relu (W, B, n, t) of a neuron (``_net_relus``), with g = gcd(W)
    and o the sign of the first nonzero entry of W, the breakline is
    {(o W / g) . x = -o B / g}, the kink is n g / t and the orientation is o.
    A neuron with w2_j * w1_j = 0 raises DegenerateNeuron.
    """
    neurons = []
    for j, (W, B, n, t) in enumerate(_net_relus(net)):
        if not n or not any(W):
            raise DegenerateNeuron(j + 1)
        d, g = primitive_row(W)
        o = 1 if g > 0 else -1
        kink = Fraction(n * o * g, t)
        neurons.append(_trusted(Neuron, _trusted(Breakline, d, Fraction(-B, g)), kink, o))
    return EffectiveTuple(tuple(neurons), net.b2)


def _trusted(cls, *values):
    """A frozen dataclass from its field values in order, valid by construction,
    with no ``__post_init__``: the checks belong to the public constructors."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, values):
        object.__setattr__(obj, name, value)  # no per-instance dict, unlike obj.__dict__
    return obj


def expand(t: EffectiveTuple, scales) -> ShallowNet:
    """Raw network with the given effective tuple and per-neuron scales > 0.

    Inverse of ``effective_tuple`` in the sense that
    effective_tuple(expand(t, a)) == t for every positive scale vector a.
    """
    scales = vec(scales)
    if len(scales) != t.d1:
        raise DimensionMismatch("one scale per neuron required")
    w1, b1, w2 = [], [], []
    for j, (nr, a) in enumerate(zip(t.neurons, scales)):
        if a <= 0:
            raise NonPositiveScale(j + 1)
        sa = nr.orientation * a
        w1.append(tuple(sa * e for e in nr.breakline.direction))
        b1.append(-sa * nr.breakline.offset)
        w2.append(nr.kink / a)
    return ShallowNet(tuple(w1), tuple(b1), tuple(w2), t.out_bias)


def affine_family(a, b, r) -> ShallowNet:
    """Two-neuron network whose response is exactly x -> a.x + b.

    ``r = (r1, r2, r3)`` with r1, r2 > 0 parametrizes the family: r1, r2 are
    the expansion scales of the positively and negatively oriented neuron and
    r3 is the shared breakline offset (in the primitive-direction scaling).
    """
    r1, r2, r3 = (rat(x) for x in r)
    pos, neg, shift = affine_pair(a, r3)
    if r1 <= 0 or r2 <= 0:
        raise NonPositiveScale(1 if r1 <= 0 else 2)
    return expand(EffectiveTuple((pos, neg), rat(b) + shift), (r1, r2))


def affine_pair(a, r) -> tuple[Neuron, Neuron, Fraction]:
    """A cancelling pair of neurons on the breakline {d.x = r} carrying x -> a.x.

    With (d, s) = primitive_direction(a) the neurons are s*(d.x - r)_+ and
    -s*(-(d.x - r))_+, whose sum is a.x - s*r; ``shift`` = s*r is what the
    output bias must add back.  A zero ``a`` raises ZeroVector.
    """
    d, s = primitive_direction(a)
    bl = Breakline(d, r)
    return Neuron(bl, s, 1), Neuron(bl, -s, -1), s * bl.offset


def random_net(d0: int, d1: int, seed: int, coeff_bound: int = 8) -> ShallowNet:
    """Seed-deterministic random non-degenerate network with bounded entries."""
    if d0 < 1 or d1 < 1:
        raise DimensionMismatch("d0 and d1 must be at least 1")
    if coeff_bound < 1:
        raise ValueError("coefficient bound must be at least 1")
    rng = random.Random(seed)

    def coeff():
        return Fraction(rng.randint(-coeff_bound, coeff_bound), rng.randint(1, coeff_bound))

    w1, b1, w2 = [], [], []
    for _ in range(d1):
        row = tuple(coeff() for _ in range(d0))
        while is_zero(row):
            row = tuple(coeff() for _ in range(d0))
        out = coeff()
        while out == 0:
            out = coeff()
        w1.append(row)
        b1.append(coeff())
        w2.append(out)
    return ShallowNet(tuple(w1), tuple(b1), tuple(w2), coeff())
