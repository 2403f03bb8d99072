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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import DegenerateNeuron, DimensionMismatch, NonPositiveScale, ZeroVector
from .exact import dot, is_zero, primitive_direction, rat, scaled_point, vec


@dataclass(frozen=True, order=True)
class Breakline:
    """Hyperplane {x : direction . x = offset} with primitive lex-positive direction."""

    direction: tuple[int, ...]
    offset: Fraction

    def __post_init__(self):
        d = tuple(int(e) for e in self.direction)
        if not any(d):
            raise ZeroVector("a breakline direction must be nonzero")
        if gcd(*d) != 1 or next(e for e in d if e) < 0:
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


@dataclass(frozen=True)
class ShallowNet:
    """Raw configuration (W1, b1, W2, b2) over exact rationals, output dimension 1."""

    w1: tuple[tuple[Fraction, ...], ...]
    b1: tuple[Fraction, ...]
    w2: tuple[Fraction, ...]
    b2: Fraction

    def __post_init__(self):
        w1 = tuple(vec(row) for row in self.w1)
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "b1", vec(self.b1))
        object.__setattr__(self, "w2", vec(self.w2))
        object.__setattr__(self, "b2", rat(self.b2))
        d1 = len(w1)
        if len(self.b1) != d1 or len(self.w2) != d1:
            raise DimensionMismatch("b1/W2 length must equal the number of hidden neurons")
        if d1 == 0:
            raise DimensionMismatch("need at least one hidden neuron")
        d0 = len(w1[0])
        if any(len(row) != d0 for row in w1):
            raise DimensionMismatch("W1 rows of unequal length")

    @property
    def d0(self) -> int:
        return len(self.w1[0])

    @property
    def d1(self) -> int:
        return len(self.w1)


def evaluate_net(net: ShallowNet, x) -> Fraction:
    """Exact response b2 + sum_j w2_j * max(w1_j . x + b1_j, 0)."""
    x = vec(x)
    if len(x) != net.d0:
        raise DimensionMismatch(f"point has length {len(x)}, net expects {net.d0}")
    total = net.b2
    for row, b, w2 in zip(net.w1, net.b1, net.w2):
        pre = dot(row, x) + b
        if pre > 0:
            total += w2 * pre
    return total


def tuple_evaluator(t: EffectiveTuple):
    """Compile a tuple into an exact evaluator of its response.

    With x = X / D (``scaled_point``) and offset q_j = r_j / s_j, neuron j
    contributes kink_j * (o_j * (s_j d_j . X - r_j D))_+ / (s_j D).  Over a
    common denominator m fixed here the response is
    (B D + sum_j K_j (row_j . X + c_j D)_+) / (m D) with the integer row
    o_j s_j d_j, the integer c_j = -o_j r_j, K_j = m kink_j / s_j and
    B = m out_bias, so each call does integer arithmetic only.
    """
    dims = {nr.breakline.d0 for nr in t.neurons}
    m = lcm(
        t.out_bias.denominator,
        *(nr.breakline.offset.denominator * nr.kink.denominator for nr in t.neurons),
    )
    bias = int(t.out_bias * m)
    rows = []
    for nr in t.neurons:
        o, q = nr.orientation, nr.breakline.offset
        rows.append(
            (
                tuple(o * q.denominator * e for e in nr.breakline.direction),
                -o * q.numerator,
                int(nr.kink * (m // q.denominator)),
            )
        )

    def evaluate(x) -> Fraction:
        X, D = scaled_point(x)
        if dims and dims != {len(X)}:
            raise DimensionMismatch("point dimension does not match neuron breakline")
        total = bias * D
        for row, c, k in rows:
            pre = sum(map(mul, row, X)) + c * D
            if pre > 0:
                total += k * pre
        return Fraction(total, m * D)

    return evaluate


def evaluate_tuple(t: EffectiveTuple, x) -> Fraction:
    """Exact response out_bias + sum_j kink_j * (orient_j * (d_j . x - q_j))_+."""
    return tuple_evaluator(t)(x)


def effective_tuple(net: ShallowNet, drop_degenerate: bool = False) -> EffectiveTuple:
    """Geometric description of a non-degenerate network.

    With ``drop_degenerate=True``, neurons with w2_j * w1_j = 0 are removed and
    their constant contribution w2_j * (b1_j)_+ is folded into the output bias
    instead of raising; the default keeps the strict non-degeneracy contract.
    """
    neurons = []
    bias = net.b2
    for j, (row, b, w2) in enumerate(zip(net.w1, net.b1, net.w2)):
        if w2 == 0 or is_zero(row):
            if drop_degenerate:
                if b > 0:
                    bias += w2 * b
                continue
            raise DegenerateNeuron(j + 1)
        d, s = primitive_direction(row)
        neurons.append(Neuron(Breakline(d, -b / s), abs(s) * w2, 1 if s > 0 else -1))
    return EffectiveTuple(tuple(neurons), bias)


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
    a = vec(a)
    b = rat(b)
    r1, r2, r3 = (rat(x) for x in r)
    if is_zero(a):
        raise ZeroVector("affine_family needs a nonzero gradient")
    if r1 <= 0 or r2 <= 0:
        raise NonPositiveScale(1 if r1 <= 0 else 2)
    d, s = primitive_direction(a)
    bl = Breakline(d, r3)
    t = EffectiveTuple(
        (Neuron(bl, s, 1), Neuron(bl, -s, -1)),
        b + s * r3,
    )
    return expand(t, (r1, r2))


def random_net(d0: int, d1: int, seed: int, coeff_bound: int = 8) -> ShallowNet:
    """Seed-deterministic random non-degenerate network with bounded entries."""
    if d0 < 1 or d1 < 1:
        raise DimensionMismatch("d0 and d1 must be at least 1")
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
