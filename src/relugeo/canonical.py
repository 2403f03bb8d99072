"""Canonical forms of responses and exact functional equivalence.

Every non-affine response has a unique list of pairwise distinct breaklines
with nonzero effective kinks plus an affine remainder:

    f(x) = sum_i kink_i * (d_i . x - q_i)_+  +  affine . x  +  bias.

Canonicalization makes equality of responses a syntactic comparison: terms are
sorted by (direction, offset), so two tuples represent the same function iff
their canonical forms are identical.  There is one canonicalization, ``_form``,
over integer neurons: ``canonicalize`` feeds it a tuple's neurons and
``_net_form`` a raw net's integer rows, with no per-neuron objects between.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul, sub

from .errors import DegenerateNeuron, DimensionMismatch, LengthMismatch
from .exact import compiled, primitive_row, rat, vec
from .network import (
    Breakline,
    EffectiveTuple,
    Neuron,
    ShallowNet,
    _trusted,
    response_kernel,
)


@dataclass(frozen=True)
class CanonicalForm:
    terms: tuple[tuple[Breakline, Fraction], ...]  # sorted, kinks nonzero
    affine: tuple[Fraction, ...]
    bias: Fraction
    d0: int

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple((bl, rat(k)) for bl, k in self.terms))
        object.__setattr__(self, "affine", vec(self.affine))
        object.__setattr__(self, "bias", rat(self.bias))
        if self.d0 < 1:
            raise DimensionMismatch(f"a form needs d0 >= 1, not {self.d0}")
        if len(self.affine) != self.d0:
            raise DimensionMismatch("affine part must have length d0")
        for bl, k in self.terms:
            if bl.d0 != self.d0:
                raise DimensionMismatch(
                    f"term breakline {list(bl.direction)} has length {bl.d0}, not d0"
                )
            if k == 0:
                raise ValueError(f"term on breakline {list(bl.direction)} has a zero kink")
        keys = [(bl.direction, bl.offset) for bl in self.breaklines]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ValueError("terms must be strictly increasing by (direction, offset)")

    @property
    def n(self) -> int:
        return len(self.terms)

    @property
    def breaklines(self) -> tuple[Breakline, ...]:
        return tuple(bl for bl, _ in self.terms)

    @property
    def kinks(self) -> tuple[Fraction, ...]:
        return tuple(k for _, k in self.terms)

    def is_affine(self) -> bool:
        return not self.terms

    @cached_property
    def evaluator(self):
        """Exact evaluator of the response, compiled once per form.

        The terms are positively oriented neurons of ``response_kernel`` and
        the affine part its affine row.  Not a field: equality, hash and repr
        ignore it.
        """
        kernel = response_kernel((Neuron(bl, k, 1) for bl, k in self.terms), self.affine, self.bias)
        return compiled(*kernel, self.d0, "form")


def canonicalize(t: EffectiveTuple, d0: int | None = None) -> CanonicalForm:
    """Unique canonical form of a tuple's response (``_form``)."""
    if d0 is None:
        d0 = t.d0
    elif t.neurons and t.d0 != d0:
        raise DimensionMismatch("neuron dimension does not match d0")
    neurons = [_integer(nr.breakline, nr.kink, nr.orientation) for nr in t.neurons]
    return _form(neurons, t.out_bias, d0)


def _integer(bl, k, o):
    """The integer neuron (``_form``) on ``bl`` with kink k and orientation o."""
    return bl.direction, bl.offset.numerator, bl.offset.denominator, k.numerator, k.denominator, o


def _net_form(net: ShallowNet) -> CanonicalForm:
    """Canonical form of a net (``_form``): its row (W, B, D) with W = g d, d
    primitive, and output weight w2 is the neuron on {d.x = -B / g} with kink
    w2 |g| / D, oriented as g.  The first degenerate neuron raises
    DegenerateNeuron, as in ``effective_tuple``."""
    neurons = []
    for j, ((W, B, D), w2) in enumerate(zip(net.rows, net.w2)):
        if not w2 or not any(W):
            raise DegenerateNeuron(j + 1)
        d, g = primitive_row(W)
        a = abs(g)
        h = gcd(B, a)
        q = (B if g < 0 else -B) // h, a // h
        neurons.append((d, *q, w2.numerator * a, w2.denominator * D, g))
    return _form(neurons, net.b2, net.d0)


def _form(neurons, bias, d0) -> CanonicalForm:
    """The one canonicalization: the form of bias + sum kn/kd (o (d.x - qn/qd))_+
    over integer neurons (d, qn, qd, kn, kd, o), qn/qd in lowest terms and o < 0
    for a negative orientation.  Kinks are summed per breakline in integers and
    cancelled ones dropped; as k (-z)_+ = k z_+ - k z, flipped neurons move -k d
    and k q into the affine part and bias, each over one common denominator.
    Only surviving terms get a `Breakline` and Fractions."""
    kinks, flipped = {}, []
    for nr in neurons:
        d, qn, qd, kn, kd, o = nr
        p, r = kinks.get(key := (d, qn, qd), (0, 1))
        kinks[key] = p * kd + kn * r, r * kd
        if o < 0:
            flipped.append(nr)
    m, n = lcm(*(nr[4] for nr in flipped)), lcm(*(nr[2] * nr[4] for nr in flipped))
    c, kq = [], 0
    for _, qn, qd, kn, kd, _ in flipped:
        c.append(kn * (m // kd))
        kq += qn * kn * (n // (qd * kd))
    affine = [sum(map(mul, col, c)) for col in zip(*(nr[0] for nr in flipped))] or [0] * d0
    terms = sorted((d, Fraction(qn, qd), Fraction(*k)) for (d, qn, qd), k in kinks.items() if k[0])
    terms = tuple((_trusted(Breakline, d, q), k) for d, q, k in terms)
    fields = (terms, tuple(Fraction(-e, m) for e in affine), bias + Fraction(kq, n), d0)
    # with neurons, d0 is theirs and every field is valid by construction
    return _trusted(CanonicalForm, *fields) if kinks else CanonicalForm(*fields)


def evaluate_cf(cf: CanonicalForm, x) -> Fraction:
    return cf.evaluator(x)


def sigma_affine(cf: CanonicalForm, sigma) -> tuple[tuple[Fraction, ...], Fraction]:
    """Affine correction (a_sigma, b_sigma) for a choice of term orientations.

    For every sigma the representation identity
    f(x) = sum_i kink_i*(sigma_i*(d_i.x - q_i))_+ + a_sigma.x + b_sigma holds.
    """
    sigma = tuple(sigma)
    if len(sigma) != cf.n:
        raise LengthMismatch(f"{len(sigma)} orientations for {cf.n} terms")
    moved = _form([_integer(bl, k, s) for (bl, k), s in zip(cf.terms, sigma)], 0, cf.d0)
    return tuple(map(sub, cf.affine, moved.affine)), cf.bias - moved.bias


def sigma_tuple(cf: CanonicalForm, sigma, out_bias=0) -> EffectiveTuple:
    """Tuple with the form's breaklines/kinks and the given orientations."""
    sigma = tuple(sigma)
    if len(sigma) != cf.n:
        raise LengthMismatch(f"{len(sigma)} orientations for {cf.n} terms")
    return EffectiveTuple(
        tuple(Neuron(bl, k, s) for (bl, k), s in zip(cf.terms, sigma)), rat(out_bias)
    )


@dataclass(frozen=True)
class Equal:
    verdict = "equal"


@dataclass(frozen=True)
class EqualUpToAffine:
    a_diff: tuple[Fraction, ...]
    b_diff: Fraction
    verdict = "affine"


@dataclass(frozen=True)
class Different:
    witness: Breakline
    verdict = "different"


def _as_form(obj) -> CanonicalForm:
    """Canonical form of a net, effective tuple or canonical form."""
    if isinstance(obj, CanonicalForm):
        return obj
    if isinstance(obj, ShallowNet):
        return _net_form(obj)
    if isinstance(obj, EffectiveTuple):
        return canonicalize(obj)
    raise ValueError("expected a net, effective tuple or canonical form")


def equivalence(x, y):
    """Decide whether two networks/tuples/forms compute the same function.

    Returns Equal, EqualUpToAffine (same kink structure, different affine
    part, with the difference reported) or Different with a witness breakline
    whose effective kinks disagree.
    """
    cf1, cf2 = _as_form(x), _as_form(y)
    if cf1.d0 != cf2.d0:
        raise DimensionMismatch("inputs live in different ambient dimensions")
    if cf1.terms != cf2.terms:  # the first breakline, in term order, whose kinks differ
        return Different(min(bl for bl, _ in set(cf1.terms) ^ set(cf2.terms)))
    if cf1.affine == cf2.affine and cf1.bias == cf2.bias:
        return Equal()
    return EqualUpToAffine(
        tuple(a - b for a, b in zip(cf1.affine, cf2.affine)), cf1.bias - cf2.bias
    )
