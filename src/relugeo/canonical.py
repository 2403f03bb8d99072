"""Canonical forms of responses and exact functional equivalence.

Every non-affine response has a unique list of pairwise distinct breaklines
with nonzero effective kinks plus an affine remainder:

    f(x) = sum_i kink_i * (d_i . x - q_i)_+  +  affine . x  +  bias.

Canonicalization makes equality of responses a syntactic comparison: terms are
sorted by (direction, offset), so two tuples represent the same function iff
their canonical forms are identical.  There is one canonicalization over
integer neurons, in two stages: ``_sums`` sums the kinks per breakline in
integers and returns the surviving terms with reduced integer kinks, the
affine part and the bias; ``_build`` sorts the terms and makes their
`Breakline`s and Fractions.  ``canonicalize`` feeds it a tuple's neurons and
``_stage`` a raw net's integer rows, with no per-neuron objects between.
``equivalence`` compares the integer stages of its two inputs and builds a
`Breakline` only for a ``Different`` witness.
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
    _reduced,
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
    """Unique canonical form of a tuple's response (``_sums``, then ``_build``)."""
    if d0 is None:
        d0 = t.d0
    elif t.neurons and t.d0 != d0:
        raise DimensionMismatch("neuron dimension does not match d0")
    neurons = [_integer(nr.breakline, nr.kink, nr.orientation) for nr in t.neurons]
    return _build(*_sums(neurons, t.out_bias, d0), d0)


def _integer(bl, k, o):
    """The integer neuron (``_sums``) on ``bl`` with kink k and orientation o."""
    return bl.direction, bl.offset.numerator, bl.offset.denominator, k.numerator, k.denominator, o


def _net_neurons(net: ShallowNet) -> list:
    """A net's integer neurons (``_sums``): its row (W, B, D) with W = g d, d
    primitive, and output weight n / m is the neuron on {d.x = -B / g} with
    kink n |g| / (m D), oriented as g.  The first degenerate neuron raises
    DegenerateNeuron, as in ``effective_tuple``."""
    neurons = []
    for j, ((W, B, D), (n, m)) in enumerate(zip(net.rows, net._w2)):
        if not n or not any(W):
            raise DegenerateNeuron(j + 1)
        d, g = primitive_row(W)
        a = abs(g)
        h = gcd(B, a)
        neurons.append((d, (B if g < 0 else -B) // h, a // h, n * a, m * D, g))
    return neurons


def _sums(neurons, bias, d0):
    """The integer stage of the one canonicalization, over integer neurons
    (d, qn, qd, kn, kd, o) of bias + sum kn/kd (o (d.x - qn/qd))_+, qn/qd in
    lowest terms and o < 0 for a negative orientation.  Kinks are summed per
    breakline key (d, qn, qd) in integers; as k (-z)_+ = k z_+ - k z, flipped
    neurons move -k d and k q into the affine part and bias, each over one
    common denominator.  Returns the surviving terms, a dict from key to the
    nonzero kink (kn, kd) in lowest terms with kd > 0, so equal keys and kinks
    are equal breaklines and kinks, then the affine part and the bias."""
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
    terms = {key: _reduced(*k) for key, k in kinks.items() if k[0]}
    return terms, tuple(Fraction(-e, m) for e in affine), bias + Fraction(kq, n)


def _build(terms, affine, bias, d0) -> CanonicalForm:
    """The build stage: the form of ``_sums``'s result, its terms sorted by
    (d, q), each with a `Breakline` and its kink as a Fraction."""
    terms = sorted((d, Fraction(qn, qd), Fraction(*k)) for (d, qn, qd), k in terms.items())
    terms = tuple((_trusted(Breakline, d, q), k) for d, q, k in terms)
    fields = (terms, affine, bias, d0)
    # with terms, d0 is theirs and every field is valid by construction
    return _trusted(CanonicalForm, *fields) if terms else CanonicalForm(*fields)


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
    _, affine, bias = _sums([_integer(bl, k, s) for (bl, k), s in zip(cf.terms, sigma)], 0, cf.d0)
    return tuple(map(sub, cf.affine, affine)), cf.bias - bias


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
    if isinstance(obj, (ShallowNet, EffectiveTuple)):
        return _build(*_stage(obj))
    if isinstance(obj, CanonicalForm):
        return obj
    raise ValueError("expected a net, effective tuple or canonical form")


def _stage(obj):
    """The integer stage (``_sums``) of a net, effective tuple or canonical
    form, and its d0."""
    if isinstance(obj, ShallowNet):
        neurons, bias = _net_neurons(obj), obj.b2
    elif isinstance(obj, EffectiveTuple):
        neurons = [_integer(nr.breakline, nr.kink, nr.orientation) for nr in obj.neurons]
        bias = obj.out_bias
    else:  # a form's terms are positively oriented neurons; its affine part and bias are its own
        cf = _as_form(obj)
        terms, _, _ = _sums([_integer(bl, k, 1) for bl, k in cf.terms], 0, cf.d0)
        return terms, cf.affine, cf.bias, cf.d0
    return (*_sums(neurons, bias, obj.d0), obj.d0)


def equivalence(x, y):
    """Decide whether two networks/tuples/forms compute the same function.

    Returns Equal, EqualUpToAffine (same kink structure, different affine
    part, with the difference reported) or Different with a witness breakline
    whose effective kinks disagree.  The integer stages of the two inputs are
    compared; the witness is the one `Breakline` made.
    """
    (t1, a1, b1, d1), (t2, a2, b2, d2) = _stage(x), _stage(y)
    if d1 != d2:
        raise DimensionMismatch("inputs live in different ambient dimensions")
    if t1 != t2:  # the least breakline, by (d, q), whose kinks differ
        keys = (key for key, _ in t1.items() ^ t2.items())
        d, qn, qd = min(keys, key=lambda key: (key[0], Fraction(key[1], key[2])))
        return Different(_trusted(Breakline, d, Fraction(qn, qd)))
    if a1 == a2 and b1 == b2:
        return Equal()
    return EqualUpToAffine(tuple(map(sub, a1, a2)), b1 - b2)
