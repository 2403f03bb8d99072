"""Canonical forms of responses and exact functional equivalence.

Every non-affine response has a unique list of pairwise distinct breaklines
with nonzero effective kinks plus an affine remainder:

    f(x) = sum_i kink_i * (d_i . x - q_i)_+  +  affine . x  +  bias.

Canonicalization makes equality of responses a syntactic comparison: terms are
sorted by (direction, offset), so two tuples represent the same function iff
their canonical forms are identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add

from .errors import DimensionMismatch, LengthMismatch
from .exact import compiled, rat, vec
from .network import (
    Breakline,
    EffectiveTuple,
    Neuron,
    ShallowNet,
    _trusted,
    effective_tuple,
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
    """Unique canonical form of a tuple's response.

    Negatively oriented neurons are rewritten through
    k*(-(d.x-q))_+ = k*(d.x-q)_+ - k*(d.x-q) (``_kink_sums``), kinks are
    summed per breakline and breaklines with vanishing effective kink are
    dropped.
    """
    if d0 is None:
        d0 = t.d0
    elif t.neurons and t.d0 != d0:
        raise DimensionMismatch("neuron dimension does not match d0")
    effective: dict[Breakline, list[Fraction]] = {}
    for nr in t.neurons:
        effective.setdefault(nr.breakline, []).append(nr.kink)
    flipped = ((nr.breakline, nr.kink) for nr in t.neurons if nr.orientation == -1)
    kd, kq = _kink_sums(flipped, d0)
    kinks = ((bl, ks[0] if len(ks) == 1 else sum(ks)) for bl, ks in effective.items())
    terms = tuple(
        (bl, k) for bl, k in sorted(kinks, key=lambda it: (it[0].direction, it[0].offset)) if k
    )
    fields = (terms, tuple(-a for a in kd), t.out_bias + kq, d0)
    # with neurons, d0 is theirs and every field is valid by construction
    return _trusted(CanonicalForm, *fields) if t.neurons else CanonicalForm(*fields)


def _kink_sums(pairs, d0) -> tuple[tuple[Fraction, ...], Fraction]:
    """(sum k*d, sum k*q) over (breakline, kink) pairs, each an integer sum over
    one common denominator: what flipping the pairs' orientations moves into
    the affine part and bias."""
    pairs = list(pairs)
    m = lcm(*(k.denominator for _, k in pairs))
    kd = [0] * d0
    for bl, k in pairs:
        c = k.numerator * (m // k.denominator)
        for i, e in enumerate(bl.direction):
            kd[i] += c * e
    n = lcm(*(k.denominator * bl.offset.denominator for bl, k in pairs))
    kq = sum(
        k.numerator * bl.offset.numerator * (n // (k.denominator * bl.offset.denominator))
        for bl, k in pairs
    )
    return tuple(Fraction(a, m) for a in kd), Fraction(kq, n)


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
    kd, kq = _kink_sums((term for s, term in zip(sigma, cf.terms) if s == -1), cf.d0)
    return tuple(map(add, cf.affine, kd)), cf.bias - kq


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
        obj = effective_tuple(obj)
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
    if cf1.terms != cf2.terms:
        kinks1 = dict(cf1.terms)
        kinks2 = dict(cf2.terms)
        for bl in sorted(set(kinks1) | set(kinks2), key=lambda b: (b.direction, b.offset)):
            if kinks1.get(bl, Fraction(0)) != kinks2.get(bl, Fraction(0)):
                return Different(bl)
        raise AssertionError("term lists differ but all effective kinks agree")
    if cf1.affine == cf2.affine and cf1.bias == cf2.bias:
        return Equal()
    return EqualUpToAffine(
        tuple(a - b for a, b in zip(cf1.affine, cf2.affine)), cf1.bias - cf2.bias
    )
