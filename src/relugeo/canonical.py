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

from .errors import DimensionMismatch, LengthMismatch
from .exact import dot, rat, vec
from .network import Breakline, EffectiveTuple, Neuron, ShallowNet, effective_tuple


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


def canonicalize(t: EffectiveTuple, d0: int | None = None) -> CanonicalForm:
    """Unique canonical form of a tuple's response.

    Negatively oriented neurons are rewritten through
    k*(-(d.x-q))_+ = k*(d.x-q)_+ - k*(d.x-q), kinks are summed per breakline
    and breaklines with vanishing effective kink are dropped.
    """
    if d0 is None:
        d0 = t.d0
    effective: dict[Breakline, Fraction] = {}
    affine = [Fraction(0)] * d0
    bias = t.out_bias
    for nr in t.neurons:
        if nr.breakline.d0 != d0:
            raise DimensionMismatch("neuron dimension does not match d0")
        effective[nr.breakline] = effective.get(nr.breakline, Fraction(0)) + nr.kink
        if nr.orientation == -1:
            for i, e in enumerate(nr.breakline.direction):
                affine[i] -= nr.kink * e
            bias += nr.kink * nr.breakline.offset
    terms = tuple(
        (bl, k)
        for bl, k in sorted(effective.items(), key=lambda it: (it[0].direction, it[0].offset))
        if k != 0
    )
    return CanonicalForm(terms, tuple(affine), bias, d0)


def evaluate_cf(cf: CanonicalForm, x) -> Fraction:
    x = vec(x)
    if len(x) != cf.d0:
        raise DimensionMismatch(f"point has length {len(x)}, form expects {cf.d0}")
    total = cf.bias + dot(cf.affine, x)
    for bl, k in cf.terms:
        pre = bl.side(x)
        if pre > 0:
            total += k * pre
    return total


def sigma_affine(cf: CanonicalForm, sigma) -> tuple[tuple[Fraction, ...], Fraction]:
    """Affine correction (a_sigma, b_sigma) for a choice of term orientations.

    For every sigma the representation identity
    f(x) = sum_i kink_i*(sigma_i*(d_i.x - q_i))_+ + a_sigma.x + b_sigma holds.
    """
    sigma = tuple(sigma)
    if len(sigma) != cf.n:
        raise LengthMismatch(f"{len(sigma)} orientations for {cf.n} terms")
    a = list(cf.affine)
    b = cf.bias
    for s, (bl, k) in zip(sigma, cf.terms):
        if s == -1:
            for i, e in enumerate(bl.direction):
                a[i] += k * e
            b -= k * bl.offset
    return tuple(a), b


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
