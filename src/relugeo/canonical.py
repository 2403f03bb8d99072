"""Canonical forms of responses and exact functional equivalence.

Every non-affine response has a unique list of pairwise distinct breaklines
with nonzero effective kinks plus an affine remainder:

    f(x) = sum_i kink_i * (d_i . x - q_i)_+  +  affine . x  +  bias.

Canonicalization makes equality of responses a syntactic comparison: terms are
sorted by (direction, offset), so two tuples represent the same function iff
their canonical forms are identical.  There is one canonicalization, in two
stages: ``_stage`` compiles a net's integer rows, a tuple's neurons or a
form's terms to one ``exact.relu_sum`` triple (``network._relu_kernel``) and
reads it with ``exact.relu_terms``, keeping the kinked breaklines with reduced
integer kinks, the affine part and the bias; ``_build`` sorts the terms and
makes their `Breakline`s and Fractions.  ``equivalence`` compares the integer
stages of its two inputs and builds a `Breakline` only for a ``Different``
witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import sub

from .errors import DegenerateNeuron, DimensionMismatch, LengthMismatch
from .exact import rat, relu_terms, vec
from .network import (
    Breakline,
    EffectiveTuple,
    Neuron,
    ShallowNet,
    _net_relus,
    _reduced,
    _relu_kernel,
    _relus,
    _response,
    _trusted,
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

        The terms are positively oriented relus of ``network._response`` and
        the affine part its affine row.  Not a field: equality, hash and repr
        ignore it.
        """
        relus = _relus(_trusted(Neuron, bl, k, 1) for bl, k in self.terms)
        return _response(relus, self.affine, self.bias, self.d0, "form")


def canonicalize(t: EffectiveTuple, d0: int | None = None) -> CanonicalForm:
    """Unique canonical form of a tuple's response (``_stage``, then ``_build``)."""
    if d0 is not None and t.neurons and t.d0 != d0:
        raise DimensionMismatch("neuron dimension does not match d0")
    return _build(*_stage(t, d0))


def _build(terms, affine, bias, d0) -> CanonicalForm:
    """The build stage: the form of ``_stage``'s result, its terms sorted by
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
    _, affine, bias, _ = _stage(sigma_tuple(cf, sigma), cf.d0)
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


def _stage(obj, d0=None):
    """The integer stage of a net, effective tuple or canonical form (a tuple
    in Q^d0 if given), and its d0: the terms, a dict from each kinked key
    (d, qn, qd) of ``exact.relu_terms`` to its kink (kn, kd) in lowest terms
    with kd > 0, so equal keys and kinks are equal breaklines and kinks, then
    the affine part and the bias.  A net's first degenerate neuron raises
    DegenerateNeuron, as in ``effective_tuple``; a form's terms are positively
    oriented neurons."""
    if isinstance(obj, ShallowNet):
        relus = _net_relus(obj)
        for j, (W, _, n, _) in enumerate(relus):
            if not n or not any(W):
                raise DegenerateNeuron(j + 1)
        d0, affine, bias = obj.d0, (), obj.b2
    elif isinstance(obj, EffectiveTuple):
        d0 = obj.d0 if d0 is None else d0
        relus, affine, bias = _relus(obj.neurons), (), obj.out_bias
    else:
        cf = _as_form(obj)
        relus = _relus(_trusted(Neuron, bl, k, 1) for bl, k in cf.terms)
        d0, affine, bias = cf.d0, cf.affine, cf.bias
    triple, m = _relu_kernel(relus, affine or (0,) * d0, bias)
    kinks, row, c = relu_terms(*triple)
    terms = {key: _reduced(k, m) for key, k in kinks.items() if k}
    return terms, tuple(Fraction(a, m) for a in row), Fraction(c, m), d0


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
