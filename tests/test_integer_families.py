"""Integer family construction against the Fraction construction it replaced.

``enumerate_minimal`` reads each family's affine correction off integer rows:
a_sigma scaled by the kink and affine denominators, b_sigma by the bias and
kink * offset ones, summed per half of the terms.  The split kinks come from
the rank rows of one elimination per direction group (``minimality._span``)
and an extra breakline's direction from the integer row.  The reference here
is the per-family construction those replace: one ``sigma_affine``, one
``in_span`` and one ``affine_pair`` per family, with the hits found by the
per-pattern loop.  Both must give the same families, in the same order,
with equal Fractions.
"""

from fractions import Fraction
from itertools import combinations, product

from hypothesis import event, given, settings, strategies as st

from relugeo.canonical import CanonicalForm, sigma_affine
from relugeo.exact import in_span, is_zero, primitive_direction, rat
from relugeo.minimality import (
    KIND_DUP,
    KIND_EXACT,
    KIND_FRESH,
    KIND_PAIR,
    RepresentationFamily,
    classify,
    enumerate_minimal,
)
from relugeo.network import Breakline, EffectiveTuple, Neuron, affine_pair

F = Fraction


# -- the Fraction construction -------------------------------------------------


def reference_split(cf, kind, sigma, js):
    a_sigma, b_sigma = sigma_affine(cf, sigma)
    deltas = dict(zip(js, in_span(a_sigma, [cf.breaklines[j].direction for j in js])))
    neurons = [Neuron(bl, k, s) for (bl, k), s in zip(cf.terms, sigma)]
    for j, delta in deltas.items():
        bl, k = cf.terms[j]
        neurons[j] = Neuron(bl, k + delta, 1)
        b_sigma += delta * bl.offset
    neurons.extend(Neuron(cf.breaklines[j], -deltas[j], -1) for j in js)
    return RepresentationFamily(kind, sigma, js, (EffectiveTuple(tuple(neurons), b_sigma),))


def reference_fresh(cf, sigma, r_values):
    a_sigma, b_sigma = sigma_affine(cf, sigma)
    terms = tuple(Neuron(bl, k, s) for (bl, k), s in zip(cf.terms, sigma))
    tuples = []
    for r in r_values:
        pos, neg, shift = affine_pair(a_sigma, r)
        tuples.append(EffectiveTuple(terms + (pos, neg), shift + b_sigma))
    return RepresentationFamily(KIND_FRESH, sigma, (), tuple(tuples), r_values)


def reference_enumerate(cf, r_samples):
    r_values = tuple(dict.fromkeys(rat(r) for r in r_samples))
    if cf.is_affine() and is_zero(cf.affine):
        return []
    patterns = list(product((1, -1), repeat=cf.n))
    dirs = sorted({bl.direction for bl in cf.breaklines})
    cases = (
        (KIND_EXACT, [()]),
        (KIND_DUP, [(m,) for m in dirs]),
        (KIND_PAIR, list(combinations(dirs, 2))),
    )
    for kind, groups in cases:
        fresh = patterns if kind == KIND_PAIR else []
        families = [reference_fresh(cf, s, r_values) for s in fresh]
        for ms in groups:
            hits = [s for s in patterns if in_span(sigma_affine(cf, s)[0], list(ms)) is not None]
            on_ms = ([i for i, bl in enumerate(cf.breaklines) if bl.direction == m] for m in ms)
            for js in product(*on_ms):
                families.extend(
                    reference_split(cf, kind, s, js) for s in hits if all(s[j] == 1 for j in js)
                )
        if families:
            break
    return families


# -- forms with parallel breaklines and all three cases --------------------------

small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
offsets = st.sampled_from([F(-2), F(-1, 2), F(0), F(1, 3), F(1), F(5, 2)])


@st.composite
def forms(draw):
    """d0 1-3 and n 1-7, directions from a pool of (at most) three, so several
    terms share a direction.  The affine part cancels a random pattern's
    correction, is that plus c * d_j, or is random."""
    d0 = draw(st.integers(1, 3))
    vector = st.lists(st.integers(-2, 2), min_size=d0, max_size=d0).filter(any)
    pool = sorted({primitive_direction(v)[0] for v in draw(st.lists(vector, min_size=3, max_size=3))})
    keys = draw(st.lists(st.tuples(st.sampled_from(pool), offsets), min_size=1, max_size=7, unique=True))
    terms = tuple((Breakline(d, q), draw(small.filter(bool))) for d, q in sorted(keys))
    sigma = draw(st.lists(st.sampled_from((1, -1)), min_size=len(terms), max_size=len(terms)))
    zero = CanonicalForm(terms, (0,) * d0, 0, d0)
    affine = tuple(-a for a in sigma_affine(zero, sigma)[0])
    kind = draw(st.sampled_from(["pattern", "pattern + c * d_j", "random"]))
    if kind == "pattern + c * d_j":
        c, (bl, _) = draw(small), draw(st.sampled_from(terms))
        affine = tuple(a + c * e for a, e in zip(affine, bl.direction))
    elif kind == "random":
        affine = tuple(draw(st.lists(small, min_size=d0, max_size=d0)))
    return CanonicalForm(terms, affine, draw(small), d0)


# repeated offsets are instantiated once, at their first appearance
r_samples = st.lists(st.sampled_from([F(0), F(1, 2), F(-3), F(7, 4)]), min_size=1, max_size=5)


@settings(max_examples=250, deadline=None)
@given(forms(), r_samples)
def test_families_match_fraction_construction(cf, r):
    expected = reference_enumerate(cf, r)
    report = classify(cf, r_samples=r)
    event(f"case {report.case}, d0 = {cf.d0}")
    got = enumerate_minimal(cf, r_samples=r)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g == e
    assert report.families == tuple(expected)
