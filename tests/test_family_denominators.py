"""Case II and III families over many coprime denominators.

``enumerate_minimal`` writes each kink and bias of a family as one Fraction
of integers over a common denominator: the lcm m of the kink and affine
denominators, the lcm m_b of the bias and kink * offset ones, and the pivot
p of a direction group's elimination.  Here every term's kink and offset
have distinct prime denominators up to 13 and the affine part has the prime
P = 97, so m and m_b are products of several primes and any denominator
dropped or counted twice shows.  The forms follow the ``classify-mix``
bench shapes: d0 2-3, n 5-7, distinct directions.
"""

import json
import random
from fractions import Fraction

import pytest

from relugeo.canonical import CanonicalForm, sigma_affine
from relugeo.exact import primitive_direction
from relugeo.jsonio import enum_text, report_text
from relugeo.minimality import KIND_FRESH, classify, enumerate_minimal
from relugeo.network import Breakline

from test_integer_families import reference_enumerate
from test_large_output import ref_family_to_dict, ref_report_to_dict

P = 97
PRIMES = (2, 3, 5, 7, 11, 13)
# negative, fractional and repeated offsets; a repeat is instantiated once
R_SAMPLES = (Fraction(-7, 3), 0, Fraction(5, 2), Fraction(-7, 3), Fraction(1, 13), -4)


def _fraction(rng, bound, den):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, bound), den)


def _off_line(u, d):
    """No 2x2 minor of (u, d) that d leaves free vanishes mod P, so u / P plus
    a kink sum (denominators coprime to P) lies on no direction's line and, in
    d0 = 3, in no plane through d with a zero coefficient on d."""
    pairs = [(i, k) for i in range(len(d)) for k in range(i + 1, len(d)) if d[i] or d[k]]
    return all((u[i] * d[k] - u[k] * d[i]) % P for i, k in pairs)


def coprime_form(case, d0, n, seed):
    """A case II or III form: kink and offset of each term over two distinct
    primes, the affine part over P (case II: a pattern's correction cancelled
    up to c / P times one direction; case III: u / P off every line)."""
    rng = random.Random(seed)
    while True:
        dirs = set()
        while len(dirs) < n:
            v = [rng.randint(-3, 3) for _ in range(d0)]
            if any(v):
                dirs.add(primitive_direction(v)[0])
        terms = []
        for d in sorted(dirs):
            kd, qd = rng.sample(PRIMES, 2)
            terms.append((Breakline(d, Fraction(rng.randint(-12, 12), qd)), _fraction(rng, 12, kd)))
        bias = Fraction(rng.randint(-6, 6), rng.choice(PRIMES))
        if case == "III":
            u = [rng.randint(-(P - 1), P - 1) for _ in range(d0)]
            if not all(_off_line(u, bl.direction) for bl, _ in terms):
                continue
            affine = [Fraction(e, P) for e in u]
        else:
            sigma = [rng.choice((1, -1)) for _ in terms]
            j = rng.randrange(n)
            sigma[j] = 1
            zero = CanonicalForm(terms, (0,) * d0, 0, d0)
            delta = _fraction(rng, P - 1, P)
            a_sigma = sigma_affine(zero, sigma)[0]
            affine = [delta * e - a for a, e in zip(a_sigma, terms[j][0].direction)]
        return CanonicalForm(terms, affine, bias, d0)


FORMS = [
    ("II", 2, 6, 1),
    ("II", 3, 7, 2),
    ("II", 3, 5, 3),
    ("III", 2, 5, 4),
    ("III", 2, 7, 5),
    ("III", 3, 6, 6),
]


def _values(families):
    """Every rational a family emits: offsets, kinks, biases and r_values."""
    for fam in families:
        yield from fam.r_values
        for t in fam.tuples:
            yield t.out_bias
            for nr in t.neurons:
                yield nr.kink
                yield nr.breakline.offset


@pytest.mark.parametrize("case, d0, n, seed", FORMS, ids=[f"{c}-d{d}-n{n}" for c, d, n, _ in FORMS])
def test_families_over_coprime_denominators(case, d0, n, seed):
    cf = coprime_form(case, d0, n, seed)
    report = classify(cf, r_samples=R_SAMPLES)
    assert (report.case, report.min_width) == (case, n + {"II": 1, "III": 2}[case])

    got = enumerate_minimal(cf, r_samples=R_SAMPLES)
    assert got == reference_enumerate(cf, R_SAMPLES)
    assert report.families == tuple(got)
    fresh = [f for f in got if f.kind == KIND_FRESH]
    assert len(fresh) == (2**n if case == "III" else 0)
    assert all(f.r_values == (Fraction(-7, 3), 0, Fraction(5, 2), Fraction(1, 13), -4) for f in fresh)
    assert all(type(v) is Fraction for v in _values(got))

    assert report_text(report) == json.dumps(ref_report_to_dict(report), indent=2)
    expected = {"families": [ref_family_to_dict(f) for f in got]}
    assert enum_text(got) == json.dumps(expected, indent=2)
