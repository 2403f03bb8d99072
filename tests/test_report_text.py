"""`jsonio.report_text` and `enum_text` against a per-neuron reference serializer.

The reference (`test_large_output`) builds a fresh dict for every neuron of
every family and renders it with the stdlib encoder, never through `jsonio`.
Forms in d0 = 1 to 3 of all five cases, with offsets that repeat, are
negative or fractional, or none at all, must come out of the writer byte-identical to it, and
`report_to_dict` must equal the reference's dict.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from relugeo import jsonio
from relugeo.canonical import CanonicalForm
from relugeo.cli import run
from relugeo.exact import primitive_direction, rat_str
from relugeo.minimality import classify, enumerate_minimal
from relugeo.network import Breakline

from test_large_output import P, ref_family_to_dict, ref_report_to_dict

CASES = ("I", "II", "III", "affine", "constant")

small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
# repeats are likely: most offsets come from a pool of four; with none, an
# extra-breakline family has "tuples": [] and "r_values": []
pool = st.sampled_from([0, -1, Fraction(1, 2), Fraction(-7, 3)])
offsets = st.lists(pool | small, max_size=4)


def nonzero(v):
    return v if any(v) else [1, *v[1:]]


@st.composite
def forms(draw, case):
    """A form in d0 = 1 to 3 built to be of ``case``, as `test_large_output.case_form`
    builds its forms: the affine part cancels a pattern's -1 terms (I), is
    that plus d_j/P (II), or a generic u/P (III)."""
    d0 = draw(st.integers(1, 3))
    if case in ("affine", "constant"):
        affine = [Fraction(0)] * d0
        if case == "affine":
            affine = draw(st.lists(small, min_size=d0, max_size=d0).map(nonzero))
        return CanonicalForm((), affine, draw(small), d0)
    raw = st.lists(st.integers(-3, 3), min_size=d0, max_size=d0).map(nonzero)
    breakline = st.builds(lambda d, q: Breakline(primitive_direction(d)[0], q), raw, small)
    bls = draw(st.lists(breakline, min_size=1, max_size=5, unique=True))
    kinks = small.map(lambda k: k or Fraction(1))
    terms = [(bl, draw(kinks)) for bl in sorted(bls, key=lambda b: (b.direction, b.offset))]
    sigma = draw(st.lists(st.sampled_from((1, -1)), min_size=len(terms), max_size=len(terms)))
    j = draw(st.integers(0, len(terms) - 1))
    affine = [Fraction(0)] * d0
    for (bl, k), s in zip(terms, sigma):
        if s == -1:
            affine = [a - k * e for a, e in zip(affine, bl.direction)]
    if case == "II":
        affine = [a + Fraction(e, P) for a, e in zip(affine, terms[j][0].direction)]
    if case == "III":
        affine = [Fraction(draw(st.integers(-P + 1, P - 1)), P) for _ in range(d0)]
    return CanonicalForm(terms, affine, draw(small), d0)


@pytest.mark.parametrize("case", CASES)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), r_samples=offsets)
def test_the_writer_matches_the_per_neuron_reference(case, data, r_samples):
    cf = data.draw(forms(case))
    report = classify(cf, r_samples=r_samples)
    assume(report.case == case)
    expected = ref_report_to_dict(report)
    assert jsonio.report_text(report) == json.dumps(expected, indent=2)
    assert jsonio.report_to_dict(report) == expected

    families = enumerate_minimal(cf, r_samples=r_samples)
    expected = {"families": [ref_family_to_dict(f) for f in families]}
    assert jsonio.enum_text(families) == json.dumps(expected, indent=2)


@pytest.mark.parametrize(
    "affine, argv, empty",
    [
        (["0", "0"], ["classify"], '"families": []'),
        (["1/2", "-3"], ["classify", "--r", "0,0,-1/2"], '"sigma": []'),
        (["1/2", "-3"], ["enum", "--r=-1/2,0,-1/2"], '"provenance": []'),
    ],
)
def test_constant_and_affine_forms_print_the_stdlib_text(tmp_path, capsys, affine, argv, empty):
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"terms": [], "affine": affine, "bias": "1", "d0": 2}))
    assert run([argv[0], str(path), *argv[1:]]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    assert empty in out


def test_rat_str_pins():
    assert rat_str(-7) == "-7"
    assert rat_str(Fraction(-3, 6)) == "-1/2"
    assert rat_str(Fraction(8, 4)) == "2"
    assert rat_str("6/4") == "3/2"
