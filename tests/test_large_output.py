"""Large `classify` and `enum` outputs against a per-neuron reference serializer.

The reference below builds a fresh dict for every neuron of every family, with
nothing shared, and renders it with the stdlib encoder.  Seeded case I, II and
III forms up to n = 8 must come out of `cli.run` byte-identical to it; the
case-III form at n = 8 has 256 extra-breakline families.
"""

import json
import random
from fractions import Fraction

import pytest

from relugeo import jsonio
from relugeo.canonical import CanonicalForm
from relugeo.cli import run
from relugeo.exact import rat_str
from relugeo.minimality import KIND_FRESH, classify, enumerate_minimal

from conftest import nonzero_fraction, random_breaklines

P = 101  # denominator of the affine parts; kink sums have denominators coprime to it


def ref_tuple_to_dict(t):
    return {
        "neurons": [
            {
                "d": list(nr.breakline.direction),
                "q": rat_str(nr.breakline.offset),
                "kink": rat_str(nr.kink),
                "orient": nr.orientation,
            }
            for nr in t.neurons
        ],
        "bias": rat_str(t.out_bias),
    }


def ref_family_to_dict(fam):
    out = {
        "kind": fam.kind,
        "sigma": list(fam.sigma),
        "provenance": [j + 1 for j in fam.provenance],
        "tuples": [ref_tuple_to_dict(t) for t in fam.tuples],
    }
    if fam.kind == KIND_FRESH:
        out["r_values"] = [rat_str(r) for r in fam.r_values]
    return out


def ref_report_to_dict(report):
    return {
        "case": report.case,
        "min_width": report.min_width,
        "families": [ref_family_to_dict(f) for f in report.families],
        "components": [
            {"dim": dim, "count": str(count)} for dim, count in report.manifold_components
        ],
    }


def case_form(case, d0, n, seed):
    """A form of the given case: affine part -sum of k*d over a pattern's -1
    terms (I), that plus d_j/P (II), or a generic u/P (III)."""
    rng = random.Random(seed)
    while True:
        bls = sorted(random_breaklines(rng, d0, n), key=lambda bl: (bl.direction, bl.offset))
        if len({bl.direction for bl in bls}) < n:
            continue  # distinct directions: no two terms share a line of J(m)
        terms = [(bl, nonzero_fraction(rng)) for bl in bls]
        sigma = [rng.choice((1, -1)) for _ in terms]
        j = rng.randrange(n)
        sigma[j] = 1
        affine = [Fraction(0)] * d0
        for (bl, k), s in zip(terms, sigma):
            if s == -1:
                affine = [a - k * e for a, e in zip(affine, bl.direction)]
        if case == "II":
            affine = [a + Fraction(e, P) for a, e in zip(affine, terms[j][0].direction)]
        if case == "III":
            affine = [Fraction(rng.randint(-P + 1, P - 1), P) for _ in range(d0)]
        cf = CanonicalForm(terms, affine, Fraction(rng.randint(-6, 6), rng.randint(1, 3)), d0)
        if classify(cf).case == case:
            return cf


FORMS = [
    ("I", 2, 6, 1),
    ("I", 3, 8, 2),
    ("II", 2, 5, 3),
    ("II", 3, 8, 4),
    ("III", 2, 8, 5),
    ("III", 3, 6, 6),
]


@pytest.mark.parametrize("case, d0, n, seed", FORMS, ids=[f"{c}-d{d}-n{n}" for c, d, n, _ in FORMS])
def test_cli_output_matches_the_per_neuron_reference(tmp_path, capsys, case, d0, n, seed):
    cf = case_form(case, d0, n, seed)
    path = tmp_path / "form.json"
    path.write_text(json.dumps(jsonio.form_to_dict(cf)))

    report = classify(cf)
    if case == "III" and n == 8:
        assert sum(f.kind == KIND_FRESH for f in report.families) == 256
    assert jsonio.report_to_dict(report) == ref_report_to_dict(report)
    assert run(["classify", str(path)]) == 0
    assert capsys.readouterr().out == json.dumps(ref_report_to_dict(report), indent=2) + "\n"

    families = enumerate_minimal(cf, r_samples=(0, 1, -2))
    expected = {"families": [ref_family_to_dict(f) for f in families]}
    assert run(["enum", str(path), "--r", "0,1,-2"]) == 0
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"
