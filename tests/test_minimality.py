"""Minimal widths, representation enumeration and the brute-force oracle."""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import relugeo
from relugeo.canonical import CanonicalForm, canonicalize, sigma_affine
from relugeo.errors import CapExceeded, EnumerationCapExceeded, EqualDirections
from relugeo.exact import in_span
from relugeo.minimality import (
    KIND_DUP,
    KIND_EXACT,
    KIND_FRESH,
    KIND_PAIR,
    brute_force_min_width,
    brute_force_minimal_tuples,
    classify,
    compute_J,
    compute_J_pair,
    compute_J_single,
    enumerate_minimal,
    verify_representation,
)

from conftest import T, nonzero_fraction, random_form

F = Fraction

RELU = canonicalize(T([((1,), 0, 1, 1)]))
ABS = canonicalize(T([((1,), 0, 1, 1), ((1,), 0, 1, -1)]))
# f(x, y) = (x)_+ + y
XPLUS_Y = CanonicalForm(((T([((1, 0), 0, 1, 1)]).neurons[0].breakline, F(1)),), (F(0), F(1)), F(0), 2)
# f(x, y) = (x)_+ + (y)_+ + x + y
FOUR = CanonicalForm(
    (
        (T([((0, 1), 0, 1, 1)]).neurons[0].breakline, F(1)),
        (T([((1, 0), 0, 1, 1)]).neurons[0].breakline, F(1)),
    ),
    (F(1), F(1)),
    F(0),
    2,
)


class TestComputeJ:
    def test_relu(self):
        assert compute_J(RELU) == [(1,)]

    def test_abs_empty(self):
        assert compute_J(ABS) == []

    def test_flip_cancels_affine(self):
        cf = CanonicalForm(RELU.terms, (F(-1),), F(0), 1)
        assert compute_J(cf) == [(-1,)]

    def test_cap(self):
        with pytest.raises(EnumerationCapExceeded):
            compute_J(ABS, cap=0)


class TestComputeJSingle:
    def test_abs_both_patterns(self):
        assert compute_J_single(ABS, (1,)) == [(1,), (-1,)]

    def test_off_line_empty(self):
        assert compute_J_single(XPLUS_Y, (1, 0)) == []

    def test_zero_affine_contains_J(self):
        assert compute_J_single(RELU, (1,)) == [(1,), (-1,)] or (1,) in compute_J_single(RELU, (1,))


class TestComputeJPair:
    def test_spanning_pair_gives_all(self):
        assert len(compute_J_pair(FOUR, (1, 0), (0, 1))) == 4

    def test_outside_span_empty(self):
        cf = CanonicalForm((), (F(0), F(0), F(1)), F(0), 3)
        assert compute_J_pair(cf, (1, 0, 0), (0, 1, 0)) == []

    def test_equal_directions_rejected(self):
        with pytest.raises(EqualDirections):
            compute_J_pair(FOUR, (1, 0), (1, 0))


class TestClassify:
    def test_relu_case_i(self):
        rep = classify(RELU)
        assert rep.case == "I"
        assert rep.min_width == 1
        assert rep.manifold_components == ((1, 1),)

    def test_abs_case_ii(self):
        rep = classify(ABS)
        assert rep.case == "II"
        assert rep.min_width == 2
        assert len(rep.families) == 1
        assert rep.manifold_components == ((2, 2),)

    def test_xplus_y_case_iii(self):
        rep = classify(XPLUS_Y)
        assert rep.case == "III"
        assert rep.min_width == 3
        assert rep.manifold_components == ((4, 12),)
        assert all(f.kind == KIND_FRESH for f in rep.families)

    def test_four_neuron_case_iii_with_pair(self):
        rep = classify(FOUR)
        assert rep.case == "III"
        assert rep.min_width == 4
        kinds = sorted(f.kind for f in rep.families)
        assert kinds == [KIND_PAIR] + [KIND_FRESH] * 4
        assert rep.manifold_components == ((5, 96), (4, 24))

    def test_affine_case(self):
        cf = CanonicalForm((), (F(2),), F(1), 1)
        rep = classify(cf)
        assert rep.case == "affine"
        assert rep.min_width == 2
        assert rep.manifold_components == ((3, 2),)

    def test_constant_case(self):
        cf = CanonicalForm((), (F(0), F(0)), F(7), 2)
        rep = classify(cf)
        assert rep.case == "constant"
        assert rep.min_width == 2
        assert rep.families == ()


class TestEnumerateMinimal:
    def test_relu_identity_representation(self):
        fams = enumerate_minimal(RELU)
        assert len(fams) == 1
        assert fams[0].kind == KIND_EXACT
        assert fams[0].tuples[0] == T([((1,), 0, 1, 1)])

    def test_abs_recovers_two_relu_form(self):
        fams = enumerate_minimal(ABS)
        assert len(fams) == 1
        assert fams[0].kind == KIND_DUP
        # |x| = (x)_+ + (-x)_+
        assert fams[0].tuples[0].sorted() == T([((1,), 0, 1, 1), ((1,), 0, 1, -1)]).sorted()

    def test_four_family_split(self):
        fams = enumerate_minimal(FOUR)
        fresh = [f for f in fams if f.kind == KIND_FRESH]
        pair = [f for f in fams if f.kind == KIND_PAIR]
        assert len(fresh) == 4 and len(pair) == 1
        assert pair[0].sigma == (1, 1)

    def test_every_tuple_verifies(self, rng):
        for _ in range(25):
            cf = random_form(rng, rng.randint(1, 3), rng.randint(1, 3), bound=2)
            for fam in enumerate_minimal(cf, r_samples=(0, 1, F(-1, 2))):
                for t in fam.tuples:
                    assert verify_representation(cf, t), (cf, fam.kind, t)

    def test_families_distinct_mod_permutation(self, rng):
        for _ in range(25):
            cf = random_form(rng, rng.randint(1, 3), rng.randint(1, 3), bound=2)
            seen = set()
            for fam in enumerate_minimal(cf):
                for t in fam.tuples:
                    key = t.sorted()
                    assert key not in seen
                    seen.add(key)

    def test_affine_enumeration(self):
        cf = CanonicalForm((), (F(2), F(0)), F(1), 2)
        fams = enumerate_minimal(cf, r_samples=(0, 3))
        assert len(fams) == 1 and fams[0].kind == KIND_FRESH
        for t in fams[0].tuples:
            assert verify_representation(cf, t)


class TestVerifyRepresentation:
    def test_identity(self):
        assert verify_representation(RELU, T([((1,), 0, 1, 1)]))

    def test_wrong_function(self):
        assert not verify_representation(RELU, T([((1,), 0, 1, 1), ((1,), 0, 1, -1)]))

    def test_case_ii_tuple(self):
        t = enumerate_minimal(ABS)[0].tuples[0]
        assert verify_representation(ABS, t)


class TestBruteForce:
    def test_named_widths(self):
        assert brute_force_min_width(RELU, 3) == 1
        assert brute_force_min_width(ABS, 3) == 2
        assert brute_force_min_width(XPLUS_Y, 3) == 3
        assert brute_force_min_width(FOUR, 4) == 4

    def test_sentinel(self):
        assert brute_force_min_width(ABS, 1) == 2

    def test_desk_scale_guard(self):
        big = random_form(__import__("random").Random(0), 3, 4)
        with pytest.raises(CapExceeded):
            brute_force_min_width(big, 7)

    def test_agrees_with_classify(self, rng):
        for _ in range(40):
            cf = random_form(rng, rng.randint(1, 3), rng.randint(1, 3), bound=2)
            assert classify(cf).min_width == brute_force_min_width(cf, cf.n + 2)

    def test_tuples_match_enumeration(self, rng):
        r_samples = (0, 2)
        for _ in range(30):
            cf = random_form(rng, rng.randint(1, 2), rng.randint(1, 3), bound=2)
            enum = {
                t.sorted()
                for fam in enumerate_minimal(cf, r_samples=r_samples)
                for t in fam.tuples
            }
            assert brute_force_minimal_tuples(cf, r_samples=r_samples) == enum


class TestUnivariateDichotomy:
    def test_never_case_iii(self, rng):
        for _ in range(100):
            cf = random_form(rng, 1, rng.randint(1, 4))
            assert classify(cf).case != "III"


def _reference_scan(cf, gens):
    """The per-pattern loop: one sigma_affine and one in_span per sign pattern."""
    return [
        s
        for s in product((1, -1), repeat=cf.n)
        if in_span(sigma_affine(cf, s)[0], gens) is not None
    ]


class TestSpanKernelDifferential:
    def test_scans_match_reference_loop_in_order(self, rng):
        scans = (compute_J, compute_J_single, compute_J_pair)
        for _ in range(40):
            d0, n = rng.randint(1, 3), rng.randint(0, 10)
            cf = random_form(rng, d0, n)
            dirs = sorted({bl.direction for bl in cf.breaklines})
            gens = rng.sample(dirs, min(len(dirs), rng.randint(0, 2)))
            # a_sigma of this pattern is a combination of gens, so it is a hit
            sigma = tuple(rng.choice((1, -1)) for _ in range(n))
            a0, _ = sigma_affine(CanonicalForm(cf.terms, (0,) * d0, 0, d0), sigma)
            affine = [-a for a in a0]
            for m in gens:
                c = nonzero_fraction(rng)
                affine = [a + c * e for a, e in zip(affine, m)]
            cf = CanonicalForm(cf.terms, tuple(affine), cf.bias, d0)
            got = scans[len(gens)](cf, *gens)
            assert sigma in got
            assert got == _reference_scan(cf, gens)
            assert compute_J(cf) == _reference_scan(cf, [])


def test_compute_J_at_n22_finishes_within_a_minute():
    code = """
import random
from fractions import Fraction
from relugeo.canonical import CanonicalForm, sigma_affine
from relugeo.minimality import compute_J
from relugeo.network import Breakline

rng = random.Random(22)
terms = tuple(
    (Breakline((1, j), rng.randint(-3, 3)), Fraction(rng.randint(1, 9), rng.randint(1, 4)))
    for j in range(22)
)
sigma = tuple(rng.choice((1, -1)) for _ in terms)
a0, _ = sigma_affine(CanonicalForm(terms, (0, 0), 0, 2), sigma)
cf = CanonicalForm(terms, tuple(-a for a in a0), 0, 2)
J = compute_J(cf)
assert sigma in J and all(sigma_affine(cf, s)[0] == (0, 0) for s in J)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(relugeo.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
