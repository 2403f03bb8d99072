"""Transversality checking and the synthesis procedure."""

from fractions import Fraction

import pytest

from relugeo.canonical import canonicalize, evaluate_cf
from relugeo.errors import NotRepresentable, NotTransversal
from relugeo.network import Breakline, evaluate_tuple
from relugeo.pwa import PWASpec, flat_breaklines, parse_pwa
from relugeo.synthesis import (
    Violation,
    check_transversality,
    jump_vector,
    point_on_breakline,
    synthesize,
    synthesize_evaluator,
)

from conftest import T, random_transversal_form

F = Fraction

MEDIAN = parse_pwa(
    "max(min(affine([0,1],0), affine([1,1],0)),"
    " min(max(affine([0,1],0), affine([1,1],0)), affine([0,0],0)))"
)
MEDIAN_BREAKLINES = (
    Breakline((1, 0), F(0)),
    Breakline((0, 1), F(0)),
    Breakline((1, 1), F(0)),
)


class TestCheckTransversality:
    def test_independent_axes(self):
        assert check_transversality([Breakline((1, 0), F(0)), Breakline((0, 1), F(0))]) is None

    def test_three_lines_through_origin(self):
        got = check_transversality(MEDIAN_BREAKLINES)
        assert got == Violation((0, 1, 2), (F(0), F(0)))

    def test_parallel_disjoint_ok(self):
        assert check_transversality([Breakline((1,), F(0)), Breakline((1,), F(1))]) is None

    def test_parallel_lines_in_plane_ok(self):
        assert (
            check_transversality([Breakline((1, 1), F(0)), Breakline((1, 1), F(3))]) is None
        )


class TestPointOnBreakline:
    def test_single_line(self):
        bls = [Breakline((1, 0), F(0))]
        x = point_on_breakline(bls, 0)
        assert x[0] == 0

    def test_avoids_other_axis(self):
        bls = [Breakline((1, 0), F(0)), Breakline((0, 1), F(0))]
        x = point_on_breakline(bls, 0)
        assert x[0] == 0 and x[1] != 0

    def test_avoids_oblique(self):
        bls = [Breakline((1, 0), F(0)), Breakline((1, 1), F(0))]
        x = point_on_breakline(bls, 0)
        assert x[0] == 0 and x[0] + x[1] != 0

    def test_random_arrangements(self, rng):
        for _ in range(15):
            cf = random_transversal_form(rng, rng.randint(1, 3), rng.randint(1, 4))
            bls = list(cf.breaklines)
            for i, bl in enumerate(bls):
                x = point_on_breakline(bls, i, seed=rng.randint(0, 99))
                assert bl.side(x) == 0
                assert all(b.side(x) != 0 for j, b in enumerate(bls) if j != i)


class TestJumpVector:
    def test_relu(self):
        f = lambda x: max(x[0], F(0))
        assert jump_vector(f, Breakline((1,), F(0)), (F(0),)) == (F(1),)

    def test_abs(self):
        f = lambda x: abs(x[0])
        assert jump_vector(f, Breakline((1,), F(0)), (F(0),)) == (F(2),)

    def test_median_jump_depends_on_point(self):
        # across y = 0 the jump differs between x < 0 and x > 0, which is
        # exactly why the function is not representable
        from relugeo.pwa import eval_pwa

        f = lambda x: eval_pwa(MEDIAN, x)
        bl = Breakline((0, 1), F(0))
        left = jump_vector(f, bl, (F(-1), F(0)), step=F(1, 4))
        right = jump_vector(f, bl, (F(1), F(0)), step=F(1, 4))
        assert {left, right} == {(F(0), F(-1)), (F(0), F(1))}

    def test_constancy_on_transversal_arrangement(self, rng):
        for _ in range(10):
            cf = random_transversal_form(rng, 2, rng.randint(2, 3))
            f = lambda x: evaluate_cf(cf, x)
            bls = list(cf.breaklines)
            for i, bl in enumerate(bls):
                x1 = point_on_breakline(bls, i, seed=1)
                x2 = point_on_breakline(bls, i, seed=2)
                if x1 == x2:
                    continue
                assert jump_vector(f, bl, x1) == jump_vector(f, bl, x2)


class TestSynthesize:
    def test_relu_single_neuron(self):
        spec = PWASpec(parse_pwa("relu(affine([1],0))"), (Breakline((1,), F(0)),))
        t = synthesize(spec)
        assert t == T([((1,), 0, 1, 1)])

    def test_abs_three_neurons(self):
        e = parse_pwa("max(affine([1],0), affine([-1],0))")
        t = synthesize(PWASpec(e, (Breakline((1,), F(0)),)))
        assert len(t.neurons) == 3
        cf = canonicalize(t)
        assert cf == canonicalize(T([((1,), 0, 1, 1), ((1,), 0, 1, -1)]))

    def test_auto_breaklines(self):
        e = parse_pwa("relu(affine([1,0],0)) + 2*relu(affine([1,1],-1))")
        t = synthesize(PWASpec(e, tuple(flat_breaklines(e))))
        expected = T([((1, 0), 0, 1, 1), ((1, 1), 1, 2, 1)])
        assert canonicalize(t) == canonicalize(expected)

    def test_counterexample_checked(self):
        with pytest.raises(NotTransversal) as err:
            synthesize(PWASpec(MEDIAN, MEDIAN_BREAKLINES))
        assert err.value.violation.indices == (0, 1, 2)

    def test_counterexample_unchecked(self):
        with pytest.raises(NotRepresentable) as err:
            synthesize(PWASpec(MEDIAN, MEDIAN_BREAKLINES), check=False)
        assert err.value.reason == "ResidualNotAffine"

    def test_missing_breakline_detected(self):
        # declare only one of the two breaklines; either the residual check
        # or the final sampled verification must notice the undeclared kink
        f = lambda x: max(x[0], F(0)) + max(x[0] - 1, F(0))
        with pytest.raises(NotRepresentable) as err:
            synthesize_evaluator(f, [Breakline((1,), F(0))], 1)
        assert err.value.reason in ("ResidualNotAffine", "MissingBreakline")

    def test_round_trip_random(self, rng):
        for _ in range(15):
            d0 = rng.randint(1, 3)
            cf = random_transversal_form(rng, d0, rng.randint(1, 4))
            t = synthesize_evaluator(
                lambda x: evaluate_cf(cf, x), cf.breaklines, d0, seed=rng.randint(0, 999)
            )
            assert canonicalize(t, d0=d0) == cf
            assert len(t.neurons) <= cf.n + 2

    def test_budget_tight_when_affine_part_zero(self, rng):
        for _ in range(5):
            cf = random_transversal_form(rng, 2, 2)
            cf = type(cf)(cf.terms, (F(0), F(0)), cf.bias, 2)
            t = synthesize_evaluator(lambda x: evaluate_cf(cf, x), cf.breaklines, 2)
            assert len(t.neurons) <= cf.n


class TestVerification:
    def test_default_check_samples_1000_points(self):
        # the sampled check is the only guard against undeclared breaklines
        # of a black-box evaluator, so its length is pinned here
        def calls_of(**kwargs):
            calls = []

            def f(x):
                calls.append(x)
                return max(x[0], F(0)) + max(x[1] - x[0] - 1, F(0))

            bls = [Breakline((1, 0), F(0)), Breakline((1, -1), F(-1))]
            synthesize_evaluator(f, bls, 2, seed=3, **kwargs)
            return len(calls)

        assert calls_of() == calls_of(n_verify=0) + 1000
        assert calls_of(n_verify=1000) == calls_of()
