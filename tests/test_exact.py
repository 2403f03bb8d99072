"""Exact linear algebra: frozen examples plus algebraic properties."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from relugeo.errors import DimensionMismatch, ZeroVector
from relugeo.exact import (
    affine_fit,
    dot,
    in_span,
    primitive_direction,
    rank,
    rat,
    rat_str,
    solve_affine,
)

F = Fraction


class TestRat:
    def test_parse_fraction_string(self):
        assert rat("3/4") == F(3, 4)
        assert rat("-7") == F(-7)

    def test_parse_decimal_exactly(self):
        assert rat("1.25") == F(5, 4)
        assert rat("0.1") == F(1, 10)

    def test_round_trip(self):
        assert rat_str(F(3, 4)) == "3/4"
        assert rat_str(F(-2, 1)) == "-2"
        assert rat(rat_str(F(22, 7))) == F(22, 7)


class TestPrimitiveDirection:
    def test_scaled_axis(self):
        assert primitive_direction((F(2, 3), 0)) == ((1, 0), F(2, 3))

    def test_gcd_and_lex_flip(self):
        assert primitive_direction((-4, -2)) == ((2, 1), F(-2))

    def test_negative_axis(self):
        assert primitive_direction((0, -5)) == ((0, 1), F(-5))

    def test_zero_rejected(self):
        with pytest.raises(ZeroVector):
            primitive_direction((0, 0, 0))

    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=4),
        st.fractions(min_value=-8, max_value=8).filter(lambda s: s != 0),
    )
    def test_idempotent_in_direction(self, raw, s):
        if not any(raw):
            return
        d, _ = primitive_direction(raw)
        got_d, got_s = primitive_direction(tuple(s * e for e in d))
        assert got_d == d
        assert got_s == s


class TestRank:
    def test_identity(self):
        assert rank([(1, 0), (0, 1)]) == 2

    def test_proportional_rows(self):
        assert rank([(1, 2), (2, 4)]) == 1

    def test_empty(self):
        assert rank([]) == 0

    def test_mixed_lengths_rejected(self):
        with pytest.raises(DimensionMismatch):
            rank([(1, 0), (1,)])

    def test_scaling_and_permutation_invariance(self, rng):
        for _ in range(50):
            rows = [
                tuple(F(rng.randint(-5, 5)) for _ in range(3))
                for _ in range(rng.randint(1, 4))
            ]
            base = rank(rows)
            scaled = []
            for row in rows:
                c = F(rng.choice([1, 2, -3]))
                scaled.append(tuple(c * e for e in row))
            rng.shuffle(scaled)
            assert rank(scaled) == base


class TestInSpan:
    def test_single_generator(self):
        assert in_span((3, 0), [(1, 0)]) == (F(3),)

    def test_not_in_line(self):
        assert in_span((1, 1), [(1, 0)]) is None

    def test_standard_basis(self):
        assert in_span((2, 2), [(1, 0), (0, 1)]) == (F(2), F(2))

    def test_dependent_basis_reduces_to_first(self):
        # (2,4) = 2*(1,2); the second generator is redundant
        assert in_span((2, 4), [(1, 2), (2, 4)]) == (F(2),)

    def test_zero_vector_always_in_span(self):
        assert in_span((0, 0), [(1, 3)]) == (F(0),)


class TestAffineFit:
    def test_identity_on_line(self):
        assert affine_fit([(0,), (1,)], [0, 1]) == ((F(1),), F(0))

    def test_constant(self):
        assert affine_fit([(0, 0), (1, 0), (0, 1)], [5, 5, 5]) == ((F(0), F(0)), F(5))

    def test_plane(self):
        assert affine_fit([(0, 0), (1, 0), (0, 1)], [0, 2, 3]) == ((F(2), F(3)), F(0))

    def test_degenerate_points(self):
        assert affine_fit([(0, 0), (1, 1), (2, 2)], [0, 1, 2]) is None

    def test_reproduces_inputs(self, rng):
        for _ in range(30):
            d0 = rng.randint(1, 3)
            pts = [
                tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d0))
                for _ in range(d0 + 1)
            ]
            vals = [F(rng.randint(-9, 9)) for _ in pts]
            fit = affine_fit(pts, vals)
            if fit is None:
                continue
            g, c = fit
            for p, v in zip(pts, vals):
                assert dot(g, p) + c == v


small_rationals = st.builds(F, st.integers(-3, 3), st.integers(1, 3))


def small_vectors(dim):
    return st.tuples(*[small_rationals] * dim)


class TestEliminationProperties:
    """rank and in_span both come from solve_affine; check them against algebra."""

    @given(st.integers(1, 4).flatmap(lambda n: st.lists(small_vectors(n), min_size=1, max_size=4)))
    def test_rank_equals_rank_of_transpose(self, rows):
        assert rank(rows) == rank(list(zip(*rows)))

    @given(
        st.integers(1, 4).flatmap(
            lambda dim: st.tuples(
                small_vectors(dim), st.lists(small_vectors(dim), min_size=1, max_size=4)
            )
        )
    )
    # a zero first generator spans nothing, so it must not replace the pair
    @example(((F(1),), [(F(0),), (F(1),)]))
    def test_in_span_decides_membership(self, case):
        v, basis = case
        coeffs = in_span(v, basis)
        rows = [[b[i] for b in basis] for i in range(len(v))]
        assert (coeffs is None) == (solve_affine(rows, v, len(basis)) is None)
        if coeffs is not None:
            rebuilt = tuple(
                sum((c * b[i] for c, b in zip(coeffs, basis)), F(0)) for i in range(len(v))
            )
            assert rebuilt == v
