"""Network model: response evaluation, effective tuples and reparametrization."""

from fractions import Fraction

import pytest

from relugeo.errors import DegenerateNeuron, DimensionMismatch, NonPositiveScale, ZeroVector
from relugeo.exact import affine_fit
from relugeo.network import (
    Breakline,
    EffectiveTuple,
    Neuron,
    ShallowNet,
    affine_family,
    effective_tuple,
    evaluate_net,
    evaluate_tuple,
    expand,
    random_net,
)

from conftest import T, random_point

F = Fraction


def net(w1, b1, w2, b2):
    return ShallowNet(
        tuple(tuple(F(e) for e in row) for row in w1),
        tuple(F(e) for e in b1),
        tuple(F(e) for e in w2),
        F(b2),
    )


class TestEvaluateNet:
    def test_relu_negative_side(self):
        assert evaluate_net(net([[1]], [0], [1], 0), (-3,)) == 0

    def test_relu_identity_region(self):
        assert evaluate_net(net([[1]], [0], [1], 0), (2,)) == 2

    def test_abs(self):
        absnet = net([[1], [-1]], [0, 0], [1, 1], 0)
        assert evaluate_net(absnet, (-3,)) == 3
        assert evaluate_net(absnet, (5,)) == 5


class TestEffectiveTuple:
    def test_rescaled_neuron(self):
        t = effective_tuple(net([[2]], [-2], [3], 1))
        assert t == T([((1,), 1, 6, 1)], 1)
        # response is 1 + 6(x-1)_+
        assert evaluate_tuple(t, (0,)) == 1
        assert evaluate_tuple(t, (2,)) == 7

    def test_lex_flip_gives_negative_orientation(self):
        # response is (-x1)_+, i.e. kink 1 on the negative side of x1 = 0
        t = effective_tuple(net([[-1, 0]], [0], [1], 0))
        assert t == T([((1, 0), 0, 1, -1)], 0)
        assert evaluate_tuple(t, (-2, 5)) == 2
        assert evaluate_tuple(t, (3, 0)) == 0

    def test_degenerate_raises_with_index(self):
        with pytest.raises(DegenerateNeuron) as err:
            effective_tuple(net([[0]], [1], [1], 0))
        assert err.value.index == 1

    def test_response_preserved(self, rng):
        for seed in range(30):
            n = random_net(rng.randint(1, 3), rng.randint(1, 4), seed)
            t = effective_tuple(n)
            for _ in range(10):
                x = random_point(rng, n.d0)
                assert evaluate_net(n, x) == evaluate_tuple(t, x)


class TestEvaluateTuple:
    def test_relu(self):
        assert evaluate_tuple(T([((1,), 0, 1, 1)]), (5,)) == 5

    def test_negative_orientation_inactive(self):
        assert evaluate_tuple(T([((1,), 0, 1, -1)]), (5,)) == 0


class TestExpand:
    def test_unit_scale(self):
        n = expand(T([((1,), 0, 1, 1)]), (1,))
        assert n == net([[1]], [0], [1], 0)

    def test_scale_two(self):
        n = expand(T([((1,), 0, 1, 1)]), (2,))
        assert n == net([[2]], [0], [F(1, 2)], 0)
        for x in ((-1,), (3,)):
            assert evaluate_net(n, x) == evaluate_net(net([[1]], [0], [1], 0), x)

    def test_negative_orientation(self):
        n = expand(T([((1, 0), 1, -1, -1)]), (3,))
        assert n == net([[-3, 0]], [3], [F(-1, 3)], 0)
        assert effective_tuple(n) == T([((1, 0), 1, -1, -1)])

    def test_round_trip(self, rng):
        for seed in range(20):
            t = effective_tuple(random_net(rng.randint(1, 3), rng.randint(1, 4), seed + 100))
            scales = tuple(F(rng.randint(1, 5), rng.randint(1, 3)) for _ in t.neurons)
            assert effective_tuple(expand(t, scales)) == t

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(NonPositiveScale):
            expand(T([((1,), 0, 1, 1)]), (0,))


class TestAffineFamily:
    def test_identity_map(self):
        n = affine_family((1,), 0, (1, 1, 0))
        assert evaluate_net(n, (2,)) == 2
        assert evaluate_net(n, (-2,)) == -2

    def test_two_dim(self):
        n = affine_family((0, 2), 1, (1, 1, 0))
        assert evaluate_net(n, (0, 0)) == 1
        assert evaluate_net(n, (3, -2)) == -3

    def test_shifted_offset(self):
        assert evaluate_net(affine_family((1,), 0, (2, 1, 1)), (0,)) == 0

    def test_exactly_affine(self, rng):
        for _ in range(20):
            d0 = rng.randint(1, 3)
            a = tuple(F(rng.randint(-4, 4)) for _ in range(d0))
            if all(e == 0 for e in a):
                continue
            b = F(rng.randint(-4, 4))
            n = affine_family(a, b, (F(1, 2), 2, rng.randint(-2, 2)))
            pts = [tuple(F(0) for _ in range(d0))] + [
                tuple(F(1 if j == c else 0) for j in range(d0)) for c in range(d0)
            ]
            fit = affine_fit(pts, [evaluate_net(n, p) for p in pts])
            assert fit == (a, b)

    def test_zero_gradient_rejected(self):
        with pytest.raises(ZeroVector):
            affine_family((0, 0), 1, (1, 1, 0))


class TestRandomNet:
    def test_deterministic(self):
        assert random_net(1, 2, 7) == random_net(1, 2, 7)
        assert random_net(2, 3, 1) != random_net(2, 3, 2)

    def test_non_degenerate(self):
        for seed in range(20):
            effective_tuple(random_net(2, 3, seed, 4))

    def test_shape(self):
        n = random_net(1, 1, 0, 2)
        assert n.d0 == 1 and n.d1 == 1


class TestSorted:
    def test_permutation_canonical(self):
        a = T([((1,), 0, 1, 1), ((1,), 1, 2, 1)])
        b = EffectiveTuple(tuple(reversed(a.neurons)), a.out_bias)
        assert a.sorted() == b.sorted()


class TestTupleDimension:
    def test_mixed_dimensions_rejected_at_construction(self):
        with pytest.raises(DimensionMismatch, match="mixed breakline dimensions"):
            T([((1,), 0, 1, 1), ((1, 0), 0, 1, 1)])

    def test_wrong_point_length_names_the_tuple(self):
        with pytest.raises(DimensionMismatch, match="point has length 1, tuple expects 2"):
            evaluate_tuple(T([((1, 0), 0, 1, 1)]), (1,))
