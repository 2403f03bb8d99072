"""Closed-form synthesis helpers against the general routines they replaced.

``point_on_breakline`` writes each grid candidate in closed form (the free
coordinates are the shifted grid values, the pivot is solved); the reference
sums one spanning vector of the breakline per free coordinate.
``_fit_around`` interpolates its axis-aligned simplex by forward differences
where ``exact.affine_fit`` runs a general elimination.  Synthesis measures
every jump on f itself: at a ``_safe_step`` probe no other declared
breakline changes side, so a response g on those breaklines is affine there
and subtracting it leaves the jump, and every failure, as they were.
"""

import random
from fractions import Fraction
from itertools import product

from relugeo.errors import NotTransversal, RelugeoError
from relugeo.exact import affine_fit
from relugeo.network import EffectiveTuple, Neuron, tuple_evaluator
from relugeo.synthesis import Violation, _fit_around, _safe_step, jump_vector, point_on_breakline

from conftest import nonzero_fraction, random_breakline, random_form, random_point

F = Fraction


def reference_point_on_breakline(breaklines, i, seed=0):
    """Base point plus shifted multiples of the breakline's spanning vectors."""
    breaklines = list(breaklines)
    bl = breaklines[i]
    d0 = bl.d0
    pivot = next(c for c, e in enumerate(bl.direction) if e != 0)
    base = [F(0)] * d0
    base[pivot] = F(bl.offset, bl.direction[pivot])
    for j, b in enumerate(breaklines):
        if j != i and b == bl:
            raise NotTransversal(Violation(tuple(sorted((i, j))), tuple(base)))
    params = [c for c in range(d0) if c != pivot]
    span = []
    for c in params:
        v = [F(0)] * d0
        v[c] = F(1)
        v[pivot] = F(-bl.direction[c], bl.direction[pivot])
        span.append(v)
    others = [b for j, b in enumerate(breaklines) if j != i]
    offset = random.Random(seed).randrange(0, 1000)

    def shell_values(radius):
        if radius == 0:
            yield (0,) * len(params)
            return
        for t in product(range(-radius, radius + 1), repeat=len(params)):
            if max((abs(v) for v in t), default=0) == radius:
                yield t

    radius = 0
    while True:
        for t in shell_values(radius):
            x = list(base)
            for tv, v in zip(t, span):
                shifted = tv + offset if tv >= 0 else tv - offset
                for c in range(d0):
                    x[c] += shifted * v[c]
            if all(b.side(x) != 0 for b in others):
                return tuple(x)
        radius += 1


def outcome(run):
    try:
        return "ok", run()
    except NotTransversal as exc:
        return "NotTransversal", exc.violation
    except RelugeoError as exc:
        return type(exc).__name__, str(exc)


def test_point_on_breakline_matches_span_loop():
    rng = random.Random(7031)
    for _ in range(400):
        d0 = rng.randint(1, 4)
        # small coefficients make lines through the first candidates common
        bls = [random_breakline(rng, d0, bound=2) for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.3:
            bls.insert(rng.randrange(len(bls) + 1), rng.choice(bls))
        i, seed = rng.randrange(len(bls)), rng.randrange(50)
        got = outcome(lambda: point_on_breakline(bls, i, seed))
        assert got == outcome(lambda: reference_point_on_breakline(bls, i, seed))
        if got[0] == "ok":
            assert all(type(c) is F for c in got[1])


def test_fit_around_matches_affine_fit():
    rng = random.Random(7032)
    for _ in range(200):
        d0 = rng.randint(1, 4)
        cf = random_form(rng, d0, rng.randint(0, 4))
        f = cf.evaluator
        center = random_point(rng, d0)
        radius = nonzero_fraction(rng)
        simplex = [center] + [
            tuple(a + radius * (i == c) for i, a in enumerate(center)) for c in range(d0)
        ]
        assert _fit_around(f, center, radius) == affine_fit(simplex, [f(p) for p in simplex])


def test_jump_ignores_responses_on_the_other_breaklines():
    rng = random.Random(7033)
    for _ in range(120):
        d0 = rng.randint(1, 3)
        cf = random_form(rng, d0, rng.randint(1, 4))
        bls = list(cf.breaklines)
        # the declaration need not be f's: a moved line gives NotLocallyAffine
        if rng.random() < 0.3:
            bls[rng.randrange(len(bls))] = random_breakline(rng, d0)
        if len(set(bls)) < len(bls):
            continue
        k = rng.randrange(len(bls))
        x = point_on_breakline(bls, k, rng.randrange(50))
        step = _safe_step(bls, k, x)
        others = [Neuron(b, nonzero_fraction(rng), rng.choice((1, -1))) for b in bls if b != bls[k]]
        g = tuple_evaluator(EffectiveTuple(tuple(others), nonzero_fraction(rng)))
        f = cf.evaluator
        got = outcome(lambda: jump_vector(f, bls[k], x, step=step))
        want = outcome(lambda: jump_vector(lambda p: f(p) - g(p), bls[k], x, step=step))
        assert got == want
