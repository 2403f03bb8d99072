"""Integer and compiled constructions against the plain loops they replaced.

``sigma_affine`` sums the moved affine part and bias in integers over one
common denominator (``canonical._stage``, through ``exact.relu_terms``), and
synthesis reads every kink off f itself and checks the remainder through the
final response.  The references here are the direct ``Fraction`` loop and
the older closure-per-kink peeling of a residual, with a separate residual
check; both ways must agree.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from relugeo.canonical import CanonicalForm, sigma_affine
from relugeo.errors import NotRepresentable, NotTransversal, RelugeoError
from relugeo.exact import affine_fit, dot, is_zero, primitive_direction, solve_affine
from relugeo.network import Breakline, EffectiveTuple, Neuron, tuple_evaluator
from relugeo.synthesis import (
    _safe_step,
    check_transversality,
    jump_vector,
    point_on_breakline,
    synthesize_evaluator,
)

from conftest import random_breakline, random_transversal_form

F = Fraction


# -- sigma_affine ------------------------------------------------------------


def reference_sigma_affine(cf, sigma):
    a = list(cf.affine)
    b = cf.bias
    for s, (bl, k) in zip(sigma, cf.terms):
        if s == -1:
            for i, e in enumerate(bl.direction):
                a[i] += k * e
            b -= k * bl.offset
    return tuple(a), b


fractions = st.fractions(min_value=-6, max_value=6, max_denominator=7)


@st.composite
def forms_and_patterns(draw):
    d0 = draw(st.integers(1, 3))
    direction = st.lists(st.integers(-4, 4), min_size=d0, max_size=d0).filter(any)
    raw = draw(st.lists(st.tuples(direction, fractions, fractions.filter(bool)), max_size=8))
    kinks = {Breakline(primitive_direction(d)[0], q): k for d, q, k in raw}
    terms = sorted(kinks.items(), key=lambda t: (t[0].direction, t[0].offset))
    affine = draw(st.lists(fractions, min_size=d0, max_size=d0))
    cf = CanonicalForm(tuple(terms), tuple(affine), draw(fractions), d0)
    sigma = draw(st.lists(st.sampled_from((1, -1)), min_size=cf.n, max_size=cf.n))
    return cf, sigma


@settings(max_examples=300, deadline=None)
@given(forms_and_patterns())
def test_sigma_affine_matches_fraction_loop(case):
    cf, sigma = case
    assert sigma_affine(cf, sigma) == reference_sigma_affine(cf, sigma)


# -- synthesis ---------------------------------------------------------------


def _fit_around(f, center, radius):
    d0 = len(center)
    units = [tuple(F(int(i == c)) for i in range(d0)) for c in range(d0)]
    points = [tuple(center)] + [tuple(a + radius * b for a, b in zip(center, u)) for u in units]
    return affine_fit(points, [f(p) for p in points])


def _subtract_kink(f, kink, bl):
    def g(x):
        pre = bl.side(x)
        if pre > 0:
            return f(x) - kink * pre
        return f(x)

    return g


def reference_synthesize(f, breaklines, d0, seed=0, n_verify=1000):
    """Peeling by one closure per kink, then a residual check, then verification."""
    breaklines = list(breaklines)
    violation = check_transversality(breaklines)
    if violation is not None:
        raise NotTransversal(violation)
    residual = f
    kinks = []
    for k in range(len(breaklines) - 1, -1, -1):
        bl = breaklines[k]
        x = point_on_breakline(breaklines, k, seed + k)
        jump = jump_vector(residual, bl, x, step=_safe_step(breaklines, k, x))
        if is_zero(jump):
            kinks.append(F(0))
            continue
        span = solve_affine([[F(e)] for e in bl.direction], jump, 1)
        if span is None:
            raise NotRepresentable("JumpNotParallel")
        kinks.append(span[0][0])
        residual = _subtract_kink(residual, span[0][0], bl)
    kinks.reverse()
    grad, const = _fit_around(residual, (F(0),) * d0, F(1))
    rng = random.Random(seed)
    for _ in range(2 * d0 + 8):
        p = tuple(F(rng.randint(-40, 40), rng.randint(1, 8)) for _ in range(d0))
        if residual(p) != dot(grad, p) + const:
            raise NotRepresentable("ResidualNotAffine")
    neurons = [Neuron(bl, kink, 1) for bl, kink in zip(breaklines, kinks) if kink != 0]
    if not is_zero(grad):
        d, s = primitive_direction(grad)
        fresh = Breakline(d, 0)
        neurons += [Neuron(fresh, s, 1), Neuron(fresh, -s, -1)]
    result = EffectiveTuple(tuple(neurons), const)
    response = tuple_evaluator(result)
    for _ in range(n_verify):
        p = tuple(F(rng.randint(-60, 60), rng.randint(1, 10)) for _ in range(d0))
        if f(p) != response(p):
            raise NotRepresentable("MissingBreakline")
    return result


def _outcome(run):
    try:
        return run()
    except NotRepresentable as exc:
        return ("NotRepresentable", exc.reason)
    except RelugeoError as exc:
        return (type(exc).__name__, None)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    declared=st.sampled_from(["exact", "dropped", "extra", "moved", "far"]),
)
def test_synthesis_matches_closure_peeling(seed, declared):
    rng = random.Random(seed)
    d0 = rng.randint(1, 3)
    cf = random_transversal_form(rng, d0, rng.randint(1, 4))
    breaklines = list(cf.breaklines)
    f = cf.evaluator  # a black box to both sides
    # declarations that miss a kink, add a flat line or put a kink elsewhere;
    # "far" hides a kink beyond the residual check's sample box
    if declared == "far":
        far = {**dict(cf.terms), Breakline((1,) + (0,) * (d0 - 1), 45): F(1)}
        terms = sorted(far.items(), key=lambda t: (t[0].direction, t[0].offset))
        f = CanonicalForm(tuple(terms), cf.affine, cf.bias, d0).evaluator
    elif declared == "dropped":
        del breaklines[rng.randrange(len(breaklines))]
    elif declared == "extra":
        breaklines.insert(rng.randrange(len(breaklines) + 1), random_breakline(rng, d0))
    elif declared == "moved":
        breaklines[rng.randrange(len(breaklines))] = random_breakline(rng, d0)
    got = _outcome(lambda: synthesize_evaluator(f, breaklines, d0, seed=seed % 97))
    want = _outcome(lambda: reference_synthesize(f, breaklines, d0, seed=seed % 97))
    assert got == want
