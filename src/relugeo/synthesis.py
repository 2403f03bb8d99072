"""Construction of networks from continuous piecewise-affine functions.

Under the transversality condition (breaklines through any common point have
linearly independent normals) the gradient jump across each breakline is
constant, so the function can be peeled one breakline at a time: measure the
jump at a sample point, read the kink off it, recurse on the residual
f - peeled, where peeled is the compiled response of the neurons found so
far.  What survives is affine and costs at most two further neurons, a
cancelling pair (``affine_pair``), for a total of at most n+2.  The gradient
on either side of a breakline is recovered by exact affine interpolation on
small simplices with validation points, so any exact evaluator works, not
just parsed expressions.  The residual check and the final verification are
one test, f == response, on sampled points.  It compares integer numerators:
each point is drawn as X / D, the response and a compiled f are evaluated
through their ``kernel`` (``exact.compiled``) with no Fraction per point, and
a black-box f is lifted to the numerator f(X / D) * D.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb, lcm

from .errors import (
    CapExceeded,
    NotLocallyAffine,
    NotRepresentable,
    NotTransversal,
)
from .exact import affine_fit, dot, is_zero, primitive_direction, rat, solve_affine, vec, vsub
from .network import Breakline, EffectiveTuple, Neuron, affine_pair, tuple_evaluator
from .pwa import PWASpec, evaluator, expr_dim

DEFAULT_TRANSVERSALITY_CAP = 20

# Work check_transversality may do: one solve_affine per subset, k^2 * d0
# units for a subset of size k.  Measured in process (Python 3.11, 2-CPU
# shared x86-64 host) at 3.2 to 5.7 us per unit from d0 = 3 to 20, so the cap
# is about 2 s: 20 breaklines in d0 = 3 are 265,620 units (0.9 to 1.5 s), 16
# in d0 = 4 are 575,360 (1.9 to 2.5 s).
_MAX_WORK = 350_000


@dataclass(frozen=True)
class Violation:
    indices: tuple[int, ...]  # 0-based indices of a minimal offending subset
    point: tuple[Fraction, ...]  # a common point of the subset's breaklines


def check_transversality(breaklines, cap: int = DEFAULT_TRANSVERSALITY_CAP):
    """None if every meeting family of breaklines has independent normals.

    Otherwise a Violation carrying a minimal offending subset and a rational
    point in its common intersection.  A minimal offending subset has at most
    d0+1 members (dropping its last member leaves an independent family), so
    only subsets up to that size are examined.  More than ``cap`` breaklines,
    or more than ``_MAX_WORK`` units of work (k^2 * d0 per subset of size k),
    raise CapExceeded.
    """
    breaklines = list(breaklines)
    n = len(breaklines)
    if n > cap:
        raise CapExceeded(f"{n} breaklines exceed the transversality cap of {cap}")
    if n == 0:
        return None
    d0 = breaklines[0].d0
    sizes = range(2, min(n, d0 + 1) + 1)
    work = sum(comb(n, size) * size * size * d0 for size in sizes)
    if work > _MAX_WORK:
        raise CapExceeded(f"{work} units of work exceed the transversality cap of {_MAX_WORK}")
    for size in sizes:
        for subset in combinations(range(n), size):
            rows = [breaklines[i].direction for i in subset]
            rhs = [breaklines[i].offset for i in subset]
            sol = solve_affine(rows, rhs, d0)
            # a meeting subset whose normals have rank below its size
            if sol is not None and d0 - len(sol[1]) < size:
                return Violation(subset, sol[0])
    return None


def point_on_breakline(breaklines, i, seed: int = 0):
    """A rational point on breakline i avoiding every other breakline.

    Deterministic in the seed: the breakline is parametrized and an integer
    parameter grid is scanned in shells; each other breakline removes only an
    affine slice of the grid, so the scan terminates.  A second breakline on
    the same hyperplane would cover the whole grid; it raises NotTransversal
    with the pair and a common point instead.
    """
    breaklines = list(breaklines)
    bl = breaklines[i]
    d0 = bl.d0
    pivot = next(c for c, e in enumerate(bl.direction) if e != 0)
    base = [Fraction(0)] * d0
    base[pivot] = Fraction(bl.offset, bl.direction[pivot])
    for j, b in enumerate(breaklines):
        # directions are primitive and lex-positive, so one hyperplane is one Breakline
        if j != i and b == bl:
            raise NotTransversal(Violation(tuple(sorted((i, j))), tuple(base)))
    params = [c for c in range(d0) if c != pivot]
    span = []
    for c in params:
        v = [Fraction(0)] * d0
        v[c] = Fraction(1)
        v[pivot] = Fraction(-bl.direction[c], bl.direction[pivot])
        span.append(v)
    others = [b for j, b in enumerate(breaklines) if j != i]
    rng = random.Random(seed)
    offset = rng.randrange(0, 1000)

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


def _fit_around(f, center, radius):
    """Exact affine fit of f on a simplex of the given radius around center."""
    points = [tuple(center)] + [
        tuple(a + radius * (i == c) for i, a in enumerate(center)) for c in range(len(center))
    ]
    values = [f(p) for p in points]
    return affine_fit(points, values)


def jump_vector(f, bl: Breakline, x, step=Fraction(1), halvings: int = 20):
    """Gradient difference (positive side minus negative side) across bl at x.

    ``x`` must lie on bl and off every other breakline of f.  The gradients on
    both sides are recovered by affine interpolation at two scales; the scales
    must agree exactly, otherwise the step is halved.  All probe points stay
    strictly on their side of bl because the step in the normal direction
    dominates the simplex radius.
    """
    x = vec(x)
    dvec = vec(bl.direction)
    step = rat(step)
    for _ in range(halvings):
        grads = []
        ok = True
        for sign in (1, -1):
            y = tuple(a + sign * step * b for a, b in zip(x, dvec))
            fit1 = _fit_around(f, y, step / 2)
            fit2 = _fit_around(f, y, step / 4)
            if fit1 is None or fit2 is None or fit1 != fit2:
                ok = False
                break
            grads.append(fit1[0])
        if ok:
            return vsub(grads[0], grads[1])
        step /= 2
    raise NotLocallyAffine(
        f"no consistent affine fit adjacent to breakline {bl.direction}={bl.offset} at {x}"
    )


def _safe_step(breaklines, k, x):
    """Probe step across breakline k keeping every probe point in the two
    cells adjacent at x: the total side-value drift of any other breakline
    (step along the normal plus the simplex radius step/2 per coordinate)
    must stay below that breakline's margin at x."""
    bl = breaklines[k]
    step = Fraction(1)
    for j, b in enumerate(breaklines):
        if j == k:
            continue
        margin = abs(b.side(x))
        bound = abs(dot(vec(b.direction), vec(bl.direction))) + Fraction(
            max(abs(e) for e in b.direction), 2
        )
        if bound == 0:
            continue
        while step * bound >= margin:
            step /= 2
    return step


def synthesize_evaluator(
    f,
    breaklines,
    d0: int,
    seed: int = 0,
    check: bool = True,
    n_verify: int = 1000,
) -> EffectiveTuple:
    """Peel an exact evaluator into an effective tuple with at most n+2 neurons.

    ``f`` maps rational points of length d0 to rationals and must be affine on
    the cells of the declared breaklines.  With ``check=False`` the
    transversality precondition is skipped; the final sampled verification
    still rejects anything that is not a response.
    """
    breaklines = list(breaklines)
    if check:
        violation = check_transversality(breaklines)
        if violation is not None:
            raise NotTransversal(violation)

    residual = f
    peeled = []
    for k in range(len(breaklines) - 1, -1, -1):
        bl = breaklines[k]
        x = point_on_breakline(breaklines, k, seed + k)
        jump = jump_vector(residual, bl, x, step=_safe_step(breaklines, k, x))
        if is_zero(jump):
            continue
        # jump must be a rational multiple, the kink, of the breakline direction
        d, kink = primitive_direction(jump)
        if d != bl.direction:
            raise NotRepresentable(
                "JumpNotParallel",
                f"jump {tuple(jump)} across breakline {k + 1} is not parallel to its normal",
            )
        peeled.insert(0, Neuron(bl, kink, 1))
        g = tuple_evaluator(EffectiveTuple(peeled, 0))
        residual = lambda p, g=g: f(p) - g(p)

    # never None: the origin and the unit vectors are affinely independent
    grad, const = _fit_around(residual, (Fraction(0),) * d0, Fraction(1))
    pair = () if is_zero(grad) else affine_pair(grad, 0)[:2]  # on {d.x = 0}: no shift
    result = EffectiveTuple((*peeled, *pair), const)
    rnum, rm = tuple_evaluator(result).kernel
    # f == response on x = X / D is fnum(X, D) * rm == rnum(X, D) * fm; a
    # black box is lifted to the numerator f(x) * D over fm = 1.  The residual
    # fit above already called f on points of length d0.
    lifted = lambda X, D: f(tuple(Fraction(c, D) for c in X)) * D
    fnum, fm = getattr(f, "kernel", (lifted, 1))
    # residual == grad.x + const is f == response: one rng stream checks the
    # fit first, then looks for breaklines the declaration missed
    rng = random.Random(seed)
    phases = (
        (2 * d0 + 8, 40, 8, "ResidualNotAffine", "residual disagrees with its affine fit"),
        (n_verify, 60, 10, "MissingBreakline", "function disagrees with the synthesized network"),
    )
    for count, num, den, reason, detail in phases:
        for _ in range(count):
            coords = [(rng.randint(-num, num), rng.randint(1, den)) for _ in range(d0)]
            D = lcm(*(b for _, b in coords))
            X = [a * (D // b) for a, b in coords]
            if fnum(X, D) * rm != rnum(X, D) * fm:
                p = tuple(Fraction(a, b) for a, b in coords)
                raise NotRepresentable(reason, f"{detail} at {p}")
    return result


def synthesize(spec: PWASpec, seed: int = 0, check: bool = True, n_verify: int = 1000):
    """Synthesize a network for a parsed piecewise-affine specification."""
    d0 = expr_dim(spec.expr)
    f = evaluator(spec.expr)
    return synthesize_evaluator(f, spec.breaklines, d0, seed, check, n_verify)
