"""Construction of networks from continuous piecewise-affine functions.

Under the transversality condition (breaklines through any common point have
linearly independent normals) the gradient jump across a breakline, at any
point of it off the other breaklines, is kink * normal of the one term on
that breakline.  So synthesis reads each kink off f, fits the remainder,
verifies: f minus the response of the neurons found is affine and costs at
most two further neurons, a cancelling pair (``affine_pair``), for a total of
at most n+2.  The gradient on either side of a breakline is recovered by exact
affine interpolation on small simplices, so any exact evaluator works, not
just parsed expressions.  The remainder check and the final verification are
one test, f == response, on sampled points.  It compares integer numerators:
each point is drawn as X / D, the response and a compiled f are evaluated
through their ``kernel`` (``exact.compiled``) with no Fraction per point, and
a black-box f is lifted to the numerator f(X / D) * D.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count, product
from math import comb, lcm

from .errors import (
    CapExceeded,
    NotLocallyAffine,
    NotRepresentable,
    NotTransversal,
)
from .exact import dot, is_zero, primitive_direction, rat, solve_affine, vec, vsub
from .network import Breakline, EffectiveTuple, Neuron, affine_pair, tuple_evaluator
from .pwa import PWASpec, evaluator, expr_dim

# Most breaklines check_transversality takes, before any work is counted.
_MAX_BREAKLINES = 20

# Work check_transversality may do: one solve_affine per subset, k^2 * d0
# units for a subset of size k.  Measured in process (Python 3.11, 2-CPU
# shared x86-64 host) at 3.2 to 5.7 us per unit from d0 = 3 to 20, so the cap
# is about 2 s: 20 breaklines in d0 = 3 are 265,620 units (0.9 to 1.5 s), 16
# in d0 = 4 are 575,360 (1.9 to 2.5 s).
_MAX_WORK = 350_000

# Times jump_vector halves its step before giving up.
_HALVINGS = 20


@dataclass(frozen=True)
class Violation:
    indices: tuple[int, ...]  # 0-based indices of a minimal offending subset
    point: tuple[Fraction, ...]  # a common point of the subset's breaklines


def check_transversality(breaklines):
    """None if every meeting family of breaklines has independent normals.

    Otherwise a Violation carrying a minimal offending subset and a rational
    point in its common intersection.  A minimal offending subset has at most
    d0+1 members (dropping its last member leaves an independent family), so
    only subsets up to that size are examined.  More than ``_MAX_BREAKLINES``
    breaklines, or more than ``_MAX_WORK`` units of work (k^2 * d0 per subset
    of size k), raise CapExceeded.
    """
    breaklines = list(breaklines)
    n = len(breaklines)
    if n > _MAX_BREAKLINES:
        raise CapExceeded(f"{n} breaklines exceed the transversality cap of {_MAX_BREAKLINES}")
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

    Deterministic in the seed: the coordinates other than the pivot (the
    first with a nonzero direction entry) scan an integer grid in shells of
    growing radius, each value pushed away from zero by a seeded offset, and
    the pivot is solved from the breakline's equation.  Each other breakline
    removes only an affine slice of the grid, so the scan terminates.  A
    second breakline on the same hyperplane would cover the whole grid; it
    raises NotTransversal with the pair and a common point instead.
    """
    breaklines = list(breaklines)
    bl = breaklines[i]
    pivot = next(c for c, e in enumerate(bl.direction) if e != 0)

    def point(free):
        x = [Fraction(v) for v in free]
        x.insert(pivot, Fraction(0))
        x[pivot] = (bl.offset - dot(bl.direction, x)) / bl.direction[pivot]
        return tuple(x)

    for j, b in enumerate(breaklines):
        # directions are primitive and lex-positive, so one hyperplane is one Breakline
        if j != i and b == bl:
            raise NotTransversal(Violation(tuple(sorted((i, j))), point([0] * (bl.d0 - 1))))
    others = [b for j, b in enumerate(breaklines) if j != i]
    offset = random.Random(seed).randrange(0, 1000)
    for radius in count():
        for t in product(range(-radius, radius + 1), repeat=bl.d0 - 1):
            if max(map(abs, t), default=0) == radius:
                x = point(v + offset if v >= 0 else v - offset for v in t)
                if all(b.side(x) != 0 for b in others):
                    return x


def _fit_around(f, center, radius):
    """Exact affine fit (gradient, constant) of f on the simplex center,
    center + radius * e_i: the gradient is the forward differences."""
    f0 = f(center)
    grad = tuple(
        (f(tuple(a + radius * (i == c) for i, a in enumerate(center))) - f0) / radius
        for c in range(len(center))
    )
    return grad, f0 - dot(grad, center)


def jump_vector(f, bl: Breakline, x, step=Fraction(1)):
    """Gradient difference (positive side minus negative side) across bl at x.

    ``x`` must lie on bl and off every other breakline of f; under
    transversality the difference is then kink * direction of f's one term on
    bl, whatever its other terms.  The gradients on both sides are recovered
    by affine interpolation at two scales; the scales must agree exactly,
    otherwise the step is halved, at most ``_HALVINGS`` times.  All probe
    points stay strictly on their side of bl because the step in the normal
    direction dominates the simplex radius.
    """
    x = vec(x)
    step = rat(step)
    for _ in range(_HALVINGS):
        grads = []
        for sign in (1, -1):
            y = tuple(a + sign * step * b for a, b in zip(x, bl.direction))
            fit = _fit_around(f, y, step / 2)
            if fit != _fit_around(f, y, step / 4):
                break
            grads.append(fit[0])
        else:
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
        bound = abs(dot(b.direction, bl.direction)) + Fraction(max(map(abs, b.direction)), 2)
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
    """Read an exact evaluator into an effective tuple with at most n+2 neurons.

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

    # every probe of jump_vector stays on x's side of the other breaklines,
    # so the jump is f's own: no term found so far needs subtracting
    neurons = []
    for k in range(len(breaklines) - 1, -1, -1):
        bl = breaklines[k]
        x = point_on_breakline(breaklines, k, seed + k)
        jump = jump_vector(f, bl, x, step=_safe_step(breaklines, k, x))
        if is_zero(jump):
            continue
        # jump must be a rational multiple, the kink, of the breakline direction
        d, kink = primitive_direction(jump)
        if d != bl.direction:
            raise NotRepresentable(
                "JumpNotParallel",
                f"jump {tuple(jump)} across breakline {k + 1} is not parallel to its normal",
            )
        neurons.insert(0, Neuron(bl, kink, 1))

    found = tuple_evaluator(EffectiveTuple(neurons, 0))
    remainder = lambda p: f(p) - found(p)
    grad, const = _fit_around(remainder, (Fraction(0),) * d0, Fraction(1))
    pair = () if is_zero(grad) else affine_pair(grad, 0)[:2]  # on {d.x = 0}: no shift
    result = EffectiveTuple((*neurons, *pair), const)
    rnum, rm = tuple_evaluator(result).kernel
    # f == response on x = X / D is fnum(X, D) * rm == rnum(X, D) * fm; a
    # black box is lifted to the numerator f(x) * D over fm = 1.  The remainder
    # fit above already called f on points of length d0.
    lifted = lambda X, D: f(tuple(Fraction(c, D) for c in X)) * D
    fnum, fm = getattr(f, "kernel", (lifted, 1))
    # remainder == grad.x + const is f == response: one rng stream checks the
    # fit first, then looks for breaklines the declaration missed
    rng = random.Random(seed)
    phases = (
        (2 * d0 + 8, 40, 8, "ResidualNotAffine", "residual disagrees with its affine fit"),
        (n_verify, 60, 10, "MissingBreakline", "function disagrees with the synthesized network"),
    )
    for samples, num, den, reason, detail in phases:
        for _ in range(samples):
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
