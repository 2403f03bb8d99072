"""Construction of networks from continuous piecewise-affine functions.

Under the transversality condition (breaklines through any common point have
linearly independent normals) the gradient jump across a breakline, at any
point of it off the other breaklines, is kink * normal of the one term on
that breakline, and what is left is affine: a cancelling pair of neurons
(``affine_pair``), for at most n+2 in all.  ``check_transversality`` scales
each breakline to an integer row once and runs one ``exact.eliminate`` per
subset; only a violating subset is solved for its point.  ``synthesize``
compiles a spec once (``pwa._compile``) and reads the network off f's exact
form, checked or not: a flat spec's is its compile's, a nested spec's is read
off the cells of the hyperplanes its compile bounds its pieces by and the
declared ones (``_cells``, an incremental construction), a kink at one point
of each hyperplane, then the form checked at one point per cell.  Only a
black box is measured: each kink by exact affine interpolation on small
simplices either side of its breakline, then the remainder by one fit, then
f == response on sampled points X / D through integer numerators (a compiled
f's ``kernel``; a black box is lifted to f(X / D) * D).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count, product
from math import comb, lcm
from operator import mul, sub

from .errors import CapExceeded, DimensionMismatch, NotLocallyAffine, NotRepresentable
from .errors import NotTransversal
from .exact import compiled, dot, eliminate, is_zero, primitive_direction, primitive_row, rat
from .exact import relu_sum, relu_terms, solve_affine, vec
from .network import Breakline, EffectiveTuple, Neuron, _relu_kernel, _response
from .network import affine_pair, tuple_evaluator
from .pwa import PWASpec, _compile, _cost, _read_flat, expr_dim

# Most breaklines check_transversality takes, before any work is counted.
_MAX_BREAKLINES = 20

# Work check_transversality may do: one integer elimination per subset, k^2 *
# d0 units for a subset of size k.  Measured in process (Python 3.11, 2-CPU
# shared x86-64 host, min of 3) at 0.15 to 0.23 us per unit from d0 = 3 to 12,
# so the cap is 0.05 to 0.08 s, over 20 times below the 2 s it was sized for:
# 20 breaklines in d0 = 3 are 265,620 units (61 ms), 10 in d0 = 12 337,800 (50 ms).
_MAX_WORK = 350_000

# Work the read and the cell check of a nested spec may do (``_spend``), in units
# of about one integer multiply-add: d + 1 per row per hyperplane and per point
# of the sweep in Q^d, and d0 + 1 per term read per point where f or the network
# is called (``pwa._cost``).  Measured in process (Python 3.11, 2-CPU shared x86-64 host)
# at 0.16 to 0.36 us per unit, from 256-relu expressions in d0 = 1 and 2 to
# sweeps of 14 to 20 hyperplanes in d0 = 3 to 7, so the cap is about 1.3 to 2.9 s:
# 20 hyperplanes in d0 = 4 (a nested spec with 20 breaklines) take about 5 M.
_MAX_CELL_WORK = 8_000_000

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
    of size k), raise CapExceeded; mixed dimensions raise DimensionMismatch.
    Each subset is one ``eliminate`` of its breaklines' integer rows.
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
    if (dims := {bl.d0 for bl in breaklines}) != {d0}:
        raise DimensionMismatch(f"breaklines of dimensions {sorted(dims)} in one arrangement")
    rows = list(map(_row, breaklines))  # the offset column is read only for being nonzero
    for size in sizes:
        for subset in combinations(range(n), size):
            eqs = [rows[i] for i in subset]  # eliminate replaces rows, never edits one
            pivots, _ = eliminate(eqs, d0)
            # normals of rank below the size, and no row 0 = offset != 0: they meet
            if len(pivots) < size and not any(row[d0] for row in eqs[len(pivots) :]):
                bls = [breaklines[i] for i in subset]
                point, _ = solve_affine([b.direction for b in bls], [b.offset for b in bls], d0)
                return Violation(subset, point)
    return None


def point_on_breakline(breaklines, i, seed: int = 0):
    """A rational point on breakline i avoiding every other breakline.

    Deterministic in the seed: the coordinates other than the pivot (the
    first with a nonzero direction entry) scan an integer grid in shells of
    growing radius, each value pushed away from zero by a seeded offset, and
    the pivot is solved from the breakline's equation.  Each other breakline
    removes only an affine slice of the grid, so the scan terminates.  A
    second breakline on the same hyperplane would cover the whole grid; it
    raises NotTransversal instead (``_repeated``).
    """
    breaklines = list(breaklines)
    bl = breaklines[i]
    pivot = next(c for c, e in enumerate(bl.direction) if e != 0)

    def point(free):
        x = [Fraction(v) for v in free]
        x.insert(pivot, Fraction(0))
        x[pivot] = (bl.offset - dot(bl.direction, x)) / bl.direction[pivot]
        return tuple(x)

    _repeated(breaklines, i)
    others = [b for j, b in enumerate(breaklines) if j != i]
    offset = random.Random(seed).randrange(0, 1000)
    for radius in count():
        for t in product(range(-radius, radius + 1), repeat=bl.d0 - 1):
            if max(map(abs, t), default=0) == radius:
                x = point(v + offset if v >= 0 else v - offset for v in t)
                if all(b.side(x) != 0 for b in others):
                    return x


def _repeated(breaklines, i):
    """NotTransversal, with the pair and the point of breakline i whose
    coordinates but its pivot are 0, if another lies on its hyperplane."""
    bl = breaklines[i]
    for j, b in enumerate(breaklines):
        # directions are primitive and lex-positive, so one hyperplane is one Breakline
        if j != i and b == bl:
            point, _ = solve_affine([bl.direction], [bl.offset], bl.d0)
            raise NotTransversal(Violation(tuple(sorted((i, j))), point))


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
    direction dominates the simplex radius.  A step that is not positive
    raises ValueError.
    """
    x = vec(x)
    if (step := rat(step)) <= 0:
        raise ValueError(f"the step must be positive, got {step}")
    for _ in range(_HALVINGS):
        grads = []
        for sign in (1, -1):
            y = tuple(a + sign * step * b for a, b in zip(x, bl.direction))
            fit = _fit_around(f, y, step / 2)
            if fit != _fit_around(f, y, step / 4):
                break
            grads.append(fit[0])
        else:
            return tuple(map(sub, *grads))
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
    if check and (violation := check_transversality(breaklines)) is not None:
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


def _row(bl):
    """Breakline d . x = q as the primitive integer row (a, b) of a . x + b = 0."""
    q = bl.offset
    return (*(a * q.denominator for a in bl.direction), -q.numerator)


def _spend(work, units):
    """Add units to the cell check's running count ``work`` (a one-item list)."""
    work[0] += units
    if work[0] > _MAX_CELL_WORK:
        raise CapExceeded(f"the cell check exceeds its cap of {_MAX_CELL_WORK} units of work")


def _cells(rows, d, work):
    """(X, D, sides, across) for one point X / D strictly inside each open cell
    of an arrangement in Q^d, generated cell by cell.

    ``rows`` are distinct primitive integer rows (a, b) with a != 0, the
    hyperplanes a . x + b = 0, and ``sides`` are a . X + b * D per row.  The
    hyperplanes are added one at a time.  The cells that H cuts are those of
    the arrangement the rows before it cut on H, in Q^(d-1) (``_restrict``).
    Each point of theirs, lifted onto H, steps off H to either side by a
    multiple of a small enough that no other row changes sign.  A lifted point on a later
    hyperplane is dropped: no later one meets the facet on H of a cell that
    none cuts, so each cell is reached from the last hyperplane that cut it.
    A cell reached again (same signs) is skipped, and ``across`` says whether
    a cell sharing a facet with it, here the one across H, came before.  In
    Q^1 the points are the midpoints between the sorted breakpoints and one
    beyond each end, each but the first across from the one before.  ``work``
    counts d + 1 units per row per hyperplane and per lifted point against
    ``_MAX_CELL_WORK``.
    """
    if not rows:
        yield (0,) * d, 1, (), False
        return
    if d == 1:
        cuts = sorted(Fraction(-b, a) for a, b in rows)
        _spend(work, 2 * len(rows) * (len(rows) + 1))
        gaps = (cuts[0] - 1, *((u + v) / 2 for u, v in zip(cuts, cuts[1:])), cuts[-1] + 1)
        for i, x in enumerate(gaps):
            X, D = x.numerator, x.denominator
            yield (X,), D, [a * X + b * D for a, b in rows], i > 0
        return
    seen = set()
    for h, row in enumerate(rows):
        _spend(work, (d + 1) * len(rows))
        cut, lift = _restrict(row, rows[:h])
        a = row[:-1]
        dots = [sum(map(mul, a, other)) for other in rows]
        k = 1 + max(map(abs, dots))  # above |c . a|, and every side but H's is a nonzero integer
        for Y, E, *_ in _cells(cut, d - 1, work):
            _spend(work, (d + 1) * len(rows))
            X, D = lift(Y, E)
            sides = [sum(map(mul, other, X)) + other[-1] * D for other in rows]
            if sides.count(0) > 1:  # on a later hyperplane
                continue
            signs = [v > 0 for v in sides]  # H's own is the side stepped to, as a . a > 0
            keys = [tuple(signs[:h] + [up] + signs[h + 1 :]) for up in (True, False)]
            for step, key, other in zip((1, -1), keys, keys[::-1]):
                if key not in seen:
                    seen.add(key)
                    stepped = [k * v + step * t for v, t in zip(sides, dots)]
                    yield [k * x + step * e for x, e in zip(X, a)], k * D, stepped, other in seen


def _restrict(row, rows):
    """(cut, lift): the primitive rows that ``rows`` restrict to on the
    hyperplane H, a . x + b = 0, of ``row``, solved for its first coordinate j
    with a_j != 0 (rows parallel to H drop out), and the map from a point Y / E
    of H's other coordinates to the point X / D of H, as lift(Y, E) = (X, D)."""
    *a, b = row
    j = next(i for i, e in enumerate(a) if e)
    aj, sj = abs(a[j]), 1 if a[j] > 0 else -1
    others = [i for i in range(len(a)) if i != j]
    rest = [a[i] for i in others]
    cut = set()
    for *c, e in rows:
        on = [a[j] * c[i] - c[j] * a[i] for i in others]
        if any(on):
            cut.add(primitive_row((*on, a[j] * e - c[j] * b))[0])

    def lift(Y, E):
        X = [aj * y for y in Y]
        X.insert(j, -sj * (b * E + sum(map(mul, rest, Y))))
        return X, aj * E

    return list(cut), lift


def _probes(rows, d0, work):
    """(Y, E, s, across) for each cell of the arrangement of the integer rows
    (a, b), one per hyperplane once made primitive, that ``_cells`` reaches.

    Y / E lies strictly inside the cell, and so does (Y + s * e_i) / E for every
    axis i: with Y and E scaled by 1 + max |a|, a step s no larger than any
    |a . Y + b * E| before scaling changes no side.
    """
    rows = list({primitive_row(row)[0] for row in rows})
    scale = 1 + max((abs(a) for row in rows for a in row[:-1]), default=0)
    for X, D, sides, across in _cells(rows, d0, work):
        yield [scale * c for c in X], scale * D, min(map(abs, sides), default=1), across


def _corners(Y, s):
    """Y and Y + s * e_i for each axis i: d0 + 1 affinely independent points."""
    return [Y, *([*Y[:i], y + s, *Y[i + 1 :]] for i, y in enumerate(Y))]


def _cuts(knots, d0, work):
    """Primitive rows (a, b) of hyperplanes a . x + b = 0 off which a subtree that
    is not flat is affine, from its ``pwa._compile`` knots, bottom up: the
    kinked breaklines of each flat triple; and for each argument, its own
    hyperplanes plus the zero set of its piece on each of their cells, the
    piece read off its numerator at the cell's corners.  Each cell adds (d0 +
    1) * cost units (``pwa._cost``), one per term read."""
    triples, args, _ = knots
    kinks = (relu_terms(*flat)[0].items() for flat in triples)
    rows = {(*(a * qd for a in d), -qn) for terms in kinks for (d, qn, qd), k in terms if k}
    for num, _, flat, sub in args:
        inner = _cuts(sub or ((flat,), (), 0), d0, work)
        rows |= inner
        for Y, E, s, _ in _probes(inner, d0, work):
            _spend(work, (d0 + 1) ** 2 * _cost(flat, sub))
            v, *steps = [num(Z, E) for Z in _corners(Y, s)]
            grad = [(w - v) // s for w in steps]  # the piece is an integer row on the cell
            if any(grad):
                rows.add(primitive_row((*grad, (v - sum(map(mul, grad, Y))) // E))[0])
    return rows


def _check_cells(fnum, fm, cost, kernel, rows, d0, work):
    """NotRepresentable("ResidualNotAffine") unless f == the response of kernel (num, m).

    f - response is continuous and affine on every cell of ``rows``, which
    hold f's hyperplanes (``_cuts``) and the response's, so it is zero on a
    cell if and only if it vanishes at the d0 + 1 corners of its probe, or,
    when a cell across a facet was checked before, at the probe alone.  Each
    point read adds ``cost``, the terms one call of fnum and of num read, to
    ``work``; CapExceeded past ``_MAX_CELL_WORK``.
    """
    rnum, rm = kernel
    for Y, E, s, across in _probes(rows, d0, work):
        points = [Y] if across else _corners(Y, s)
        _spend(work, len(points) * (d0 + 1) * cost)
        for Z in points:
            if fnum(Z, E) * rm != rnum(Z, E) * fm:
                p = tuple(Fraction(z, E) for z in Z)
                raise NotRepresentable(
                    "ResidualNotAffine", f"residual disagrees with its affine fit at {p}"
                )


def _nested_form(num, m, knots, breaklines, d0):
    """(terms, affine, bias) of a nested spec's f, read off its cells exactly.

    f is affine off its hyperplanes (``_cuts``) and the declared ones.  Each,
    H: a . x + b = 0, has a point X / D off the others, the first cell of them
    restricted to H (``_restrict``), and with k as in ``_cells`` the second
    difference of f's numerator at k X +- a over k D is m * p * |a|^2 for f's
    term p * (a . x + b)_+ on H: a relu of ``network._relu_kernel``.  The
    affine part is fit to f minus the response of those relus, f is checked
    against the triple of all three on every cell (ResidualNotAffine if f is
    not a network's response), and the triple is read by ``pwa._read_flat``.
    """
    work = [0]
    rows = list(_cuts(knots, d0, work) | {_row(bl) for bl in breaklines})
    relus = []
    for h, (*a, b) in enumerate(rows):
        _spend(work, 3 * (d0 + 1) * (len(rows) + knots[2]))  # restriction, dots, three reads
        cut, lift = _restrict(rows[h], rows[:h] + rows[h + 1 :])
        X, D = lift(*next(_cells(cut, d0 - 1, work))[:2])
        k = 1 + max(abs(sum(map(mul, a, row))) for row in rows)
        X, D = [k * x for x in X], k * D
        jump = sum(num([x + t * e for x, e in zip(X, a)], D) for t in (1, -1)) - 2 * num(X, D)
        if jump:
            relus.append((a, b, jump, m * sum(map(mul, a, a))))
    f, found = compiled(num, m, d0, "leaf"), _response(relus, (), 0, d0, "leaf")
    affine, bias = _fit_around(lambda p: f(p) - found(p), (Fraction(0),) * d0, Fraction(1))
    triple, M = _relu_kernel(relus, affine, bias)
    _check_cells(num, m, knots[2] + len(relus) + 1, (relu_sum(*triple), M), rows, d0, work)
    return _read_flat(M, triple)


def _read_off(breaklines, form):
    """The network of form (terms, affine, bias) on the given breaklines: one
    neuron per kinked one, in their order, then a cancelling pair for the
    affine part, then the bias."""
    terms, affine, bias = form
    neurons = [Neuron(bl, terms[bl], 1) for bl in breaklines if terms.get(bl)]
    pair = affine_pair(affine, 0)[:2] if any(affine) else ()  # on {d.x = 0}: no shift
    return EffectiveTuple((*neurons, *pair), bias)


def _check_declared(breaklines, d0):
    """The declared hyperplanes, each with its first index, checked last index
    first, as the measuring path meets them: NotTransversal if breakline i
    repeats an earlier one (``_repeated``), DimensionMismatch if not in Q^d0."""
    indexed = list(enumerate(breaklines))[::-1]
    first = {bl: i for i, bl in indexed}  # the first index is written last
    for i, bl in indexed:
        if first[bl] != i:
            _repeated(breaklines, i)
        if bl.d0 != d0:
            raise DimensionMismatch(f"point has length {bl.d0}, leaf expects {d0}")
    return first


def synthesize(spec: PWASpec, check: bool = True):
    """Synthesize a network for a parsed piecewise-affine specification.

    One compile gives the ``"auto"`` breaklines (NotFlat if nested) and f's exact
    form, read off it if flat, else off its cells (``_nested_form``).  After the
    transversality check, if ``check``, and ``_check_declared``, a kink off the
    declared breaklines raises MissingBreakline; else the network is read off.
    """
    num, m, flat, knots = _compile(spec.expr)  # num and knots are None for a flat spec
    auto = spec.breaklines == "auto"
    form = _read_flat(m, flat) if auto or knots is None else None
    breaklines = list(form[0] if auto else spec.breaklines)
    d0 = expr_dim(spec.expr)
    if check and (violation := check_transversality(breaklines)) is not None:
        raise NotTransversal(violation)
    declared = _check_declared(breaklines, d0)
    if knots is not None:
        form = _nested_form(num, m, knots, breaklines, d0)
    if missing := [bl for bl, k in form[0].items() if k and bl not in declared]:
        d, q = missing[0].direction, missing[0].offset
        raise NotRepresentable("MissingBreakline", f"kink on {list(d)}.x = {q}")
    return _read_off(breaklines, form)
