"""Minimal widths and the complete enumeration of minimal representations.

For a non-affine response with n distinct breaklines the minimal hidden width
is n, n+1 or n+2 depending on which orientation patterns sigma make the
affine correction a_sigma vanish (J), fall on a breakline direction (J(m)) or
into the span of two breakline directions (J(m, m')).  Each case comes with an
explicit construction of every minimal representation modulo neuron
permutation, plus the dimension and connected-component count of the manifold
of raw networks realizing the function.

Per pattern, everything runs in integers.  Per form, ``_corrections`` builds
one table: running sums of (m * a_sigma, m_b * b_sigma) over each half of the
terms.  Per direction group (), (m,) or (m, m'), one elimination (``_span``)
gives the span's integer normals and the rows that read the split kinks off
a_sigma, and one kernel, ``_span_patterns``, projects the table onto the
normals and finds J, J(m) or J(m, m') by meet in the middle, with no linear
solve per pattern; ``compute_J``, ``compute_J_single`` and ``compute_J_pair``
are public reads of it.  One construction, ``_split_family``, builds the
exact, duplicated-breakline and duplicated-pair families: split an opposite
neuron off 0, 1 or 2 terms.  Families read the table's integers too, and
each kink and bias they emit is one ``Fraction(num, den)``.

The brute-force oracle at the bottom re-derives the minimal width by direct
search over neuron-to-breakline assignments and exact linear solving, without
touching the J machinery; tests play the two against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import factorial
from operator import add, mul, neg

from .canonical import CanonicalForm, canonicalize
from .errors import CapExceeded, DimensionMismatch, EnumerationCapExceeded, EqualDirections
from .exact import eliminate, is_zero, primitive_direction, primitive_row, rat, scaled_point
from .exact import solve_affine, vec
from .network import Breakline, EffectiveTuple, Neuron

DEFAULT_CAP = 24

# Family kinds, named by their construction:
#   exact               width n   : the form's own breaklines, orientations from J
#   duplicated-breakline width n+1: one breakline carries an extra opposite neuron
#   extra-breakline     width n+2 : a cancelling pair on a fresh breakline, offset free
#   duplicated-pair     width n+2 : two breaklines each carry an extra opposite neuron
KIND_EXACT = "exact"
KIND_DUP = "duplicated-breakline"
KIND_FRESH = "extra-breakline"
KIND_PAIR = "duplicated-pair"


@dataclass(frozen=True)
class RepresentationFamily:
    kind: str
    sigma: tuple[int, ...]
    provenance: tuple[int, ...]  # 0-based term indices: (), (j,) or (j1, j2)
    tuples: tuple[EffectiveTuple, ...]
    r_values: tuple[Fraction, ...] = ()


@dataclass(frozen=True)
class MinimalityReport:
    case: str  # "I" | "II" | "III" | "affine" | "constant"
    min_width: int
    families: tuple[RepresentationFamily, ...]
    manifold_components: tuple[tuple[int, int], ...]  # (dimension, count)


def _check_cap(n, cap):
    if cap < 0:
        raise ValueError(f"the enumeration cap must be at least 0, got {cap}")
    if n > cap:
        raise EnumerationCapExceeded(n, cap)


def _span(gens, d0):
    """(reads, p, normals) from one ``exact.eliminate`` of [gens^T | I], each
    generator scaled to an integer row.  The rows past the rank give the
    integer ``normals`` of span(gens).  The rank rows give ``reads``: for
    independent gens, a = sum c_i * gens_i has c_i = reads[i] . a / p.
    """
    gens = [scaled_point(g)[0] for g in gens]
    if any(len(g) != d0 for g in gens):
        raise DimensionMismatch("solve_affine: row of wrong length")
    k = len(gens)
    rows = [[*(g[c] for g in gens), *(int(i == c) for i in range(d0))] for c in range(d0)]
    pivots, p = eliminate(rows, k)
    return [r[k:] for r in rows[: len(pivots)]], p, [r[k:] for r in rows[len(pivots) :]]


def _span_patterns(halves, normals):
    """All sign patterns, in product order, with a_sigma orthogonal to ``normals``.

    a_sigma lies in a group's span iff it projects to zero on the span's
    normals (``_span``).  The test is homogeneous, so it projects the form's
    integer running sums of m * a_sigma (``_corrections``): heads and tails.
    That is a subset sum, solved by meet in the middle (Horowitz-Sahni): tail
    sums are bucketed by their negation and each head sum looks itself up.
    """
    # a normal has d0 entries, so zip stops before the bias column
    proj = lambda v: tuple(sum(map(mul, w, v)) for w in normals)
    buckets = {}
    for tail, s in halves[1].items():
        buckets.setdefault(tuple(map(neg, proj(s))), []).append(tail)
    return [head + tail for head, s in halves[0].items() for tail in buckets.get(proj(s), ())]


def _scan(cf, gens, cap):
    """``_span_patterns`` of span(gens), after the cap and distinct-directions checks."""
    _check_cap(cf.n, cap)
    gens = [tuple(g) for g in gens]
    if len(set(gens)) < len(gens):
        raise EqualDirections("the two directions must differ")
    *_, normals = _span(gens, cf.d0)
    return _span_patterns(_corrections(cf)[0], normals)


def compute_J(cf: CanonicalForm, cap: int = DEFAULT_CAP):
    """All orientation patterns with vanishing affine correction."""
    return _scan(cf, [], cap)


def compute_J_single(cf: CanonicalForm, m, cap: int = DEFAULT_CAP):
    """All patterns whose affine correction lies on the line spanned by m."""
    return _scan(cf, [m], cap)


def compute_J_pair(cf: CanonicalForm, m, m2, cap: int = DEFAULT_CAP):
    """All patterns whose affine correction lies in the span of m and m2."""
    return _scan(cf, [m, m2], cap)


def verify_representation(cf: CanonicalForm, t: EffectiveTuple) -> bool:
    """True iff the tuple's response has exactly this canonical form."""
    if t.neurons and t.d0 != cf.d0:
        raise DimensionMismatch("tuple and form live in different dimensions")
    return canonicalize(t, d0=cf.d0) == cf


def _corrections(cf):
    """(halves, (m, m_b, correction)): the form's one table of integer running sums.

    m is the lcm of the kink and affine denominators and m_b that of the bias
    and each kink * offset, so (m * a_sigma, m_b * b_sigma) is the integer
    affine part and bias plus an integer step per term with sigma_i = -1.
    ``halves`` = (heads, tails) holds the sums over each half of the steps,
    {pattern: sum} in product order, so that with h = n // 2 the row is
    heads[sigma[:h]] + tails[sigma[h:]]; a level adds one step to each sum.
    ``correction(sigma)`` reads the integer row (m * a_sigma, m_b * b_sigma) off them.
    """
    scaled, m = scaled_point(cf.affine + cf.kinks)
    (bias, *kq), m_b = scaled_point((cf.bias, *(k * bl.offset for bl, k in cf.terms)))
    rows = zip(cf.breaklines, scaled[cf.d0 :], kq)
    steps = [(*(k * e for e in bl.direction), -c) for bl, k, c in rows]
    h = cf.n // 2
    halves = []
    for level, part in (([(*scaled[: cf.d0], bias)], steps[:h]), ([(0,) * (cf.d0 + 1)], steps[h:])):
        for step in part:
            level = [t for s in level for t in (s, tuple(map(add, s, step)))]
        halves.append(dict(zip(product((1, -1), repeat=len(part)), level)))
    correction = lambda sigma: map(add, halves[0][sigma[:h]], halves[1][sigma[h:]])
    return halves, (m, m_b, correction)


def _split_family(cf, kind, sigma, js, reads, p, table, oriented):
    """The form's terms with orientations sigma, each term in js split in two.

    a_sigma = sum of delta_j * direction_j over js; term j keeps orientation
    +1 with kink kink_j + delta_j and gains an opposite neuron with kink
    -delta_j, which absorbs a_sigma.  With js empty this is the exact family.
    In integers, delta_j = R_j / (m * p) with R_j = reads_j . (m * a_sigma) (see
    ``_span``), so each kink, and the bias over one denominator, is one Fraction.
    ``oriented[i][s]``, term i with orientation s, is shared by all families.
    """
    m, m_b, correction = table
    (*a, b), den = correction(sigma), m * p
    neurons = list(map(dict.__getitem__, oriented, sigma))
    for j, row in zip(js, reads):  # sigma_j = 1 on every split term
        (bl, k), R = cf.terms[j], sum(map(mul, row, a))
        kn, kd, qn, qd = k.numerator, k.denominator, bl.offset.numerator, bl.offset.denominator
        assert R != 0 and kn * den + R * kd != 0, "would contradict minimality"
        neurons[j] = Neuron(bl, Fraction(kn * den + R * kd, kd * den), 1)
        neurons.append(Neuron(bl, Fraction(-R, den), -1))
        b, m_b = b * den * qd + R * qn * m_b, m_b * den * qd  # b / m_b += R / den * q_j
    return RepresentationFamily(kind, sigma, js, (EffectiveTuple(neurons, Fraction(b, m_b)),))


def _fresh_line_family(sigma, table, r_values, oriented):
    """Sigma's extra-breakline family: m * a_sigma = g * d, d primitive and lex-positive,
    so a_sigma = s * d with s = g / m; on each {d.x = r} the pair s*(d.x - r)_+ -
    s*(-(d.x - r))_+ adds a_sigma.x - s*r, and b_sigma + s*r is one Fraction."""
    m, m_b, correction = table
    (*a, b), tuples = correction(sigma), []
    d, g = primitive_row(a)
    s = Fraction(g, m)
    terms = tuple(map(dict.__getitem__, oriented, sigma))
    for r in r_values:
        bl, rn, rd = Breakline(d, r), r.numerator, r.denominator
        neurons = terms + (Neuron(bl, s, 1), Neuron(bl, -s, -1))
        tuples.append(EffectiveTuple(neurons, Fraction(g * rn * m_b + b * m * rd, m * rd * m_b)))
    return RepresentationFamily(KIND_FRESH, sigma, (), tuple(tuples), tuple(r_values))


def enumerate_minimal(cf: CanonicalForm, r_samples=(0,), cap: int = DEFAULT_CAP):
    """All minimal representation families, modulo neuron permutation.

    Cases I, II and III ask the same question of the direction groups (),
    (m,) and (m, m'): which patterns put a_sigma in their span, and which
    terms on those directions can be split.  Each group is eliminated once
    and its hits read off the form's one table.  The first case with a
    family wins.  The extra-breakline families of case III are infinite (one
    tuple per offset); they are instantiated at the caller-supplied
    ``r_samples``, each distinct offset once, in order of first appearance.
    """
    _check_cap(cf.n, cap)
    r_values = tuple(dict.fromkeys(rat(r) for r in r_samples))
    if cf.is_affine() and is_zero(cf.affine):
        return []

    halves, table = _corrections(cf)
    dirs = sorted({bl.direction for bl in cf.breaklines})  # distinct, so no group repeats one
    oriented = [{s: Neuron(b, k, s) for s in (1, -1)} for b, k in cf.terms]
    cases = (
        (KIND_EXACT, [()]),
        (KIND_DUP, [(m,) for m in dirs]),
        (KIND_PAIR, combinations(dirs, 2)),
    )
    for kind, groups in cases:
        # in case III every pattern also gives an extra-breakline family
        patterns = product((1, -1), repeat=cf.n) if kind == KIND_PAIR else ()
        families = [_fresh_line_family(s, table, r_values, oriented) for s in patterns]
        for ms in groups:
            reads, p, normals = _span(ms, cf.d0)
            hits = _span_patterns(halves, normals)
            on_ms = ([i for i, bl in enumerate(cf.breaklines) if bl.direction == m] for m in ms)
            for js in product(*on_ms):
                families.extend(
                    _split_family(cf, kind, sigma, js, reads, p, table, oriented)
                    for sigma in hits
                    if all(sigma[j] == 1 for j in js)
                )
        if families:
            break
    return families


def classify(cf: CanonicalForm, cap: int = DEFAULT_CAP, r_samples=(0,)) -> MinimalityReport:
    """Minimal width, case tag, families and manifold statistics."""
    n = cf.n
    families = tuple(enumerate_minimal(cf, r_samples, cap))

    if cf.is_affine():
        if is_zero(cf.affine):
            # constant responses sit outside the theory: two neurons on any
            # breakline with cancelling kinks realize them, nothing smaller does
            return MinimalityReport("constant", 2, families, ())
        return MinimalityReport("affine", 2, families, ((3, 2),))

    if families and families[0].kind == KIND_EXACT:
        return MinimalityReport("I", n, families, ((n, factorial(n) * len(families)),))
    if families and families[0].kind == KIND_DUP:
        return MinimalityReport(
            "II", n + 1, families, ((n + 1, factorial(n + 1) * len(families)),)
        )
    pair_count = sum(1 for f in families if f.kind == KIND_PAIR)
    components = [(n + 3, factorial(n + 2) * 2**n)]
    if pair_count:
        components.append((n + 2, factorial(n + 2) * pair_count))
    return MinimalityReport("III", n + 2, families, tuple(components))


# ---------------------------------------------------------------------------
# Brute-force oracle: minimal width by assignment search + exact solving.
# ---------------------------------------------------------------------------
#
# Any representation assigns each neuron a breakline.  Lemma-level facts used,
# all re-derived from the canonical-form semantics rather than from J:
#   * every breakline of f needs at least one neuron;
#   * per breakline the neuron kinks sum to the form's kink, and to zero on a
#    breakline f does not break on;
#   * the candidate's affine part is -(sum of kink*direction over negatively
#     oriented neurons), so matching f pins one exact linear system; the
#     output bias absorbs the constant.
# At the minimal width, two neurons sharing breakline and orientation could be
# merged into a strictly smaller representation, so it suffices to search
# configurations with at most one neuron per (breakline, orientation) and at
# most one off-breakline cancelling pair (two such pairs would already exceed
# n+2 neurons).


def _assignments(cf, k):
    """Every admissible assignment of k neurons, for the searches below.

    Yields ``(orient, split, null, fresh)``.  ``orient`` maps each term
    carried by a single neuron to that neuron's orientation.  ``split`` maps
    each term carried by an opposite pair to the kink of its negative neuron:
    a particular solution of the residual system, whose freedom ``null``
    spans.  ``fresh`` is the affine part left to an off-breakline cancelling
    pair, or None when there is no such pair.  A split is admissible unless a
    pinned coordinate gives one of the pair's neurons a zero kink.
    """
    n = cf.n
    target = tuple(-a for a in cf.affine)
    dirs = [vec(bl.direction) for bl in cf.breaklines]
    kinks = cf.kinks
    for extra_pair in (0, 1):
        n_doubles = k - n - 2 * extra_pair
        if n_doubles < 0 or n_doubles > n or (extra_pair and n_doubles > 0):
            continue  # more than n+2 neurons, never minimal here
        for doubles in combinations(range(n), n_doubles):
            singles = [i for i in range(n) if i not in doubles]
            for eps in product((1, -1), repeat=len(singles)):
                s0 = [Fraction(0)] * cf.d0
                for i, e in zip(singles, eps):
                    if e == -1:
                        for c in range(cf.d0):
                            s0[c] += kinks[i] * dirs[i][c]
                residual = tuple(t - s for t, s in zip(target, s0))
                orient = dict(zip(singles, eps))
                if extra_pair:
                    if not is_zero(residual):
                        yield orient, {}, [], residual
                    continue
                # with no doubled term the system is consistent iff residual = 0
                rows = [[dirs[i][c] for i in doubles] for c in range(cf.d0)]
                sol = solve_affine(rows, residual, len(doubles))
                if sol is None:
                    continue
                part, null = sol
                if all(
                    any(v[idx] != 0 for v in null) or part[idx] not in (0, kinks[i])
                    for idx, i in enumerate(doubles)
                ):
                    yield orient, dict(zip(doubles, part)), null, None


def brute_force_min_width(cf: CanonicalForm, width_limit: int) -> int:
    """Least width admitting a representation, else ``width_limit + 1``.

    Desk-scale oracle: requires n <= 4, d0 <= 3 and width_limit <= n + 2.
    """
    n = cf.n
    if n > 4 or cf.d0 > 3 or width_limit > n + 2:
        raise CapExceeded("brute force oracle is desk-scale only")
    if n == 0:
        # constants need a cancelling same-orientation pair, nonzero affine
        # responses an opposite pair; a single neuron is never affine
        return 2 if width_limit >= 2 else width_limit + 1
    for k in range(n, width_limit + 1):
        if any(True for _ in _assignments(cf, k)):
            return k
    return width_limit + 1


def brute_force_minimal_tuples(cf: CanonicalForm, r_samples=(0,)):
    """All minimal-width tuples found by the assignment search, permutation-reduced.

    Off-breakline pairs are instantiated at every offset in ``r_samples``; the
    result is a set of permutation-canonical tuples for direct comparison with
    ``enumerate_minimal``.
    """
    n = cf.n
    if n == 0:
        raise CapExceeded("tuple enumeration needs at least one breakline")
    k = brute_force_min_width(cf, n + 2)
    if k > n + 2:
        raise AssertionError("every canonical form is representable with n+2 neurons")
    found = set()
    for orient, neg_split, null, fresh in _assignments(cf, k):
        assert not null, "underdetermined split cannot occur at minimal width"
        base = []
        neg_kq = Fraction(0)
        for i, (bl, kk) in enumerate(cf.terms):
            if i in neg_split:
                base.append(Neuron(bl, kk - neg_split[i], 1))
                base.append(Neuron(bl, neg_split[i], -1))
                neg_kq += neg_split[i] * bl.offset
            else:
                base.append(Neuron(bl, kk, orient[i]))
                if orient[i] == -1:
                    neg_kq += kk * bl.offset
        if fresh is None:
            bias = cf.bias - neg_kq
            found.add(EffectiveTuple(tuple(base), bias).sorted())
            continue
        d, s = primitive_direction(fresh)
        for r in r_samples:
            r = rat(r)
            bl = Breakline(d, r)
            neurons = tuple(base) + (Neuron(bl, -s, 1), Neuron(bl, s, -1))
            bias = cf.bias - neg_kq - s * r
            found.add(EffectiveTuple(neurons, bias).sorted())
    return found
