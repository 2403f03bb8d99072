"""Minimal widths and the complete enumeration of minimal representations.

For a non-affine response with n distinct breaklines the minimal hidden width
is n, n+1 or n+2 depending on which orientation patterns sigma make the
affine correction a_sigma vanish (J), fall on a breakline direction (J(m)) or
into the span of two breakline directions (J(m, m')).  Each case comes with an
explicit construction of every minimal representation modulo neuron
permutation, plus the dimension and connected-component count of the manifold
of raw networks realizing the function.

One kernel, ``_span_patterns``, finds J, J(m) and J(m, m') by meet in the
middle over the sign patterns, with no linear solve per pattern.  One
construction, ``_split_family``, builds the exact, duplicated-breakline and
duplicated-pair families: split an opposite neuron off 0, 1 or 2 terms.

The brute-force oracle at the bottom re-derives the minimal width by direct
search over neuron-to-breakline assignments and exact linear solving, without
touching the J machinery; tests play the two against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import factorial
from operator import add

from .canonical import CanonicalForm, canonicalize, sigma_affine
from .errors import (
    CapExceeded,
    DimensionMismatch,
    EnumerationCapExceeded,
    EqualDirections,
)
from .exact import dot, in_span, is_zero, primitive_direction, rat, solve_affine, vec, vsub
from .network import Breakline, EffectiveTuple, Neuron, affine_pair

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
    if n > cap:
        raise EnumerationCapExceeded(n, cap)


def _span_patterns(cf, gens, cap):
    """All sign patterns, in product order, whose a_sigma lies in span(gens).

    a_sigma is the affine part plus kink*direction over the terms with
    sigma_i = -1; it lies in the span iff its projection onto the span's
    normals vanishes.  That is a subset sum over exact tuples, solved by meet
    in the middle (Horowitz-Sahni): tail-half sums are bucketed in a dict and
    each head-half sum looks up its complement.
    """
    _check_cap(cf.n, cap)
    gens = [tuple(g) for g in gens]
    if len(set(gens)) < len(gens):
        raise EqualDirections("the two directions must differ")
    _, normals = solve_affine(gens, [0] * len(gens), cf.d0)
    steps = [tuple(k * dot(w, bl.direction) for w in normals) for bl, k in cf.terms]

    def sums(part):  # (sum of the steps at the -1 entries, pattern), in product order
        level = [((Fraction(0),) * len(normals), ())]
        for step in part:
            level = [
                (s if sign == 1 else tuple(map(add, s, step)), pattern + (sign,))
                for s, pattern in level
                for sign in (1, -1)
            ]
        return level

    tails = {}
    for s, tail in sums(steps[cf.n // 2 :]):
        tails.setdefault(s, []).append(tail)
    target = tuple(-dot(w, cf.affine) for w in normals)
    return [h + t for s, h in sums(steps[: cf.n // 2]) for t in tails.get(vsub(target, s), ())]


def compute_J(cf: CanonicalForm, cap: int = DEFAULT_CAP):
    """All orientation patterns with vanishing affine correction."""
    return _span_patterns(cf, [], cap)


def compute_J_single(cf: CanonicalForm, m, cap: int = DEFAULT_CAP):
    """All patterns whose affine correction lies on the line spanned by m."""
    return _span_patterns(cf, [m], cap)


def compute_J_pair(cf: CanonicalForm, m, m2, cap: int = DEFAULT_CAP):
    """All patterns whose affine correction lies in the span of m and m2."""
    return _span_patterns(cf, [m, m2], cap)


def verify_representation(cf: CanonicalForm, t: EffectiveTuple) -> bool:
    """True iff the tuple's response has exactly this canonical form."""
    if t.neurons and t.d0 != cf.d0:
        raise DimensionMismatch("tuple and form live in different dimensions")
    return canonicalize(t, d0=cf.d0) == cf


def _split_family(cf, kind, sigma, js):
    """The form's terms with orientations sigma, each term in js split in two.

    a_sigma = sum of delta_j * direction_j over js; term j keeps orientation
    +1 with kink kink_j + delta_j and gains an opposite neuron with kink
    -delta_j, which absorbs a_sigma.  With js empty this is the exact family.
    """
    a_sigma, b_sigma = sigma_affine(cf, sigma)
    deltas = dict(zip(js, in_span(a_sigma, [cf.breaklines[j].direction for j in js])))
    neurons = []
    for i, ((bl, k), s) in enumerate(zip(cf.terms, sigma)):
        if i in deltas:
            assert deltas[i] != 0 and k + deltas[i] != 0, "would contradict minimality"
            neurons.append(Neuron(bl, k + deltas[i], 1))
            b_sigma += deltas[i] * bl.offset
        else:
            neurons.append(Neuron(bl, k, s))
    neurons.extend(Neuron(cf.breaklines[j], -deltas[j], -1) for j in js)
    return RepresentationFamily(kind, sigma, js, (EffectiveTuple(tuple(neurons), b_sigma),))


def _fresh_line_family(cf, sigma, r_values):
    a_sigma, b_sigma = sigma_affine(cf, sigma)
    terms = tuple(Neuron(b, k, sg) for (b, k), sg in zip(cf.terms, sigma))
    tuples = []
    for r in r_values:
        pos, neg, shift = affine_pair(a_sigma, r)
        tuples.append(EffectiveTuple(terms + (pos, neg), shift + b_sigma))
    return RepresentationFamily(KIND_FRESH, sigma, (), tuple(tuples), tuple(r_values))


def enumerate_minimal(cf: CanonicalForm, r_samples=(0,), cap: int = DEFAULT_CAP):
    """All minimal representation families, modulo neuron permutation.

    Cases I, II and III ask the same question of the direction groups (),
    (m,) and (m, m'): which patterns put a_sigma in their span, and which
    terms on those directions can be split.  The first case with a family
    wins.  The extra-breakline families of case III are infinite (one tuple
    per offset); they are instantiated at the caller-supplied ``r_samples``.
    """
    _check_cap(cf.n, cap)
    r_values = tuple(rat(r) for r in r_samples)
    if cf.is_affine() and is_zero(cf.affine):
        return []

    dirs = sorted({bl.direction for bl in cf.breaklines})
    cases = (
        (KIND_EXACT, [()]),
        (KIND_DUP, [(m,) for m in dirs]),
        (KIND_PAIR, combinations(dirs, 2)),
    )
    for kind, groups in cases:
        # in case III every pattern also gives an extra-breakline family
        patterns = product((1, -1), repeat=cf.n) if kind == KIND_PAIR else ()
        families = [_fresh_line_family(cf, s, r_values) for s in patterns]
        for ms in groups:
            hits = (compute_J, compute_J_single, compute_J_pair)[len(ms)](cf, *ms, cap=cap)
            on_ms = ([i for i, bl in enumerate(cf.breaklines) if bl.direction == m] for m in ms)
            for js in product(*on_ms):
                families.extend(
                    _split_family(cf, kind, sigma, js)
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
