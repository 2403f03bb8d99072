"""Input generators and output checks for the three workloads.

Each generator turns a seeded ``random.Random`` into an endless sequence of
items whose shapes follow a fixed cycle, so every seed yields the same mix of
input properties and only the coefficients change.  Each item carries what
its check needs; checks use ``reference`` only, never relugeo.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import cycle
from math import gcd
from typing import Callable, NamedTuple

from reference import (
    canonical,
    dot,
    form_value,
    is_transversal,
    net_value,
    parse_form,
    parse_neurons,
    primitive,
    tuple_value,
)

# A prime larger than every denominator and direction entry below: an affine
# part with this denominator cannot be cancelled by kink sums (see _case_form).
P = 97


@dataclass
class Item:
    command: str
    files: list  # JSON objects, written out and passed in this order
    extra: list  # arguments after the file paths
    tag: str  # the input property counted in the workload's mix
    expect: dict = field(default_factory=dict)

    def argv(self, paths):
        return [self.command, *paths, *self.extra]


def s(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _nonzero(rng, num, den):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, num), rng.randint(1, den))


def _direction(rng, d0, bound):
    while True:
        v = [rng.randint(-bound, bound) for _ in range(d0)]
        if any(v):
            g = gcd(*v) if next(e for e in v if e) > 0 else -gcd(*v)
            return tuple(e // g for e in v)


def _offset(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 3))


def _breaklines(rng, d0, n, bound=3):
    out, seen = [], set()
    while len(out) < n:
        bl = (_direction(rng, d0, bound), _offset(rng))
        if bl not in seen:
            seen.add(bl)
            out.append(bl)
    return out


def _points(rng, d0, count, num=40, den=7):
    return [tuple(Fraction(rng.randint(-num, num), rng.randint(1, den)) for _ in range(d0)) for _ in range(count)]


def _form_json(terms, affine, bias, d0):
    return {
        "terms": [{"d": list(d), "q": s(q), "kink": s(k)} for d, q, k in terms],
        "affine": [s(a) for a in affine],
        "bias": s(bias),
        "d0": d0,
    }


# ---------------------------------------------------------------- classify-mix
#
# Case I: the form of an oriented tuple, so some pattern cancels the affine
# part (J nonempty).  Case II: that affine part plus delta * d_j with delta of
# denominator P, so no pattern cancels it (J empty) but the pattern lies on
# d_j.  Case III: an affine part u/P with u not parallel to any direction
# modulo P, so no pattern lands on a direction line.  Kink sums have
# denominators coprime to P, which makes each case hold by construction.

# (case, d0, n); per-item cost roughly triples with each step of n.  Three
# ("III", 3, 7) items sit at the 90th percentile, so latency_p90_ms falls
# inside one group of like items rather than between two.
CLASSIFY_CYCLE = [
    ("I", 2, 6), ("II", 2, 6), ("III", 2, 5), ("I", 3, 7), ("II", 3, 6), ("III", 3, 5),
    ("I", 2, 8), ("II", 2, 7), ("III", 2, 6), ("I", 3, 9), ("II", 3, 7), ("III", 3, 7),
    ("I", 2, 10), ("II", 2, 8), ("III", 2, 7), ("I", 3, 10), ("II", 3, 8), ("III", 3, 7),
    ("I", 2, 11), ("II", 2, 9), ("III", 3, 8), ("I", 3, 11), ("II", 3, 9), ("III", 3, 7),
]


def _case_form(rng, case, d0, n):
    while True:
        # distinct directions fix the number of J(m) and J(m, m') scans per shape
        dirs = set()
        while len(dirs) < n:
            dirs.add(_direction(rng, d0, 3))
        bls = [(d, _offset(rng)) for d in sorted(dirs)]
        kinks = [_nonzero(rng, 6, 4) for _ in bls]
        bias = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        if case == "III":
            u = [rng.randint(-(P - 1), P - 1) for _ in range(d0)]
            if all(_off_line(u, d) for d, _ in bls):
                return bls, kinks, [Fraction(e, P) for e in u], bias
            continue
        sigma = [rng.choice([1, -1]) for _ in bls]
        j = rng.randrange(n)
        if case == "II":
            sigma[j] = 1
        neurons = [(d, q, k, o) for (d, q), k, o in zip(bls, kinks, sigma)]
        _, affine, bias = canonical(neurons, bias, [0] * d0)
        if case == "II":
            delta = Fraction(rng.choice([-1, 1]) * rng.randint(1, P - 1), P)
            affine = tuple(a + delta * e for a, e in zip(affine, bls[j][0]))
        return bls, kinks, affine, bias


def _off_line(u, d):
    """Every 2x2 minor of (u, d) that d does not make trivially zero is nonzero mod P.

    Then u/P + s is parallel to neither d nor, in d0 = 3, any plane through d
    with a Cramer coefficient on d of zero, for every s with denominator coprime
    to P: the case III families exist and their kinks stay nonzero.
    """
    pairs = [(i, k) for i in range(len(d)) for k in range(i + 1, len(d)) if d[i] or d[k]]
    return all((u[i] * d[k] - u[k] * d[i]) % P for i, k in pairs)


def classify_items(rng):
    for case, d0, n in cycle(CLASSIFY_CYCLE):
        bls, kinks, affine, bias = _case_form(rng, case, d0, n)
        terms = tuple((d, q, k) for (d, q), k in zip(bls, kinks))
        width = {"I": n, "II": n + 1, "III": n + 2}[case]
        yield Item(
            "classify",
            [_form_json(terms, affine, bias, d0)],
            [],
            case,
            {"form": (terms, tuple(affine), bias), "case": case, "width": width},
        )


def check_classify(item, paths, code, out):
    report = json.loads(out)
    if code != 0 or report["case"] != item.expect["case"] or report["min_width"] != item.expect["width"]:
        return False
    want = item.expect["form"]
    d0 = len(want[1])
    for fam in report["families"]:
        for t in fam["tuples"]:
            if len(t["neurons"]) != item.expect["width"]:
                return False
            if canonical(parse_neurons(t["neurons"]), Fraction(t["bias"]), [0] * d0) != want:
                return False
    return bool(report["families"])


# ---------------------------------------------------------------- synth-mix
#
# flat:   sum of c * relu(affine) terms, one max or min, and an affine part,
#         with "auto" breaklines.
# nested: max(g + A, g + B) with g a relu sum and A - B affine; not flat, so
#         the breaklines are declared.
# nontransversal: a flat spec with d0+1 breaklines through one point, which
#         synth must reject with a violation.

# (kind, d0, n)
SYNTH_CYCLE = [
    ("flat", 1, 3), ("nested", 1, 3), ("flat", 2, 3), ("nested", 2, 3), ("flat", 1, 5),
    ("nested", 1, 4), ("flat", 3, 3), ("nontransversal", 2, 6), ("nested", 2, 4), ("flat", 1, 8),
]


def _affine_text(w, b):
    return f"affine([{','.join(s(e) for e in w)}],{s(b)})"


def _relu_terms(rng, bls):
    """(coefficient, w, b) with c*relu(w.x + b) breaking on each breakline."""
    out = []
    for d, q in bls:
        scale = _nonzero(rng, 3, 2)
        out.append((_nonzero(rng, 5, 3), tuple(scale * e for e in d), -scale * q))
    return out


def _as_neurons(terms):
    """c*relu(w.x+b) as a neuron row: w = scale*d, kink c*|scale|, orientation sign(scale)."""
    rows = []
    for c, w, b in terms:
        d, scale = primitive(w)
        rows.append((d, -b / scale, c * abs(scale), 1 if scale > 0 else -1))
    return rows


def _concurrent(rng, d0, count):
    """count distinct breaklines through one rational point."""
    p = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d0))
    dirs = []
    while len(dirs) < count:
        d = _direction(rng, d0, 3)
        if d not in dirs:
            dirs.append(d)
    return [(d, dot(d, p)) for d in dirs]


def _synth_item(rng, kind, d0, n):
    a0 = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d0)]
    b0 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    if kind == "nontransversal":
        bls = _concurrent(rng, d0, d0 + 1)
        rest = [bl for bl in _breaklines(rng, d0, n) if bl not in bls]
        bls = bls + rest[: n - len(bls)]
        rng.shuffle(bls)
    else:
        bls = _breaklines(rng, d0, n)
        if not is_transversal(bls):
            return None
    if kind == "nested":
        g_terms = _relu_terms(rng, bls[:-1])
        d, q = bls[-1]
        scale = _nonzero(rng, 3, 2)
        shift = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(d0)]
        a_w = [e + scale * di for e, di in zip(shift, d)]
        a_b = b0 - scale * q
        g = " + ".join(f"{s(c)} * relu({_affine_text(w, b)})" for c, w, b in g_terms)
        expr = f"max({g} + {_affine_text(a_w, a_b)}, {g} + {_affine_text(shift, b0)})"
        # max(g + A, g + B) = g + B + relu(A - B), and A - B = scale*(d.x - q)
        neurons = _as_neurons(g_terms + [(Fraction(1), tuple(scale * e for e in d), -scale * q)])
        spec = {"expr": expr, "breaklines": [{"d": list(d), "q": s(q)} for d, q in bls]}
        return spec, neurons, shift, b0, bls
    terms = _relu_terms(rng, bls)
    # the last breakline comes from a max or min instead of a relu
    c, w, b = terms[-1]
    v = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(d0)]
    v0 = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    u, u0 = [x + y for x, y in zip(v, w)], v0 + b
    parts = [f"{s(ci)} * relu({_affine_text(wi, bi)})" for ci, wi, bi in terms[:-1]]
    pair = f"{_affine_text(u, u0)}, {_affine_text(v, v0)}"
    if rng.random() < 0.5:
        # c*max(U, V) = c*V + c*relu(U - V)
        parts.append(f"{s(c)} * max({pair})")
        affine, bias = [a + c * e for a, e in zip(a0, v)], b0 + c * v0
    else:
        # -c*min(U, V) = -c*U + c*relu(U - V)
        parts.append(f"{s(-c)} * min({pair})")
        affine, bias = [a - c * e for a, e in zip(a0, u)], b0 - c * u0
    parts.append(_affine_text(a0, b0))
    spec = {"expr": " + ".join(parts), "breaklines": "auto"}
    return spec, _as_neurons(terms), affine, bias, bls


def synth_items(rng):
    for kind, d0, n in cycle(SYNTH_CYCLE):
        built = None
        while built is None:
            built = _synth_item(rng, kind, d0, n)
        spec, neurons, affine, bias, bls = built
        expect = {
            "kind": kind,
            "breaklines": bls,
            "form": canonical(neurons, bias, affine),
            "neurons": neurons,
            "affine": tuple(affine),
            "bias": bias,
            "points": _points(rng, d0, 2 * d0 + 6),
        }
        yield Item("synth", [spec], ["--seed", str(rng.randrange(1000))], kind, expect)


def check_synth(item, paths, code, out):
    result = json.loads(out)
    e = item.expect
    if e["kind"] == "nontransversal":
        if code != 1 or result.get("error") != "NotTransversal":
            return False
        v = result["violation"]
        point = [Fraction(x) for x in v["point"]]
        idx = v["indices"]
        return len(idx) >= 2 and all(
            1 <= i <= len(e["breaklines"]) and dot(e["breaklines"][i - 1][0], point) == e["breaklines"][i - 1][1]
            for i in idx
        )
    if code != 0 or len(result["neurons"]) > len(e["breaklines"]) + 2:
        return False
    got = parse_neurons(result["neurons"])
    bias = Fraction(result["bias"])
    for x in e["points"]:
        want = tuple_value(e["neurons"], e["bias"] + dot(e["affine"], x), x)
        if tuple_value(got, bias, x) != want:
            return False
    return canonical(got, bias, [0] * len(e["affine"])) == e["form"]


# ---------------------------------------------------------------- canon-equiv
#
# Raw networks are expansions of generated neuron rows with positive scales,
# so their canonical form, the verdict of each pair and its witness or affine
# difference are known before the program runs.

CANON_CYCLE = [
    ("canon", 4, 250), ("equal", 8, 500), ("eval", 16, 1000), ("affine", 4, 100),
    ("canon", 16, 1000), ("different", 8, 150), ("eval", 4, 500), ("equal", 16, 100),
    ("canon", 8, 100), ("affine", 16, 250), ("eval", 8, 250), ("different", 4, 1000),
]


def _raw_rows(rng, d0, d1):
    bls = _breaklines(rng, d0, d1, bound=8)
    return [(d, q, _nonzero(rng, 9, 4), rng.choice([1, -1])) for d, q in bls]


def _ratio(num, den):
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def _expand(rng, rows, b2):
    """Raw network JSON with these neuron rows, each under a random positive scale a."""
    w1, b1, w2 = [], [], []
    for d, q, kink, orient in rows:
        num, den = rng.randint(1, 9), rng.randint(1, 9)
        w1.append([_ratio(orient * num * e, den) for e in d])
        b1.append(_ratio(-orient * num * q.numerator, den * q.denominator))
        w2.append(_ratio(kink.numerator * den, kink.denominator * num))
    return {"W1": w1, "b1": b1, "W2": w2, "b2": s(b2)}


def _variant(rng, rows, verdict, d0):
    """Neuron rows and output bias offset whose response has the given verdict."""
    rows = list(rows)
    # split one neuron into two on the same breakline and orientation
    d, q, k, o = rows.pop(rng.randrange(len(rows)))
    part = _nonzero(rng, 5, 3)
    while part == k:
        part = _nonzero(rng, 5, 3)
    rows += [(d, q, part, o), (d, q, k - part, o)]
    if verdict == "different":
        i = rng.randrange(len(rows))
        d, q, k, o = rows[i]
        rows[i] = (d, q, k + 1 if k != -1 else k + 2, o)
    shift = Fraction(0)
    if verdict == "affine":
        # k*(z)_+ - k*(-z)_+ = k*z on a fresh breakline adds an affine function
        fresh = (_direction(rng, d0, 8), _offset(rng))
        k = _nonzero(rng, 5, 3)
        rows += [(*fresh, k, 1), (*fresh, -k, -1)]
        shift = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    rng.shuffle(rows)
    return rows, shift


def canon_items(rng):
    for kind, d0, d1 in cycle(CANON_CYCLE):
        rows = _raw_rows(rng, d0, d1)
        b2 = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        net = _expand(rng, rows, b2)
        form = canonical(rows, b2, [0] * d0)
        points = _points(rng, d0, 2)
        if kind == "canon":
            yield Item("canon", [net], [], kind, {"form": form, "points": points})
        elif kind == "eval":
            x = points[0]
            yield Item("eval", [net], ["--x=" + ",".join(s(e) for e in x)], kind, {"points": [x]})
        else:
            rows2, shift = _variant(rng, rows, kind, d0)
            other = canonical(rows2, b2 + shift, [0] * d0)
            expect = {"verdict": kind}
            if kind == "affine":
                expect["a_diff"] = [s(a - b) for a, b in zip(form[1], other[1])]
                expect["b_diff"] = s(form[2] - other[2])
            elif kind == "different":
                diff = sorted(set(form[0]) ^ set(other[0]))
                expect["witness"] = {"d": list(diff[0][0]), "q": s(diff[0][1])}
            yield Item("equiv", [net, _expand(rng, rows2, b2 + shift)], [], kind, expect)


def _net_values(net):
    return (
        [[Fraction(e) for e in row] for row in net["W1"]],
        [Fraction(e) for e in net["b1"]],
        [Fraction(e) for e in net["W2"]],
        Fraction(net["b2"]),
    )


def check_canon(item, paths, code, out):
    if code != (1 if item.tag == "different" else 0):
        return False
    e = item.expect
    if item.command == "equiv":
        return json.loads(out) == e
    with open(paths[0], encoding="utf-8") as fh:
        net = _net_values(json.load(fh))
    if item.command == "eval":
        return Fraction(out.strip()) == net_value(*net, e["points"][0])
    form = parse_form(json.loads(out))
    return form == e["form"] and all(form_value(*form, x) == net_value(*net, x) for x in e["points"])


class Workload(NamedTuple):
    items: Callable  # rng -> endless item iterator
    check: Callable  # (item, paths, exit code, stdout) -> bool
    cycle: int  # items per shape cycle


WORKLOADS = {
    "classify-mix": Workload(classify_items, check_classify, len(CLASSIFY_CYCLE)),
    "synth-mix": Workload(synth_items, check_synth, len(SYNTH_CYCLE)),
    "canon-equiv": Workload(canon_items, check_canon, len(CANON_CYCLE)),
}
