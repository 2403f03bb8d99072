"""Kinks a spec does not declare, far out or in a thin slab, never give a wrong network.

Each spec is a sum of relu terms on "near" breaklines (small offsets, all
declared) plus terms on "extra" breaklines, as a flat sum or nested as
max(g + A, g + B) with g the other terms and A - B affine.  The extra terms
are either one kink beyond +-60 or a hat of three parallel kinks at p/1009,
(p+1)/1009 and (p+2)/1009, nonzero only in a slab of width 2/1009.  With the
extras undeclared, ``synth`` (checked and ``--unchecked``) must exit 1; it may
never exit 0 with a network that differs from f at a witness point: both far
sides of the kink, or the top of the hat.  With every kink declared it must
exit 0 and agree with f there.
"""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relugeo.cli import run
from relugeo.exact import dot, primitive_direction, rat_str
from relugeo.jsonio import tuple_from_dict
from relugeo.network import Breakline, evaluate_tuple
from relugeo.pwa import eval_pwa, parse_pwa
from relugeo.synthesis import check_transversality

F = Fraction


def directions(d0):
    raw = st.lists(st.integers(-3, 3), min_size=d0, max_size=d0).filter(any)
    return raw.map(lambda v: primitive_direction(v)[0])


def affine(w, b):
    return f"affine([{','.join(rat_str(F(e)) for e in w)}],{rat_str(F(b))})"


def term(c, d, q):
    """c * relu(d . x - q), a kink of c on Breakline(d, q)."""
    return f"{rat_str(c)} * relu({affine(d, -q)})"


kinks = st.builds(F, st.integers(-4, 4).filter(bool), st.integers(1, 3))
small = st.builds(F, st.integers(-6, 6), st.integers(1, 3))


@st.composite
def specs(draw):
    """(expression, near breaklines, extra breaklines, witness points)."""
    d0 = draw(st.integers(1, 3))
    nested = draw(st.booleans())
    lines = st.tuples(directions(d0), small)
    near = draw(st.lists(lines, min_size=nested, max_size=3, unique=True))
    d = draw(directions(d0))
    if draw(st.booleans()):  # one kink beyond the box the old check sampled
        q = draw(st.integers(61, 5000)) * draw(st.sampled_from([1, -1]))
        extra = [(d, F(q), draw(kinks))]
        levels = [q - 1000, q + 1000]
    else:  # a hat in a slab between the old check's grid points
        p = draw(st.integers(-3000, 3000).filter(lambda p: p % 1009 not in (0, 1008, 1007)))
        c = draw(kinks)
        extra = [(d, F(p, 1009), c), (d, F(p + 1, 1009), -2 * c), (d, F(p + 2, 1009), c)]
        levels = [F(p + 1, 1009)]
    norm = dot(d, d)
    witnesses = [tuple(t * e / norm for e in d) for t in levels]  # d . x = t
    a0, b0 = draw(st.lists(small, min_size=d0, max_size=d0)), draw(small)
    terms = [term(draw(kinks), dn, qn) for dn, qn in near]
    terms += [term(c, de, qe) for de, qe, c in extra]
    if nested:
        # max(g + A, g + B) = g + B + relu(A - B), A - B = s * (d . x - q) on the first near line
        g = " + ".join(terms[1:])  # the extra terms at least
        (dn, qn), s = near[0], draw(kinks)
        a = affine([x + s * y for x, y in zip(a0, dn)], b0 - s * qn)
        expr = f"max({g} + {a}, {g} + {affine(a0, b0)})"
    else:
        expr = " + ".join([*terms, affine(a0, b0)])
    bls = lambda rows: [Breakline(d, q) for d, q, *_ in rows]
    return expr, bls(near), bls(extra), witnesses


def synth(expr, declared, flags, seed):
    """(exit code, the printed network or None) of ``relugeo synth`` in process."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        breaklines = [{"d": list(bl.direction), "q": rat_str(bl.offset)} for bl in declared]
        path.write_text(json.dumps({"expr": expr, "breaklines": breaklines}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run(["synth", str(path), "--seed", str(seed), *flags])
    return code, tuple_from_dict(json.loads(out.getvalue())) if code == 0 else None


@settings(max_examples=60, deadline=None)
@given(specs(), st.sampled_from([[], ["--unchecked"]]), st.integers(0, 99))
def test_undeclared_kinks_never_synthesize(spec, flags, seed):
    expr, near, extra, witnesses = spec
    assume(check_transversality(near) is None)
    code, net = synth(expr, near, flags, seed)
    e = parse_pwa(expr)
    for x in witnesses:
        assert code != 0 or evaluate_tuple(net, x) == eval_pwa(e, x)
    assert code == 1


@settings(max_examples=60, deadline=None)
@given(specs(), st.sampled_from([[], ["--unchecked"]]), st.integers(0, 99))
def test_declared_kinks_synthesize_f(spec, flags, seed):
    expr, near, extra, witnesses = spec
    declared = near + [bl for bl in extra if bl not in near]
    assume(check_transversality(declared) is None)
    code, net = synth(expr, declared, flags, seed)
    assert code == 0
    e = parse_pwa(expr)
    for x in witnesses:
        assert evaluate_tuple(net, x) == eval_pwa(e, x)
