"""JSON interchange for every serializable object in the package.

Rationals always serialize as strings ("p/q" or "p"); decimal strings are
accepted on input and converted exactly, and so are raw JSON integers; the
integer fields (d0, d1, orient, directions) take non-bool JSON integers only.
"""

from __future__ import annotations

import json

from .canonical import CanonicalForm, Different, Equal, EqualUpToAffine
from .errors import DimensionMismatch, SchemaError
from .exact import primitive_direction, rat, rat_str
from .minimality import KIND_FRESH, MinimalityReport, RepresentationFamily
from .network import Breakline, EffectiveTuple, Neuron, ShallowNet
from .pwa import PWASpec, expr_dim, flat_breaklines, parse_pwa
from .synthesis import Violation


def _int(value) -> int:
    """An integer field; anything but a non-bool int raises TypeError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected a JSON integer, found {value!r}")
    return value


def net_to_dict(net: ShallowNet) -> dict:
    return {
        "d0": net.d0,
        "d1": net.d1,
        "W1": [[rat_str(e) for e in row] for row in net.w1],
        "b1": [rat_str(e) for e in net.b1],
        "W2": [rat_str(e) for e in net.w2],
        "b2": rat_str(net.b2),
    }


def net_from_dict(data: dict) -> ShallowNet:
    net = ShallowNet(data["W1"], data["b1"], data["W2"], data["b2"])
    if "d0" in data and net.d0 != _int(data["d0"]):
        raise ValueError("d0 does not match the shape of W1")
    if "d1" in data and net.d1 != _int(data["d1"]):
        raise ValueError("d1 does not match the shape of W1")
    return net


def _breakline_to_dict(bl: Breakline) -> dict:
    return {"d": list(bl.direction), "q": rat_str(bl.offset)}


def _breakline_from_dict(data: dict) -> Breakline:
    """A declared hyperplane {d.x = q}, rescaled to a primitive lex-positive d."""
    d, s = primitive_direction([_int(e) for e in data["d"]])
    return Breakline(d, rat(data["q"]) / s)


def tuple_to_dict(t: EffectiveTuple) -> dict:
    return {
        "neurons": [
            {
                "d": list(nr.breakline.direction),
                "q": rat_str(nr.breakline.offset),
                "kink": rat_str(nr.kink),
                "orient": nr.orientation,
            }
            for nr in t.neurons
        ],
        "bias": rat_str(t.out_bias),
    }


def tuple_from_dict(data: dict) -> EffectiveTuple:
    neurons = tuple(
        Neuron(Breakline([_int(e) for e in nr["d"]], nr["q"]), nr["kink"], _int(nr["orient"]))
        for nr in data["neurons"]
    )
    return EffectiveTuple(neurons, data["bias"])


def form_to_dict(cf: CanonicalForm) -> dict:
    return {
        "terms": [
            {"d": list(bl.direction), "q": rat_str(bl.offset), "kink": rat_str(k)}
            for bl, k in cf.terms
        ],
        "affine": [rat_str(e) for e in cf.affine],
        "bias": rat_str(cf.bias),
        "d0": cf.d0,
    }


def form_from_dict(data: dict) -> CanonicalForm:
    terms = tuple((Breakline([_int(e) for e in t["d"]], t["q"]), t["kink"]) for t in data["terms"])
    return CanonicalForm(terms, data["affine"], data["bias"], _int(data["d0"]))


def family_to_dict(fam: RepresentationFamily) -> dict:
    out = {
        "kind": fam.kind,
        "sigma": list(fam.sigma),
        "provenance": [j + 1 for j in fam.provenance],
        "tuples": [tuple_to_dict(t) for t in fam.tuples],
    }
    if fam.kind == KIND_FRESH:
        out["r_values"] = [rat_str(r) for r in fam.r_values]
    return out


def report_to_dict(report: MinimalityReport) -> dict:
    return {
        "case": report.case,
        "min_width": report.min_width,
        "families": [family_to_dict(f) for f in report.families],
        "components": [
            {"dim": dim, "count": str(count)} for dim, count in report.manifold_components
        ],
    }


def verdict_to_dict(result) -> dict:
    if isinstance(result, Equal):
        return {"verdict": "equal"}
    if isinstance(result, EqualUpToAffine):
        return {
            "verdict": "affine",
            "a_diff": [rat_str(e) for e in result.a_diff],
            "b_diff": rat_str(result.b_diff),
        }
    if isinstance(result, Different):
        return {"verdict": "different", "witness": _breakline_to_dict(result.witness)}
    raise TypeError(f"not an equivalence verdict: {result!r}")


def violation_to_dict(v: Violation) -> dict:
    return {
        "indices": [i + 1 for i in v.indices],
        "point": [rat_str(e) for e in v.point],
    }


def pwa_spec_from_dict(data: dict) -> PWASpec:
    expr = parse_pwa(data["expr"])
    bls = data.get("breaklines", "auto")
    if bls == "auto":
        breaklines = tuple(flat_breaklines(expr))
    else:
        breaklines = tuple(_breakline_from_dict(b) for b in bls)
        d0 = expr_dim(expr)
        for i, bl in enumerate(breaklines):
            if bl.d0 != d0:
                raise DimensionMismatch(
                    f"declared breakline {i + 1} has dimension {bl.d0}, the expression {d0}"
                )
    return PWASpec(expr, breaklines)


def load(path: str):
    """Load any known object from a JSON file, sniffing its schema by keys.

    Values of the wrong type or shape, and nesting too deep for the JSON
    decoder, raise SchemaError.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise SchemaError(f"{path}: JSON nested too deeply") from None
    try:
        return from_dict(data)
    except (TypeError, AttributeError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def from_dict(data: dict):
    if not isinstance(data, dict):
        raise TypeError(f"expected a JSON object, found {type(data).__name__}")
    if "W1" in data:
        return net_from_dict(data)
    if "neurons" in data:
        return tuple_from_dict(data)
    if "terms" in data:
        return form_from_dict(data)
    if "expr" in data:
        return pwa_spec_from_dict(data)
    raise ValueError("unrecognized JSON object (expected a net, tuple, form or PWA spec)")


def dumps(data: dict) -> str:
    """Deterministic serialization used everywhere output must be byte-stable."""
    return json.dumps(data, indent=2)
