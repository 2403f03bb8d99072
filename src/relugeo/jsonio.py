"""JSON interchange for every serializable object in the package.

Rationals serialize as "p/q" or "p" and read exactly.  Integer fields (d0,
d1, orient, d) take non-bool JSON integers, array fields (W1, its rows, b1,
W2, affine, terms, neurons, d, declared breaklines) JSON arrays.

`report_text` and `enum_text` write `classify` and `enum` reports straight to
text, byte-for-byte ``json.dumps(obj, indent=2)``, rendering each distinct
`Neuron` once, and `form_text` writes `canon`'s form the same way;
`report_to_dict` and `form_to_dict` are the parses of those texts.  `dumps`,
which writes for `equiv`, `synth` and `random`, is ``json.dumps(obj, indent=2)``.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _encode

from .canonical import CanonicalForm, Different, Equal, EqualUpToAffine
from .errors import DimensionMismatch, SchemaError
from .exact import primitive_direction, rat, rat_str
from .minimality import KIND_FRESH, MinimalityReport
from .network import Breakline, EffectiveTuple, Neuron, ShallowNet
from .pwa import PWASpec, expr_dim, parse_pwa
from .synthesis import Violation


def _int(value) -> int:
    """An integer field; anything but a non-bool int raises TypeError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected a JSON integer, found {value!r}")
    return value


def _list(value, item=None) -> list:
    """An array field, ``item`` applied to each entry if given; a non-array raises TypeError."""
    if not isinstance(value, list):
        raise TypeError(f"expected a JSON array, found {type(value).__name__}")
    return value if item is None else [item(e) for e in value]


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
    net = ShallowNet(_list(data["W1"], _list), _list(data["b1"]), _list(data["W2"]), data["b2"])
    if "d0" in data and net.d0 != _int(data["d0"]):
        raise ValueError("d0 does not match the shape of W1")
    if "d1" in data and net.d1 != _int(data["d1"]):
        raise ValueError("d1 does not match the shape of W1")
    return net


def _breakline_to_dict(bl: Breakline) -> dict:
    return {"d": list(bl.direction), "q": rat_str(bl.offset)}


def _breakline_from_dict(data: dict) -> Breakline:
    """A declared hyperplane {d.x = q}, rescaled to a primitive lex-positive d."""
    d, s = primitive_direction(_list(data["d"], _int))
    return Breakline(d, rat(data["q"]) / s)


def _neuron_to_dict(nr: Neuron) -> dict:
    return {**_breakline_to_dict(nr.breakline), "kink": rat_str(nr.kink), "orient": nr.orientation}


def tuple_to_dict(t: EffectiveTuple) -> dict:
    return {"neurons": [_neuron_to_dict(nr) for nr in t.neurons], "bias": rat_str(t.out_bias)}


def tuple_from_dict(data: dict) -> EffectiveTuple:
    neurons = tuple(
        Neuron(Breakline(_list(nr["d"], _int), nr["q"]), nr["kink"], _int(nr["orient"]))
        for nr in _list(data["neurons"])
    )
    return EffectiveTuple(neurons, data["bias"])


def form_to_dict(cf: CanonicalForm) -> dict:
    """The form as JSON data: the parse of `form_text`, which decides every byte."""
    return json.loads(form_text(cf))


def form_from_dict(data: dict) -> CanonicalForm:
    terms = tuple((Breakline(_list(t["d"], _int), t["q"]), t["kink"]) for t in _list(data["terms"]))
    return CanonicalForm(terms, _list(data["affine"]), data["bias"], _int(data["d0"]))


# A newline plus the indentation of each depth of a report, in steps of two spaces
_PAD = ["\n" + "  " * depth for depth in range(9)]


def _array(items: list, depth: int) -> str:
    """``json.dumps(indent=2)`` of a list at ``depth`` whose items are already text."""
    inner = "," + _PAD[depth + 1]
    return f"[{_PAD[depth + 1]}{inner.join(items)}{_PAD[depth]}]" if items else "[]"


def form_text(cf: CanonicalForm) -> str:
    """`canon`'s output, exactly ``json.dumps(form_to_dict(cf), indent=2)``; each
    distinct direction is rendered once."""
    lines, terms = {}, []  # lines: a direction to its JSON array
    for bl, k in cf.terms:
        if (d := lines.get(bl.direction)) is None:
            d = lines[bl.direction] = _array(list(map(str, bl.direction)), 3)
        terms.append(
            f'{{{_PAD[3]}"d": {d},{_PAD[3]}"q": "{bl.offset!s}",{_PAD[3]}"kink": "{k!s}"{_PAD[2]}}}'
        )
    affine = _array([f'"{e!s}"' for e in cf.affine], 1)
    return (
        f'{{{_PAD[1]}"terms": {_array(terms, 1)},{_PAD[1]}"affine": {affine},'
        f'{_PAD[1]}"bias": "{cf.bias!s}",{_PAD[1]}"d0": {cf.d0}{_PAD[0]}}}'
    )


def _families_text(head: str, families, tail: str) -> str:
    """``head``, the families' JSON array at depth 1, then ``tail``, in one join
    (a report's one copy of its text); each distinct `Neuron` is rendered once."""
    lines = {}  # a direction to its JSON array
    neurons = {}  # the id of a neuron, kept alive by ``families``, to its text

    def neuron(nr):  # renders a neuron met for the first time
        bl = nr.breakline
        if (d := lines.get(bl.direction)) is None:
            d = lines[bl.direction] = _array(list(map(str, bl.direction)), 7)
        text = neurons[id(nr)] = (
            f'{{{_PAD[7]}"d": {d},{_PAD[7]}"q": "{bl.offset!s}",'
            f'{_PAD[7]}"kink": "{nr.kink!s}",{_PAD[7]}"orient": {nr.orientation}{_PAD[6]}}}'
        )
        return text

    def family(fam):
        tuples = [
            f'{{{_PAD[5]}"neurons": '
            f"{_array([neurons.get(id(nr)) or neuron(nr) for nr in t.neurons], 5)},"
            f'{_PAD[5]}"bias": "{t.out_bias!s}"{_PAD[4]}}}'
            for t in fam.tuples
        ]
        out = (
            f'{{{_PAD[3]}"kind": {_encode(fam.kind)},'
            f'{_PAD[3]}"sigma": {_array(list(map(str, fam.sigma)), 3)},'
            f'{_PAD[3]}"provenance": {_array([str(j + 1) for j in fam.provenance], 3)},'
            f'{_PAD[3]}"tuples": {_array(tuples, 3)}'
        )
        if fam.kind == KIND_FRESH:
            out += f',{_PAD[3]}"r_values": ' + _array([f'"{r!s}"' for r in fam.r_values], 3)
        return out + _PAD[2] + "}"

    items = [family(f) for f in families]
    if not items:
        return f"{head}[]{tail}"
    items[0] = f"{head}[{_PAD[2]}{items[0]}"
    items[-1] = f"{items[-1]}{_PAD[1]}]{tail}"
    return ("," + _PAD[2]).join(items)


def report_text(report: MinimalityReport) -> str:
    """`classify`'s report, exactly ``json.dumps(report_to_dict(report), indent=2)``."""
    components = [
        f'{{{_PAD[3]}"dim": {dim},{_PAD[3]}"count": "{count}"{_PAD[2]}}}'
        for dim, count in report.manifold_components
    ]
    return _families_text(
        f'{{{_PAD[1]}"case": {_encode(report.case)},{_PAD[1]}"min_width": {report.min_width},'
        f'{_PAD[1]}"families": ',
        report.families,
        f',{_PAD[1]}"components": {_array(components, 1)}{_PAD[0]}}}',
    )


def enum_text(families) -> str:
    """`enum`'s output, exactly ``json.dumps({"families": [...]}, indent=2)``."""
    return _families_text(f'{{{_PAD[1]}"families": ', families, _PAD[0] + "}")


def report_to_dict(report: MinimalityReport) -> dict:
    """The report as JSON data: the parse of `report_text`, which decides every byte."""
    return json.loads(report_text(report))


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
    breaklines = data.get("breaklines", "auto")  # "auto" is read off by synthesize
    if breaklines != "auto":
        breaklines = tuple(_breakline_from_dict(b) for b in _list(breaklines))
        d0 = expr_dim(expr)
        for i, bl in enumerate(breaklines):
            if bl.d0 != d0:
                raise DimensionMismatch(
                    f"declared breakline {i + 1} has dimension {bl.d0}, the expression {d0}"
                )
    return PWASpec(expr, breaklines)


def load(path: str):
    """Load any known object from a JSON file, sniffing its schema by keys.

    Values of the wrong type or shape, a missing key, and nesting too deep
    for the JSON decoder, raise SchemaError naming the file.
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
    except KeyError as exc:
        raise SchemaError(f"{path}: missing key {exc}") from exc


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


def dumps(data) -> str:
    """What ``equiv``, ``synth`` and ``random`` print: ``json.dumps(data, indent=2)``."""
    return json.dumps(data, indent=2)
