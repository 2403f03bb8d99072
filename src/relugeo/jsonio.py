"""JSON interchange for every serializable object in the package.

Rationals serialize as "p/q" or "p" and read exactly.  Integer fields (d0,
d1, orient, d) take non-bool JSON integers, array fields (W1, its rows, b1,
W2, affine, terms, neurons, d, declared breaklines) JSON arrays.

`form_text`, `tuple_text`, `report_text` and `enum_text` write the output of
`canon`, `synth`, `classify` and `enum` straight to the text of
``json.dumps(obj, indent=2)``, through one renderer of terms, neurons and tuples
that renders each distinct direction and `Neuron` once; the ``*_to_dict`` are
their parses.  `dumps`, ``json.dumps(obj, indent=2)``, writes `equiv` verdicts,
violations, errors and `random` nets.
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


def _breakline_from_dict(data: dict) -> Breakline:
    """A declared hyperplane {d.x = q}, rescaled to a primitive lex-positive d."""
    d, s = primitive_direction(_list(data["d"], _int))
    return Breakline(d, rat(data["q"]) / s)


def tuple_to_dict(t: EffectiveTuple) -> dict:
    """The tuple as JSON data: the parse of `tuple_text`, which decides every byte."""
    return json.loads(tuple_text(t))


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


def _writer(depth: int):
    """``(term, tuple_)``: renderers of a term (breakline, kink) as an object at
    ``depth`` and of a tuple at ``depth - 2`` with its neurons at ``depth``, each
    distinct direction and `Neuron` (by ``id``, kept alive by the caller) once."""
    lines, neurons = {}, {}  # a direction to its JSON array; a neuron's id to its text
    pad, top, end, tail = _PAD[depth + 1], _PAD[depth - 1], _PAD[depth] + "}", _PAD[depth - 2] + "}"

    def term(bl, kink, orient=""):
        if (d := lines.get(bl.direction)) is None:
            d = lines[bl.direction] = _array(list(map(str, bl.direction)), depth + 1)
        return f'{{{pad}"d": {d},{pad}"q": "{bl.offset!s}",{pad}"kink": "{kink!s}"{orient}{end}'

    def neuron(nr):  # renders a neuron met for the first time
        orient = f',{pad}"orient": {nr.orientation}'
        return neurons.setdefault(id(nr), term(nr.breakline, nr.kink, orient))

    def tuple_(t):
        items = [neurons.get(id(nr)) or neuron(nr) for nr in t.neurons]
        return f'{{{top}"neurons": {_array(items, depth - 1)},{top}"bias": "{t.out_bias!s}"{tail}'

    return term, tuple_


def tuple_text(t: EffectiveTuple) -> str:
    """`synth`'s output, exactly ``json.dumps(tuple_to_dict(t), indent=2)``."""
    return _writer(2)[1](t)


def form_text(cf: CanonicalForm) -> str:
    """`canon`'s output, exactly ``json.dumps(form_to_dict(cf), indent=2)``."""
    term = _writer(2)[0]
    terms = _array([term(bl, k) for bl, k in cf.terms], 1)
    affine = _array([f'"{e!s}"' for e in cf.affine], 1)
    return (
        f'{{{_PAD[1]}"terms": {terms},{_PAD[1]}"affine": {affine},'
        f'{_PAD[1]}"bias": "{cf.bias!s}",{_PAD[1]}"d0": {cf.d0}{_PAD[0]}}}'
    )


def _families_text(head: str, families, tail: str) -> str:
    """``head``, the families' JSON array at depth 1, then ``tail``, in one join
    (a report's one copy of its text); each distinct `Neuron` is rendered once."""
    tuple_ = _writer(6)[1]

    def family(fam):
        out = (
            f'{{{_PAD[3]}"kind": {_encode(fam.kind)},'
            f'{_PAD[3]}"sigma": {_array(list(map(str, fam.sigma)), 3)},'
            f'{_PAD[3]}"provenance": {_array([str(j + 1) for j in fam.provenance], 3)},'
            f'{_PAD[3]}"tuples": {_array(list(map(tuple_, fam.tuples)), 3)}'
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
        w = result.witness
        return {"verdict": "different", "witness": {"d": list(w.direction), "q": rat_str(w.offset)}}
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
