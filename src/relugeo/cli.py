"""Command-line interface.

Subcommands operate on JSON files and print machine-readable JSON (or a bare
rational for ``eval``).  Exit codes: 0 success, 1 semantic negative (functions
differ / not representable / transversality violated, with a diagnostic JSON
on stdout), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import sys

from . import jsonio
from .canonical import CanonicalForm, _as_form, equivalence, evaluate_cf
from .errors import NotRepresentable, NotTransversal, ParseError, RelugeoError
from .exact import rat, rat_str
from .minimality import DEFAULT_CAP, classify, enumerate_minimal
from .network import (
    EffectiveTuple,
    ShallowNet,
    effective_tuple,
    evaluate_net,
    evaluate_tuple,
    random_net,
)
from .pwa import PWASpec
from .synthesis import check_transversality, synthesize


# Bounds of `random` from measured cost: a 100 x 1000 net takes about 0.9 s;
# no seed tried with --bound 8 needed more than 6 --transversal attempts, and
# one attempt costs one check_transversality (1.4 s at d0 = 3, d1 = 20).
_MAX_RANDOM_WEIGHTS = 100_000
_MAX_RANDOM_ATTEMPTS = 20


def _parse_r_list(text):
    return tuple(rat(part) for part in text.split(","))


def _cmd_canon(args):
    cf = _as_form(jsonio.load(args.file))
    print(jsonio.dumps(jsonio.form_to_dict(cf)))
    return 0


def _cmd_classify(args):
    cf = _as_form(jsonio.load(args.file))
    report = classify(cf, cap=args.cap, r_samples=_parse_r_list(args.r))
    print(jsonio.dumps(jsonio.report_to_dict(report)))
    return 0


def _cmd_enum(args):
    cf = _as_form(jsonio.load(args.file))
    families = enumerate_minimal(cf, r_samples=_parse_r_list(args.r), cap=args.cap)
    print(jsonio.dumps({"families": [jsonio.family_to_dict(f) for f in families]}))
    return 0


def _cmd_equiv(args):
    result = equivalence(jsonio.load(args.left), jsonio.load(args.right))
    print(jsonio.dumps(jsonio.verdict_to_dict(result)))
    return 0 if result.verdict in ("equal", "affine") else 1


def _cmd_synth(args):
    spec = jsonio.load(args.file)
    if not isinstance(spec, PWASpec):
        raise ValueError("synth expects a PWA spec file with an 'expr' key")
    try:
        result = synthesize(spec, seed=args.seed, check=not args.unchecked)
    except NotTransversal as exc:
        print(
            jsonio.dumps(
                {"error": "NotTransversal", "violation": jsonio.violation_to_dict(exc.violation)}
            )
        )
        return 1
    except NotRepresentable as exc:
        print(jsonio.dumps({"error": "NotRepresentable", "reason": exc.reason}))
        return 1
    print(jsonio.dumps(jsonio.tuple_to_dict(result)))
    return 0


def _cmd_eval(args):
    obj = jsonio.load(args.file)
    x = tuple(rat(part) for part in args.x.split(","))
    if isinstance(obj, ShallowNet):
        value = evaluate_net(obj, x)
    elif isinstance(obj, EffectiveTuple):
        value = evaluate_tuple(obj, x)
    elif isinstance(obj, CanonicalForm):
        value = evaluate_cf(obj, x)
    else:
        raise ValueError("eval expects a net, effective tuple or canonical form")
    print(rat_str(value))
    return 0


def _cmd_random(args):
    if args.d0 * args.d1 > _MAX_RANDOM_WEIGHTS:
        raise ValueError(f"d0 * d1 = {args.d0 * args.d1} exceeds {_MAX_RANDOM_WEIGHTS} weights")
    seed = args.seed
    for _ in range(_MAX_RANDOM_ATTEMPTS):
        net = random_net(args.d0, args.d1, seed, args.bound)
        if not args.transversal:
            break
        breaklines = [nr.breakline for nr in effective_tuple(net).neurons]
        if len(set(breaklines)) == len(breaklines) and check_transversality(breaklines) is None:
            break
        seed += 1000003  # deterministic retry schedule
    else:
        raise ValueError(f"no transversal net found in {_MAX_RANDOM_ATTEMPTS} attempts")
    print(jsonio.dumps(jsonio.net_to_dict(net)))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors start with "error: " like every other exit-2 path."""

    def error(self, message):
        self.exit(2, f"error: {message}\n{self.format_usage()}")


def build_parser():
    parser = _Parser(
        prog="relugeo",
        description="Exact geometry of shallow ReLU networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canon", help="canonical form of a network or tuple")
    p.add_argument("file")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("classify", help="minimal width, case and manifold statistics")
    p.add_argument("file")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--r", default="0", help="comma-separated offsets for infinite families")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("enum", help="enumerate all minimal representations")
    p.add_argument("file")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--r", default="0", help="comma-separated offsets for infinite families")
    p.set_defaults(func=_cmd_enum)

    p = sub.add_parser("equiv", help="decide functional equivalence of two inputs")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("synth", help="synthesize a network from a piecewise-affine spec")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--unchecked", action="store_true", help="skip the transversality check")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("eval", help="evaluate an input at a point")
    p.add_argument("file")
    p.add_argument("--x", required=True, help='comma-separated rationals, e.g. "1/2,3"')
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("random", help="seed-deterministic random network")
    p.add_argument("--d0", type=int, required=True)
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=8)
    p.add_argument("--transversal", action="store_true", help="retry until transversal")
    p.set_defaults(func=_cmd_random)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (ParseError, RelugeoError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
