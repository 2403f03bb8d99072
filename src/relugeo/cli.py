"""Command-line interface.

Subcommands operate on JSON files and print machine-readable JSON (or a bare
rational for ``eval``).  Exit codes: 0 success, 1 semantic negative (functions
differ / not representable / transversality violated, with a diagnostic JSON
on stdout), 2 usage or parse error.  `_COMMANDS` declares every subcommand
once, and one parser, built from it on first use, serves every `run` call in
a process.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import jsonio
from .canonical import CanonicalForm, _as_form, equivalence, evaluate_cf
from .errors import NotRepresentable, NotTransversal, RelugeoError
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
# one attempt costs one check_transversality (0.06 s at d0 = 3, d1 = 20).
_MAX_RANDOM_WEIGHTS = 100_000
_MAX_RANDOM_ATTEMPTS = 20


def _parse_rationals(text, flag):
    parts = text.split(",")
    if "" in parts:
        raise ValueError(f"{flag} entry {parts.index('') + 1} is empty")
    return tuple(map(rat, parts))


def _cmd_canon(args):
    cf = _as_form(jsonio.load(args.file))
    print(jsonio.form_text(cf))
    return 0


def _cmd_classify(args):
    cf = _as_form(jsonio.load(args.file))
    report = classify(cf, cap=args.cap, r_samples=_parse_rationals(args.r, "--r"))
    print(jsonio.report_text(report))
    return 0


def _cmd_enum(args):
    cf = _as_form(jsonio.load(args.file))
    families = enumerate_minimal(cf, r_samples=_parse_rationals(args.r, "--r"), cap=args.cap)
    print(jsonio.enum_text(families))
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
        result = synthesize(spec, check=not args.unchecked)
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
    print(jsonio.tuple_text(result))
    return 0


def _cmd_eval(args):
    obj = jsonio.load(args.file)
    x = _parse_rationals(args.x, "--x")
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
    # random_net rejects sizes below 1; the weight cap applies to the rest
    if min(args.d0, args.d1) >= 1 and args.d0 * args.d1 > _MAX_RANDOM_WEIGHTS:
        raise ValueError(f"d0 * d1 = {args.d0 * args.d1} exceeds {_MAX_RANDOM_WEIGHTS} weights")
    for attempt in range(_MAX_RANDOM_ATTEMPTS):  # deterministic retry schedule
        net = random_net(args.d0, args.d1, args.seed + attempt * 1000003, args.bound)
        if not args.transversal:
            break
        breaklines = [nr.breakline for nr in effective_tuple(net).neurons]
        if len(set(breaklines)) == len(breaklines) and check_transversality(breaklines) is None:
            break
    else:
        raise ValueError(f"no transversal net found in {_MAX_RANDOM_ATTEMPTS} attempts")
    print(jsonio.dumps(jsonio.net_to_dict(net)))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors start with "error: " like every other exit-2 path."""

    def error(self, message):
        self.exit(2, f"error: {message}\n{self.format_usage()}")


def _arg(*names, **options):
    return names, options


# Every argument, declared once; file, --cap, --r and --seed are shared (synth ignores --seed).
_FILE = _arg("file")
_CAP = _arg("--cap", type=int, default=DEFAULT_CAP)
_R = _arg("--r", default="0", help="comma-separated offsets for infinite families")
_SEED = _arg("--seed", type=int, default=0)
_UNCHECKED = _arg("--unchecked", action="store_true", help="skip the transversality check")
_X = _arg("--x", required=True, help='comma-separated rationals, e.g. "1/2,3"')
_D0 = _arg("--d0", type=int, required=True)
_D1 = _arg("--d1", type=int, required=True)
_BOUND = _arg("--bound", type=int, default=8)
_TRANSVERSAL = _arg("--transversal", action="store_true", help="retry until transversal")

# One row per subcommand: its handler `_cmd_<name>`, help text and arguments
# in help order.
_COMMANDS = (
    (_cmd_canon, "canonical form of a network or tuple", [_FILE]),
    (_cmd_classify, "minimal width, case and manifold statistics", [_FILE, _CAP, _R]),
    (_cmd_enum, "enumerate all minimal representations", [_FILE, _CAP, _R]),
    (_cmd_equiv, "decide functional equivalence of two inputs", [_arg("left"), _arg("right")]),
    (_cmd_synth, "synthesize a network from a piecewise-affine spec", [_FILE, _SEED, _UNCHECKED]),
    (_cmd_eval, "evaluate an input at a point", [_FILE, _X]),
    (_cmd_random, "seed-deterministic random network", [_D0, _D1, _SEED, _BOUND, _TRANSVERSAL]),
)


@functools.cache
def build_parser():
    """The parser of this process, built from `_COMMANDS` on first use."""
    parser = _Parser(prog="relugeo", description="Exact geometry of shallow ReLU networks")
    sub = parser.add_subparsers(dest="command", required=True)
    for func, help_text, arguments in _COMMANDS:
        p = sub.add_parser(func.__name__.removeprefix("_cmd_"), help=help_text)
        for names, options in arguments:
            p.add_argument(*names, **options)
        p.set_defaults(func=func)
    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (RelugeoError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
