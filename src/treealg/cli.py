"""Command-line front end.

Verbs: compose, eval, coproduct, primitives, dims, verify, envelope.
Exit status: 0 success (and verification with no defects), 1 defects
found, 2 usage, parse or input errors (including unreadable files), 3
internal error (an unexpected exception; a bug, reported on one line).
Output is deterministic; --output json wraps every result as
{"command":..., "result":..., "defects": [...]}.
"""

import argparse
import json
import sys

from treealg.trees import DuplicateLabelError, ParseError, catalan, parse_planar, parse_rooted
from treealg.dendriform import UnitProductError, parse_expr
from treealg import operads
from treealg import bialgebra
from treealg import envelope as env
from treealg.suites import SUITES, SuiteError, run_suite


def _auto_relabel(outer, inner, at):
    """Rename colliding inner labels to fresh integers."""
    used = outer.label_set() | inner.label_set()
    clash = (outer.label_set() - {at}) & inner.label_set()
    if not clash:
        return inner, {}
    fresh = 1
    mapping = {}
    for lab in sorted(clash):
        while str(fresh) in used or str(fresh) in mapping.values():
            fresh += 1
        mapping[lab] = str(fresh)
        fresh += 1
    return inner.relabel(mapping), mapping


def cmd_compose(args):
    parse = parse_planar if args.species == "ape" else parse_rooted
    outer = parse(args.outer)
    inner = parse(args.inner)
    if args.at not in outer.label_set():
        raise ParseError("--at %r is not a vertex of the outer tree" % args.at, 0)
    inner, renamed = _auto_relabel(outer, inner, args.at)
    compose = operads.compose_ape if args.species == "ape" else operads.compose_prelie
    result = compose(outer, args.at, inner)
    out = {"sum": str(result), "terms": len(result)}
    if renamed:
        out["relabeled"] = renamed
    return out, []


def cmd_eval(args):
    return {"value": str(parse_expr(args.expr))}, []


def cmd_coproduct(args):
    e = parse_expr(args.expr)
    return {"coproduct": str(bialgebra.coproduct(e))}, []


def cmd_primitives(args):
    basis = bialgebra.primitives(args.degree, args.gens)
    return {"degree": args.degree, "dimension": len(basis), "basis": [str(p) for p in basis]}, []


def cmd_dims(args):
    table = []
    for n in range(1, args.upto + 1):
        table.append(
            {
                "degree": n,
                "free_dendriform": catalan(n) * args.gens**n,
                "primitive": len(bialgebra.primitives(n, args.gens)),
            }
        )
    return {"gens": args.gens, "table": table}, []


def cmd_verify(args):
    report = run_suite(args.suite, args.bound)
    return report["result"] | {"suite": report["suite"], "bound": report["bound"]}, report["defects"]


def cmd_envelope(args):
    b = env.BraceStructure.load(args.brace)
    defects = env.validate_brace(b, args.bound + 1)
    if defects:
        return {"valid": False}, defects
    report, defects = env.build_envelope(b, args.bound).report()
    return report | {"valid": True}, defects


def _positive(text):
    """argparse type: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer, got %r" % text) from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got %d" % value)
    return value


def _print_text(result, defects, stream):
    for key, value in result.items():
        if isinstance(value, (dict, list)):
            stream.write("%s: %s\n" % (key, json.dumps(value, default=str, sort_keys=True)))
        else:
            stream.write("%s: %s\n" % (key, value))
    stream.write("%d defects\n" % len(defects))
    for d in defects:
        stream.write("defect: %s\n" % json.dumps(d, default=str, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="treealg",
        description="exact computer algebra on tree operads and dendriform bialgebras",
    )
    common = argparse.ArgumentParser(add_help=False)
    # the same option after the verb; a value given there wins
    common.add_argument("--output", choices=("text", "json"), default=argparse.SUPPRESS)
    parser.add_argument("--output", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("compose", help="operad composition of two trees")
    p.add_argument("--species", choices=("ape", "prelie"), default="ape")
    p.add_argument("--outer", required=True)
    p.add_argument("--inner", required=True)
    p.add_argument("--at", required=True)
    p.set_defaults(func=cmd_compose)

    p = add_parser("eval", help="evaluate an algebra expression")
    p.add_argument("--expr", required=True)
    p.set_defaults(func=cmd_eval)

    p = add_parser("coproduct", help="coproduct of an algebra expression")
    p.add_argument("--expr", required=True)
    p.set_defaults(func=cmd_coproduct)

    p = add_parser("primitives", help="primitive basis of a graded slice")
    p.add_argument("--gens", type=_positive, required=True)
    p.add_argument("--degree", type=_positive, required=True)
    p.set_defaults(func=cmd_primitives)

    p = add_parser("dims", help="free algebra and primitive dimensions")
    p.add_argument("--gens", type=_positive, required=True)
    p.add_argument("--upto", type=_positive, required=True)
    p.set_defaults(func=cmd_dims)

    p = add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--bound", type=_positive, default=None)
    p.set_defaults(func=cmd_verify)

    p = add_parser("envelope", help="envelope of a brace structure from JSON")
    p.add_argument("--brace", required=True, help="BraceStructure JSON file")
    p.add_argument("--bound", type=_positive, default=4)
    p.set_defaults(func=cmd_envelope)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0

    try:
        result, defects = args.func(args)
    except (
        ParseError,
        DuplicateLabelError,
        UnitProductError,
        env.BraceError,
        SuiteError,
        OSError,
    ) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except Exception as exc:
        sys.stderr.write("internal error: %s: %s\n" % (type(exc).__name__, exc))
        return 3

    if args.output == "json":
        sys.stdout.write(
            json.dumps(
                {"command": args.verb, "result": result, "defects": defects},
                default=str,
                sort_keys=True,
            )
            + "\n"
        )
    else:
        _print_text(result, defects, sys.stdout)
    return 1 if defects else 0


if __name__ == "__main__":
    sys.exit(main())
