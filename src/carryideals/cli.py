"""Command-line interface.

Subcommands: enumerate, carry, decompose, compose, generators, betti, reg,
contains, invariant, purity, torclass. Ideal files use the line-oriented
text format (header "ring n=<n> p=<p>", one generator per line); labels are
inline strings like "n=2 p=5 d=25 c=(0,1)". Every subcommand accepts --json.
betti and reg answer a two-variable --label by the closed formulas and
anything else, an ideal file or a label in any number of variables, by the
Koszul homology computation; --koszul takes that route for a two-variable
label too, as a cross-check.
"""

import argparse
import json
import sys
from functools import lru_cache

from . import gl2, koszul, multmap, twovars
from .betti import BettiTable
from .carry import (
    Context,
    carry_pattern,
    enumerate_patterns,
    format_pattern,
    hasse_dot,
    parse_pattern,
)
from .ideals import (
    _fields,
    _int_value,
    carry_ideal,
    decompose,
    ideal_from_labels,
    ideal_from_text,
    ideal_to_json,
    ideal_to_text,
    invariance_witness,
    labels_from_text,
    labels_to_json,
    labels_to_text,
)


def _parse_label(text):
    """(n, p, d, c) of a label like "n=2 p=5 d=25 c=(0,1)"; n defaults to 2."""
    what = f"label {text!r}"
    fields = {"n": "2", **_fields(text.split(), what, ("p", "d", "c"))}
    n, p, d = (_int_value(fields[key], key, what) for key in ("n", "p", "d"))
    return n, p, d, parse_pattern(fields["c"])


def _labels(text, n, p):
    """Labels from "d=<d> c=(...)" lines; an n= or p= field must agree with -n/-p."""
    labels = labels_from_text(text)
    flags = {"n": n, "p": p}
    for ln in text.splitlines():
        for key, _, val in (tok.partition("=") for tok in ln.split()):
            if key in flags and _int_value(val, key, f"label {ln.strip()!r}") != flags[key]:
                raise ValueError(f"label field {key}={val} contradicts -{key} {flags[key]}")
    return labels


def _one_label(text, n, p):
    """The (pattern, degree) of a "d=<d> c=(...)" argument."""
    labels = _labels(text, n, p)
    if len(labels) != 1:
        raise ValueError(f"expected one label like 'd=8 c=(0,0,0)', got {text!r}")
    return labels[0]


def _read_ideal(path):
    if path == "-":
        return ideal_from_text(sys.stdin.read())
    with open(path, encoding="utf-8") as fh:
        return ideal_from_text(fh.read())


def _emit(obj):
    print(json.dumps(obj, sort_keys=True))


def _cmd_enumerate(args):
    ctx = Context(args.n, args.p, args.d)
    pats = enumerate_patterns(ctx)
    if args.json:
        _emit(
            {
                "n": args.n,
                "p": args.p,
                "d": args.d,
                "patterns": [list(c) for c in pats],
            }
        )
    else:
        for c in pats:
            print(format_pattern(c))
    if args.hasse_dot:
        print(hasse_dot(ctx))
    return 0


def _cmd_carry(args):
    exponents = tuple(int(tok) for tok in args.exponents.split(","))
    c = carry_pattern(exponents, args.p)
    if args.json:
        _emit({"p": args.p, "exponents": list(exponents), "carry": list(c)})
    else:
        print(format_pattern(c))
    return 0


def _cmd_decompose(args):
    ideal = _read_ideal(args.ideal)
    labels = decompose(ideal)
    if args.json:
        _emit(labels_to_json(labels, ideal.n, ideal.p))
    else:
        sys.stdout.write(labels_to_text(labels))
    return 0


def _cmd_compose(args):
    labels = [_one_label(item, args.n, args.p) for item in args.label or []]
    if args.labels_file:
        with open(args.labels_file, encoding="utf-8") as fh:
            labels.extend(_labels(fh.read(), args.n, args.p))
    if not labels:
        raise ValueError("compose needs at least one -l/--label or --labels-file")
    ideal = ideal_from_labels(labels, args.n, args.p)
    if args.json:
        _emit(ideal_to_json(ideal.generators, ideal.n, ideal.p))
    else:
        sys.stdout.write(ideal_to_text(ideal.generators, ideal.n, ideal.p))
    return 0


def _cmd_generators(args):
    n, p, d, c = _parse_label(args.label)
    if n == 2:
        seg = twovars.segmentation(c, d, p)
        gens, factors = twovars.generators(seg), twovars.generator_factors(seg)
    elif args.factored:
        raise ValueError("--factored is available for two variables only")
    else:
        gens, factors = carry_ideal(c, d, n, p).generators, None
    if args.json:
        obj = ideal_to_json(gens, n, p)
        if factors is not None:
            obj["factors"] = [list(f) for f in factors]
        _emit(obj)
    elif args.factored:
        print(twovars.format_factors(factors, p))
    else:
        sys.stdout.write(ideal_to_text(gens, n, p))
    return 0


def _resolve_input(args):
    """The ideal file or --label of betti, reg and purity, as
    (ideal_or_None, label_or_None, n, p)."""
    if args.label:
        n, p, d, c = _parse_label(args.label)
        return None, (c, d), n, p
    if not args.ideal:
        raise ValueError("give a --label or an ideal file")
    ideal = _read_ideal(args.ideal)
    return ideal, None, ideal.n, ideal.p


def _route(args):
    """The route of betti and reg, taken from the input: ("formula", (c, d,
    p)) for a two-variable --label without --koszul, else ("koszul", ideal)."""
    ideal, label, n, p = _resolve_input(args)
    if ideal is not None:
        return "koszul", ideal
    if n == 2 and not args.koszul:
        return "formula", (*label, p)
    return "koszul", carry_ideal(*label, n, p)


def _cmd_betti(args):
    if args.max_degree is not None and args.max_degree < 0:
        raise ValueError(f"--max-degree must be at least 0, got {args.max_degree}")
    route, arg = _route(args)
    if route == "formula":
        table = twovars.betti_formula(*arg)
        if args.max_degree is not None:
            kept = {k: v for k, v in table.entries.items() if k[1] <= args.max_degree}
            table = BettiTable(kept, table.n)
    else:
        table = koszul.koszul_betti(arg, max_degree=args.max_degree)
    if args.json:
        _emit({route: table.to_json()})
    else:
        print(table.to_grid())
    return 0


def _cmd_reg(args):
    route, arg = _route(args)
    value = twovars.regularity_formula(*arg) if route == "formula" else koszul.regularity(arg)
    if args.json:
        _emit({"regularity": value})
    else:
        print(value)
    return 0


def _cmd_contains(args):
    c, d = _one_label(args.outer, args.n, args.p)
    c2, d2 = _one_label(args.inner, args.n, args.p)
    verdict = multmap.contains(c, d, c2, d2, args.n, args.p)
    if args.json:
        _emit({"contains": verdict})
    else:
        print("yes" if verdict else "no")
    return 0


def _cmd_invariant(args):
    ideal = _read_ideal(args.ideal)
    witness = invariance_witness(ideal)
    if args.json:
        obj = {"invariant": witness is None}
        if witness is not None:
            d, present, absent = witness
            obj["witness"] = {
                "degree": d,
                "present": list(present),
                "absent": list(absent),
            }
        _emit(obj)
        return 0
    if witness is None:
        print("invariant")
    else:
        d, present, absent = witness
        print(
            f"NOT invariant; witness: degree {d}, "
            f"{present} in the ideal forces {absent}"
        )
    return 0


def _cmd_purity(args):
    ideal, label, n, p = _resolve_input(args)
    if ideal is not None:
        cert = twovars.pure_power_certificate(ideal)
    elif n == 2:
        gens = twovars.generators(twovars.segmentation(*label, p))
        cert = twovars.pure_power_of_generators(gens, p)
    else:
        raise ValueError("purity test handles two-variable ideals only")
    if args.json:
        obj = {"pure": cert is not None}
        if cert:
            obj["m"], obj["e"] = cert
        _emit(obj)
    elif cert:
        print(f"pure: m={cert[0]} e={cert[1]}")
    else:
        print("not pure")
    return 0


def _cmd_torclass(args):
    n, p, d, c = _parse_label(args.label)
    if n != 2:
        raise ValueError("tor classes are computed for two variables only")
    gens = twovars.generators(twovars.segmentation(c, d, p))
    cls = gl2.tor_class_of_generators(gens, p, args.i, args.j)
    if args.json:
        _emit({"class": [[list(lam), mult] for lam, mult in sorted(cls.items())]})
    else:
        print(gl2.format_class(cls))
    return 0


# argparse keeps no state between parse_args calls, so one parser serves
# every in-process call of main
@lru_cache(maxsize=1)
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="carryideals",
        description="carry patterns and invariant monomial ideals in characteristic p",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("enumerate", help="list the carry patterns of a degree")
    sp.add_argument("-d", type=int, required=True)
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--hasse-dot", action="store_true")
    sp.set_defaults(fn=_cmd_enumerate)

    sp = sub.add_parser("carry", help="carry pattern of an exponent vector")
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("-b", "--exponents", required=True, help='e.g. "4,6"')
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_carry)

    sp = sub.add_parser("decompose", help="write an invariant ideal as carry ideals")
    sp.add_argument("ideal", help="ideal file, or - for stdin")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_decompose)

    sp = sub.add_parser("compose", help="assemble an ideal from labels")
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("-l", "--label", action="append", help='e.g. "d=8 c=(0,0,0)"')
    sp.add_argument("--labels-file")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_compose)

    sp = sub.add_parser("generators", help="generators of a carry ideal")
    sp.add_argument("--label", required=True, help='e.g. "n=2 p=5 d=25 c=(0,1)"')
    sp.add_argument("--factored", action="store_true")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_generators)

    for name, fn in (("betti", _cmd_betti), ("reg", _cmd_reg)):
        sp = sub.add_parser(name)
        sp.add_argument("ideal", nargs="?", help="ideal file, or - for stdin")
        sp.add_argument("--label")
        sp.add_argument("--koszul", action="store_true")
        if name == "betti":
            sp.add_argument("--max-degree", type=int, default=None)
        sp.add_argument("--json", action="store_true")
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("contains", help="containment between two carry ideals")
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("--outer", required=True, help='e.g. "d=1 c=()"')
    sp.add_argument("--inner", required=True, help='e.g. "d=2 c=(1)"')
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_contains)

    sp = sub.add_parser("invariant", help="test invariance, with a witness")
    sp.add_argument("ideal", help="ideal file, or - for stdin")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_invariant)

    sp = sub.add_parser("purity", help="pure-resolution certificate (two variables)")
    sp.add_argument("ideal", nargs="?", help="ideal file, or - for stdin")
    sp.add_argument("--label")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_purity)

    sp = sub.add_parser("torclass", help="Grothendieck class of a Tor space")
    sp.add_argument("--label", required=True)
    sp.add_argument("-i", type=int, required=True)
    sp.add_argument("-j", type=int, required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_torclass)

    return parser, sub.choices


def main(argv=None):
    # a known subcommand goes straight to its own parser, which is what the
    # top-level parser would hand it to; unknown arguments are refused in the
    # top-level parser's words
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args, extras = command.parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
