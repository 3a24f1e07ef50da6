"""Command-line interface, and the text formats of the package.

Subcommands: enumerate, carry, decompose, compose, generators, betti, reg,
contains, invariant, purity, torclass. Every subcommand accepts --json.
betti and reg answer a two-variable --label by the closed formulas and
anything else, an ideal file or a label in any number of variables, by the
Koszul homology computation; --koszul takes that route for a two-variable
label too, as a cross-check.

The algebra modules read and write no text (BettiTable's grid and JSON
aside); this module owns the formats. Patterns are written "(c1,...,cM)".
An ideal file is a header "ring n=<n> p=<p>" and one generator per line as
space-separated exponents. A label is a line of key=value fields such as
"n=2 p=5 d=25 c=(0,1)", read by parse_label alone, whether it comes from
--label, -l, --outer, --inner or a line of a --labels-file; a key may not
repeat.
"""

import argparse
import json
import sys
from functools import lru_cache

from . import gl2, koszul, multmap, twovars
from .betti import BettiTable
from .carry import Context, carry_pattern, cover_edges, enumerate_patterns
from .ideals import (
    MonomialIdeal,
    carry_ideal,
    decompose,
    ideal_from_labels,
    invariance_witness,
)

# ---------------------------------------------------------------------------
# text formats


def format_pattern(c):
    return "(" + ",".join(str(x) for x in c) + ")"


def parse_pattern(text):
    text = text.strip()
    inner = text[1:-1].strip()
    try:
        if text[:1] == "(" and text[-1:] == ")":
            return tuple(int(tok) for tok in inner.split(",")) if inner else ()
    except ValueError:
        pass
    raise ValueError(f"expected a pattern like (0,1), got {text!r}")


def hasse_dot(ctx):
    """DOT source for the Hasse diagram of the pattern lattice."""
    lines = ["graph carry_lattice {"]
    for c in enumerate_patterns(ctx):
        lines.append(f'  "{format_pattern(c)}";')
    for low, high in cover_edges(ctx):
        lines.append(f'  "{format_pattern(low)}" -- "{format_pattern(high)}";')
    lines.append("}")
    return "\n".join(lines)


def _fields(tokens, what, required):
    """key=value tokens as a dict; no key may repeat, and every key in
    required must be present."""
    fields = {}
    for tok in tokens:
        key, eq, val = tok.partition("=")
        if not eq:
            raise ValueError(f"bad token {tok!r} in {what}: expected key=value")
        if key in fields:
            raise ValueError(f"{what} repeats the {key}= field")
        fields[key] = val
    for key in required:
        if key not in fields:
            raise ValueError(f"{what} has no {key}= field")
    return fields


def _int_value(val, what, field):
    """The integer val, read from the named field of what."""
    try:
        return int(val)
    except ValueError:
        raise ValueError(f"{what} has a non-integer {field}: {val!r}") from None


def _exponents(tokens, what):
    return tuple(_int_value(tok, what, "exponent") for tok in tokens)


def parse_label(text, n=None, p=None):
    """(c, d, n, p) of a label like "n=2 p=5 d=25 c=(0,1)".

    A given n or p (the -n and -p of compose and contains) fills a missing
    field and must agree with a present one; n defaults to 2. Other keys
    are ignored.
    """
    what = f"label {text.strip()!r}"
    required = ("d", "c") if p is not None else ("p", "d", "c")
    fields = _fields(text.split(), what, required)
    ring = {"n": 2 if n is None else n, "p": p}
    for key, given in (("n", n), ("p", p)):
        if key in fields:
            ring[key] = _int_value(fields[key], what, f"{key}= field")
            if given is not None and ring[key] != given:
                raise ValueError(
                    f"label field {key}={fields[key]} contradicts -{key} {given}"
                )
    d = _int_value(fields["d"], what, "d= field")
    return parse_pattern(fields["c"]), d, ring["n"], ring["p"]


def labels_from_text(text, n=None, p=None):
    """The (c, d) labels of the nonblank lines of a labels file."""
    return [parse_label(ln, n, p)[:2] for ln in text.splitlines() if ln.strip()]


def labels_to_text(labels):
    return "\n".join(f"d={d} c={format_pattern(c)}" for c, d in labels) + "\n"


def ideal_from_text(text):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("ring"):
        raise ValueError("ideal text must start with a 'ring n=<n> p=<p>' header")
    what = "the ring header"
    fields = _fields(lines[0].split()[1:], what, ("n", "p"))
    n, p = (_int_value(fields[key], what, f"{key}= field") for key in ("n", "p"))
    gens = [_exponents(ln.split(), f"generator line {ln!r}") for ln in lines[1:]]
    return MonomialIdeal(gens, n, p)


def ideal_to_text(generators, n, p):
    """The text format of the ideal with these minimal generators, in order."""
    lines = [f"ring n={n} p={p}"]
    lines.extend(" ".join(str(x) for x in g) for g in generators)
    return "\n".join(lines) + "\n"


def ideal_to_json(generators, n, p):
    return {"n": n, "p": p, "generators": [list(g) for g in generators]}


def format_factors(factors, p):
    """(m^a)^[p^t] factors of two-variable generators, from (a, t) pairs."""
    parts = [f"m^{a}" if t == 0 else f"(m^{a})^[{p**t}]" for a, t in factors if a]
    return " ".join(parts) or "m^0"


def format_class(cls):
    """A Grothendieck class {lam: multiplicity} as a sum of simples L(lam)."""
    parts = [f"{cls[lam]}*L({lam[0]},{lam[1]})" for lam in sorted(cls, reverse=True)]
    return " + ".join(parts) or "0"


# ---------------------------------------------------------------------------
# subcommands


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
    exponents = _exponents(args.exponents.split(","), f"-b {args.exponents!r}")
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
        rows = [{"d": d, "c": list(c)} for c, d in labels]
        _emit({"n": ideal.n, "p": ideal.p, "labels": rows})
    else:
        sys.stdout.write(labels_to_text(labels))
    return 0


def _cmd_compose(args):
    labels = [parse_label(item, args.n, args.p)[:2] for item in args.label or []]
    if args.labels_file:
        with open(args.labels_file, encoding="utf-8") as fh:
            labels.extend(labels_from_text(fh.read(), args.n, args.p))
    if not labels:
        raise ValueError("compose needs at least one -l/--label or --labels-file")
    ideal = ideal_from_labels(labels, args.n, args.p)
    if args.json:
        _emit(ideal_to_json(ideal.generators, ideal.n, ideal.p))
    else:
        sys.stdout.write(ideal_to_text(ideal.generators, ideal.n, ideal.p))
    return 0


def _cmd_generators(args):
    c, d, n, p = parse_label(args.label)
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
        print(format_factors(factors, p))
    else:
        sys.stdout.write(ideal_to_text(gens, n, p))
    return 0


def _resolve_input(args):
    """The ideal file or --label of betti, reg and purity, as
    (ideal_or_None, label_or_None, n, p)."""
    if args.label:
        c, d, n, p = parse_label(args.label)
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
    c, d = parse_label(args.outer, args.n, args.p)[:2]
    c2, d2 = parse_label(args.inner, args.n, args.p)[:2]
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
    c, d, n, p = parse_label(args.label)
    if n != 2:
        raise ValueError("tor classes are computed for two variables only")
    gens = twovars.generators(twovars.segmentation(c, d, p))
    cls = gl2.tor_class_of_generators(gens, p, args.i, args.j)
    if args.json:
        _emit({"class": [[list(lam), mult] for lam, mult in sorted(cls.items())]})
    else:
        print(format_class(cls))
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
