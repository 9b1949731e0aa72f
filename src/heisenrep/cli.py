"""Command-line interface: construction, inspection, and verification.

All outputs are canonical JSON (sorted keys, fixed separators) so identical
invocations produce identical bytes; ``write_json`` streams them to stdout
or ``--out`` piece by piece.  Exit codes: 0 success, 1 verification
failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii as encode_str

from .abgroup import AbGroup, GroupError, primary_component, prime_factors
from .canonrep import CanonicalRep, build_pi
from .cyclo import CycloError
from .intertwine import SolveError
from .kmat import Form
from .reduction import ReductionData, ReductionError
from .symplectic import (
    BudgetError,
    SympMod,
    SymplecticError,
    enumerate_lagrangians,
    gauss_sum,
    standard_module,
    DEFAULT_LAGRANGIAN_BUDGET,
)
from .verify import run_verify


class UsageError(ValueError):
    pass


def write_json(obj, put):
    """Write the text of ``json.dumps(obj, sort_keys=True,
    separators=(",", ":"))`` and a newline through ``put``, piece by
    piece, for a tree of dicts with str keys, lists, tuples, str, int,
    bool and None (the program writes no floats; anything else raises
    TypeError).  The text of each entry form (``kmat.Form``) is made once
    per call; a list that starts with a form (a matrix row) and a list of
    ints alone (by type, so a bool is not one), written as its ``repr``
    without spaces, are one piece each; each piece carries the separator
    or key that comes before it."""
    texts = {}
    get = texts.get

    def text(x):
        pieces = []
        (write_dict if type(x) is Form else write)(x, pieces.append, "")
        t = texts[id(x)] = "".join(pieces)
        return t

    def write_dict(d, put, head):
        put(head + "{")
        sep = ""
        for k in sorted(d):
            write(d[k], put, sep + encode_str(k) + ":")
            sep = ","
        put("}")

    def write(v, put, head):
        kind = type(v)
        if kind is Form:
            put(head + (get(id(v)) or text(v)))
        elif kind is int:
            put(head + int.__repr__(v))
        elif isinstance(v, (list, tuple)):
            if v and type(v[0]) is Form:
                put(head + "[" + ",".join([get(id(x)) or text(x) for x in v])
                    + "]")
            elif not v or type(v[0]) is int and all(type(x) is int
                                                     for x in v):
                # repr of a list of ints is its JSON text with spaces
                put(head + repr(v if type(v) is list else list(v))
                    .replace(" ", ""))
            else:
                put(head + "[")
                sep = ""
                for x in v:
                    write(x, put, sep)
                    sep = ","
                put("]")
        elif isinstance(v, dict):
            write_dict(v, put, head)
        elif isinstance(v, str):
            put(head + encode_str(v))
        elif v is None:
            put(head + "null")
        elif v is True:
            put(head + "true")
        elif v is False:
            put(head + "false")
        else:
            raise TypeError("Object of type %s is not JSON serializable"
                            % kind.__name__)

    write(obj, put, "")
    put("\n")


def dumps(obj):
    """The text ``write_json`` writes, as one string."""
    pieces = []
    write_json(obj, pieces.append)
    return "".join(pieces)


def emit(args, obj):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            write_json(obj, fh.write)
    else:
        write_json(obj, sys.stdout.write)


def parse_standard_spec(spec):
    """Block syntax: 'p^r:mult' joined by '+', e.g. '3^2:1+3^1:1'."""
    blocks = []
    for part in spec.split("+"):
        part = part.strip()
        if not part:
            raise UsageError("empty block in %r" % spec)
        try:
            head, mult = part.split(":")
            base, exp = head.split("^")
            p, r, d = int(base), int(exp), int(mult)
        except ValueError:
            raise UsageError(
                "cannot parse block %r; expected p^r:mult" % part) from None
        if p == 2:
            raise UsageError(
                "even order is unsupported; the construction needs odd exponent")
        if r < 1 or d < 1:
            raise UsageError("block %r needs positive exponent and multiplicity"
                             % part)
        blocks.append((p ** r, d))
    return blocks


def load_module(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError("cannot read %s: %s" % (path, exc)) from None
    except json.JSONDecodeError as exc:
        raise UsageError("invalid JSON in %s: %s" % (path, exc)) from None
    try:
        return SympMod.from_json(data)
    except (KeyError, TypeError) as exc:
        raise UsageError("malformed module file %s: %r" % (path, exc)) from None


def cmd_standard(args):
    blocks = parse_standard_spec(args.spec)
    M = standard_module(blocks)
    emit(args, M.to_json())
    return 0


def cmd_info(args):
    M = load_module(args.input)
    split = {}
    for p in prime_factors(M.n):
        split[str(p)] = primary_component(M.group, p).order()
    emit(args, {
        "orders": list(M.group.orders),
        "size": M.group.order(),
        "exponent": M.n,
        "primary_sizes": split,
        "valid": True,
    })
    return 0


def cmd_lagrangians(args):
    M = load_module(args.input)
    lags = enumerate_lagrangians(M, budget=args.budget)
    emit(args, {
        "count": len(lags),
        "lagrangians": [[list(r) for r in L.sub.rows] for L in lags],
    })
    return 0


def cmd_reduce(args):
    M = load_module(args.input)
    red = ReductionData(M)
    emit(args, {
        "S": red.S.to_json(),
        "Mc": red.Mc.to_json(),
        "exponent_chain": red.chain,
    })
    return 0


def cmd_system(args):
    M = load_module(args.input)
    rep = CanonicalRep(M, base_index=args.base, system_verify="light",
                       seed=args.seed, budget=args.budget)
    emit(args, rep.system.export())
    return 0


def cmd_pi(args):
    M = load_module(args.input)
    pi = build_pi(M, base_index=args.base, system_verify="light",
                  seed=args.seed, budget=args.budget)
    emit(args, pi.export())
    return 0


def cmd_gauss(args):
    try:
        with open(args.input) as fh:
            data = json.load(fh)
        group = AbGroup(data["orders"])
        value = gauss_sum(group, data["gram"])
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise UsageError("malformed gauss input: %r" % (exc,)) from None
    fourth = value ** 4
    emit(args, {
        "gauss_sum": value.to_json(),
        "fourth_power": fourth.to_json(),
        "order_squared": group.order() ** 2,
        "identity_holds": fourth == group.order() ** 2,
    })
    return 0


def cmd_verify(args):
    M = load_module(args.input)
    reports = run_verify(M, level=args.level, seed=args.seed,
                         budget=args.budget)
    ok = all(r.ok() for r in reports)
    payload = {"ok": ok, "reports": [r.to_json() for r in reports]}
    emit(args, payload)
    for r in reports:
        sys.stderr.write(r.text() + "\n")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="heisenrep",
        description="Exact canonical representations of finite Heisenberg "
                    "groups with their symplectic actions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_input=True):
        if needs_input:
            p.add_argument("input", help="module JSON file")
        p.add_argument("--out", help="write JSON here instead of stdout")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--budget", type=int, default=DEFAULT_LAGRANGIAN_BUDGET,
                       help="enumeration budget on |M|")

    p = sub.add_parser("standard", help="build a standard polarized module")
    p.add_argument("spec", help="blocks like 3^2:1+3^1:2 (odd prime powers)")
    add_common(p, needs_input=False)
    p.set_defaults(func=cmd_standard)

    p = sub.add_parser("info", help="inspect and validate a module")
    add_common(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("lagrangians", help="enumerate lagrangian subgroups")
    add_common(p)
    p.set_defaults(func=cmd_lagrangians)

    p = sub.add_parser("reduce", help="canonical isotropic reduction data")
    add_common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("system", help="solve and export the canonical system")
    add_common(p)
    p.add_argument("--base", type=int, default=0,
                   help="basepoint lagrangian index")
    p.set_defaults(func=cmd_system)

    p = sub.add_parser("pi", help="build and export the canonical representation")
    add_common(p)
    p.add_argument("--base", type=int, default=0)
    p.set_defaults(func=cmd_pi)

    p = sub.add_parser("gauss", help="Gauss sum of a symmetric form")
    add_common(p)
    p.set_defaults(func=cmd_gauss)

    p = sub.add_parser("verify", help="run the exact property matrix")
    add_common(p)
    p.add_argument("--level", choices=["quick", "full"], default="quick")
    p.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, SymplecticError, BudgetError, CycloError,
            GroupError, ReductionError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except SolveError as exc:
        sys.stderr.write("verification defect: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
