"""Command-line interface.

Exit codes are the machine contract: 0 feasible/pass, 1 infeasible or a
failed check or a violation found, 2 usage or input error, 3 undecided at
this scale (``oracle`` or ``certify --exhaustive`` beyond its bound).
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections import Counter
from pathlib import Path

from . import families
from .discharge import discharge
from .errors import GraphFormatError, UndecidedAtScaleError
from .factor import brute_force_f_factor, decompose_system, degree_spec_from_terminals, solve
from .graphs import Graph, parse_graph, parse_int, parse_terminals
from .tutte import evaluate_pair, format_certificate, parse_certificate, search_certificate
from .verify import (
    PropertyReport,
    check_regular,
    check_terminal_set,
    edge_connectivity,
    find_induced_star,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_UNDECIDED = 3


def _read_graph(path: str) -> Graph:
    return parse_graph(Path(path).read_bytes())


def _read_terminals(path: str, g: Graph) -> tuple[int, ...]:
    return parse_terminals(Path(path).read_bytes(), g)


def _parse_list(flag: str, text: str) -> tuple[int, ...]:
    """A comma-separated ASCII vertex list given to ``flag``, spaces allowed
    around each index; a malformed one, or one that repeats a vertex, is a
    usage error naming the flag and its value."""
    fields = text.split(",") if text.strip() else []
    if text.isascii():
        try:
            vertices = tuple(parse_int(x.strip()) for x in fields)
        except ValueError:
            pass
        else:
            repeated = [v for v, count in Counter(vertices).items() if count > 1]
            if repeated:
                raise ValueError(f"{flag} {text.strip()!r} repeats vertex {repeated[0]}")
            return vertices
    raise ValueError(f"{flag} {text.strip()!r} is not a comma-separated list of vertices")


def _cmd_solve(args) -> int:
    g = _read_graph(args.graph)
    w = _read_terminals(args.terminals, g)
    system = solve(g, w)
    if system is None:
        print("INFEASIBLE")
        return EXIT_VIOLATION
    sys.stdout.write(system.format())
    return EXIT_OK


def _cmd_oracle(args) -> int:
    g = _read_graph(args.graph)
    w = _read_terminals(args.terminals, g)
    f = degree_spec_from_terminals(g, w)
    factor = brute_force_f_factor(g, f, max_edges=args.max_edges)
    if factor is None:
        print("INFEASIBLE")
        return EXIT_VIOLATION
    system = decompose_system(factor, w)
    system.validate(g, w)
    sys.stdout.write(system.format())
    return EXIT_OK


def _cmd_certify(args) -> int:
    pair = args.s is not None or args.t is not None
    if args.exhaustive + (args.witness is not None) + pair != 1 or (
        pair and (args.s is None or args.t is None)
    ):
        print(
            "certify needs exactly one of --exhaustive, --witness FILE, or --s with --t",
            file=sys.stderr,
        )
        return EXIT_USAGE
    g = _read_graph(args.graph)
    w = _read_terminals(args.terminals, g)
    f = degree_spec_from_terminals(g, w)
    if args.exhaustive:
        cert = search_certificate(g, f)
        if cert is None:
            print("NO-CERTIFICATE")
            return EXIT_OK
    elif args.witness is not None:
        cert = parse_certificate(Path(args.witness).read_bytes()).validate(g, f)
    else:
        cert = evaluate_pair(g, f, _parse_list("--s", args.s), _parse_list("--t", args.t))
    sys.stdout.write(format_certificate(cert))
    return EXIT_VIOLATION if cert.delta < 0 else EXIT_OK


def _cmd_verify(args) -> int:
    if args.terminals is not None and args.mode is None:
        print("--terminals requires --mode distance3|nbhd1", file=sys.stderr)
        return EXIT_USAGE
    if args.mode is not None and args.terminals is None:
        print("--mode requires --terminals", file=sys.stderr)
        return EXIT_USAGE
    for flag in ("regular", "edge_connectivity", "star_free"):
        k = getattr(args, flag)
        if k is not None and k <= 0:  # K <= 0 would check nothing
            print(f"--{flag.replace('_', '-')} must be positive, got {k}", file=sys.stderr)
            return EXIT_USAGE
    g = _read_graph(args.graph)
    reports: list[PropertyReport] = []
    if args.regular is not None:
        reports.append(check_regular(g, args.regular))
    if args.edge_connectivity is not None:
        lam, cut = edge_connectivity(g)
        reports.append(
            PropertyReport(
                "edge-connectivity",
                lam >= args.edge_connectivity,
                witness=(lam, cut) if lam < args.edge_connectivity else None,
                detail=f"computed {lam}, required >= {args.edge_connectivity}",
            )
        )
    if args.star_free is not None:
        star = find_induced_star(g, args.star_free)
        reports.append(
            PropertyReport(
                f"star-free-{args.star_free}", star is None, witness=star,
            )
        )
    if args.terminals is not None:
        w = _read_terminals(args.terminals, g)
        reports.append(check_terminal_set(g, w, args.mode))
    if not reports:
        print("verify: no checks requested", file=sys.stderr)
        return EXIT_USAGE
    for rep in reports:
        print(rep.format_line())
    return EXIT_OK if all(rep.holds for rep in reports) else EXIT_VIOLATION


#: every family parameter flag of ``generate``
FAMILY_FLAGS = ("r", "k", "n", "m", "seed")

#: family name -> (generator, the flags it takes in argument order)
FAMILIES = {
    "prop1-odd": (families.gen_prop1_odd, ("r", "k")),
    "prop1-even": (families.gen_prop1_even, ("r", "k")),
    "prop1-bipartite": (families.gen_prop1_bipartite, ("r", "n")),
    "prop2-r4": (families.gen_prop2_r4, ("n",)),
    "prop2-general": (families.gen_prop2_general, ("r", "m")),
    "prop2-r5": (families.gen_prop2_r5, ("m",)),
    "random": (families.random_valid_instance, ("r", "n", "seed")),
}


def _cmd_generate(args) -> int:
    if Path(args.out).name in ("", ".."):  # '', '.' or '..' would write '.graph' and so on
        print(f"--out {args.out!r} does not end in a file name", file=sys.stderr)
        return EXIT_USAGE
    fam = args.family
    if fam not in FAMILIES:
        print(f"unknown family {fam!r}", file=sys.stderr)
        return EXIT_USAGE
    generator, flags = FAMILIES[fam]
    missing = [flag for flag in flags if getattr(args, flag) is None]
    if missing:
        print(
            f"family {fam} requires --" + ", --".join(missing), file=sys.stderr
        )
        return EXIT_USAGE
    extra = [f for f in FAMILY_FLAGS if f not in flags and getattr(args, f) is not None]
    if extra:
        print(f"family {fam} does not take --" + ", --".join(extra), file=sys.stderr)
        return EXIT_USAGE
    inst = generator(*(getattr(args, flag) for flag in flags))
    for path in families.write_instance(inst, args.out):
        print(path)
    return EXIT_OK


def _cmd_discharge(args) -> int:
    g = _read_graph(args.graph)
    w = _read_terminals(args.terminals, g)
    report = discharge(g, w, _parse_list("--s", args.s), _parse_list("--t", args.t), args.r)
    sys.stdout.write(report.format())
    ok = (
        report.conservation_ok
        and report.identity_ok
        and report.delta_consistent
        and report.all_bounds_hold
    )
    return EXIT_OK if ok else EXIT_VIOLATION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command's parser, built on the first call and shared by every
    later one: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="pathcycle",
        description="Spanning path-cycle systems: solve, verify, certify, generate",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="find a spanning path-cycle system")
    p.add_argument("--graph", required=True)
    p.add_argument("--terminals", required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="exhaustive f-factor search (small inputs)")
    p.add_argument("--graph", required=True)
    p.add_argument("--terminals", required=True)
    p.add_argument("--max-edges", type=int, default=24)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("certify", help="evaluate or search deficiency certificates")
    p.add_argument("--graph", required=True)
    p.add_argument("--terminals", required=True)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--witness")
    p.add_argument("--s")
    p.add_argument("--t")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("verify", help="structural property checks")
    p.add_argument("--graph", required=True)
    p.add_argument("--regular", type=int)
    p.add_argument("--edge-connectivity", type=int)
    p.add_argument("--star-free", type=int)
    p.add_argument("--terminals")
    p.add_argument("--mode", choices=("distance3", "nbhd1"))
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("generate", help="emit a family instance as files")
    p.add_argument("--family", required=True)
    for flag in FAMILY_FLAGS:
        p.add_argument(f"--{flag}", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("discharge", help="run the charge-redistribution verifier")
    p.add_argument("--graph", required=True)
    p.add_argument("--terminals", required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=_cmd_discharge)
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except UndecidedAtScaleError as exc:
        print(f"undecided at this scale: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except (GraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
