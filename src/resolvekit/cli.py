"""Command-line front end.

Verbs: gen, dist, verify, solve, witness, audit, reproduce. Output on stdout
is byte-identical for identical invocations (timings only appear on stderr
behind --stats). Exit statuses: 0 success/confirmed, 1 refuted or
verification false, 2 usage or domain error, 3 resource budget exceeded.
"""
from __future__ import annotations

import argparse
import functools
import sys
from typing import Sequence

from . import generators, graphs, solvers
from .generators import VertexLabel, build_cycle, id_of
from .graphs import Graph, apsp, read_graph, write_graph
from .solvers import (
    Budget,
    BudgetExceededError,
    KIND_STRONG,
    METHOD_VC,
    SEARCHES,
    VERIFIERS,
    Ticker,
    solve_min_strong_vc,
)
from .witnesses import (
    FAMILY_CCC,
    FAMILY_LCG,
    REFUTED,
    REPORT_HEADER,
    audit_claim,
    doubly_small_cycle_data_point,
    family_graph,
    family_params,
    family_witness,
    reproduce,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=(FAMILY_CCC, FAMILY_LCG), help="generated family")
    parser.add_argument("--n", type=int, help="family size parameter n")
    parser.add_argument("--k", type=int, help="cycle-family layer count k")
    parser.add_argument("--graph", metavar="FILE", help="read the graph from a file instead")
    parser.add_argument(
        "--graph-format",
        choices=graphs.FORMATS,
        default=graphs.EDGE_LIST,
        help="format of --graph input",
    )


def _add_claim(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=(FAMILY_CCC, FAMILY_LCG), required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--k", type=int, default=None)
    parser.add_argument("--kind", choices=solvers.KINDS, required=True)


def _add_budget(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-subsets", type=int, default=Budget().max_subsets)
    parser.add_argument("--timeout-seconds", type=float, default=None)


def _budget(args: argparse.Namespace) -> Budget:
    return Budget(max_subsets=args.max_subsets, timeout_seconds=args.timeout_seconds)


def _params(args: argparse.Namespace) -> tuple[int, ...]:
    return family_params(args.family, args.n, args.k)


def _load_graph(args: argparse.Namespace) -> Graph:
    if getattr(args, "graph", None) is not None:
        if args.family is not None:
            raise ValueError("give either --graph or --family, not both")
        if args.n is not None or args.k is not None:
            raise ValueError("--n and --k do not apply to a --graph file")
        with open(args.graph, encoding="utf-8") as handle:
            g = read_graph(handle.read(), args.graph_format)
        labels_path = getattr(args, "labels", None)
        if labels_path:
            with open(labels_path, encoding="utf-8") as handle:
                g = generators.with_labels(g, generators.read_labels_tsv(handle.read()))
        return g
    if args.family is None:
        raise ValueError("a graph source is required: --family or --graph")
    return family_graph(args.family, _params(args))


def _parse_set(g: Graph, args: argparse.Namespace) -> tuple[int, ...]:
    """--set as comma-separated ids, structured labels
    layer:branch:unit:position, or @witness for the family's witness set."""
    if args.set == "@witness":
        if args.family is None:
            raise ValueError("@witness needs a generated --family graph")
        return family_witness(args.family, args.kind, _params(args), g)
    members = []
    for token in args.set.split(","):
        token = token.strip()
        if ":" in token:
            members.append(id_of(g, VertexLabel.parse(token)))
        else:
            try:
                members.append(int(token))
            except ValueError:
                raise ValueError(f"bad vertex token {token!r}") from None
    return tuple(members)


def _cmd_gen(args: argparse.Namespace) -> int:
    # cycle is a plain n-cycle, mostly for ad-hoc experiments
    if args.family == "cycle":
        if args.k is not None:
            raise ValueError("--k does not apply to the plain cycle")
        g = build_cycle(args.n)
    else:
        g = _load_graph(args)
    sys.stdout.write(write_graph(g, args.format))
    if args.labels_out:
        with open(args.labels_out, "w", encoding="utf-8") as handle:
            handle.write(generators.write_labels_tsv(g))
    return EXIT_OK


def _cmd_dist(args: argparse.Namespace) -> int:
    dist = apsp(_load_graph(args))
    names = list(map(str, range(dist.order)))  # every distance is below the order
    sys.stdout.writelines("\t".join(map(names.__getitem__, row)) + "\n" for row in dist.rows)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    dist = apsp(g)
    members = _parse_set(g, args)
    ok = VERIFIERS[args.kind](dist, members)
    print(f"{'true' if ok else 'false'} {len(members)}")
    return EXIT_OK if ok else EXIT_FALSE


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.method == METHOD_VC and args.kind != KIND_STRONG:
        raise ValueError("--method vc-reduction only solves the strong kind")
    if args.family_pruned and args.kind == KIND_STRONG:
        raise ValueError("--family-pruned applies only to the resolving and doubly kinds")
    g = _load_graph(args)
    if args.family_pruned and g.labels is None:
        raise ValueError("family pruning needs a labelled family graph")
    restriction = "family-pruned" if args.family_pruned else "none"
    budget = _budget(args)
    # each solver computes apsp after its clock starts, so the timeout bounds it
    if args.method == METHOD_VC:
        result = solve_min_strong_vc(g, budget=budget)
    else:
        result = SEARCHES[args.kind](g, args.method, budget=budget)
    # every solver has checked its witness before returning it
    witness = ",".join(str(v) for v in result.witness)
    print(
        f"kind={result.kind} optimum={result.optimum} witness={witness} "
        f"method={result.method} restriction={restriction}"
    )
    if args.stats:
        # the cover route counts vertex-cover search nodes, not subsets
        counted = "vc_nodes" if result.method == METHOD_VC else "subsets"
        print(
            f"stats: {counted}={result.stats.subsets_examined} "
            f"elapsed={result.stats.elapsed_seconds:.3f}s "
            f"restriction={restriction}",
            file=sys.stderr,
        )
    return EXIT_OK


def _cmd_witness(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    members = family_witness(args.family, args.kind, _params(args), g)
    if args.pretty:
        for v in members:
            print(f"{v}\t{g.labels[v]}")
    else:
        print(",".join(str(v) for v in members))
    return EXIT_OK


def _cmd_audit(args: argparse.Namespace) -> int:
    claim = audit_claim(args.family, args.kind, _params(args), _budget(args))
    print(REPORT_HEADER)
    print(claim.row())
    if claim.note:
        print(f"# {claim.note}")
    return EXIT_FALSE if claim.verified == REFUTED else EXIT_OK


def _cmd_reproduce(args: argparse.Namespace) -> int:
    # one clock bounds the whole verb: the table and the data point
    ticker = Ticker(_budget(args))
    claims = reproduce(ticker.left())
    print(REPORT_HEADER)
    for claim in claims:
        print(claim.row())
    data_point = doubly_small_cycle_data_point(budget=ticker.left())
    print(f"# data point, no closed-form claim: lcg doubly n=3,k=2 optimum={data_point.optimum}")
    return EXIT_FALSE if any(claim.verified == REFUTED for claim in claims) else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser tree, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="resolvekit",
        description=(
            "Generate layered cube/cycle family graphs, verify resolving / "
            "doubly resolving / strong resolving sets, run the exact solvers, "
            "and audit the closed-form claims."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    gen = sub.add_parser("gen", help="generate a family graph")
    gen.add_argument("family", choices=(FAMILY_CCC, FAMILY_LCG, "cycle"))
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--k", type=int, default=None)
    gen.add_argument("--format", choices=graphs.FORMATS, default=graphs.EDGE_LIST)
    gen.add_argument("--labels-out", metavar="FILE", default=None)
    gen.set_defaults(func=_cmd_gen)

    dist = sub.add_parser("dist", help="print the all-pairs distance matrix as TSV")
    _add_graph_source(dist)
    dist.set_defaults(func=_cmd_dist)

    verify = sub.add_parser("verify", help="check a vertex set against a verifier")
    _add_graph_source(verify)
    verify.add_argument("--labels", metavar="FILE", help="label sidecar for --graph input")
    verify.add_argument("--kind", choices=solvers.KINDS, required=True)
    verify.add_argument("--set", required=True, help="ids, labels, or @witness")
    verify.set_defaults(func=_cmd_verify)

    solve = sub.add_parser("solve", help="exact minimization")
    _add_graph_source(solve)
    solve.add_argument("--labels", metavar="FILE", help="label sidecar for --graph input")
    solve.add_argument("--kind", choices=solvers.KINDS, required=True)
    solve.add_argument(
        "--method",
        choices=(solvers.METHOD_PRUNED, METHOD_VC),
        default=solvers.METHOD_PRUNED,
    )
    solve.add_argument(
        "--family-pruned",
        action="store_true",
        help="check that the graph carries family labels and tag the result "
        "restriction=family-pruned; the search is the same either way, since its "
        "leaf-block counts already cover every last-layer unit",
    )
    solve.add_argument(
        "--stats",
        action="store_true",
        help="search statistics on stderr: subsets= counts search-tree nodes, "
        "interior nodes plus the leaves of every row tested, and vc_nodes= counts "
        "vertex-cover branch-and-bound nodes",
    )
    _add_budget(solve)
    solve.set_defaults(func=_cmd_solve)

    witness = sub.add_parser("witness", help="print a built-in closed-form witness set")
    _add_claim(witness)
    witness.add_argument("--pretty", action="store_true")
    witness.set_defaults(func=_cmd_witness)

    audit = sub.add_parser("audit", help="audit one closed-form claim")
    _add_claim(audit)
    _add_budget(audit)
    audit.set_defaults(func=_cmd_audit)

    repro = sub.add_parser("reproduce", help="audit the full claim table")
    _add_budget(repro)
    repro.set_defaults(func=_cmd_reproduce)

    return parser


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"resolvekit: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"resolvekit: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
