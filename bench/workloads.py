"""The benchmark's workloads: their inputs, their tasks and the stored answers.

A task is one call into resolvekit's public API (timed) plus a function that
turns its result into the string compared with the stored answer (untimed).
Every task does a fixed amount of work for its input, so that a program
change that makes a task feasible or infeasible cannot pass for a speed
change. See NOTES.md for why each workload exists and what it should show.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Any, Callable

import oracle

WORKLOADS = ("subset-search", "strong-cover", "large-verify")


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable[[dict], Any]  # timed; may read and write the pass state
    answer: Callable[[Any], str]  # untimed
    expected: str
    release: tuple[str, ...] = ()  # pass-state keys dropped after the task, untimed


# Counts measured at the seed commit; the traced run reports whether they
# repeat. They are measurements, not answers: a search that examines fewer
# candidates is still correct.
BASELINE_COUNTS = {
    "solve-lcg52-resolving": {"candidates": 137410},
    "solve-lcg52-resolving-family": {"candidates": 105480},
    "solve-lcg52-doubly-family": {"candidates": 113549},
    "solve-lcg42-doubly-family": {"candidates": 2265},
    "solve-lcg42-strong": {"candidates": 132421},
    "audit-ccc3-strong": {"mmd_edges": 1708, "vc_nodes": 6920},
    "audit-lcg53-strong": {"mmd_edges": 820, "vc_nodes": 2109},
    "audit-lcg63-strong": {"mmd_edges": 495, "vc_nodes": 1518},
}

# ---------------------------------------------------------------- helpers


def _cli(rk, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = rk.cli.run(argv)
    return code, out.getvalue()


def _cli_answer(result: tuple[int, str]) -> str:
    code, out = result
    return f"exit={code}\n{out}"


def _cli_task(rk, name: str, argv: list[str], stdout: str) -> Task:
    return Task(name, lambda state: _cli(rk, argv), _cli_answer, f"exit=0\n{stdout}")


def _ids(members) -> str:
    return ",".join(str(v) for v in members)


def _rows_digest(dist) -> str:
    digest = hashlib.sha256()
    for row in dist.rows:
        digest.update(bytes(row))
    return digest.hexdigest()


def _size_argv(n: int, k: int | None) -> list[str]:
    return ["--n", str(n)] + ([] if k is None else ["--k", str(k)])


def _family_adjacency(rk, family: str, n: int, k: int | None = None) -> list[list[int]]:
    """The generated graph as a user sees it: resolvekit's own edge-list text,
    parsed by the benchmark."""
    argv = ["gen", family] + _size_argv(n, k)
    code, text = _cli(rk, argv)
    if code != 0:
        raise RuntimeError(f"resolvekit {' '.join(argv)} exited {code}")
    return oracle.parse_edge_list(text)


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise AssertionError(f"stored answer failed its independent check: {what}")


# ---------------------------------------------------------- subset-search

# Random graphs are added until the unpruned ascending search would examine
# this many (candidate set x vertex) units across them, so every seed asks for
# the same search work. They are twin-free, so twin forcing cuts nothing and
# the pruned search examines exactly those candidates.
RANDOM_WORK_UNITS = 2_000_000
RANDOM_ORDERS = (14, 18)
_MAX_DRAWS = 2_000

SUBSET_FAMILY_TASKS = (
    (
        "solve-lcg52-resolving",
        ["--n", "5", "--k", "2", "--kind", "resolving"],
        "kind=resolving optimum=5 witness=6,11,16,21,26 method=pruned restriction=none\n",
    ),
    (
        "solve-lcg52-resolving-family",
        ["--n", "5", "--k", "2", "--kind", "resolving", "--family-pruned"],
        "kind=resolving optimum=5 witness=6,11,16,21,26 method=pruned restriction=family-pruned\n",
    ),
    (
        "solve-lcg52-doubly-family",
        ["--n", "5", "--k", "2", "--kind", "doubly", "--family-pruned"],
        "kind=doubly optimum=5 witness=7,12,17,22,27 method=pruned restriction=family-pruned\n",
    ),
    (
        "solve-lcg42-doubly-family",
        ["--n", "4", "--k", "2", "--kind", "doubly", "--family-pruned"],
        "kind=doubly optimum=8 witness=5,6,9,10,13,14,17,18 method=pruned restriction=family-pruned\n",
    ),
    (
        "solve-lcg42-strong",
        ["--n", "4", "--k", "2", "--kind", "strong"],
        "kind=strong optimum=7 witness=5,6,9,10,13,14,17 method=pruned restriction=none\n",
    ),
)


def random_graph_inputs(seed: int) -> list[dict]:
    """Seeded twin-free random graphs with their lex-least minimum resolving
    and doubly resolving sets, derived and checked by the benchmark alone."""
    rng = random.Random(seed)
    graphs: list[dict] = []
    work = 0
    for _ in range(_MAX_DRAWS):
        if work >= 0.99 * RANDOM_WORK_UNITS:
            break
        drawn = oracle.random_twin_free_graph(rng, *RANDOM_ORDERS)
        if drawn is None:
            continue
        order, edges = drawn
        adj: list[list[int]] = [[] for _ in range(order)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        d = oracle.all_distances(adj)
        resolving, r_rank = oracle.lex_least_minimum(
            order, lambda s: oracle.resolving_by_columns([d[z] for z in s], order), 1
        )
        doubly, d_rank = oracle.lex_least_minimum(
            order, lambda s: oracle.doubly_by_columns([d[z] for z in s], order), 2
        )
        cost = (r_rank + d_rank) * order
        if work + cost > RANDOM_WORK_UNITS:
            continue
        _require(oracle.resolving_by_definition(d, resolving), f"random resolving {resolving}")
        _require(oracle.doubly_by_definition(d, doubly), f"random doubly {doubly}")
        work += cost
        graphs.append(
            {"order": order, "edges": edges, "resolving": list(resolving), "doubly": list(doubly)}
        )
    else:
        raise RuntimeError("random graph draws did not reach the work target")
    return graphs


def _solve_answer(result) -> str:
    return f"{result.kind} {result.optimum} {_ids(result.witness)}"


def subset_search_tasks(rk, inputs: list[dict], graphs: list) -> list[Task]:
    tasks = [
        _cli_task(rk, name, ["solve", "--family", "lcg"] + argv, stdout)
        for name, argv, stdout in SUBSET_FAMILY_TASKS
    ]
    for i, (spec, g) in enumerate(zip(inputs, graphs)):
        tasks.append(
            Task(
                f"random{i}-resolving",
                lambda state, g=g: rk.solve_min_resolving(g, "pruned"),
                _solve_answer,
                f"resolving {len(spec['resolving'])} {_ids(spec['resolving'])}",
            )
        )
        tasks.append(
            Task(
                f"random{i}-doubly",
                lambda state, g=g: rk.solve_min_doubly(g, "pruned"),
                _solve_answer,
                f"doubly {len(spec['doubly'])} {_ids(spec['doubly'])}",
            )
        )
    return tasks


def check_subset_search(rk) -> None:
    """Witnesses of the stored solve lines, by definition; and the lcg 5,2
    lower bound (no 4 vertices resolve), which makes 5 the exact resolving
    and doubly optimum there."""
    d52 = oracle.all_distances(_family_adjacency(rk, "lcg", 5, 2))
    d42 = oracle.all_distances(_family_adjacency(rk, "lcg", 4, 2))
    _require(oracle.resolving_by_definition(d52, (6, 11, 16, 21, 26)), "lcg 5,2 resolving witness")
    _require(oracle.doubly_by_definition(d52, (7, 12, 17, 22, 27)), "lcg 5,2 doubly witness")
    _require(oracle.doubly_by_definition(d42, (5, 6, 9, 10, 13, 14, 17, 18)), "lcg 4,2 doubly witness")
    _require(oracle.strong_by_definition(d42, (5, 6, 9, 10, 13, 14, 17)), "lcg 4,2 strong witness")
    # a superset of a resolving set resolves, so checking size 4 covers 1..4
    _require(
        not any(
            oracle.resolving_by_columns([d52[z] for z in s], 30) for s in combinations(range(30), 4)
        ),
        "lcg 5,2 has no resolving set of 4 vertices",
    )


# ----------------------------------------------------------- strong-cover

_AUDIT_HEADER = "family\tkind\tparams\tclaimed\twitness_size\twitness_ok\toptimum\tmethod\tverdict\n"

# (task, family, n, k, optimum, mmd edges, independent cover lower bound)
STRONG_AUDITS = (
    ("audit-ccc3-strong", "ccc", 3, None, 223, 1708, 223),
    ("audit-lcg53-strong", "lcg", 5, 3, 59, 820, 58),
    ("audit-lcg63-strong", "lcg", 6, 3, 89, 495, 89),
)


def _claim_argv(family: str, n: int, k: int | None, kind: str) -> list[str]:
    return ["--family", family] + _size_argv(n, k) + ["--kind", kind]


def strong_cover_tasks(rk) -> list[Task]:
    tasks = []
    for name, family, n, k, optimum, _, _ in STRONG_AUDITS:
        params = f"n={n}" if k is None else f"n={n},k={k}"
        row = f"{family}\tstrong\t{params}\t{optimum}\t{optimum}\tyes\t{optimum}\tvc-reduction\tconfirmed\n"
        argv = ["audit"] + _claim_argv(family, n, k, "strong")
        tasks.append(_cli_task(rk, name, argv, _AUDIT_HEADER + row))
    return tasks


def check_strong_cover(rk) -> None:
    """For each stored row: the MMD edge count; a cover lower bound from
    vertex-disjoint cliques of the MMD graph; and the claimed witness,
    strongly resolving by definition, as the matching upper bound."""
    for name, family, n, k, optimum, edge_count, lower in STRONG_AUDITS:
        adj = _family_adjacency(rk, family, n, k)
        d = oracle.all_distances(adj)
        edges = oracle.mmd_edges(adj, d)
        _require(len(edges) == edge_count, f"{name} MMD edge count")
        _require(oracle.clique_cover_lower_bound(len(adj), edges) == lower, f"{name} lower bound")
        code, text = _cli(rk, ["witness"] + _claim_argv(family, n, k, "strong"))
        witness = tuple(int(v) for v in text.split(","))
        _require(code == 0 and len(witness) == optimum, f"{name} witness size")
        _require(oracle.strong_by_definition(d, witness), f"{name} witness is strong resolving")


# ------------------------------------------------------------ large-verify

LARGE_EXPECTED = {
    "ccc4-build": "order=3656 edges=5940",
    "ccc4-io": "dimacs=ab7594f92727dd3702706a5cbd9dbfc79159f11db8da70177706406832ebcfb2 same=True",
    "ccc4-apsp": "rows=31e0146dd4b848ef3f63fcb2758ce3261e2fddee4eea786160f558444505adbf",
    "ccc4-twins": "classes=3656 largest=1",
    "ccc4-resolving": "size=784 ok=True",
    "ccc4-doubly": "size=1176 ok=True",
    "lcg64-build": "order=1122 edges=1308",
    "lcg64-apsp": "rows=3435d57d4db88197b64e8fe28e7629da12fcd4b3ec680f9c2d433626b2206c85",
    "lcg64-resolving": "size=150 ok=True",
    "lcg64-doubly": "size=300 ok=True",
}


def _build_answer(g) -> str:
    return f"order={g.order} edges={g.edge_count}"


def _apsp_answer(dist) -> str:
    return f"rows={_rows_digest(dist)}"


def _io_answer(result) -> str:
    text, same = result
    return f"dimacs={hashlib.sha256(text.encode()).hexdigest()} same={same}"


def _twins_answer(classes) -> str:
    return f"classes={len(classes)} largest={max(len(c) for c in classes)}"


def _verify_answer(result) -> str:
    members, ok = result
    return f"size={len(members)} ok={ok}"


def large_verify_tasks(rk) -> list[Task]:
    def build(key, make):
        def run(state):
            state[key] = make()
            return state[key]

        return run

    def round_trip(state):
        text = rk.write_graph(state["ccc4"], rk.DIMACS)
        state["ccc4-read"] = rk.read_graph(text, rk.DIMACS)
        return text, state["ccc4-read"].adjacency == state["ccc4"].adjacency

    def distances(graph_key, prefix):
        def run(state):
            state[f"{prefix}-dist"] = rk.apsp(state[graph_key])
            return state[f"{prefix}-dist"]

        return run

    def verify(kind, verifier, graph_key):
        def run(state):
            g = state[graph_key]
            if graph_key == "ccc4":
                members = rk.ccc_witness(kind, 4, g=g)
            else:
                members = rk.lcg_witness(kind, 6, 4, g=g)
            return members, getattr(rk, verifier)(state[f"{graph_key}-dist"], members)

        return run

    def twins(state):
        return rk.twin_classes(state["ccc4-read"])

    steps = [
        ("ccc4-build", build("ccc4", lambda: rk.build_ccc(4)), _build_answer, ()),
        ("ccc4-io", round_trip, _io_answer, ()),
        ("ccc4-apsp", distances("ccc4-read", "ccc4"), _apsp_answer, ()),
        ("ccc4-twins", twins, _twins_answer, ()),
        ("ccc4-resolving", verify("resolving", "is_resolving", "ccc4"), _verify_answer, ()),
        # the lcg 6,4 tasks must not run while the 3656-vertex matrix is held
        (
            "ccc4-doubly",
            verify("doubly", "is_doubly_resolving", "ccc4"),
            _verify_answer,
            ("ccc4", "ccc4-read", "ccc4-dist"),
        ),
        ("lcg64-build", build("lcg64", lambda: rk.build_lcg(6, 4)), _build_answer, ()),
        ("lcg64-apsp", distances("lcg64", "lcg64"), _apsp_answer, ()),
        ("lcg64-resolving", verify("resolving", "is_resolving", "lcg64"), _verify_answer, ()),
        ("lcg64-doubly", verify("doubly", "is_doubly_resolving", "lcg64"), _verify_answer, ()),
    ]
    return [
        Task(name, run, answer, LARGE_EXPECTED[name], release)
        for name, run, answer, release in steps
    ]


def check_large_verify(rk) -> None:
    """The stored DIMACS digest from the benchmark's own writer, the distance
    digests from its own BFS over every source, the twin partition from its
    own neighbourhood comparison, and the witnesses from distance columns of
    its own BFS from each member."""
    for prefix, family, n, k in (("ccc4", "ccc", 4, None), ("lcg64", "lcg", 6, 4)):
        adj = _family_adjacency(rk, family, n, k)
        edges = sum(len(nbrs) for nbrs in adj) // 2
        _require(LARGE_EXPECTED[f"{prefix}-build"] == f"order={len(adj)} edges={edges}", f"{prefix} size")
        if prefix == "ccc4":
            dimacs = hashlib.sha256(oracle.dimacs_text(adj).encode()).hexdigest()
            _require(LARGE_EXPECTED["ccc4-io"] == f"dimacs={dimacs} same=True", "ccc4 DIMACS text")
        digest = hashlib.sha256()
        for src in range(len(adj)):
            digest.update(bytes(oracle.bfs(adj, src)))
        _require(LARGE_EXPECTED[f"{prefix}-apsp"] == f"rows={digest.hexdigest()}", f"{prefix} distances")
        for kind, predicate in (
            ("resolving", oracle.resolving_by_columns),
            ("doubly", oracle.doubly_by_columns),
        ):
            code, text = _cli(rk, ["witness"] + _claim_argv(family, n, k, kind))
            members = [int(v) for v in text.split(",")]
            ok = code == 0 and predicate([oracle.bfs(adj, z) for z in members], len(adj))
            _require(LARGE_EXPECTED[f"{prefix}-{kind}"] == f"size={len(members)} ok={ok}", f"{prefix} {kind}")
        if prefix == "ccc4":
            classes = oracle.twin_partition(adj)
            _require(
                LARGE_EXPECTED["ccc4-twins"] == f"classes={len(classes)} largest={max(map(len, classes))}",
                "ccc4 twin classes",
            )
