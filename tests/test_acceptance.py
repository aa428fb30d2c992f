"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""
import random
import time
from contextlib import contextmanager

from resolvekit import (
    BudgetExceededError,
    apsp,
    build_ccc,
    build_lcg,
    ccc_formula,
    ccc_witness,
    is_doubly_resolving,
    is_resolving,
    is_strong_resolving,
    last_layer_units,
    lcg_formula,
    lcg_witness,
    make_graph,
    mmd_pairs,
    solve_min_doubly,
    solve_min_resolving,
    solve_min_strong_direct,
    solve_min_strong_vc,
    twin_classes,
)

from naive import naive_search
from oracles import (
    brute_minimum,
    doubly_ok,
    floyd_warshall,
    random_connected_graph,
    resolving_ok,
    strong_ok,
)


@contextmanager
def criterion(number, description, limit_seconds=None):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL  {description}")
        raise
    elapsed = time.perf_counter() - started
    if limit_seconds is not None and elapsed >= limit_seconds:
        print(f"criterion {number}: FAIL  {description}  [{elapsed:.2f}s over {limit_seconds:.0f}s budget]")
        raise AssertionError(f"criterion {number} took {elapsed:.2f}s")
    print(f"criterion {number}: PASS  {description}  [{elapsed:.2f}s]")


def test_criterion_1_construction_fidelity():
    with criterion(1, "construction fidelity", limit_seconds=1.0):
        ccc2 = build_ccc(2)
        assert ccc2.order == 72
        assert ccc2.edge_count == 116
        assert len(last_layer_units(ccc2)) == 8
        assert build_lcg(5, 3).order == 130


def test_criterion_2_lcg_resolving_minima():
    for n, k, expected in ((3, 2, 3), (4, 2, 4), (3, 3, 6)):
        with criterion(2, f"resolving minimum for lcg({n},{k})", limit_seconds=120.0):
            g = build_lcg(n, k)
            dist = apsp(g)
            result = solve_min_resolving(g, "pruned", dist=dist)
            assert result.optimum == expected == lcg_formula("resolving", n, k)
            assert is_resolving(dist, result.witness)  # unrestricted re-check


def test_criterion_3_lcg_doubly_minimum():
    with criterion(3, "doubly resolving minimum for lcg(4,2)", limit_seconds=600.0):
        g = build_lcg(4, 2)
        dist = apsp(g)
        claimed = lcg_formula("doubly", 4, 2)
        result = solve_min_doubly(g, "pruned", dist=dist)
        assert is_doubly_resolving(dist, result.witness)
        if result.optimum != claimed:
            # refutation path: the independent oracles must agree on the value
            print(
                f"refutation: exact optimum {result.optimum} != claimed {claimed}; "
                f"counterexample {result.witness}"
            )
            naive, _ = naive_search(g, "doubly", dist=dist)
            assert len(naive) == result.optimum
        else:
            assert result.optimum == 8


def test_criterion_4_lcg_strong_minima():
    for n, k, expected in ((3, 2, 5), (4, 2, 7)):
        with criterion(4, f"strong minimum for lcg({n},{k}), both solvers", limit_seconds=60.0):
            g = build_lcg(n, k)
            dist = apsp(g)
            direct = solve_min_strong_direct(g, dist=dist)
            vc = solve_min_strong_vc(g, dist=dist)
            assert direct.optimum == vc.optimum == expected == lcg_formula("strong", n, k)


def test_criterion_5_ccc2_witness_validity():
    with criterion(5, "witness validity on the 72-vertex cube family", limit_seconds=10.0):
        g = build_ccc(2)
        dist = apsp(g)
        checks = (
            ("resolving", is_resolving, 16),
            ("doubly", is_doubly_resolving, 24),
            ("strong", is_strong_resolving, 31),
        )
        for kind, verifier, size in checks:
            witness = ccc_witness(kind, 2, g=g)
            assert len(witness) == size == ccc_formula(kind, 2)
            assert verifier(dist, witness)
        # minimality is not claimed reproducible here; the cover route's
        # value is recorded when its budget permits
        try:
            vc = solve_min_strong_vc(g, dist=dist)
            print(f"criterion 5 note: cover-route strong optimum {vc.optimum} (agreement with 31)")
            assert vc.optimum == 31
        except BudgetExceededError as exc:
            print(f"criterion 5 note: cover route out of budget ({exc})")


def test_criterion_6_proof_table_fixtures():
    with criterion(6, "proof-table representation fixtures at n=2", limit_seconds=1.0):
        g = build_ccc(2)
        dist = apsp(g)
        labels = {
            (lab.branch, lab.position): v
            for v, lab in enumerate(g.labels)
            if lab.layer == 2
        }
        z = (labels[(1, 2)], labels[(1, 4)], labels[(2, 2)])
        c = dist[labels[(1, 1)]][z[2]]
        rows = {
            1: (1, 1, c),
            2: (0, 2, c + 1),
            3: (1, 1, c + 2),
            4: (2, 0, c + 1),
            5: (2, 2, c + 1),
            6: (1, 3, c + 2),
            7: (2, 2, c + 3),
            8: (3, 1, c + 2),
        }
        for position, expected in rows.items():
            u = labels[(1, position)]
            assert tuple(dist[u][w] for w in z) == expected
        z3 = tuple(labels[(r, p)] for p in (2, 4) for r in range(1, 9))
        u, v = labels[(1, 1)], labels[(1, 5)]
        assert not _pair_doubly_resolved(dist, z3, u, v)
        assert _pair_doubly_resolved(dist, z3 + (labels[(1, 5)],), u, v)


def _pair_doubly_resolved(dist, members, u, v):
    diffs = {dist[u][z] - dist[v][z] for z in members}
    return len(diffs) > 1


def _check_against_brute(order, edges):
    """Each kind's pruned solve, and the cover route for strong, finds the
    brute-force optimum and its lexicographically least witness."""
    g = make_graph(order, edges)
    d = floyd_warshall(order, edges)
    for kind, solve, accept, lo in (
        ("resolving", solve_min_resolving, resolving_ok, 1),
        ("doubly", solve_min_doubly, doubly_ok, 2),
        ("strong", solve_min_strong_direct, strong_ok, 1),
        ("strong", solve_min_strong_vc, strong_ok, 1),
    ):
        want = brute_minimum(order, lambda s: accept(d, s), lo=lo)
        result = solve(g)
        message = f"{kind} {result.method} disagrees on {order}-vertex graph"
        assert (result.optimum, result.witness) == want, message


def test_criterion_7_oracle_equivalence():
    with criterion(7, "oracle equivalence on 25 seeded random graphs", limit_seconds=300.0):
        for seed in range(25):
            _check_against_brute(*random_connected_graph(random.Random(seed), lo=4, hi=10))


def _witness_sets_for(g):
    """Built-in witnesses for a family instance, where the parameters are in
    range for each kind."""
    if g.family == "ccc:n=2":
        return {kind: ccc_witness(kind, 2, g=g) for kind in ("resolving", "doubly", "strong")}
    if g.family and g.family.startswith("lcg:"):
        params = dict(part.split("=") for part in g.family[4:].split(","))
        n, k = int(params["n"]), int(params["k"])
        kinds = ["resolving", "strong"] + (["doubly"] if n >= 4 else [])
        return {kind: lcg_witness(kind, n, k, g=g) for kind in kinds}
    return {}


def test_criterion_8_property_suite():
    with criterion(8, "property suite over the instances above"):
        instances = [
            build_ccc(1),
            build_ccc(2),
            build_lcg(3, 2),
            build_lcg(4, 2),
            build_lcg(3, 3),
            build_lcg(5, 3),
        ]
        for seed in range(25):
            order, edges = random_connected_graph(random.Random(seed), lo=4, hi=10)
            instances.append(make_graph(order, edges))
        verifiers = {
            "resolving": is_resolving,
            "doubly": is_doubly_resolving,
            "strong": is_strong_resolving,
        }
        for g in instances:
            dist = apsp(g)
            for u in range(g.order):
                assert dist[u][u] == 0
                for v in range(u + 1, g.order):
                    assert dist[u][v] == dist[v][u] > 0
                    assert (dist[u][v] == 1) == (v in g.neighbors(u))
            if g.order <= 100:
                rows = dist.rows
                for u in range(g.order):
                    ru = rows[u]
                    for v in range(g.order):
                        rv = rows[v]
                        duv = ru[v]
                        for w in range(g.order):
                            assert ru[w] <= duv + rv[w]
            h = mmd_pairs(g, dist)
            assert all(u < v for u, v in h.edges)
            classes = twin_classes(g)
            forced = sum(len(c) - 1 for c in classes)
            for kind, witness in _witness_sets_for(g).items():
                assert verifiers[kind](dist, witness)
                if kind != "strong":  # resolving-type sets must hit twin classes
                    for cls in classes:
                        assert len(set(witness) & set(cls)) >= len(cls) - 1
            if g.order <= 20:
                result = solve_min_resolving(g, "pruned")
                assert result.optimum >= forced
                assert is_resolving(dist, result.witness)
                for cls in classes:
                    assert len(set(result.witness) & set(cls)) >= len(cls) - 1
                doubly = solve_min_doubly(g, "pruned")
                assert is_doubly_resolving(dist, doubly.witness)
                assert is_resolving(dist, doubly.witness)
                strong = solve_min_strong_vc(g, dist=dist)
                assert is_strong_resolving(dist, strong.witness)
