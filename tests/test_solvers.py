import random
import re
import sys

import pytest

from resolvekit import (
    DIMACS,
    Budget,
    BudgetExceededError,
    DisconnectedGraphError,
    DistanceMatrix,
    StrongReductionError,
    apsp,
    audit_claim,
    build_ccc,
    build_cycle,
    build_lcg,
    is_doubly_resolving,
    is_resolving,
    is_strong_resolving,
    last_layer_units,
    make_graph,
    min_vertex_cover,
    mmd_graph,
    mmd_pairs,
    read_graph,
    solve_min_doubly,
    solve_min_resolving,
    solve_min_strong_direct,
    solve_min_strong_vc,
    twin_classes,
    write_graph,
)
from resolvekit import graphs, solvers
from resolvekit.solvers import _clique_packing_bound, _min_cover

from naive import naive_search
from oracles import (
    brute_minimum,
    doubly_ok,
    floyd_warshall,
    lollipop_edges,
    packed,
    pendant_block_graph,
    random_connected_graph,
    resolving_ok,
    strong_ok,
    vertex_cover_brute,
)

PATH5 = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
PATH4 = make_graph(4, [(0, 1), (1, 2), (2, 3)])


# -------------------------------------------------------------- resolving


def test_path5_metric_dimension():
    result = solve_min_resolving(PATH5)
    assert result.optimum == 1
    assert result.witness == (0,)


def test_lcg32_metric_dimension(lcg32):
    result = solve_min_resolving(lcg32, "pruned")
    assert result.optimum == 3
    assert result.witness == (4, 7, 10)
    assert is_resolving(apsp(lcg32), result.witness)


def test_lcg33_metric_dimension():
    g = build_lcg(3, 3)
    result = solve_min_resolving(g, "pruned")
    assert result.optimum == 6
    assert is_resolving(apsp(g), result.witness)


def test_naive_pruned_agree_on_lcg32(lcg32):
    naive, _ = naive_search(lcg32, "resolving")
    pruned = solve_min_resolving(lcg32, "pruned")
    assert pruned.optimum == 3
    assert naive == pruned.witness


# ----------------------------------------------------------------- doubly


def test_c5_doubly():
    result = solve_min_doubly(build_cycle(5))
    assert result.optimum == 2
    assert result.witness == (0, 2)


def test_c6_doubly():
    assert solve_min_doubly(build_cycle(6)).optimum == 3


def test_lcg42_doubly(lcg42):
    result = solve_min_doubly(lcg42, "pruned")
    assert result.optimum == 8
    assert result.witness == (5, 6, 9, 10, 13, 14, 17, 18)
    assert is_doubly_resolving(apsp(lcg42), result.witness)


def test_doubly_search_starts_at_two():
    # a path's doubly optimum is 2 even though its metric dimension is 1
    assert solve_min_doubly(PATH5).optimum == 2


# ----------------------------------------------------------------- strong


def test_c4_strong_direct():
    result = solve_min_strong_direct(build_cycle(4))
    assert result.optimum == 2
    assert result.witness == (0, 1)


def test_cube_strong_direct(cube):
    assert solve_min_strong_direct(cube).optimum == 4


def test_path4_strong_direct():
    assert solve_min_strong_direct(PATH4).optimum == 1


def test_c4_cross_oracle_agreement():
    g = build_cycle(4)
    assert solve_min_strong_vc(g).optimum == solve_min_strong_direct(g).optimum == 2


def test_strong_methods_agree(lcg32):
    naive, _ = naive_search(lcg32, "strong")
    pruned = solve_min_strong_direct(lcg32, "pruned")
    vc = solve_min_strong_vc(lcg32)
    assert pruned.optimum == vc.optimum == 5
    assert naive == pruned.witness == vc.witness == (4, 5, 7, 8, 10)


def test_lcg42_strong_both_routes(lcg42):
    direct = solve_min_strong_direct(lcg42)
    vc = solve_min_strong_vc(lcg42)
    assert direct.optimum == vc.optimum == 7
    assert direct.witness == vc.witness == (5, 6, 9, 10, 13, 14, 17)


def test_ccc2_strong_vc(ccc2):
    result = solve_min_strong_vc(ccc2)
    assert result.optimum == 31
    assert is_strong_resolving(apsp(ccc2), result.witness)
    assert result.method == "vc-reduction"


# ----------------------------------------------------------- vertex cover


def test_vc_two_disjoint_edges():
    assert min_vertex_cover(mmd_graph(4, [(0, 1), (2, 3)])) == (0, 2)


def test_vc_star_center():
    assert min_vertex_cover(mmd_graph(6, [(0, i) for i in range(1, 6)])) == (0,)


def test_vc_c5():
    pentagon = mmd_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert min_vertex_cover(pentagon) == (0, 1, 3)


def test_vc_empty():
    assert min_vertex_cover(mmd_graph(4, [])) == ()


def test_vc_matches_brute_on_random_graphs():
    rng = random.Random(99)
    for _ in range(20):
        order, edges = random_connected_graph(rng, lo=3, hi=9)
        h = mmd_graph(order, edges)
        size, witness = vertex_cover_brute(order, edges)
        got = min_vertex_cover(h)
        assert len(got) == size
        assert got == witness


def test_vc_budget_exceeded():
    pentagon = mmd_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    with pytest.raises(BudgetExceededError):
        min_vertex_cover(pentagon, budget=Budget(max_subsets=1))


def _disjoint_union(parts):
    """Relabel (order, edges) parts onto consecutive id ranges."""
    offset = 0
    edges = []
    for order, part in parts:
        edges += [(u + offset, v + offset) for u, v in part]
        offset += order
    return offset, edges


def _clique(m):
    return m, [(u, v) for u in range(m) for v in range(u + 1, m)]


def test_vc_matches_brute_on_unions_of_components():
    rng = random.Random(7)
    for _ in range(25):
        parts = []
        while sum(order for order, _ in parts) < 8:
            shape = rng.randrange(4)
            if shape == 0:
                parts.append(random_connected_graph(rng, lo=3, hi=6))
            elif shape == 1:
                parts.append(_clique(rng.randint(2, 5)))
            elif shape == 2:
                parts.append((2, [(0, 1)]))
            else:
                parts.append((1, []))
        order, edges = _disjoint_union(parts)
        assert min_vertex_cover(mmd_graph(order, edges)) == vertex_cover_brute(order, edges)[1]
    assert min_vertex_cover(mmd_graph(0, [])) == ()


def cover_and_nodes(h):
    """The lex-least minimum cover of h and its branch-and-bound node count."""
    ticker = solvers.Ticker(Budget(), cover=True)
    return _min_cover(h, ticker), ticker.examined


def test_vc_clique_takes_smallest_ids_without_search():
    order, edges = _disjoint_union([(1, []), _clique(5), (2, [(0, 1)])])
    cover, nodes = cover_and_nodes(mmd_graph(order, edges))
    assert cover == (1, 2, 3, 4, 6)
    assert nodes == 0


def test_vc_budget_spans_all_components():
    # one ticker bounds the whole call; one built per component would let
    # each pentagon spend the budget afresh
    pentagon = (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    _, one_pentagon = cover_and_nodes(mmd_graph(*pentagon))
    two = mmd_graph(*_disjoint_union([pentagon, pentagon]))
    _, both = cover_and_nodes(two)
    assert one_pentagon + 1 < both
    assert min_vertex_cover(mmd_graph(*pentagon), budget=Budget(max_subsets=one_pentagon))
    for max_subsets in (one_pentagon, one_pentagon + 1):
        with pytest.raises(BudgetExceededError) as info:
            min_vertex_cover(two, budget=Budget(max_subsets=max_subsets))
        want = f"vertex-cover budget exhausted (after {max_subsets + 1} vertex-cover nodes)"
        assert want in str(info.value)
    with pytest.raises(BudgetExceededError) as info:
        min_vertex_cover(two, budget=Budget(timeout_seconds=0.0))
    assert "time budget exhausted (after 0 vertex-cover nodes)" in str(info.value)


def test_clique_packing_bound_on_small_graphs():
    def bitsets(order, edges):
        nbrs = [0] * order
        for u, v in edges:
            nbrs[u] |= 1 << v
            nbrs[v] |= 1 << u
        return nbrs

    assert _clique_packing_bound(bitsets(*_clique(5))) == 4
    # two triangles joined by an edge: a matching bounds 3, the triangles 4
    order, edges = _disjoint_union([_clique(3), _clique(3)])
    assert _clique_packing_bound(bitsets(order, edges + [(2, 3)])) == 4
    assert _clique_packing_bound(bitsets(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])) == 2


def test_cover_search_starts_at_the_packing_bound():
    # lcg 5,3's one searched component has optimum 59; the clique packing
    # starts it at 58 where the greedy matching started it at 40. Settling
    # the size takes 114 nodes and the witness-reusing rebuild 2 more.
    g = build_lcg(5, 3)
    cover, nodes = cover_and_nodes(mmd_pairs(g))
    assert len(cover) == 59
    assert nodes == 116


def test_cover_route_node_count_on_lcg54(monkeypatch):
    # the whole-graph cover, with the leaf-block shortcut made to decline:
    # searching every id in the rebuild took 19,357 nodes. The shortcut
    # searches lcg 5,4's one leaf shape in 3
    g = build_lcg(5, 4)
    assert solve_min_strong_vc(g).stats.subsets_examined == 3
    monkeypatch.setattr(solvers, "leaf_block_mmd", lambda g, check: None)
    result = solve_min_strong_vc(g)
    assert result.optimum == 239
    assert result.stats.subsets_examined == 476


@pytest.mark.parametrize("n, k, size, nodes", [(7, 2, 27, 39), (7, 3, 167, 249)])
def test_cover_node_counts_on_lcg_n7(n, k, size, nodes):
    cover, examined = cover_and_nodes(mmd_pairs(build_lcg(n, k)))
    assert (len(cover), examined) == (size, nodes)


@pytest.mark.parametrize("route", ["vc", "pruned"])
def test_clock_running_out_in_mmd_pairs_stops_before_the_search(monkeypatch, route, lcg53_joined):
    # each reading of the clock is one second later than the last; the
    # ticker starts at 0, the prologue reads 1 and mmd_pairs reads 2, 3, ...
    # once per vertex, so a 10 s budget runs out at its ninth vertex. The
    # cover route's leaf-block shortcut declines this graph before it reads
    # the clock
    g = lcg53_joined
    d = apsp(g)
    readings = iter(range(10**6))
    monkeypatch.setattr(solvers.time, "perf_counter", lambda: next(readings))
    budget = Budget(timeout_seconds=10)
    with pytest.raises(BudgetExceededError) as info:
        if route == "vc":
            solve_min_strong_vc(g, budget=budget, dist=d)
        else:
            solve_min_strong_direct(g, "pruned", budget=budget, dist=d)
    unit = "vertex-cover nodes" if route == "vc" else "search nodes"
    assert f"time budget exhausted (after 0 {unit})" in str(info.value)
    assert info.traceback[-2].name == "mmd_pairs"


def test_clock_running_out_in_the_leaf_block_route(monkeypatch):
    # as above on ccc 3, which the shortcut takes: it reads the clock once
    # per leaf block and as the apsp of its one cube shape runs, so a 10 s
    # budget runs out at a leaf block's reading, before any cover search
    g = build_ccc(3)
    readings = iter(range(10**6))
    monkeypatch.setattr(solvers.time, "perf_counter", lambda: next(readings))
    with pytest.raises(BudgetExceededError) as info:
        solve_min_strong_vc(g, budget=Budget(timeout_seconds=10))
    assert "time budget exhausted (after 0 vertex-cover nodes)" in str(info.value)
    assert info.traceback[-2].name == "leaf_block_mmd"


def _multi_component_mmd_graphs():
    rng = random.Random(2024)
    for _ in range(6):
        parts = [random_connected_graph(rng, lo=7, hi=12) for _ in range(rng.randint(2, 3))]
        yield mmd_graph(*_disjoint_union(parts))


def test_cover_witness_reuse_only_skips_searches(monkeypatch):
    cases = [mmd_pairs(build_lcg(5, 3)), mmd_pairs(build_lcg(7, 2)), *_multi_component_mmd_graphs()]
    reused = [cover_and_nodes(h) for h in cases]
    # every recorded cover reads as empty, so the rebuild searches every id
    forgetful = property(lambda self: 0, lambda self, value: None)
    monkeypatch.setattr(solvers._VcSearch, "cover", forgetful, raising=False)
    searched = [cover_and_nodes(h) for h in cases]
    for (cover, nodes), (full_cover, full_nodes) in zip(reused, searched):
        assert cover == full_cover
        assert nodes < full_nodes
    # with no witness the rebuild runs one search per id, as it did before
    # the reuse
    assert searched[0][1] == 1237


def test_vc_rebuild_mismatch_raises(monkeypatch):
    # a search that calls everything feasible and records no cover rebuilds
    # a cover larger than the optimum it settled on; that must raise, not
    # publish
    monkeypatch.setattr(
        solvers._VcSearch, "feasible", lambda self, alive, allowed, r, taken=0: True
    )
    pentagon = mmd_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    with pytest.raises(RuntimeError, match="cover rebuild"):
        min_vertex_cover(pentagon)


@pytest.mark.parametrize(
    "corrupt",
    [lambda cover: cover & -cover, lambda cover: 0b11111],
    ids=["not-a-cover", "too-large"],
)
def test_vc_decision_witness_must_be_a_small_cover(monkeypatch, corrupt):
    # the pentagon's optimum is 3; a witness of its least member leaves
    # edges open, and all five vertices exceed the optimum
    feasible = solvers._VcSearch.feasible

    def corrupted(self, alive, allowed, r, taken=0):
        found = feasible(self, alive, allowed, r, taken)
        if found:
            self.cover = corrupt(self.cover)
        return found

    monkeypatch.setattr(solvers._VcSearch, "feasible", corrupted)
    pentagon = mmd_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    with pytest.raises(RuntimeError, match="not a cover of at most that size"):
        min_vertex_cover(pentagon)


def test_strong_answer_checks_raise(monkeypatch, lcg53_joined):
    accepts = iter([True])
    monkeypatch.setitem(solvers.VERIFIERS, "strong", lambda dist, members: next(accepts, False))
    # the search accepts its first candidate; the check before publishing rejects it
    with pytest.raises(RuntimeError, match="not strongly resolving"):
        solve_min_strong_direct(PATH4)
    # the leaf-block route declines this graph, so the definition verifier
    # checks the whole-graph cover
    with pytest.raises(StrongReductionError, match="is not a strong resolving set"):
        solve_min_strong_vc(lcg53_joined)


def test_leaf_block_cover_that_misses_a_derived_pair_raises(monkeypatch, lcg32):
    # a cover search that finds no member leaves lcg 3,2's cover at the far
    # sets alone; the check against the derived MMD graph names the inner
    # pair it misses
    monkeypatch.setattr(solvers, "_min_cover", lambda h, ticker: ())
    with pytest.raises(StrongReductionError, match="misses the MMD pair") as info:
        solve_min_strong_vc(lcg32)
    missed = tuple(map(int, re.findall(r"\d+", str(info.value).split("pair")[1])))
    assert missed in mmd_pairs(lcg32).edges


def test_verified_witness_of_cover_size_must_hit_every_mmd_pair(lcg32):
    cover = solve_min_strong_vc(lcg32).witness
    pairs = mmd_pairs(lcg32).edges
    # swap the first cover member for a vertex that leaves an MMD pair open
    for v in range(lcg32.order):
        swapped = set(cover[1:]) | {v}
        if len(swapped) == len(cover) and any(a not in swapped and b not in swapped for a, b in pairs):
            break
    else:
        pytest.fail("every swap still covers the MMD graph")
    # the derived MMD graph, which checks a strong audit's witness on the
    # route, names a pair of the whole-graph MMD graph that the set leaves open
    missed = solvers.leaf_block_mmd(lcg32).missed(swapped)
    assert missed in pairs and not set(missed) & swapped


def _cover_checks(monkeypatch, g):
    """The definition-verifier calls and the route.missed calls of one solve
    of g, and its cover. No caller's witness can stand in for the cover:
    passing one is a TypeError."""
    verifier, missed = [], []

    def counted(dist, members):
        verifier.append(tuple(members))
        return is_strong_resolving(dist, members)

    def spied(route, members):
        missed.append(tuple(sorted(members)))
        return check(route, members)

    check = solvers.LeafBlockMmd.missed
    monkeypatch.setitem(solvers.VERIFIERS, "strong", counted)
    monkeypatch.setattr(solvers.LeafBlockMmd, "missed", spied)
    cover = solve_min_strong_vc(g).witness
    with pytest.raises(TypeError, match="verified"):
        solve_min_strong_vc(g, verified=cover)
    return cover, (verifier, missed)


def test_verified_witness_decides_whether_the_cover_is_verified(monkeypatch, lcg53_joined):
    # the leaf-block route declines this graph: the cover is its own upper
    # bound, and the definition verifier checks it exactly once
    cover, calls = _cover_checks(monkeypatch, lcg53_joined)
    assert calls == ([cover], [])


def test_verified_witness_decides_whether_the_route_checks_the_cover(monkeypatch, lcg32):
    # on the leaf-block route the derived MMD graph checks the cover exactly
    # once, and the definition verifier never runs
    cover, calls = _cover_checks(monkeypatch, lcg32)
    assert calls == ([], [cover])


# ------------------------------------------------------ leaf-block route


def whole_graph_cover(g, **kwargs):
    """solve_min_strong_vc with its leaf-block shortcut made to decline, so
    apsp, the whole-graph mmd_pairs and cover search run."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "leaf_block_mmd", lambda g, check: None)
        return solve_min_strong_vc(g, **kwargs)


STRONG_FAMILY = [("ccc", n, None) for n in (2, 3, 4)] + [
    ("lcg", n, k)
    for n, k in ((3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4), (6, 3), (6, 4), (7, 3), (7, 4))
]


@pytest.mark.parametrize("family, n, k", STRONG_FAMILY)
def test_leaf_block_route_equals_the_whole_graph_cover_on_family_graphs(family, n, k):
    g = build_ccc(n) if family == "ccc" else build_lcg(n, k)
    d = apsp(g)
    assert solvers.leaf_block_mmd(g) is not None
    route, whole = solve_min_strong_vc(g, dist=d), whole_graph_cover(g, dist=d)
    assert (route.optimum, route.witness) == (whole.optimum, whole.witness)


def test_leaf_block_route_declines_a_disconnected_graph():
    # two 3-vertex paths: four leaf edges and every vertex a cut vertex or
    # inside one, but two components, so the route declines and apsp
    # rejects the graph as it does for every solve
    g = make_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    assert solvers.leaf_block_mmd(g) is None
    with pytest.raises(DisconnectedGraphError):
        solve_min_strong_vc(g)


def hung_blocks():
    """The path 0-1-2 with a 7-vertex block hung at 0 and a copy hung at 2.
    In the block, local 6 is a local maximum at distance 2 from h, while
    local 4 is the farthest vertex, at distance 3; locals 1 to 6 are 3 to 8
    in the first copy and 9 to 14 in the second."""
    local = [("h", 1), ("h", 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (6, 1), (6, 2)]
    edges = [(0, 1), (1, 2)]
    for h, base in ((0, 2), (2, 8)):
        edges += [(h if u == "h" else base + u, h if v == "h" else base + v) for u, v in local]
    return make_graph(15, edges)


def test_leaf_block_route_takes_every_local_maximum_as_far():
    # F_B is {6, 4} in local ids; F_B as the farthest vertices alone, {4},
    # would leave the pairs between the two copies' local 6 open
    g = hung_blocks()
    result = solve_min_strong_vc(g)
    assert result.witness == whole_graph_cover(g).witness == (3, 6, 7, 8, 9, 12, 13)
    assert is_strong_resolving(apsp(g), result.witness)


def test_leaf_block_route_frees_the_block_whose_covers_differ_first_in_b():
    # C5 with h = 1 has far set {3, 4}, b = (0, 2) and a = (0, 3, 4), which
    # differ first at 2, in b; the pendant edge at 1 has b = () and a = (5,).
    # Both gain 1, and freeing C5 gives (0, 2, 5), less than the (0, 3, 4)
    # of freeing the edge, whose covers differ later, at 5
    g = make_graph(6, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4), (1, 5)])
    assert solve_min_strong_vc(g).witness == whole_graph_cover(g).witness == (0, 2, 5)


def test_leaf_block_route_with_no_gain():
    # with h at local 1 this block's covers a = (0, 2, 5) and b = (0, 2, 4)
    # are of one size, so the top gain is 0; two copies hang off an edge
    local = [(0, 1), (0, 2), (0, 3), (0, 6), (1, 3), (1, 4), (1, 6), (2, 3)]
    local += [(2, 4), (2, 5), (3, 4), (3, 5), (3, 6), (4, 6), (5, 6)]
    edges = [(1, 8)] + [(u, v) for u, v in local] + [(7 + u, 7 + v) for u, v in local]
    g = make_graph(14, edges)
    # the first copy's covers differ first at 4, in b, so it is the free block
    assert solve_min_strong_vc(g).witness == whole_graph_cover(g).witness == (0, 2, 4, 7, 9, 12)


def test_leaf_block_route_keys_a_shape_by_its_cut_vertex_too():
    # two 4-cycles of one local adjacency, hung at local 0 (vertex 0) and at
    # local 3 (vertex 7) off the path 0-8-7: their far vertices are local 2
    # and local 1, so one memo entry for both would cover the wrong pairs
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7), (0, 8), (7, 8)]
    g = make_graph(9, edges)
    assert solve_min_strong_vc(g).witness == whole_graph_cover(g).witness == (1, 2, 4)


def test_verified_witness_must_hold_far_sets_of_all_blocks_but_one(ccc2):
    # ccc 2's witness holds every leaf cube's far vertex but one block's;
    # swapping another block's far vertex for a cut vertex keeps the size
    # and every inner pair covered, but leaves two far vertices out
    d = apsp(ccc2)
    witness = solve_min_strong_vc(ccc2, dist=d).witness
    pairs = mmd_pairs(ccc2, d).edges
    cut = next(v for v in range(ccc2.order) if v not in witness)
    for v in witness:
        swapped = tuple(sorted(set(witness) - {v} | {cut}))
        if all(a in swapped or b in swapped for a, b in pairs if v not in (a, b)):
            break
    else:
        pytest.fail("no member covers only pairs to other blocks")
    missed = solvers.leaf_block_mmd(ccc2).missed(set(swapped))
    assert missed in pairs and not set(missed) & set(swapped)


# ---------------------------------------------------------------- budgets


def test_subset_budget_error_carries_count(lcg32):
    with pytest.raises(BudgetExceededError) as info:
        naive_search(lcg32, "resolving", Budget(max_subsets=5))
    assert info.value.subsets_examined == 12
    assert "after 12 search nodes" in str(info.value)


def test_cover_budget_error_counts_vertex_cover_nodes(lcg53_joined):
    with pytest.raises(BudgetExceededError) as info:
        solve_min_strong_vc(lcg53_joined, budget=Budget(max_subsets=5))
    assert info.value.subsets_examined == 6
    assert "vertex-cover budget exhausted (after 6 vertex-cover nodes)" in str(info.value)


def test_leaf_block_route_budget_error_counts_vertex_cover_nodes():
    # lcg 5,3's one leaf shape takes 3 cover nodes on the leaf-block route
    assert solve_min_strong_vc(build_lcg(5, 3), budget=Budget(max_subsets=3)).optimum == 59
    with pytest.raises(BudgetExceededError) as info:
        solve_min_strong_vc(build_lcg(5, 3), budget=Budget(max_subsets=2))
    assert info.value.subsets_examined == 3
    assert "vertex-cover budget exhausted (after 3 vertex-cover nodes)" in str(info.value)


def test_timeout_budget(lcg42):
    with pytest.raises(BudgetExceededError):
        naive_search(lcg42, "strong", Budget(timeout_seconds=0.0))


def test_cover_route_timeout(lcg53_joined):
    # the graph has one 81-vertex MMD component, so without a timeout its
    # cover runs 119 branch-and-bound nodes
    with pytest.raises(BudgetExceededError, match="time budget"):
        solve_min_strong_vc(lcg53_joined, budget=Budget(timeout_seconds=0.0))


def test_leaf_block_route_timeout():
    with pytest.raises(BudgetExceededError, match="time budget"):
        solve_min_strong_vc(build_lcg(5, 3), budget=Budget(timeout_seconds=0.0))


@pytest.mark.parametrize("solve", [solve_min_resolving, solve_min_strong_vc])
def test_zero_timeout_stops_inside_apsp(solve, lcg53_joined):
    # apsp reads the solve's clock at its first level of ball growth; the
    # strong cover route's leaf-block shortcut declines this graph, so apsp
    # runs on the whole of it
    with pytest.raises(BudgetExceededError, match="time budget") as info:
        solve(lcg53_joined, budget=Budget(timeout_seconds=0.0))
    assert any(
        entry.name == "apsp" and entry.path.name == "graphs.py" for entry in info.traceback
    )


def test_zero_timeout_stops_the_leaf_block_route_at_its_first_clock_read(monkeypatch):
    # on ccc 3, which the shortcut takes, no apsp runs: the clock's first
    # reading after the solve's ticker starts is the route's, before the
    # first leaf block's shape
    def no_apsp(g, check=lambda: None):
        raise AssertionError("apsp ran after the time budget was spent")

    monkeypatch.setattr(solvers, "apsp", no_apsp)
    with pytest.raises(BudgetExceededError, match="time budget") as info:
        solve_min_strong_vc(build_ccc(3), budget=Budget(timeout_seconds=0.0))
    assert info.traceback[-2].name == "leaf_block_mmd"


def test_cover_route_checks_the_clock_before_mmd_pairs(monkeypatch, lcg32):
    def unreachable(g, dist):
        raise AssertionError("mmd_pairs ran after the time budget was spent")

    monkeypatch.setattr(solvers, "mmd_pairs", unreachable)
    with pytest.raises(BudgetExceededError, match="time budget"):
        solve_min_strong_vc(lcg32, budget=Budget(timeout_seconds=0.0))


def test_cover_search_checks_the_clock_at_each_node():
    ticker = solvers.Ticker(Budget(timeout_seconds=0.0), cover=True)
    search = solvers._VcSearch(ticker)
    search.nbrs = [1 << (v - 1) % 5 | 1 << (v + 1) % 5 for v in range(5)]
    with pytest.raises(BudgetExceededError, match="time budget"):
        search.feasible(0b11111, 0b11111, 3)
    assert ticker.examined == 1


@pytest.mark.parametrize("method", ["naive", "pruned"])
def test_zero_timeout_stops_before_the_first_search_node(lcg42, method):
    # the clock starts with the solve, and building the suffix names reads it
    for kind, solve in (("resolving", solve_min_resolving), ("doubly", solve_min_doubly)):
        with pytest.raises(BudgetExceededError, match=r"time budget exhausted \(after 0 search nodes\)"):
            if method == "naive":
                naive_search(lcg42, kind, Budget(timeout_seconds=0.0))
            else:
                solve(lcg42, method, budget=Budget(timeout_seconds=0.0))


# ------------------------------------------------------------- contracts


def test_unknown_method_rejected(lcg32):
    for method in ("heuristic", "naive"):
        for solve in (solve_min_resolving, solve_min_doubly, solve_min_strong_direct):
            with pytest.raises(ValueError, match="unknown method"):
                solve(lcg32, method)


def test_tiny_graph_rejected():
    k1 = make_graph(1, [])
    with pytest.raises(ValueError, match="at least 2"):
        solve_min_resolving(k1)
    with pytest.raises(ValueError, match="at least 2"):
        solve_min_strong_vc(k1)


def test_witnesses_match_brute_oracle_small():
    rng = random.Random(5)
    for _ in range(8):
        order, edges = random_connected_graph(rng, lo=4, hi=7)
        g = make_graph(order, edges)
        d = floyd_warshall(order, edges)
        for kind, accept, lo in (
            ("resolving", resolving_ok, 1),
            ("doubly", doubly_ok, 2),
            ("strong", strong_ok, 1),
        ):
            _, witness = brute_minimum(order, lambda s: accept(d, s), lo=lo)
            assert naive_search(g, kind)[0] == witness


@pytest.mark.parametrize(
    "g, edges",
    [
        (make_graph(66, [(i, i + 1) for i in range(65)]), [(i, i + 1) for i in range(65)]),
        (build_cycle(130), [(i, (i + 1) % 130) for i in range(130)]),
        # doubly optimum (0, 1, 67) needs keys with entries near 64 to differ
        (make_graph(68, lollipop_edges(4, 64)), lollipop_edges(4, 64)),
    ],
    ids=["path66", "cycle130", "lollipop4-64"],
)
def test_search_keys_exact_beyond_diameter_64(g, edges):
    d = floyd_warshall(g.order, edges)
    assert max(map(max, d)) >= 64
    for kind, solver, accept, lo in (
        ("resolving", solve_min_resolving, resolving_ok, 1),
        ("doubly", solve_min_doubly, doubly_ok, 2),
    ):
        _, want = brute_minimum(g.order, lambda s: accept(d, s), lo=lo)
        assert naive_search(g, kind)[0] == solver(g).witness == want


def test_star_twin_class_pruning():
    # five leaves form one twin class; four of them are forced members
    star = make_graph(6, [(0, i) for i in range(1, 6)])
    naive, naive_nodes = naive_search(star, "resolving")
    pruned = solve_min_resolving(star, "pruned")
    assert pruned.optimum == 4
    assert naive == pruned.witness == (1, 2, 3, 4)
    assert pruned.stats.subsets_examined < naive_nodes


def test_k2_doubly():
    k2 = make_graph(2, [(0, 1)])
    # 0 and 1 are twins, so the solve forces 0 and the naive search does not
    assert naive_search(k2, "doubly")[0] == solve_min_doubly(k2).witness == (0, 1)


def test_monotone_sandwich_and_twin_bound():
    rng = random.Random(31)
    for _ in range(10):
        order, edges = random_connected_graph(rng, lo=4, hi=8)
        g = make_graph(order, edges)
        beta = solve_min_resolving(g, "pruned").optimum
        psi = solve_min_doubly(g, "pruned").optimum
        sdim = solve_min_strong_vc(g).optimum
        assert beta <= psi
        assert beta <= sdim
        forced = sum(len(c) - 1 for c in twin_classes(g))
        assert beta >= forced


# ------------------------------------------------------- leaf-block counts


def block_needs(g, kind):
    """(B, h, c_B) of the kept leaf blocks, as the pruned solve finds them."""
    return solvers._leaf_block_needs(g, kind, solvers.Ticker(Budget()))


FAMILY_GRAPHS = [("lcg", n, 2) for n in range(3, 8)] + [("lcg", n, 3) for n in range(3, 6)]
FAMILY_GRAPHS += [("ccc", 2, None), ("ccc", 3, None)]


@pytest.mark.parametrize("kind", ["resolving", "doubly"])
@pytest.mark.parametrize("family, n, k", FAMILY_GRAPHS)
def test_last_layer_units_are_counted_leaf_blocks(family, n, k, kind):
    # the block masks imply the family restriction: every unit is a kept
    # leaf block that every success must hold a member of
    g = build_ccc(n) if family == "ccc" else build_lcg(n, k)
    needs = {block: need for block, _, need in block_needs(g, kind)}
    for unit in last_layer_units(g):
        assert needs.get(unit, 0) >= 1


@pytest.mark.parametrize(
    "solver, n, k, optimum, nodes",
    [
        (solve_min_resolving, 5, 2, 5, 31),
        (solve_min_doubly, 6, 2, 12, 67),
        (solve_min_doubly, 4, 3, 24, 60),
    ],
)
def test_leaf_block_counts_solve_family_instances(solver, n, k, optimum, nodes):
    # with masks that ask each unit for one member, both doubly instances
    # pass a million nodes; with no masks, lcg 5,2 resolving takes 35,150
    result = solver(build_lcg(n, k), "pruned", budget=Budget(max_subsets=nodes))
    assert result.optimum == optimum


def test_one_block_cut_dfs_serves_apsp_and_every_solve_of_a_graph(monkeypatch):
    # ccc 3 (520 vertices) is peeled by apsp, and its solves and strong audit
    # read leaf blocks. The generator hands its tree over, so none of them
    # runs the DFS; the same graph read from a file runs it once, and apsp
    # and every solve share the tree that g keeps
    calls = []
    blocks = graphs._blocks

    def counted(g):
        calls.append(g)
        return blocks(g)

    monkeypatch.setattr(graphs, "_blocks", counted)
    generated = build_ccc(3)
    read = read_graph(write_graph(generated, DIMACS), DIMACS)
    for g, runs in ((generated, 0), (read, 1)):
        dist = apsp(g)
        first = solve_min_resolving(g)
        assert solve_min_resolving(g, dist=dist).witness == first.witness
        assert solve_min_doubly(g, dist=dist).optimum == 168
        assert solve_min_strong_vc(g).optimum == 223
        assert calls == [g] * runs
        calls.clear()
    assert audit_claim("ccc", "strong", (3,)).verified == "confirmed"
    assert calls == []


def test_mandatory_members_count_towards_a_need():
    c8 = build_cycle(8)
    ticker = solvers.Ticker(Budget())
    masks = [(0b1100, 2), (0b110000, 1)]
    # 2 is mandatory, so the first mask owes one more member, 3, and the
    # second one; (2, 4) resolves C8 but dropping the first mask once 2 hit
    # it would return that, and ignoring 2 would leave the mask unmeetable
    found = solvers._lex_search(apsp(c8), "resolving", (2,), masks, ticker)
    assert found == (2, 3, 4)


STAR_400 = make_graph(401, [(0, v) for v in range(1, 401)])


@pytest.mark.parametrize(
    "g, solver, optimum, nodes",
    [
        (build_ccc(2), solve_min_resolving, 16, 87),
        (build_ccc(2), solve_min_doubly, 24, 139),
        (build_lcg(5, 2), solve_min_resolving, 5, 31),
        (build_lcg(5, 2), solve_min_doubly, 5, 44),
        (build_lcg(4, 2), solve_min_resolving, 4, 5),
        (build_lcg(4, 2), solve_min_doubly, 8, 20),
        (build_lcg(4, 2), solve_min_strong_direct, 7, 437),
        (build_lcg(6, 3), solve_min_resolving, 30, 223),
        (build_lcg(6, 3), solve_min_doubly, 60, 319),
        (STAR_400, solve_min_resolving, 399, 2),
        (STAR_400, solve_min_doubly, 400, 2),
    ],
    ids=[
        "ccc2-resolving",
        "ccc2-doubly",
        "lcg52-resolving",
        "lcg52-doubly",
        "lcg42-resolving",
        "lcg42-doubly",
        "lcg42-strong",
        "lcg63-resolving",
        "lcg63-doubly",
        "star400-resolving",
        "star400-doubly",
    ],
)
def test_search_order_is_pinned(g, solver, optimum, nodes):
    # the node count, interior nodes plus the leaves of every row tested,
    # pins which nodes the search visits, and in what order: pair lanes
    # (lcg 4,2 and 5,2), keys (ccc 2, lcg 6,3, the star), the strong prefix
    # nodes, leaf-block masks, whose count searches run once per block
    # shape, and on the star a keyed search rooted at 399 twin-forced members
    result = solver(g)
    assert (result.optimum, result.stats.subsets_examined) == (optimum, nodes)
    if solver is solve_min_strong_direct:
        assert result.witness == (5, 6, 9, 10, 13, 14, 17)


def prefix_nodes(build, order, seen):
    """build with each node of a search on order vertices paired with its
    prefix bitset; accepts records (prefix, row) before it tests the row.
    The leaf-block count searches, on fewer vertices, run unwrapped."""

    def wrapped(dist, *args):
        nodes = build(dist, *args)
        if dist.order != order:
            return nodes

        def first(a):
            child, cuts = nodes.first(a)
            return (1 << a, child), cuts

        def accepts(node, vs):
            seen.append((node[0], list(vs)))
            return nodes.accepts(node[1], vs)

        return solvers._Nodes(
            (0, nodes.root),
            nodes.cuts,
            lambda node, v: (node[0] | 1 << v, nodes.grow(node[1], v)),
            accepts,
            lambda node, cuts, j: nodes.dead(node[1], cuts, j),
            nodes.first and first,
        )

    return wrapped


@pytest.mark.parametrize("node_form", ["_pair_nodes", "_key_nodes"])
def test_a_row_holds_exactly_the_leaves_that_meet_every_mask(monkeypatch, node_form):
    # a row below prefix P is every free id past P's last free member that
    # lies in each mask P still owes one member, and is empty when P owes a
    # mask two; the rows are read off the search of every solve
    graphs = [build_lcg(5, 2)]
    for seed in range(6):
        graphs.append(make_graph(*pendant_block_graph(random.Random(seed), cliques=True)))
    if node_form == "_key_nodes":
        monkeypatch.setattr(solvers, "_PAIR_MAX_ORDER", 0)
    restricted = 0
    for g in graphs:
        mandatory = sum(1 << v for cls in twin_classes(g) for v in cls[:-1])
        for kind, solve in (("resolving", solve_min_resolving), ("doubly", solve_min_doubly)):
            masks = [
                (sum(1 << v for v in block) ^ 1 << h, need) for block, h, need in block_needs(g, kind)
            ]
            seen = []
            traced = prefix_nodes(getattr(solvers, node_form), g.order, seen)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(solvers, node_form, traced)
                solve(g)
            assert seen
            for prefix, row in seen:
                if row and prefix >> row[0] & 1:
                    # a size with no free slot tests the mandatory set alone,
                    # as its first member joined to the rest
                    least = (mandatory & -mandatory).bit_length() - 1
                    assert (prefix, row) == (mandatory, [least])
                    continue
                free = prefix & ~mandatory
                deficits = [need - (m & prefix).bit_count() for m, need in masks]
                tail = [v for v in range(free.bit_length(), g.order) if not mandatory >> v & 1]
                owed = [m for (m, _), d in zip(masks, deficits) if d == 1]
                leaves = [v for v in tail if all(m >> v & 1 for m in owed)]
                assert row == (leaves if max(deficits, default=0) < 2 else [])
                restricted += len(row) < len(tail)
    assert restricted


def test_a_doubly_solve_builds_each_anchor_table_once(monkeypatch):
    # C8 is twin-free with no leaf block, so the doubly search takes each
    # first member itself, at both sizes 2 and 3; each anchor's cut table is
    # built on its first call and handed back on every later one, and it
    # and the anchor's table answer as freshly built ones do
    g = build_cycle(8)
    dist = apsp(g)
    real = solvers._pair_nodes
    built = {}
    calls = []

    def spy(dist, doubly, pool):
        nodes = real(dist, doubly, pool)

        def first(a):
            node, cuts = nodes.first(a)
            calls.append(a)
            assert built.setdefault(a, cuts) is cuts
            assert cuts == real(dist, doubly, pool).first(a)[1]
            for b in pool:
                want = a != b and is_doubly_resolving(dist, sorted({a, b}))
                assert (nodes.accepts(node, [b]) == 0) == want
            return node, cuts

        return nodes._replace(first=first)

    monkeypatch.setattr(solvers, "_pair_nodes", spy)
    assert solve_min_doubly(g, dist=dist).witness == (0, 1, 4)
    assert len(calls) > len(built) > 1


def test_ticker_reads_the_clock_at_each_1024_crossing(monkeypatch):
    ticker = solvers.Ticker(Budget())
    reads = []
    monkeypatch.setattr(ticker, "check_time", lambda: reads.append(ticker.examined))
    for _ in range(1024):
        ticker.tick(7)
    # rows of 7 land on a multiple of 1024 only at 7 * 1024
    assert reads == [-(-m * 1024 // 7) * 7 for m in range(1, 8)]


def test_a_row_past_the_budget_raises_before_accepts(monkeypatch, lcg32_dist):
    # each row is charged, and held to max_subsets, right before accepts
    # tests it, so a row that would pass the budget raises untested
    events = []
    real = solvers._pair_nodes

    def spy(*args):
        nodes = real(*args)

        def accepts(node, vs):
            events.append(("row", len(vs), ticker.examined))
            return nodes.accepts(node, vs)

        return nodes._replace(accepts=accepts)

    def search(budget):
        nonlocal ticker
        ticker = solvers.Ticker(budget)
        tick = ticker.tick

        def charged(count=1):
            tick(count)
            events.append(("tick", count, ticker.examined))

        ticker.tick = charged
        events.clear()
        solvers._lex_search(lcg32_dist, "resolving", (), (), ticker)

    ticker = None
    monkeypatch.setattr(solvers, "_pair_nodes", spy)
    search(Budget())
    rows = [i for i, (what, _, _) in enumerate(events) if what == "row"]
    assert len(rows) > 1
    assert all(events[i - 1] == ("tick",) + events[i][1:] for i in rows)
    for cap in range(ticker.examined):
        with pytest.raises(BudgetExceededError) as info:
            search(Budget(max_subsets=cap))
        assert info.value.subsets_examined == ticker.examined > cap
        assert all(examined <= cap for _, _, examined in events)


def flower(petals):
    """petals 5-cycles glued at vertex 0; petal p holds 4p+1 .. 4p+4."""
    edges = []
    for p in range(petals):
        cycle = [0] + [4 * p + i for i in range(1, 5)]
        edges += [(cycle[i], cycle[(i + 1) % 5]) for i in range(5)]
    return make_graph(4 * petals + 1, edges)


def test_deep_search_needs_no_recursion():
    # the search holds one member per petal, 300 deep, so a search that
    # recursed once per member would pass this limit
    g = flower(300)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        result = solve_min_resolving(g)
    finally:
        sys.setrecursionlimit(limit)
    assert result.optimum == 300
    assert {(v - 1) // 4 for v in result.witness} == set(range(300))


def path_edges(order):
    return [(v, v + 1) for v in range(order - 1)]


@pytest.mark.parametrize(
    "order, edges, unused",
    [
        (32, path_edges(32), "_key_nodes"),
        (32, path_edges(32) + [(0, 31)], "_key_nodes"),
        (33, path_edges(33), "_pair_nodes"),
    ],
    ids=["P32", "C32", "P33"],
)
def test_pair_lanes_up_to_order_32_and_keys_above(order, edges, unused):
    # P32 has diameter 31, the largest that pair lanes see, and its doubly
    # lane sums reach 62; order 33 searches on keys, while its leaf-block
    # count searches still run on pair lanes. Each search finds the oracle's
    # optimum and witness, and the other node form, with the cap moved
    # across this order, repeats it after the same nodes.
    g = make_graph(order, edges)
    d = floyd_warshall(order, edges)
    real = getattr(solvers, unused)

    def forbidden(dist, *args):
        if dist.order == order:
            raise AssertionError(f"{unused} ran at order {order}")
        return real(dist, *args)

    other_cap = 0 if unused == "_key_nodes" else order
    for kind, solver, accept, lo in (
        ("resolving", solve_min_resolving, resolving_ok, 1),
        ("doubly", solve_min_doubly, doubly_ok, 2),
    ):
        _, want = brute_minimum(order, lambda s: accept(d, s), lo=lo)

        def searches():
            """The naive search's and the solve's witness and node count."""
            result = solver(g)
            return [naive_search(g, kind), (result.witness, result.stats.subsets_examined)]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solvers, unused, forbidden)
            found = searches()
        assert [witness for witness, _ in found] == [want, want]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solvers, "_PAIR_MAX_ORDER", other_cap)
            assert searches() == found


def test_array_rows_on_a_small_graph_search_on_keys():
    # pair lanes read byte rows, so a caller's 2-byte array rows on a graph
    # of at most 32 vertices take the keyed nodes, which visit the same nodes
    g = build_lcg(4, 2)
    d = apsp(g)
    wide = DistanceMatrix(d.order, packed(d.rows, 2))
    for solver in (solve_min_resolving, solve_min_doubly):
        want, got = solver(g, dist=d), solver(g, dist=wide)
        assert (got.witness, got.stats.subsets_examined) == (want.witness, want.stats.subsets_examined)
