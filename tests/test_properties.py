"""Invariant checks over randomly sampled graphs and subsets."""
import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from resolvekit import (
    DistanceMatrix,
    apsp,
    build_ccc,
    build_lcg,
    is_doubly_resolving,
    is_resolving,
    is_strong_resolving,
    make_graph,
    min_vertex_cover,
    mmd_graph,
    mmd_pairs,
    solve_min_doubly,
    solve_min_resolving,
    solve_min_strong_direct,
    solve_min_strong_vc,
    twin_classes,
)
from resolvekit import graphs, solvers
from resolvekit.solvers import Budget, _clique_packing_bound

from naive import naive_search
from oracles import (
    brute_minimum,
    cut_vertices_brute,
    doubly_ok,
    floyd_warshall,
    leaf_blocks_brute,
    mmd_pairs_brute,
    packed,
    pendant_block_graph,
    random_connected_graph,
    resolving_ok,
    strong_ok,
    twin_classes_brute,
    vertex_cover_brute,
)


def sampled_graph(seed, lo=4, hi=10):
    order, edges = random_connected_graph(random.Random(seed), lo=lo, hi=hi)
    return make_graph(order, edges), edges


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_distance_axioms(seed):
    g, edges = sampled_graph(seed)
    d = apsp(g)
    for u in range(g.order):
        assert d[u][u] == 0
        for v in range(u + 1, g.order):
            assert d[u][v] == d[v][u] > 0
            assert (d[u][v] == 1) == (v in g.neighbors(u))
    for u in range(g.order):
        for v in range(g.order):
            for w in range(g.order):
                assert d[u][w] <= d[u][v] + d[v][w]


@given(st.integers(0, 10**6), st.booleans())
@settings(max_examples=80, deadline=None)
def test_apsp_equals_floyd_warshall(seed, tree):
    rng = random.Random(seed)
    order, edges = random_connected_graph(rng, lo=1, hi=150)
    if tree:  # a random spanning tree alone has longer paths
        edges = [(rng.randrange(v), v) for v in range(1, order)]
    assert [list(row) for row in apsp(make_graph(order, edges)).rows] == floyd_warshall(
        order, edges
    )


@given(st.integers(0, 10**6), st.sampled_from(["random", "tree", "blocks", "cliques"]))
@settings(max_examples=80, deadline=None)
def test_peeled_apsp_equals_floyd_warshall_and_the_ball_path(seed, shape):
    """With the floor at 0 apsp peels graphs of any order, round after round
    until one block or none is left: trees lose one level of leaves per
    round, and pendant blocks hang off earlier ones. Shuffled ids scatter
    each block's columns among other vertices'."""
    rng = random.Random(seed)
    if shape == "random":
        order, edges = random_connected_graph(rng, lo=1, hi=40)
    elif shape == "tree":
        order = rng.randint(1, 40)
        edges = [(rng.randrange(v), v) for v in range(1, order)]
    else:
        order, edges = pendant_block_graph(rng, cliques=shape == "cliques", max_order=30)
    ids = list(range(order))
    rng.shuffle(ids)
    edges = sorted((min(ids[u], ids[v]), max(ids[u], ids[v])) for u, v in edges)
    g = make_graph(order, edges)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphs, "_PEEL_MIN_ORDER", 0)
        peeled = apsp(g).rows
        patch.setattr(graphs, "_PEEL_MIN_ORDER", order + 1)
        grown = apsp(g).rows
    assert all(type(row) is bytes for row in peeled)
    assert peeled == grown
    assert [list(row) for row in peeled] == floyd_warshall(order, edges)


@given(st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_doubly_implies_resolving(seed, subset_seed):
    g, _ = sampled_graph(seed)
    rng = random.Random(subset_seed)
    size = rng.randint(2, g.order)
    members = tuple(sorted(rng.sample(range(g.order), size)))
    d = apsp(g)
    if is_doubly_resolving(d, members):
        assert is_resolving(d, members)


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_doubly_definition_equals_pair_formulation(seed):
    """The constant-difference check agrees with "some member pair doubly
    resolves every vertex pair" on all subsets of size <= 4."""
    g, edges = sampled_graph(seed, lo=4, hi=8)
    d = apsp(g)
    d_oracle = floyd_warshall(g.order, edges)
    for size in (2, 3, 4):
        for members in combinations(range(g.order), size):
            assert is_doubly_resolving(d, members) == doubly_ok(d_oracle, members)


@given(st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_resolving_and_doubly_verifiers_equal_definition(seed, subset_seed):
    """Both verifiers agree with the pairwise definitions on random member
    lists in random order. Every example sees both verdicts: a vertex of
    degree >= 2 alone leaves its neighbors unresolved, an edge gives 3
    difference values to >= 4 vertices, and the whole vertex set passes both.
    """
    g, edges = sampled_graph(seed, lo=4, hi=14)
    d = apsp(g)
    d_oracle = floyd_warshall(g.order, edges)
    hub = next(v for v in range(g.order) if g.degree(v) >= 2)
    subsets = [(hub,), edges[0], tuple(range(g.order))]
    rng = random.Random(subset_seed)
    for _ in range(12):
        subsets.append(tuple(rng.sample(range(g.order), rng.randint(2, g.order))))
    for members in subsets:
        assert is_resolving(d, members) == resolving_ok(d_oracle, members)
        if len(members) >= 2:
            assert is_doubly_resolving(d, members) == doubly_ok(d_oracle, members)
    assert not is_resolving(d, (hub,)) and not is_doubly_resolving(d, edges[0])
    assert is_doubly_resolving(d, tuple(range(g.order)))


@given(st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_strong_implies_resolving(seed, subset_seed):
    g, _ = sampled_graph(seed)
    rng = random.Random(subset_seed)
    size = rng.randint(1, g.order)
    members = tuple(sorted(rng.sample(range(g.order), size)))
    d = apsp(g)
    if is_strong_resolving(d, members):
        assert is_resolving(d, members)


@given(st.integers(0, 10**6), st.integers(0, 10**6), st.sampled_from([1, 2]))
@settings(max_examples=40, deadline=None)
def test_strong_verifier_equals_definition(seed, subset_seed, width):
    """The verifier agrees with the pairwise definition on every subset of
    size <= 3 and on random larger subsets, on bytes rows and on the lanes
    of 2-byte array rows."""
    g, edges = sampled_graph(seed)
    d = apsp(g)
    d = DistanceMatrix(d.order, packed(d.rows, width))
    d_oracle = floyd_warshall(g.order, edges)
    subsets = [members for size in (1, 2, 3) for members in combinations(range(g.order), size)]
    rng = random.Random(subset_seed)
    for _ in range(20):
        size = rng.randint(min(4, g.order), g.order)
        subsets.append(tuple(sorted(rng.sample(range(g.order), size))))
    for members in subsets:
        assert is_strong_resolving(d, members) == strong_ok(d_oracle, members)


def graph_with_tail(rng, lo, hi):
    """A sampled graph of 3-9 vertices with a pendant path of lo-hi vertices
    at a random hub, its oracle distances, its order before the path and
    the path. Oracle distances come from Floyd-Warshall on the sampled part
    and path arithmetic on the rest."""
    small, edges = random_connected_graph(rng, lo=3, hi=9)
    hub = rng.randrange(small)
    length = rng.randint(lo, hi)
    path = list(range(small, small + length))
    g = make_graph(small + length, edges + list(zip([hub] + path, path)))
    fw = floyd_warshall(small, edges)
    # path vertex small + i lies i + 1 steps from hub
    depth = [None] * small + list(range(1, length + 1))

    def dist(x, y):
        if depth[x] is None and depth[y] is None:
            return fw[x][y]
        if depth[x] is not None and depth[y] is not None:
            return abs(depth[x] - depth[y])
        a, b = (x, y) if depth[y] is None else (y, x)
        return depth[a] + fw[hub][b]

    d_oracle = [[dist(x, y) for y in range(g.order)] for x in range(g.order)]
    return g, d_oracle, small, path


@given(st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_wide_lanes_match_oracles(seed, subset_seed):
    """A pendant path of 255-280 vertices pushes the diameter past 254, so
    apsp gives 2-byte array rows and the predicates read them as lanes."""
    g, d_oracle, small, path = graph_with_tail(random.Random(seed), 255, 280)
    d = apsp(g)
    assert d.width == 2 and d.diameter() == max(map(max, d_oracle)) > 254
    edges = list(g.edges())
    assert list(mmd_pairs(g, d).edges) == mmd_pairs_brute(g.order, edges, d_oracle)
    rng = random.Random(subset_seed)
    for _ in range(3):
        members = rng.sample(range(small), rng.randint(1, min(4, small)))
        members += rng.sample(path[:-1], rng.randint(0, 1)) + path[-1:] * rng.randint(0, 1)
        rng.shuffle(members)
        assert is_resolving(d, members) == resolving_ok(d_oracle, members)
        assert is_strong_resolving(d, members) == strong_ok(d_oracle, members)
        if len(members) >= 2:
            assert is_doubly_resolving(d, members) == doubly_ok(d_oracle, members)


@given(st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_doubly_verifier_across_the_byte_lane_edge(seed, subset_seed):
    """A pendant path of 115-135 vertices takes the far end's distances
    across 127/128, where the doubly verifier widens its byte lanes. Only
    sets holding the far end and most of the sampled part can pass; members
    come in random order, so the far end is z0 or not."""
    g, d_oracle, small, path = graph_with_tail(random.Random(seed), 115, 135)
    d = apsp(g)
    assert d.width == 1
    rng = random.Random(subset_seed)
    for _ in range(3):
        members = rng.sample(range(small), rng.randint(max(1, small - 3), small))
        members += path[-1:] + rng.sample(path[:-1], rng.randint(0, 1))
        rng.shuffle(members)
        assert is_doubly_resolving(d, members) == doubly_ok(d_oracle, members)


def with_twin(g, edges, seed):
    """g plus a twin of one vertex: same open neighbourhood, or the same
    closed one when the coin says the twins are adjacent."""
    rng = random.Random(seed)
    v = rng.randrange(g.order)
    twin = g.order
    extra = [(u, twin) for u in g.neighbors(v)]
    if rng.random() < 0.5:
        extra.append((v, twin))
    return make_graph(g.order + 1, edges + extra), edges + extra


@given(st.integers(0, 10**6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_search_matches_brute_force(seed, twin):
    """The naive search and the solve of every kind return the brute-force
    optimum and its lexicographically least witness; with a twin added, the
    solve starts from a nonempty mandatory prefix."""
    g, edges = sampled_graph(seed, lo=4, hi=8)
    if twin:
        g, edges = with_twin(g, edges, seed)
        assert any(len(cls) >= 2 for cls in twin_classes(g))
    d = floyd_warshall(g.order, edges)
    for kind, solver, accept, lo in (
        ("resolving", solve_min_resolving, resolving_ok, 1),
        ("doubly", solve_min_doubly, doubly_ok, 2),
        ("strong", solve_min_strong_direct, strong_ok, 1),
    ):
        want = brute_minimum(g.order, lambda s: accept(d, s), lo=lo)
        result = solver(g)
        assert (result.optimum, result.witness) == want
        assert naive_search(g, kind)[0] == result.witness


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_strong_cover_route_matches_brute(seed):
    g, edges = sampled_graph(seed, lo=4, hi=8)
    d_oracle = floyd_warshall(g.order, edges)
    result = solve_min_strong_vc(g)
    assert strong_ok(d_oracle, result.witness)
    size, _ = brute_minimum(g.order, lambda s: strong_ok(d_oracle, s))
    assert result.optimum == size


def derived_mmd_pairs(route):
    """The MMD pairs a leaf-block route derives, sorted: each block's inner
    pairs, and every pair of far vertices of two distinct blocks."""
    pairs = set()
    fars = []
    for block, key in route.parts:
        _, inner, far = route.shapes[key]
        pairs |= {(block[u], block[v]) for u, v in inner}
        fars.append([block[x] for x in far])
    for one, other in combinations(fars, 2):
        pairs |= {(min(u, v), max(u, v)) for u in one for v in other}
    return sorted(pairs)


def check_leaf_route(g, route, d, sets):
    """The route's rows, pairs and missed check against apsp, mmd_pairs and
    is_strong_resolving on g: each shape's rows are g's distances among the
    vertices of every block of that shape, the derived pairs are g's MMD
    pairs, and missed names a pair a set leaves open exactly when the set is
    not strong resolving."""
    for block, key in route.parts:
        assert [list(row) for row in route.shapes[key][0].rows] == [[d[u][v] for v in block] for u in block]
    pairs = mmd_pairs(g, d).edges
    assert derived_mmd_pairs(route) == list(pairs)
    for members in sets:
        pair = route.missed(members)
        assert (pair is None) == is_strong_resolving(d, sorted(members))
        assert pair is None or (pair in pairs and not set(pair) & members)


def one_swaps(members, order):
    """members with one of them swapped for each non-member in turn."""
    return [set(members) - {v} | {w} for v in members for w in range(order) if w not in members]


@given(st.integers(0, 10**6), st.booleans(), st.integers(6, 16))
@settings(max_examples=60, deadline=None)
def test_leaf_block_route_matches_the_whole_graph_cover(seed, cliques, max_order):
    """The strong cover route's leaf-block shortcut takes a pendant_block_graph
    input exactly when it meets the route's condition by the brute oracles.
    On one it takes, its optimum and witness equal the whole-graph cover's,
    which runs when the shortcut is made to decline, and check_leaf_route
    holds for random sets and every swap of one witness member for a
    non-member."""
    rng = random.Random(seed)
    order, edges = pendant_block_graph(rng, cliques, max_order)
    g = make_graph(order, edges)
    leaves = leaf_blocks_brute(order, edges)
    inside = {v for block, h in leaves for v in block if v != h}
    meets = len(leaves) >= 2 and inside | cut_vertices_brute(order, edges) == set(range(order))
    route = solvers.leaf_block_mmd(g)
    assert (route is not None) == meets
    assume(meets)
    d = apsp(g)
    result = solve_min_strong_vc(g)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "leaf_block_mmd", lambda g, check: None)
        whole = solve_min_strong_vc(g, dist=d)
    assert (result.optimum, result.witness) == (whole.optimum, whole.witness)
    sets = [{v for v in range(order) if rng.random() < 0.5} for _ in range(10)]
    sets = [members for members in sets if members] + one_swaps(result.witness, order)
    check_leaf_route(g, route, d, sets)


STRONG_FAMILY = [("ccc", (n,)) for n in (2, 3, 4)] + [
    ("lcg", (n, k)) for n, k in ((3, 2), (3, 3), (4, 2), (4, 3), (5, 3), (6, 3), (6, 4), (7, 4))
]


@pytest.mark.parametrize("family, params", STRONG_FAMILY, ids=["-".join(map(str, (f, *p))) for f, p in STRONG_FAMILY])
def test_leaf_block_route_on_family_graphs(family, params):
    # the cover, the cover and one more vertex, three one-member swaps and
    # two random sets; is_strong_resolving runs on each
    g = build_ccc(*params) if family == "ccc" else build_lcg(*params)
    route = solvers.leaf_block_mmd(g)
    cover = solve_min_strong_vc(g, route=route).witness
    rng = random.Random(len(cover))
    outside = [v for v in range(g.order) if v not in cover]
    sets = [set(cover), set(cover) | {outside[0]}]
    sets += [set(cover) - {rng.choice(cover)} | {rng.choice(outside)} for _ in range(3)]
    sets += [{v for v in range(g.order) if rng.random() < 0.5} for _ in range(2)]
    check_leaf_route(g, route, apsp(g), sets)


@given(st.integers(0, 10**6), st.sampled_from([1, 2]))
@settings(max_examples=60, deadline=None)
def test_mmd_matches_brute_and_symmetric(seed, width):
    # bytes rows and 2-byte array rows are their own lanes
    g, edges = sampled_graph(seed)
    d = apsp(g)
    d = DistanceMatrix(d.order, packed(d.rows, width))
    h = mmd_pairs(g, d)
    assert list(h.edges) == mmd_pairs_brute(g.order, edges, floyd_warshall(g.order, edges))
    assert all(u < v for u, v in h.edges)
    seen = set(h.edges)
    assert all((v, u) not in seen for u, v in h.edges)


@given(st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_strong_iff_every_mmd_pair_is_hit(seed, subset_seed):
    # Oellermann and Peters-Fransen (2007): strong resolving sets are exactly
    # the vertex covers of the mutually maximally distant pairs
    g, edges = sampled_graph(seed, lo=3, hi=9)
    d = floyd_warshall(g.order, edges)
    pairs = mmd_pairs_brute(g.order, edges, d)
    rng = random.Random(subset_seed)
    for _ in range(8):
        members = set(rng.sample(range(g.order), rng.randint(1, g.order)))
        covers = all(u in members or v in members for u, v in pairs)
        assert strong_ok(d, sorted(members)) == covers


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_clique_packing_bound_and_covers_against_brute(seed):
    order, edges = random_connected_graph(random.Random(seed), lo=3, hi=10)
    nbrs = [0] * order
    for u, v in edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    size, least = vertex_cover_brute(order, edges)
    assert _clique_packing_bound(nbrs) <= size
    # the start size changes where the search begins, never its answer
    assert min_vertex_cover(mmd_graph(order, edges)) == least


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_twin_classes_match_brute(seed):
    # the exact tuple: classes ascending, ordered by their least members
    g, edges = sampled_graph(seed)
    assert twin_classes(g) == twin_classes_brute(g.order, edges)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_resolving_optimum_hits_every_twin_class(seed):
    g, _ = sampled_graph(seed, lo=4, hi=8)
    witness = set(solve_min_resolving(g, "pruned").witness)
    for cls in twin_classes(g):
        if len(cls) >= 2:
            assert len(witness & set(cls)) >= len(cls) - 1


@given(st.integers(0, 10**6), st.booleans())
@settings(max_examples=80, deadline=None)
def test_leaf_block_cuts_keep_the_optimum_and_witness(seed, twins):
    # with twins, a glued clique makes a twin class and so forced members;
    # without, draws are repeated until no two vertices are twins
    rng = random.Random(seed)
    while True:
        order, edges = pendant_block_graph(rng, cliques=twins)
        if twins or all(len(c) == 1 for c in twin_classes_brute(order, edges)):
            break
    g = make_graph(order, edges)
    d = floyd_warshall(order, edges)
    assert g.block_tree.leaves == leaf_blocks_brute(order, edges)
    cuts = {v for v, count in enumerate(g.block_tree.count) if count > 1}
    assert cuts == cut_vertices_brute(order, edges)
    for kind, solver, accept, lo in (
        ("resolving", solve_min_resolving, resolving_ok, 1),
        ("doubly", solve_min_doubly, doubly_ok, 2),
    ):
        want = brute_minimum(order, lambda s: accept(d, s), lo=lo)
        result = solver(g, "pruned")
        assert (result.optimum, result.witness) == want
        needs = solvers._leaf_block_needs(g, kind, solvers.Ticker(Budget()))
        assert sum(need for _, _, need in needs) <= want[0]


@given(st.integers(0, 10**6), st.booleans())
@settings(max_examples=40, deadline=None)
def test_relabelling_keeps_every_optimum(seed, twins):
    """Metamorphic: under a random vertex permutation every kind's pruned
    optimum stays put, strong on both routes, and each witness mapped
    through the permutation still passes its oracle on the relabelled graph."""
    rng = random.Random(seed)
    order, edges = pendant_block_graph(rng, cliques=twins, max_order=9)
    assert 4 <= order <= 9
    perm = list(range(order))
    rng.shuffle(perm)
    moved_edges = [(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges]
    g, moved = make_graph(order, edges), make_graph(order, moved_edges)
    d_moved = floyd_warshall(order, moved_edges)
    for solve, accept in (
        (solve_min_resolving, resolving_ok),
        (solve_min_doubly, doubly_ok),
        (solve_min_strong_direct, strong_ok),
        (solve_min_strong_vc, strong_ok),
    ):
        # the subset searches default to the pruned method
        before, after = solve(g), solve(moved)
        assert after.optimum == before.optimum
        assert accept(d_moved, sorted(perm[v] for v in before.witness))


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_doubly_search_on_twin_free_graphs_matches_brute(seed):
    """With no twins there is no mandatory member, so the search takes its
    first member itself and cuts with differences from the last pool vertex,
    which most of these witnesses leave out."""
    rng = random.Random(seed)
    while True:
        order, edges = random_connected_graph(rng, lo=9, hi=13)
        if all(len(c) == 1 for c in twin_classes_brute(order, edges)):
            break
    d = floyd_warshall(order, edges)
    want = brute_minimum(order, lambda s: doubly_ok(d, s), lo=2)
    result = solve_min_doubly(make_graph(order, edges))
    assert (result.optimum, result.witness) == want


@given(st.integers(0, 10**6), st.booleans())
@settings(max_examples=40, deadline=None)
def test_dense_keys_at_every_depth_keep_the_optimum_and_witness(seed, twins):
    # a bound of 0 renames every child's keys, which at the real bound only
    # searches dozens of members deep do; graphs this small search on pair
    # lanes unless the cap is moved below their order
    rng = random.Random(seed)
    order, edges = pendant_block_graph(rng, cliques=twins)
    g = make_graph(order, edges)
    d = floyd_warshall(order, edges)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "_PAIR_MAX_ORDER", 0)
        patch.setattr(solvers, "_DENSE_KEYS", 0)
        for kind, solver, accept, lo in (
            ("resolving", solve_min_resolving, resolving_ok, 1),
            ("doubly", solve_min_doubly, doubly_ok, 2),
        ):
            want = brute_minimum(order, lambda s: accept(d, s), lo=lo)
            result = solver(g)
            assert (result.optimum, result.witness) == want
            assert naive_search(g, kind)[0] == result.witness


@given(st.integers(0, 10**6), st.sampled_from(["random", "blocks", "cliques"]))
@settings(max_examples=40, deadline=None)
def test_pair_lanes_and_keys_search_the_same_nodes(seed, shape):
    """Up to _PAIR_MAX_ORDER a resolving or doubly node is one pair-lane
    int, and with the cap at 0 it is per-vertex keys. Both answer every
    test exactly, so each search returns the same witness after the same
    nodes: the naive search, the solve with twin-forced members and
    leaf-block counts (cliques), and drawn mandatory members, whose first
    anchors the doubly tables."""
    rng = random.Random(seed)
    if shape == "random":
        order, edges = random_connected_graph(rng, lo=4, hi=12)
    else:
        order, edges = pendant_block_graph(rng, cliques=shape == "cliques")
    g = make_graph(order, edges)
    dist = apsp(g)
    mandatory = tuple(sorted(rng.sample(range(order), rng.randint(1, 3))))

    def searches(cap):
        out = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solvers, "_PAIR_MAX_ORDER", cap)
            for kind, solver in (("resolving", solve_min_resolving), ("doubly", solve_min_doubly)):
                out.append(naive_search(g, kind, dist=dist))
                result = solver(g, dist=dist)
                out.append((result.witness, result.stats.subsets_examined))
                ticker = solvers.Ticker(Budget())
                found = solvers._lex_search(dist, kind, mandatory, (), ticker)
                out.append((found, ticker.examined))
        return out

    assert searches(solvers._PAIR_MAX_ORDER) == searches(0)
