import copy
import hashlib
import io
import random
import sys
from array import array

import pytest

from resolvekit import (
    DIMACS,
    EDGE_LIST,
    DisconnectedGraphError,
    DistanceMatrix,
    FormatError,
    MmdGraph,
    apsp,
    bfs_distances,
    build_ccc,
    build_cycle,
    build_lcg,
    ccc_order,
    is_connected,
    is_doubly_resolving,
    is_resolving,
    is_strong_resolving,
    make_graph,
    mmd_pairs,
    read_graph,
    solve_min_doubly,
    solve_min_resolving,
    solve_min_strong_direct,
    write_graph,
)
from resolvekit import graphs, resolving

from oracles import (
    cut_vertices_brute,
    doubly_ok,
    floyd_warshall,
    leaf_blocks_brute,
    lollipop_edges,
    mmd_pairs_brute,
    packed,
    random_connected_graph,
    resolving_ok,
    shortest_path_by_enumeration,
)


def test_make_graph_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        make_graph(3, [(0, 0)])


def test_make_graph_rejects_duplicate_edge():
    with pytest.raises(ValueError, match="duplicate"):
        make_graph(3, [(0, 1), (1, 0)])


def test_make_graph_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        make_graph(3, [(0, 3)])


def test_adjacency_is_sorted_and_symmetric():
    g = make_graph(4, [(2, 0), (3, 1), (0, 1)])
    assert g.adjacency == ((1, 2), (0, 3), (0,), (1,))
    for u in range(g.order):
        for v in g.neighbors(u):
            assert u in g.neighbors(v)


def test_graph_is_immutable():
    g = make_graph(2, [(0, 1)])
    with pytest.raises(AttributeError):
        g.order = 5


def test_bfs_path_graph():
    g = make_graph(3, [(0, 1), (1, 2)])
    assert bfs_distances(g, 0) == [0, 1, 2]


def test_bfs_source_distance_zero():
    rng = random.Random(7)
    for _ in range(10):
        order, edges = random_connected_graph(rng)
        g = make_graph(order, edges)
        src = rng.randrange(order)
        assert bfs_distances(g, src)[src] == 0


def test_bfs_source_out_of_range():
    g = make_graph(2, [(0, 1)])
    with pytest.raises(ValueError, match="out of range"):
        bfs_distances(g, 2)


def test_bfs_marks_unreachable():
    g = make_graph(3, [(0, 1)])
    assert bfs_distances(g, 0) == [0, 1, -1]


def test_cube_distance_by_path_enumeration(cube, cube_dist):
    # vertex "1" to vertex "7" (ids 0 and 6) over the 12-edge unit
    edges = list(cube.edges())
    assert shortest_path_by_enumeration(cube.order, edges, 0, 6) == 3
    assert cube_dist[0][6] == 3


def test_apsp_cycle_c4():
    d = apsp(build_cycle(4))
    assert d.diameter() == 2


def test_apsp_cube_distance_three_pairs(cube_dist):
    far = [
        (u, v)
        for u in range(8)
        for v in range(u + 1, 8)
        if cube_dist[u][v] == 3
    ]
    assert cube_dist.diameter() == 3
    # the four antipodal pairs, 0-based ids for label positions (1,7),(2,8),(3,5),(4,6)
    assert far == [(0, 6), (1, 7), (2, 4), (3, 5)]


def test_apsp_lcg32_layer1_eccentricity(lcg32, lcg32_dist):
    # BFS oracle value: a layer-1 vertex reaches everything within 3 hops
    d_oracle = floyd_warshall(lcg32.order, list(lcg32.edges()))
    assert max(d_oracle[0]) == 3
    assert lcg32_dist.eccentricity(0) == 3


def test_apsp_matches_floyd_warshall_on_random_graphs():
    rng = random.Random(11)
    for _ in range(15):
        order, edges = random_connected_graph(rng)
        g = make_graph(order, edges)
        d = apsp(g)
        assert [list(row) for row in d.rows] == floyd_warshall(order, edges)


def test_apsp_rows_equal_bfs(lcg32):
    d = apsp(lcg32)
    for src in range(lcg32.order):
        assert list(d[src]) == bfs_distances(lcg32, src)


def test_apsp_rejects_disconnected():
    g = make_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError, match="no path between 0 and 2"):
        apsp(g)
    assert not is_connected(g)


def test_apsp_disconnected_pair_is_first_unreached_from_0():
    # the pair a BFS from every source in id order would report first
    rng = random.Random(5)
    for _ in range(30):
        order = rng.randint(2, 12)
        edges = [(u, v) for u in range(order) for v in range(u + 1, order) if rng.random() < 0.2]
        g = make_graph(order, edges)
        if is_connected(g):
            continue
        rows = [bfs_distances(g, src) for src in range(order)]
        expected = next((src, row.index(-1)) for src, row in enumerate(rows) if -1 in row)
        with pytest.raises(DisconnectedGraphError) as info:
            apsp(g)
        assert info.value.pair == expected


def test_apsp_order_0_and_1():
    assert apsp(make_graph(0, [])).rows == ()
    d = apsp(make_graph(1, []))
    assert [list(row) for row in d.rows] == [[0]]
    assert d.diameter() == 0


def test_apsp_family_rows_are_bytes(lcg32, ccc2_dist):
    for d in (apsp(lcg32), ccc2_dist):
        assert all(type(row) is bytes for row in d.rows)


def path_graph(order, middle=None):
    """Path on order vertices; with middle, vertex 0 sits at that position."""
    ids = list(range(1, order))
    ids.insert(middle or 0, 0)
    return make_graph(order, list(zip(ids, ids[1:])))


@pytest.mark.parametrize(
    "order, middle, row_type",
    [
        (128, None, bytes),
        (129, None, bytes),
        (300, None, array),
        (200, 100, bytes),
        (300, 150, array),
    ],
)
def test_apsp_byte_lanes_only_when_2_ecc0_below_256(order, middle, row_type):
    # ecc(0) is 127, 128, 299, 100 and 150: ball growth below 2 * ecc(0) =
    # 256, one BFS per source from there on; the BFS rows narrow to bytes
    # when the diameter fits a byte, as the 129-path's 128 does
    g = path_graph(order, middle)
    d = apsp(g)
    assert all(type(row) is row_type for row in d.rows)
    assert d.width == (1 if row_type is bytes else 2)
    assert d.diameter() == order - 1
    for src in range(order):
        assert list(d[src]) == bfs_distances(g, src)


@pytest.mark.parametrize("order", [1, 128, 200, 300])
def test_diameter_is_the_largest_entry_on_paths(order):
    # numbered from the middle outward, every row's eccentricity passes the
    # last one's, so the running maximum over bytes rows rises at each row;
    # distances past 254 fit only array rows
    pos = [(v + 1) // 2 * (-1) ** v for v in range(order)]
    rows = [tuple(abs(p - q) for q in pos) for p in pos]
    want = max(map(max, rows))
    for width in (1, 2) if want < 255 else (2,):
        assert DistanceMatrix(order, packed(rows, width)).diameter() == want
    assert apsp(path_graph(order)).diameter() == order - 1


@pytest.mark.parametrize("seed", range(20))
def test_diameter_is_the_largest_entry_on_random_graphs(seed):
    d = apsp(make_graph(*random_connected_graph(random.Random(seed), lo=1, hi=40)))
    want = max(map(max, d.rows))
    for rows in (d.rows, packed(d.rows, 2)):
        assert DistanceMatrix(d.order, rows).diameter() == want


@pytest.mark.parametrize("diameter", [1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64, 127, 128, 254])
def test_apsp_every_plane_count_equals_bfs(diameter):
    # vertex 0 in the middle keeps 2 * ecc(0) below 256, so these rows come
    # from the bit planes; the diameters straddle each new plane, up to the
    # eighth
    order = diameter + 1
    g = path_graph(order, order // 2)
    d = apsp(g)
    assert all(type(row) is bytes for row in d.rows)
    assert d.diameter() == diameter
    for src in range(order):
        assert list(d[src]) == bfs_distances(g, src)


@pytest.mark.parametrize(
    "build, digest",
    [
        # 3,656 vertices. Peeled, two rounds leave a core of 72, one
        # transpose block; with the floor above the order, the ball path
        # transposes 12 blocks of 286 sources and a partial 13th
        (
            lambda: build_ccc(4),
            "31e0146dd4b848ef3f63fcb2758ce3261e2fddee4eea786160f558444505adbf",
        ),
        # 1,122 vertices. Peeled, one round leaves a core of 222, one block;
        # unpeeled, blocks of 929 and 193 sources
        (
            lambda: build_lcg(6, 4),
            "3435d57d4db88197b64e8fe28e7629da12fcd4b3ec680f9c2d433626b2206c85",
        ),
    ],
)
def test_apsp_golden_row_digests(build, digest, monkeypatch):
    g = build()
    for floor in (graphs._PEEL_MIN_ORDER, g.order + 1):
        monkeypatch.setattr(graphs, "_PEEL_MIN_ORDER", floor)
        d = apsp(g)
        assert all(type(row) is bytes for row in d.rows)
        sha = hashlib.sha256()
        for row in d.rows:
            sha.update(bytes(row))
        assert sha.hexdigest() == digest


def _cycle_edges(cut, first, length):
    """A cycle through cut and the new ids first .. first + length - 2."""
    ids = [cut] + list(range(first, first + length - 1))
    return list(zip(ids, ids[1:] + ids[:1]))


def _circulant_with_a_pendant_edge(n, s):
    """C_n(1, s) on ids 0 .. n - 1 and the edge (0, n)."""
    edges = {(min(i, (i + t) % n), max(i, (i + t) % n)) for i in range(n) for t in (1, s)}
    return sorted(edges | {(0, n)})


_PATH_ON_A_CYCLE = _cycle_edges(4, 0, 5) + [(4, 5), (5, 6)]
_BRIDGED_CYCLES = _cycle_edges(0, 1, 4) + _cycle_edges(4, 5, 4) + [(0, 4)]
_PENDANT_CYCLE = _cycle_edges(0, 1, 5) + [(0, 5)]


@pytest.mark.parametrize(
    "order, edges, pieces",
    [
        (7, _PATH_ON_A_CYCLE, [((0, 1, 2, 3, 4), 4), ((4, 5, 6), 4)]),
        # two cycles whose cut vertices are the two ends of one bridge: the
        # cycle the DFS closes first takes the bridge, and the other peels
        # alone at the bridge's far end
        (8, _BRIDGED_CYCLES, [((0, 1, 2, 3, 4), 4), ((4, 5, 6, 7), 4)]),
        # a bridge whose far end lies in that bridge alone is a leaf block
        # itself: the cycle peels without it
        (6, _PENDANT_CYCLE, [((0, 1, 2, 3, 4), 0), ((0, 5), 0)]),
        # the circulant of the CI step, C_6000(1, 89), with its pendant edge
        (6001, _circulant_with_a_pendant_edge(6000, 89), [(tuple(range(6000)), 0), ((0, 6000), 0)]),
    ],
    ids=["path-on-a-cycle", "bridged-cycles", "pendant-cycle", "circulant6000"],
)
def test_a_leaf_block_takes_its_bridge_into_one_piece(monkeypatch, order, edges, pieces):
    # a leaf block B whose cut vertex h lies only in B and a bridge hp, with
    # p in two blocks or more, peels with the bridge, cut at p
    g = make_graph(order, sorted((min(u, v), max(u, v)) for u, v in edges))
    monkeypatch.setattr(graphs, "_PEEL_MIN_ORDER", 0)
    (peeled,) = graphs._peel(g)
    assert sorted((tuple(sorted(piece)), h) for piece, h in peeled) == pieces


@pytest.mark.parametrize(
    "order, edges, rounds, core",
    [
        # three cycles on vertex 0: every block is a leaf, and one round
        # leaves a core of that vertex alone
        (10, _cycle_edges(0, 1, 3) + _cycle_edges(0, 3, 4) + _cycle_edges(0, 6, 5), 1, 1),
        # two blocks sharing vertex 4, both leaves of it
        (7, _cycle_edges(4, 0, 5) + _cycle_edges(4, 5, 3), 1, 1),
        # a path of two edges on the same cycle: the far edge takes the
        # near one into a piece cut at vertex 4, the cycle peels off the
        # same vertex, and vertex 4 alone is the core
        (7, _PATH_ON_A_CYCLE, 1, 1),
        # a 2-connected graph has no leaf block and takes no round
        (6, _cycle_edges(0, 1, 6) + [(0, 3), (1, 4)], 0, 6),
        # the other cases of test_a_leaf_block_takes_its_bridge_into_one_piece,
        # with a circulant C_12(1, 5) for the CI step's C_6000(1, 89)
        (8, _BRIDGED_CYCLES, 1, 1),
        (6, _PENDANT_CYCLE, 1, 1),
        (13, _circulant_with_a_pendant_edge(12, 5), 1, 1),
    ],
)
def test_peeled_apsp_on_fixed_block_trees(monkeypatch, order, edges, rounds, core):
    edges = [(min(u, v), max(u, v)) for u, v in edges]
    g = make_graph(order, edges)
    monkeypatch.setattr(graphs, "_PEEL_MIN_ORDER", 0)
    peeled = graphs._peel(g)
    assert len(peeled) == rounds
    assert order - sum(len(block) - 1 for leaves in peeled for block, _ in leaves) == core
    rows = apsp(g).rows
    assert [list(row) for row in rows] == floyd_warshall(order, edges)
    monkeypatch.setattr(graphs, "_PEEL_MIN_ORDER", order + 1)
    assert apsp(g).rows == rows


@pytest.mark.parametrize("n, rounds", [(2, 1), (3, 2)])
def test_peeled_apsp_on_ccc_down_to_one_cube(monkeypatch, n, rounds):
    # with no floor, each round peels the outermost cubes with the edges
    # that hold them, pieces of 9 vertices, until one cube of 8 is left
    g = build_ccc(n)
    monkeypatch.setattr(graphs, "_PEEL_MIN_ORDER", 0)
    peeled = graphs._peel(g)
    assert len(peeled) == rounds
    assert all(len(piece) == 9 for pieces in peeled for piece, _ in pieces)
    assert g.order - sum(len(block) - 1 for leaves in peeled for block, _ in leaves) == 8
    rows = apsp(g).rows
    monkeypatch.setattr(graphs, "_PEEL_MIN_ORDER", g.order + 1)
    assert apsp(g).rows == rows
    assert [list(row) for row in rows] == floyd_warshall(g.order, list(g.edges()))


def test_a_peeled_apsp_leaves_the_shared_block_tree_as_it_found_it(monkeypatch):
    # every apsp of g peels off g.block_tree; one that took the peeled
    # blocks off the shared counts would leave the next apsp, and the
    # solvers, a tree of fewer blocks
    g = build_ccc(3)
    before = copy.deepcopy(g.block_tree)
    monkeypatch.setattr(graphs, "_PEEL_MIN_ORDER", 0)
    rows = apsp(g).rows
    assert apsp(g).rows == rows
    assert g.block_tree == before
    assert g.block_tree.leaves == before.leaves


def _two_chorded_blocks():
    """Two 300-vertex blocks on vertex 0, a cycle with chords every 10 steps
    each, the other ids shuffled; also the shuffled ids."""
    rng = random.Random(3)
    ids = list(range(1, 599))
    rng.shuffle(ids)
    edges = []
    for half in (ids[:299], ids[299:]):
        ring = [0] + half
        edges += [(ring[i], ring[(i + 1) % 300]) for i in range(300)]
        edges += [(ring[i], ring[i + 10]) for i in range(0, 290, 10)]
    return make_graph(599, [(min(u, v), max(u, v)) for u, v in edges]), ids


def _relabelled(g, seed):
    """g with its ids shuffled, so each block's columns lie scattered."""
    ids = list(range(g.order))
    random.Random(seed).shuffle(ids)
    return make_graph(g.order, [(min(ids[u], ids[v]), max(ids[u], ids[v])) for u, v in g.edges()])


def test_peeled_apsp_on_blocks_of_more_than_256_vertices(monkeypatch):
    # both blocks peel in one round, and each block's own columns are
    # written over rows of 599 bytes, scattered by the shuffled ids
    g, ids = _two_chorded_blocks()
    (leaves,) = graphs._peel(g)
    assert sorted(len(block) for block, _ in leaves) == [300, 300]
    rows = apsp(g).rows
    assert all(type(row) is bytes for row in rows)
    for src in (0, ids[0], ids[298], ids[299], ids[-1]):
        assert list(rows[src]) == bfs_distances(g, src)
    monkeypatch.setattr(graphs, "_PEEL_MIN_ORDER", g.order + 1)
    assert apsp(g).rows == rows


@pytest.mark.parametrize("block_bytes", [graphs._BLOCK_BYTES, 64])
@pytest.mark.parametrize(
    "build",
    [
        lambda: _relabelled(build_ccc(3), 5),
        lambda: _relabelled(build_lcg(5, 3), 6),
        lambda: _two_chorded_blocks()[0],
        lambda: build_lcg(6, 4),
    ],
    ids=["ccc3-relabelled", "lcg5,3-relabelled", "300+300-shuffled", "lcg6,4"],
)
def test_peeled_apsp_stacks_block_rows_in_chunks(monkeypatch, build, block_bytes):
    # with no floor every round peels; at 64 bytes each block's rows are
    # stacked one per chunk, so every block of two vertices or more spans
    # several chunks
    g = build()
    monkeypatch.setattr(graphs, "_PEEL_MIN_ORDER", g.order + 1)
    grown = apsp(g).rows
    monkeypatch.setattr(graphs, "_PEEL_MIN_ORDER", 0)
    monkeypatch.setattr(graphs, "_BLOCK_BYTES", block_bytes)
    assert graphs._peel(g)
    assert apsp(g).rows == grown


def test_the_floor_keeps_small_graphs_on_the_ball_path():
    # lcg 6,3 (222 vertices) is below the floor; ccc 3 (520) peels one
    # round of 56 cubes, each with the edge that holds it, which leaves 72
    # vertices, below it
    assert graphs._peel(build_lcg(6, 3)) == []
    peeled = graphs._peel(build_ccc(3))
    assert [len(leaves) for leaves in peeled] == [56]
    assert all(len(block) == 9 for block, _ in peeled[0])


def test_a_raising_check_stops_the_peeled_path_within_one_round(monkeypatch):
    # spy on the blocks rebuilt between checks, one stack of block rows each:
    # a block of at most 8 vertices is one chunk, and the stack is the only
    # bytearray made empty. Each block is rebuilt right after a check, so
    # once the last check has passed at most one block is left to rebuild.
    # ccc 3 peels one round of 56 cubes; ccc 4 peels two, the outermost of
    # 392 cubes holding most of apsp's work; each cube peels with its edge.
    # A check that raises at call k stops apsp there; each k costs an apsp
    # up to that call, so on ccc 4 k runs over a stride of the calls and the
    # last one.
    events = []

    def stack(*args):
        if not args:
            events.append("block")
        return bytearray(*args)

    monkeypatch.setattr(graphs, "bytearray", stack, raising=False)
    for n, rounds, stride in ((3, [56], 1), (4, [392, 56], 61)):
        g = build_ccc(n)
        peeled = graphs._peel(g)
        assert [len(leaves) for leaves in peeled] == rounds
        events.clear()
        apsp(g, check=lambda: events.append("check"))
        checks = events.count("check")
        assert all(events[i - 1] == "check" for i, event in enumerate(events) if event == "block")
        assert events.count("block") == sum(rounds)
        assert events[-2:] == ["check", "block"]

        for stop in [*range(1, checks, stride), checks]:
            events.clear()

            def check():
                events.append("check")
                if events.count("check") == stop:
                    raise _Stop

            with pytest.raises(_Stop):
                apsp(g, check=check)
            assert events.count("check") == stop
            assert events[-1] == "check"


def test_a_peeled_apsp_reads_check_every_stride_of_columns(monkeypatch):
    # spy on the columns joined and rows sliced between two checks, one item
    # drawn from _checked each; ccc 4's outermost round joins 3,656 columns,
    # so the join itself must check
    gaps = [0]
    checked = graphs._checked

    def counted(items, check):
        for item in checked(items, check):
            gaps[-1] += 1
            yield item

    monkeypatch.setattr(graphs, "_checked", counted)
    g = build_ccc(4)
    apsp(g, check=lambda: gaps.append(0))
    assert max(gaps) <= graphs._CHECK_STRIDE
    assert sum(gaps) > g.order


def test_a_peeled_apsp_shifts_each_row_once_per_offset(monkeypatch):
    # ccc 4 peels 392 and then 56 pieces of a cube and its edge, whose
    # vertices lie at 1 to 4 from the cut vertex: the join shifts the cut
    # vertex's inner row once per (row, offset) and the stack its new row
    # once per offset, 4 + 4 translates a piece, not 8 + 8
    shifts = []
    shift = graphs.shift_row

    def counted(row, d, tables):
        shifts.append(d)
        return shift(row, d, tables)

    monkeypatch.setattr(graphs, "shift_row", counted)
    apsp(build_ccc(4))
    assert sum(1 for d in shifts if d) == 2 * 4 * (392 + 56)


@pytest.mark.parametrize("order", [1, 2, 3, 50, 255])
def test_apsp_checks_once_per_level_on_a_rooted_path(order):
    # the ends of a path rooted in the middle fill their balls last, after
    # order - 1 levels
    calls = []
    d = apsp(path_graph(order, order // 2), check=lambda: calls.append(1))
    assert all(type(row) is bytes for row in d.rows)
    assert len(calls) == order - 1 == d.diameter()


def test_wide_rows_hold_about_two_bytes_per_entry():
    # a 1,500-vertex path has diameter 1,499, so each BFS row is packed into
    # 2-byte lanes as it finishes: about 2 bytes per entry and one array
    # header per row, not a pointer and an int object per entry
    order = 1500
    d = apsp(path_graph(order))
    assert d.width == 2
    header = sys.getsizeof(array("H"))
    assert sum(sys.getsizeof(row) for row in d.rows) <= order * (2 * order + header)


def test_apsp_checks_once_per_source_on_the_bfs_branch():
    calls = []
    d = apsp(path_graph(300), check=lambda: calls.append(1))
    assert all(type(row) is array for row in d.rows)
    assert len(calls) == 300


class _Stop(Exception):
    pass


@pytest.mark.parametrize("order, middle", [(200, 100), (300, None)])
def test_apsp_check_that_raises_stops_it(order, middle):
    calls = []

    def check():
        calls.append(1)
        if len(calls) == 3:
            raise _Stop

    with pytest.raises(_Stop):
        apsp(path_graph(order, middle), check=check)
    assert len(calls) == 3


def test_wide_distance_answers():
    path = path_graph(300)
    d = apsp(path)
    assert is_strong_resolving(d, [0]) and is_strong_resolving(d, [299])
    assert not is_strong_resolving(d, [150])
    assert mmd_pairs(path, d).edges == ((0, 299),)
    assert solve_min_resolving(path, "pruned", dist=d).witness == (0,)
    assert solve_min_doubly(path, "pruned", dist=d).witness == (0, 299)
    assert solve_min_strong_direct(path, "pruned", dist=d).witness == (0,)


@pytest.mark.parametrize("order, middle, row_type", [(200, 100, bytes), (300, None, array)])
def test_verifiers_on_long_paths(order, middle, row_type):
    # on the 200-path the doubly differences span [-199, 199], wider than a
    # byte: lanes of 128 + diff or diff mod 256 would merge the two ends'
    # positions 0 and 128 and refute the end pair
    g = path_graph(order, middle)
    d = apsp(g)
    assert all(type(row) is row_type for row in d.rows)
    ids = list(range(1, order))
    ids.insert(middle or 0, 0)
    position = {v: i for i, v in enumerate(ids)}
    d_oracle = [[abs(position[u] - position[v]) for v in range(order)] for u in range(order)]
    ends = (ids[0], ids[-1])
    assert is_doubly_resolving(d, ends) and is_doubly_resolving(d, ends[::-1])
    rng = random.Random(order)
    # (ids[1], 0) on the 200-path: only z0 has a distance of 128 or more
    sets = [ends, (ids[1],), (0,), (0, ids[1]), (ids[1], 0), (ids[3], 0, ids[-2])]
    sets += [tuple(rng.sample(range(order), rng.randint(2, 4))) for _ in range(6)]
    for members in sets:
        assert is_resolving(d, members) == resolving_ok(d_oracle, members)
        if len(members) >= 2:
            assert is_doubly_resolving(d, members) == doubly_ok(d_oracle, members)


def test_doubly_translates_byte_rows_below_128_and_widens_the_rest(monkeypatch, lcg42):
    # byte rows below 128, z0's included, are translated by -d(x, z0) per
    # record; any other byte row takes columns of 128 + d(u, z) - d(u, z0),
    # widened by a byte. On a metric z0's row could be skipped
    # (|d(u, z) - d(u, z0)| <= d(z, z0)), but the verdict would then rest on
    # the triangle inequality, which DistanceMatrix does not check
    calls = []
    shift, distinct_records = resolving.shift_row, resolving._distinct_records

    def spy_shift(row, d, tables):
        calls.append("translate")
        return shift(row, d, tables)

    def spy_records(order, columns, lane):
        calls.append(lane)
        return distinct_records(order, columns, lane)

    monkeypatch.setattr(resolving, "shift_row", spy_shift)
    monkeypatch.setattr(resolving, "_distinct_records", spy_records)
    ids = list(range(1, 200))
    ids.insert(100, 0)
    position = {v: i for i, v in enumerate(ids)}
    path = apsp(path_graph(200, 100))
    path_oracle = [[abs(position[u] - position[v]) for v in range(200)] for u in range(200)]
    lcg = apsp(lcg42)
    lcg_oracle = [list(row) for row in lcg.rows]
    # ids[1] sits at position 1 (eccentricity 198), 0 at 100 and ids[90] at 90
    cases = [(path, path_oracle, (0, ids[90]), True), (lcg, lcg_oracle, (0, 5, 9), True)]
    cases += [(path, path_oracle, (ids[1], 0), False), (path, path_oracle, (0, ids[1]), False)]
    for d, oracle, members, translated in cases:
        calls.clear()
        assert is_doubly_resolving(d, members) == doubly_ok(oracle, members)
        if translated:
            assert calls and set(calls) == {"translate"}
        else:
            assert calls == [2]


@pytest.mark.parametrize("builder", [build_cycle, lambda n: build_lcg(n, 2)])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_distance_axioms_small_instances(builder, n):
    g = builder(n)
    d = apsp(g)
    for u in range(g.order):
        assert d[u][u] == 0
        for v in range(g.order):
            assert d[u][v] == d[v][u]
            assert (d[u][v] == 1) == (v in g.neighbors(u))
    for u in range(g.order):
        for v in range(g.order):
            for w in range(g.order):
                assert d[u][w] <= d[u][v] + d[v][w]


# ------------------------------------------------------------------- I/O


def test_read_edge_list_triangle():
    g = read_graph("p 3 3\n0 1\n1 2\n0 2\n")
    assert g.order == 3
    assert list(g.edges()) == [(0, 1), (0, 2), (1, 2)]


def test_write_cube_unit(cube):
    text = write_graph(cube)
    lines = text.splitlines()
    assert lines[0] == "p 8 12"
    assert len(lines) == 13
    for line in lines[1:]:
        u, v = map(int, line.split())
        assert u < v


def test_duplicate_edge_line_rejected():
    with pytest.raises(FormatError, match="line 3: duplicate edge"):
        read_graph("p 3 3\n0 1\n1 0\n1 2\n")


def test_dimacs_edge_errors_count_comment_lines():
    # make_graph rejects the repeated edge; its line counts the comment
    with pytest.raises(FormatError, match="line 4: duplicate edge \\(0, 1\\)"):
        read_graph("p edge 3 2\ne 1 2\nc note\ne 2 1\n", DIMACS)


def test_read_errors_carry_line_numbers():
    with pytest.raises(FormatError, match="line 2: .*self-loop"):
        read_graph("p 3 1\n1 1\n")
    with pytest.raises(FormatError, match="line 1: edge before header"):
        read_graph("0 1\np 3 1\n")
    with pytest.raises(FormatError, match="line 2: .*out of range"):
        read_graph("p 2 1\n0 5\n")
    with pytest.raises(FormatError, match="declares 2 edges, found 1"):
        read_graph("p 3 2\n0 1\n")
    with pytest.raises(FormatError, match="missing header"):
        read_graph("\n\n")
    with pytest.raises(FormatError, match="expected integer"):
        read_graph("p 3 x\n")
    for text, fmt, message in (
        ("p -5 0\n", EDGE_LIST, "line 1: negative order -5"),
        ("p -1 0\np 3 0\n", EDGE_LIST, "line 1: negative order -1"),
        ("p 3 -1\n", EDGE_LIST, "line 1: negative edge count -1"),
        ("p edge -2 0\n", DIMACS, "line 1: negative order -2"),
        ("c note\np edge 3 -4\n", DIMACS, "line 2: negative edge count -4"),
        ("p 3 1\np 3 1\n0 1\n", EDGE_LIST, "line 2: duplicate header line"),
        ("p edge 3 1\ne 1 2\np edge 3 1\n", DIMACS, "line 3: duplicate header line"),
        ("p 3 1\n0 1 2\n", EDGE_LIST, "line 2: malformed edge line '0 1 2'"),
        ("p 3 1\n0\n", EDGE_LIST, "line 2: malformed edge line '0'"),
        ("p edge 3 1\nc note\ne 1\n", DIMACS, "line 3: malformed edge line 'e 1'"),
        ("p edge 3 1\ne 1 2 3\n", DIMACS, "line 2: malformed edge line 'e 1 2 3'"),
        ("p edge 3 1\n1 2\n", DIMACS, "line 2: malformed edge line '1 2'"),
        ("p edge 3 1\nx 1 2\n", DIMACS, "line 2: malformed edge line 'x 1 2'"),
        ("p edge 3\n", DIMACS, "line 1: malformed header 'p edge 3'"),
        ("p graph 3 0\n", DIMACS, "line 1: malformed header 'p graph 3 0'"),
        ("p 3 1 1\n", EDGE_LIST, "line 1: malformed header 'p 3 1 1'"),
        ("p 3 1\n0 x\n", EDGE_LIST, "line 2: expected integer vertex"),
    ):
        with pytest.raises(FormatError, match=message):
            read_graph(text, fmt)


def test_read_graph_takes_a_stream():
    text = "p 3 2\n0 1\n1 2\n"
    assert read_graph(io.StringIO(text)) == read_graph(text)
    with pytest.raises(FormatError, match="line 3: duplicate header line"):
        read_graph(io.StringIO("p 3 1\n0 1\np 3 1\n"))


def test_read_graph_order_limit_admits_ccc7():
    assert graphs.MAX_ORDER >= ccc_order(7) == 1_254_920
    limit = graphs.MAX_ORDER
    with pytest.raises(FormatError, match=f"line 1: order {limit + 1} exceeds the limit {limit}"):
        read_graph(f"p {limit + 1} 0\n")


def test_unknown_format_rejected():
    g = make_graph(2, [(0, 1)])
    with pytest.raises(ValueError, match="unknown graph format"):
        write_graph(g, "gml")
    with pytest.raises(ValueError, match="unknown graph format"):
        read_graph("p 2 1\n0 1\n", "gml")


def test_dimacs_round_trip_and_comments():
    g = make_graph(3, [(0, 1), (1, 2)])
    text = write_graph(g, DIMACS)
    assert text.splitlines()[0] == "p edge 3 2"
    again = read_graph("c a comment\n" + text, DIMACS)
    assert again.adjacency == g.adjacency


def test_round_trip_identity_on_random_graphs():
    rng = random.Random(23)
    for _ in range(50):
        order, edges = random_connected_graph(rng, lo=2, hi=12)
        g = make_graph(order, edges)
        for fmt in (EDGE_LIST, DIMACS):
            again = read_graph(write_graph(g, fmt), fmt)
            assert again.order == g.order
            assert list(again.edges()) == list(g.edges())


@pytest.mark.parametrize("order, middle, row_type", [(255, 127, bytes), (300, None, array)])
def test_mmd_pairs_on_long_caterpillars(order, middle, row_type):
    # the 255-path rooted in the middle has diameter 254, so lanes of
    # A_w + ones reach 255, the most a byte holds; leaves hung on inner path
    # vertices keep that diameter and add MMD pairs at many distances
    ids = list(range(1, order))
    ids.insert(middle or 0, 0)
    rng = random.Random(order)
    hung = sorted(rng.sample(range(1, order - 1), 12))
    edges = list(zip(ids, ids[1:])) + [(ids[p], order + i) for i, p in enumerate(hung)]
    g = make_graph(order + len(hung), edges)
    d = apsp(g)
    assert all(type(row) is row_type for row in d.rows)
    position = {v: i for i, v in enumerate(ids)}
    position.update({order + i: p for i, p in enumerate(hung)})
    leaf = [0] * order + [1] * len(hung)
    d_oracle = [
        [abs(position[x] - position[y]) + (leaf[x] + leaf[y] if x != y else 0) for y in range(g.order)]
        for x in range(g.order)
    ]
    assert d.diameter() == max(map(max, d_oracle))
    assert list(mmd_pairs(g, d).edges) == mmd_pairs_brute(g.order, edges, d_oracle)


def test_lanes_at_widths_1_2_4():
    # the width is the rows' item size, and array rows give their own items
    # as little-endian lanes on every host
    for rows, width in (
        (((0, 1, 254), (1, 0, 2), (254, 2, 0)), 1),
        (((0, 255), (255, 0)), 2),
        (((0, 65534), (65534, 0)), 2),
        (((0, 1, 70000), (1, 0, 69999), (70000, 69999, 0)), 4),
    ):
        d = DistanceMatrix(len(rows), packed(rows, width))
        assert d.width == width
        assert d.lanes == tuple(
            b"".join(x.to_bytes(width, "little") for x in row) for row in rows
        )
    d = DistanceMatrix(2, packed(((0, 70000), (70000, 0)), 4))
    assert d.lanes[0] == bytes(4) + b"\x70\x11\x01\x00"
    byte_rows = DistanceMatrix(3, packed(((0, 1, 254), (1, 0, 2), (254, 2, 0)), 1))
    assert byte_rows.lanes[0] is byte_rows.rows[0]


def test_lanes_of_a_big_endian_host(monkeypatch):
    # a big-endian host byte-swaps a copy, so its lanes are the same bytes;
    # a little-endian host plays one by swapping the items and the flag
    d = DistanceMatrix(2, packed(((0, 258), (258, 0)), 2))
    if sys.byteorder == "little":
        for row in d.rows:
            row.byteswap()
        monkeypatch.setattr(sys, "byteorder", "big")
    assert d.lanes == (b"\x00\x00\x02\x01", b"\x02\x01\x00\x00")


def test_distance_matrix_takes_bytes_or_one_unsigned_array_type():
    # tuple rows, signed or byte arrays, and mixed rows are all refused
    for rows in (
        ((0, 1), (1, 0)),
        (bytearray(b"\x00\x01"), bytearray(b"\x01\x00")),
        (array("h", [0, 1]), array("h", [1, 0])),
        (array("B", [0, 1]), array("B", [1, 0])),
        (b"\x00\x01", array("H", [1, 0])),
        (array("H", [0, 1]), array("I", [1, 0])),
    ):
        with pytest.raises(TypeError, match="distance rows"):
            DistanceMatrix(2, rows)


@pytest.mark.parametrize("width", [2, 4, 8])
def test_distance_matrix_rejects_an_array_lane_with_no_headroom(width):
    top = (1 << 8 * width) - 1
    with pytest.raises(ValueError, match="no room"):
        DistanceMatrix(2, packed(((0, top), (top, 0)), width))
    # lanes top - 255 and 255 hold width all-ones bytes across the two of
    # them, which is no full lane
    spans = (0, top - 1, top - 255, 255)
    assert DistanceMatrix(4, packed((spans,) * 4, width)).width == width


def test_order_0_and_1_lanes_and_predicates():
    empty = make_graph(0, [])
    for d in (apsp(empty), DistanceMatrix(0, ())):
        assert (d.width, d.lanes) == (1, ())
    assert mmd_pairs(empty) == MmdGraph(order=0, edges=())
    one = make_graph(1, [])
    for d in (apsp(one), DistanceMatrix(1, (b"\x00",))):
        assert (d.width, d.lanes) == (1, (b"\x00",))
        assert mmd_pairs(one, d) == MmdGraph(order=1, edges=())
        assert is_resolving(d, [0]) and is_strong_resolving(d, [0])


@pytest.mark.parametrize(
    "top, width", [(254, 1), (65534, 2), ((1 << 32) - 2, 4), ((1 << 64) - 2, 8)]
)
def test_doubly_differences_span_two_lanes(top, width):
    # points on a line, d(p, q) = |p - q|. With the ends as members the
    # differences d(u, top) - d(u, 0) = top - 2p span [-top, top], and the
    # points 0 and half differ by 256**width in them, so lanes only width
    # bytes wide would merge the two and refute the ends
    half = (top + 2) // 2
    pos = [0, 1, half, top - 1, top]
    rows = tuple(tuple(abs(p - q) for q in pos) for p in pos)
    d = DistanceMatrix(len(pos), packed(rows, width))
    assert d.width == width
    for members in ((0, 4), (4, 0), (0, 1), (2, 4), (1, 2, 3)):
        assert is_resolving(d, members) == resolving_ok(rows, members)
        assert is_doubly_resolving(d, members) == doubly_ok(rows, members)
    assert is_doubly_resolving(d, (0, 4))


def _byte_matrix_and_members(rng):
    """A symmetric byte matrix with a zero diagonal, seldom a metric, its
    entries below 128 or up to 254, and two or three members in shuffled
    order. Half the draws plant non-members x and y with d(x, z0) >= 129 and
    the other members' entries below 128, whose differences
    d(., z) - d(., z0) agree mod 256 but differ by 256."""
    order = rng.randint(5, 8)
    members = rng.sample(range(order), rng.randint(2, 3))
    cap = rng.choice((128, 255))
    rows = [[0] * order for _ in range(order)]
    for u in range(order):
        for v in range(u + 1, order):
            rows[u][v] = rows[v][u] = rng.randrange(cap)
    if rng.random() < 0.5:
        x, y = rng.sample([v for v in range(order) if v not in members], 2)
        z0 = members[0]
        a = rng.randrange(129, 255)
        b = rng.randrange(a - 128)
        gap = 256 - (a - b)
        rows[x][z0] = rows[z0][x] = a
        rows[y][z0] = rows[z0][y] = b
        for z in members[1:]:
            dy = rng.randrange(gap, 128)
            rows[y][z] = rows[z][y] = dy
            rows[x][z] = rows[z][x] = dy - gap
    return rows, members


@pytest.mark.parametrize("seed", range(4))
def test_verifiers_on_byte_matrices_that_are_not_metrics(seed):
    # both doubly routes meet the oracle: the translate on rows below 128,
    # and the widened columns once z0's row or another member's reaches 128
    rng = random.Random(seed)
    for _ in range(50):
        rows, members = _byte_matrix_and_members(rng)
        d = DistanceMatrix(len(rows), tuple(map(bytes, rows)))
        assert is_resolving(d, members) == resolving_ok(rows, members)
        assert is_doubly_resolving(d, members) == doubly_ok(rows, members)


@pytest.mark.parametrize("seed", range(5))
def test_distance_matrix_adjacency_is_read_once(seed):
    g = make_graph(*random_connected_graph(random.Random(seed), lo=4, hi=12))
    d = apsp(g)
    for rows in (d.rows, packed(d.rows, 2)):
        matrix = DistanceMatrix(d.order, rows)
        assert matrix.adjacency == g.adjacency
        assert matrix.adjacency is matrix.adjacency


# ------------------------------------------------------------ leaf blocks


def test_leaf_blocks_of_graphs_with_one_block_or_none():
    for g in (make_graph(0, []), make_graph(1, []), make_graph(2, [(0, 1)]), build_cycle(7)):
        assert g.block_tree.leaves == ()


def test_leaf_blocks_of_a_path_star_and_lollipop():
    path = make_graph(5, [(i, i + 1) for i in range(4)])
    assert path.block_tree.leaves == (((0, 1), 1), ((3, 4), 3))
    assert path.block_tree.count == (1, 2, 2, 2, 1)
    star = make_graph(5, [(0, i) for i in range(1, 5)])
    assert star.block_tree.leaves == tuple(((0, i), 0) for i in range(1, 5))
    assert star.block_tree.count == (4, 1, 1, 1, 1)
    # the cycle 0..3 hangs off vertex 3, the path's far end off vertex 8
    lollipop = make_graph(10, lollipop_edges(4, 6))
    assert lollipop.block_tree.leaves == (((0, 1, 2, 3), 3), ((8, 9), 8))


def test_leaf_blocks_do_not_recurse_on_a_long_path():
    path = make_graph(1500, [(i, i + 1) for i in range(1499)])
    assert path.block_tree.leaves == (((0, 1), 1), ((1498, 1499), 1498))


def test_leaf_blocks_match_brute_oracle_on_random_graphs():
    rng = random.Random(23)
    for _ in range(40):
        order, edges = random_connected_graph(rng, lo=2, hi=9)
        # keep few edges beyond order - 1: sparse graphs have many blocks,
        # and the draws this leaves disconnected are skipped
        edges = [e for i, e in enumerate(edges) if i < order - 1 or rng.random() < 0.3]
        g = make_graph(order, edges)
        if not is_connected(g):
            continue
        assert g.block_tree.leaves == leaf_blocks_brute(order, edges)
        cuts = {v for v, count in enumerate(g.block_tree.count) if count > 1}
        assert cuts == cut_vertices_brute(order, edges)
