import random

import pytest

from resolvekit import (
    DistanceMatrix,
    VertexLabel,
    apsp,
    build_cycle,
    build_lcg,
    doubly_resolves,
    id_of,
    is_doubly_resolving,
    is_resolving,
    is_strong_resolving,
    make_graph,
    mmd_graph,
    mmd_pairs,
    representation,
    strongly_resolves,
    twin_classes,
    twin_lower_bound,
)
from oracles import doubly_resolving_pairs, strong_ok

PATH3 = make_graph(3, [(0, 1), (1, 2)])
K3 = make_graph(3, [(0, 1), (0, 2), (1, 2)])
K4 = make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def unit_vertex(g, branch, position, layer=None, unit=1):
    layer = layer if layer is not None else max(l.layer for l in g.labels)
    return id_of(g, VertexLabel(layer, branch, unit, position))


# --------------------------------------------------------- representation


def test_representation_basic(lcg32, lcg32_dist):
    rep = representation(lcg32_dist, 0, (0, 1, 2))
    assert rep == (0, 1, 1)


def test_representation_member_coordinate_zero(cube_dist):
    rep = representation(cube_dist, 3, (5, 3, 0))
    assert rep[1] == 0


def test_representation_rejects_empty(cube_dist):
    with pytest.raises(ValueError, match="at least 1"):
        representation(cube_dist, 0, ())


def test_ccc2_proof_table_rows(ccc2, ccc2_dist):
    """The eight representation rows for Z = (pos2, pos4, x) of the first
    last-layer cube, where x ranges over every other position-2/4 vertex and
    c is its distance to the first cube's head. The third coordinate is the
    in-cube distance to the head plus c, whatever x is."""
    head = unit_vertex(ccc2, 1, 1)
    own = {unit_vertex(ccc2, 1, 2), unit_vertex(ccc2, 1, 4)}
    probes = [
        unit_vertex(ccc2, r, p) for p in (2, 4) for r in range(1, 9)
    ]
    checked = 0
    for x in probes:
        if x in own:
            continue
        z = (unit_vertex(ccc2, 1, 2), unit_vertex(ccc2, 1, 4), x)
        c = ccc2_dist[head][x]
        expected = {
            1: (1, 1, c),
            2: (0, 2, c + 1),
            3: (1, 1, c + 2),
            4: (2, 0, c + 1),
            5: (2, 2, c + 1),
            6: (1, 3, c + 2),
            7: (2, 2, c + 3),
            8: (3, 1, c + 2),
        }
        for position, row in expected.items():
            assert representation(ccc2_dist, unit_vertex(ccc2, 1, position), z) == row
        checked += 1
    assert checked == 14
    assert ccc2_dist[head][unit_vertex(ccc2, 2, 2)] == 4


def test_lcg62_representation_rows():
    """In the n = 6 cycle family, against R = (position n of the first unit,
    position n of another), positions i <= n/2 read (i, c+i-1) and the rest
    read (n-i, n+c+1-i)."""
    g = build_lcg(6, 2)
    dist = apsp(g)
    r = (unit_vertex(g, 1, 6), unit_vertex(g, 2, 6))
    c = dist[unit_vertex(g, 1, 1)][r[1]]
    for i in range(1, 7):
        rep = representation(dist, unit_vertex(g, 1, i), r)
        if i <= 3:
            assert rep == (i, c + i - 1)
        else:
            assert rep == (6 - i, 6 + c + 1 - i)


# ------------------------------------------------------------ is_resolving


def test_all_vertices_resolve(cube_dist):
    assert is_resolving(cube_dist, tuple(range(8)))


def test_lcg32_layer1_triple_does_not_resolve(lcg32_dist):
    # the two non-head twins of any last-layer triangle collide
    assert not is_resolving(lcg32_dist, (0, 1, 2))


def test_ccc2_position_pair_witness_resolves(ccc2, ccc2_dist):
    members = [unit_vertex(ccc2, r, p) for p in (2, 4) for r in range(1, 9)]
    assert is_resolving(ccc2_dist, tuple(members))


# --------------------------------------------------------- doubly_resolves


def test_doubly_resolves_on_members(cube_dist):
    # u = x, v = y at positive distance always works: (0-t) vs (t-0)
    assert cube_dist[0][6] == 3
    assert doubly_resolves(cube_dist, 0, 6, 0, 6)


def test_ccc2_pair_not_doubly_resolved(ccc2, ccc2_dist):
    x = unit_vertex(ccc2, 1, 2)
    y = unit_vertex(ccc2, 1, 4)
    u = unit_vertex(ccc2, 1, 1)
    v = unit_vertex(ccc2, 1, 5)
    assert not doubly_resolves(ccc2_dist, x, y, u, v)


def test_doubly_resolves_geodesic_triples_on_c6():
    d = apsp(build_cycle(6))
    for u in range(6):
        for v in range(6):
            if u == v:
                continue
            for x in range(6):
                if x != v and d[u][x] + d[x][v] == d[u][v]:
                    assert doubly_resolves(d, x, v, u, v)


def test_doubly_resolves_rejects_degenerate(cube_dist):
    with pytest.raises(ValueError, match="distinct probe"):
        doubly_resolves(cube_dist, 1, 1, 0, 2)
    with pytest.raises(ValueError, match="distinct target"):
        doubly_resolves(cube_dist, 0, 1, 2, 2)


# ------------------------------------------------------ is_doubly_resolving


def test_cube_full_set_is_doubly_resolving(cube_dist):
    assert is_doubly_resolving(cube_dist, tuple(range(8)))


def test_ccc2_doubly_witnesses(ccc2, ccc2_dist):
    z3 = tuple(unit_vertex(ccc2, r, p) for p in (2, 4) for r in range(1, 9))
    z5 = z3 + tuple(unit_vertex(ccc2, r, 5) for r in range(1, 9))
    assert not is_doubly_resolving(ccc2_dist, z3)
    assert is_doubly_resolving(ccc2_dist, z5)


def test_single_vertex_rejected(cube_dist):
    with pytest.raises(ValueError, match="at least 2"):
        is_doubly_resolving(cube_dist, (0,))


@pytest.mark.parametrize("wide", [False, True])
def test_verifier_guards_on_both_row_types(cube_dist, wide):
    # the path of 300 has 2-byte array rows, the cube byte rows
    dist = apsp(make_graph(300, [(v, v + 1) for v in range(299)])) if wide else cube_dist
    for verifier in (is_resolving, is_doubly_resolving, is_strong_resolving):
        with pytest.raises(ValueError, match="at least 1"):
            verifier(dist, ())
        with pytest.raises(ValueError, match="duplicates"):
            verifier(dist, (0, 1, 0))
        for bad in (-1, dist.order):
            with pytest.raises(ValueError, match="out of range"):
                verifier(dist, (0, bad))
    with pytest.raises(ValueError, match="at least 2"):
        is_doubly_resolving(dist, (1,))


def test_doubly_implies_resolving_spot(cube_dist, lcg32_dist):
    for dist, members in (
        (cube_dist, tuple(range(8))),
        (lcg32_dist, (4, 7, 10)),
        (lcg32_dist, (0, 1)),
    ):
        if is_doubly_resolving(dist, members):
            assert is_resolving(dist, members)


def test_doubly_resolving_pairs_helper(cube_dist):
    pairs = list(doubly_resolving_pairs(cube_dist, (0, 6), 0, 6))
    assert pairs == [(0, 6)]


# ------------------------------------------------------- strongly_resolves


def test_strongly_resolves_w_equals_u(cube_dist):
    assert strongly_resolves(cube_dist, 0, 0, 5)


def test_c4_equidistant_witness_fails():
    d = apsp(build_cycle(4))
    assert not strongly_resolves(d, 2, 1, 3)


def test_path_collinear_resolves():
    d = apsp(make_graph(3, [(0, 1), (1, 2)]))
    assert strongly_resolves(d, 0, 1, 2)


def test_strongly_resolves_rejects_equal_targets(cube_dist):
    with pytest.raises(ValueError, match="distinct target"):
        strongly_resolves(cube_dist, 0, 1, 1)


# ---------------------------------------------------- is_strong_resolving


def test_full_set_strongly_resolves(lcg32_dist):
    assert is_strong_resolving(lcg32_dist, tuple(range(lcg32_dist.order)))


def test_c4_single_vertex_not_strong():
    d = apsp(build_cycle(4))
    assert not is_strong_resolving(d, (0,))


def test_ccc2_strong_witness(ccc2, ccc2_dist):
    members = tuple(unit_vertex(ccc2, r, p) for p in (2, 4, 5) for r in range(1, 9))
    members += tuple(unit_vertex(ccc2, r, 7) for r in range(1, 8))
    assert len(members) == 31
    assert is_strong_resolving(ccc2_dist, members)


def test_strong_sweeps_cross_a_path_against_id_order():
    # byte rows on a path of 200. Numbered along the path, the first sweep
    # runs against the member at the highest id and the next runs back.
    # Numbered zig-zag, position p holding id p ^ 1, each step away from a
    # member's end goes up in id and the next goes down, so a sweep in either
    # direction carries H one vertex further: about 199 sweeps from either end
    order = 200
    for position in (list(range(order)), [v ^ 1 for v in range(order)]):
        d = [[abs(position[u] - position[v]) for v in range(order)] for u in range(order)]
        dist = DistanceMatrix(order, tuple(bytes(row) for row in d))
        ends = (position.index(0), position.index(order - 1))
        for members, want in (((ends[1],), True), ((ends[0],), True), ((order // 2,), False)):
            assert is_strong_resolving(dist, members) == strong_ok(d, members) == want


def test_strong_on_caterpillar_of_diameter_254():
    # the widest distance byte rows hold: lanes of A_y + ones reach 255.
    # In a tree every two leaves are mutually maximally distant, so a strong
    # resolving set needs all leaves but one
    spine = 255
    feet = list(range(1, spine - 1, 12))  # spine vertices with a pendant leg
    order = spine + len(feet)
    pos = list(range(spine)) + feet
    leg = [0] * spine + [1] * len(feet)
    d = [
        [0 if x == y else abs(pos[x] - pos[y]) + leg[x] + leg[y] for y in range(order)]
        for x in range(order)
    ]
    dist = DistanceMatrix(order, tuple(bytes(row) for row in d))
    assert dist.diameter() == 254
    leaves = [0, spine - 1] + list(range(spine, order))
    for members, want in ((leaves[1:], True), (leaves[:-1], True), (leaves[2:], False)):
        assert is_strong_resolving(dist, members) == strong_ok(d, members) == want


def test_byte_rows_holding_255_answer_as_two_byte_rows():
    # a 256-vertex path with pendants on its vertices 2..253 has diameter
    # 255, which apsp packs in 2-byte lanes. As byte rows, A_x + ones carries
    # out of the lanes that hold 255, but A_y + ones - A_v is exact as an int
    # and each of its lanes is in {0, 1, 2}, so every answer is the same
    rng = random.Random(255)
    spine = 256
    for _ in range(30):
        feet = rng.sample(range(2, spine - 2), rng.randint(1, 8))
        order = spine + len(feet)
        edges = [(v, v + 1) for v in range(spine - 1)]
        edges += [(foot, spine + i) for i, foot in enumerate(feet)]
        g = make_graph(order, edges)
        wide = apsp(g)
        narrow = DistanceMatrix(order, tuple(bytes(row.tolist()) for row in wide.rows))
        assert wide.width == 2 and narrow.diameter() == 255
        leaves = [0, spine - 1] + list(range(spine, order))
        sets = [leaves, leaves[1:], leaves[:-1], leaves[2:], (0, spine - 1), (0,)]
        sets += [rng.sample(range(order), rng.randint(1, 4)) for _ in range(4)]
        for members in sets:
            for verifier in (is_resolving, is_doubly_resolving, is_strong_resolving):
                if verifier is not is_doubly_resolving or len(members) >= 2:
                    assert verifier(narrow, members) == verifier(wide, members)
        assert mmd_pairs(g, narrow) == mmd_pairs(g, wide)


# -------------------------------------------------------------- mmd_pairs


def test_mmd_c4_antipodal():
    g = build_cycle(4)
    assert mmd_pairs(g).edges == ((0, 2), (1, 3))


def test_mmd_k4_all_pairs():
    assert len(mmd_pairs(K4).edges) == 6


def test_mmd_cube_antipodal(cube):
    assert mmd_pairs(cube).edges == ((0, 6), (1, 7), (2, 4), (3, 5))


def test_mmd_symmetric_by_construction(lcg42):
    h = mmd_pairs(lcg42)
    assert all(u < v for u, v in h.edges)
    adj = h.adjacency()
    for u, v in h.edges:
        assert u in adj[v] and v in adj[u]


def test_mmd_pairs_checks_once_per_vertex_and_a_raise_propagates(lcg42):
    calls = []
    assert mmd_pairs(lcg42, check=lambda: calls.append(1)) == mmd_pairs(lcg42)
    assert len(calls) == lcg42.order

    def spent():
        raise RuntimeError("spent")

    with pytest.raises(RuntimeError, match="spent"):
        mmd_pairs(lcg42, check=spent)


def test_mmd_graph_normalizes_and_validates():
    h = mmd_graph(4, [(3, 1), (1, 3), (0, 2)])
    assert h.edges == ((0, 2), (1, 3))
    with pytest.raises(ValueError, match="bad pair"):
        mmd_graph(3, [(0, 3)])


# ------------------------------------------------------------ twin classes


def test_lcg32_twin_classes(lcg32):
    classes = [c for c in twin_classes(lcg32) if len(c) > 1]
    # the two non-head vertices of each last-layer triangle
    assert classes == [(4, 5), (7, 8), (10, 11)]
    assert twin_lower_bound(lcg32) == 3


def test_p3_endpoint_twins():
    assert (0, 2) in twin_classes(PATH3)


def test_k3_single_class():
    assert twin_classes(K3) == ((0, 1, 2),)


def test_twin_classes_partition(ccc2):
    classes = twin_classes(ccc2)
    flattened = sorted(v for cls in classes for v in cls)
    assert flattened == list(range(ccc2.order))
    # no twins anywhere in this family: cube positions all have distinct
    # in-unit neighborhoods
    assert all(len(c) == 1 for c in classes)
