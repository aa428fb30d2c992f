import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from resolvekit import (
    VertexLabel,
    apsp,
    build_ccc,
    build_cycle,
    build_lcg,
    ccc_order,
    id_of,
    is_connected,
    label_of,
    last_layer_units,
    lcg_order,
    make_graph,
    read_labels_tsv,
    with_labels,
    write_labels_tsv,
)
from resolvekit import audit_claim, generators, graphs
from resolvekit.cli import run

from oracles import automorphism_orbit_of_zero, last_layer_units_brute, layered_labels_brute


def small_lcg_params(max_order=600):
    out = []
    n = 3
    while lcg_order(n, 2) <= max_order:
        k = 2
        while lcg_order(n, k) <= max_order:
            out.append((n, k))
            k += 1
        n += 1
    return out


# -------------------------------------------------------------- cube unit


def test_cube_unit_order_and_edges(cube):
    assert cube.order == 8
    assert cube.edge_count == 12


def test_cube_unit_vertex_1_neighbors(cube):
    # positions 2, 4, 5 -> ids 1, 3, 4
    assert cube.neighbors(0) == (1, 3, 4)


def test_cube_unit_regular_diameter_transitive(cube, cube_dist):
    assert all(cube.degree(v) == 3 for v in range(8))
    assert cube_dist.diameter() == 3
    # vertex-transitivity: the automorphism group moves vertex 0 everywhere
    assert automorphism_orbit_of_zero(8, list(cube.edges())) == set(range(8))


# ---------------------------------------------------------------- cycles


def test_cycle_triangle():
    g = build_cycle(3)
    assert g.order == 3 and g.edge_count == 3
    assert apsp(g).diameter() == 1


def test_cycle_c5_diameter():
    assert apsp(build_cycle(5)).diameter() == 2


def test_cycle_c6_unique_antipode():
    d = apsp(build_cycle(6))
    for u in range(6):
        assert sum(1 for v in range(6) if d[u][v] == 3) == 1


def test_cycle_regular_and_connected():
    for n in (3, 4, 7):
        g = build_cycle(n)
        assert all(g.degree(v) == 2 for v in range(n))
        assert is_connected(g)


def test_cycle_rejects_small_n():
    with pytest.raises(ValueError, match="n >= 3"):
        build_cycle(2)


# ------------------------------------------------------------ cube family


def test_ccc_orders():
    assert ccc_order(1) == 8
    assert ccc_order(2) == 72
    assert ccc_order(3) == 520
    for n in (1, 2, 3, 4):
        assert build_ccc(n).order == ccc_order(n)


def test_ccc1_is_bare_unit():
    g = build_ccc(1)
    assert g.order == 8 and g.edge_count == 12


def test_ccc2_edge_count():
    # 9 cube units of 12 edges plus 8 connector edges
    g = build_ccc(2)
    assert g.edge_count == 9 * 12 + 8 == 116


def test_ccc2_unit_census(ccc2):
    units = last_layer_units(ccc2)
    assert len(units) == 8
    assert all(len(u) == 8 for u in units)


def test_ccc_layer_census():
    g = build_ccc(3)
    by_layer = {}
    for label in g.labels:
        by_layer[label.layer] = by_layer.get(label.layer, 0) + 1
    assert by_layer == {1: 8, 2: 64, 3: 64 * 7}


def test_ccc2_degrees(ccc2):
    for v, label in enumerate(ccc2.labels):
        if label.layer == 1:
            assert ccc2.degree(v) == 4  # 3 in-unit + 1 child head
        elif label.position == 1:
            assert ccc2.degree(v) == 4  # 3 in-unit + 1 parent
        else:
            assert ccc2.degree(v) == 3


def test_ccc_rejects_bad_n():
    with pytest.raises(ValueError, match="n >= 1"):
        build_ccc(0)


# ----------------------------------------------------------- cycle family


def test_lcg_orders():
    assert lcg_order(3, 2) == 12
    assert lcg_order(5, 3) == 130
    assert build_lcg(5, 3).order == 130
    for n, k in small_lcg_params():
        assert build_lcg(n, k).order == lcg_order(n, k)


def test_lcg32_edge_count():
    # 4 triangles of 3 edges plus 3 connector edges
    assert build_lcg(3, 2).edge_count == 15


def test_lcg_layer_census():
    g = build_lcg(3, 3)
    by_layer = {}
    for label in g.labels:
        by_layer[label.layer] = by_layer.get(label.layer, 0) + 1
    assert by_layer == {1: 3, 2: 9, 3: 18}
    assert len(last_layer_units(g)) == 6


def test_lcg42_degrees(lcg42):
    # last-layer cycles: heads have 2 in-cycle neighbors + 1 parent
    for v, label in enumerate(lcg42.labels):
        if label.layer == 1:
            assert lcg42.degree(v) == 3
        elif label.position == 1:
            assert lcg42.degree(v) == 3
        else:
            assert lcg42.degree(v) == 2


def test_lcg_middle_layer_degrees():
    g = build_lcg(4, 3)
    for v, label in enumerate(g.labels):
        if label.layer == 2:
            assert g.degree(v) == 3  # head: 2 + parent; non-head: 2 + child


def test_lcg_rejects_bad_params():
    with pytest.raises(ValueError, match="n >= 3"):
        build_lcg(2, 2)
    with pytest.raises(ValueError, match="k >= 2"):
        build_lcg(3, 1)


def test_builders_raise_on_a_wrong_vertex_count(monkeypatch):
    # a check that guards the built graph must survive python -O, so it raises
    from resolvekit import generators

    monkeypatch.setattr(generators, "ccc_order", lambda n: 0)
    monkeypatch.setattr(generators, "lcg_order", lambda n, k: 0)
    with pytest.raises(RuntimeError, match="expected 0"):
        build_ccc(2)
    with pytest.raises(RuntimeError, match="expected 0"):
        build_lcg(3, 2)


def test_generated_graphs_connected_and_simple():
    # the builders lay out rows without make_graph; rebuilding from the edges
    # rejects a loop or a repeated edge, and an unsorted or one-sided row
    # differs from the rebuilt one
    graphs = [build_ccc(n) for n in range(1, 6)]
    graphs += [
        build_lcg(n, k)
        for n in range(3, 9)
        for k in range(2, 5)
        if lcg_order(n, k) < 200_000
    ]
    for g in graphs:
        assert g == make_graph(g.order, list(g.edges()), labels=g.labels, family=g.family)
        assert is_connected(g)


def test_parent_uniqueness():
    for g in (build_ccc(3), build_lcg(3, 3), build_lcg(4, 3)):
        for v, label in enumerate(g.labels):
            if label.layer >= 2 and label.position == 1:
                parents = [
                    w for w in g.neighbors(v) if g.labels[w].layer == label.layer - 1
                ]
                assert len(parents) == 1


def test_child_uniqueness():
    for g in (build_ccc(3), build_lcg(3, 3)):
        top = max(label.layer for label in g.labels)
        for v, label in enumerate(g.labels):
            if label.layer < top and (label.layer == 1 or label.position != 1):
                children = [
                    w for w in g.neighbors(v) if g.labels[w].layer == label.layer + 1
                ]
                assert len(children) == 1
                assert g.labels[children[0]].position == 1


# ----------------------------------------------------------------- labels


def test_label_id_bijection(ccc2):
    for v in range(ccc2.order):
        assert id_of(ccc2, label_of(ccc2, v)) == v


def test_ccc_head_attached_to_layer1_vertex(ccc2):
    head = id_of(ccc2, VertexLabel(2, 1, 1, 1))
    assert id_of(ccc2, VertexLabel(1, 0, 0, 1)) == 0
    assert 0 in ccc2.neighbors(head)


def test_label_lookup_errors(ccc2, cube):
    with pytest.raises(ValueError, match="no vertex labelled"):
        id_of(ccc2, VertexLabel(9, 9, 9, 9))
    with pytest.raises(ValueError, match="out of range"):
        label_of(ccc2, ccc2.order)
    from resolvekit import make_graph

    unlabelled = make_graph(2, [(0, 1)])
    with pytest.raises(ValueError, match="no vertex labels"):
        label_of(unlabelled, 0)


def test_label_parse_and_str():
    label = VertexLabel(2, 1, 1, 5)
    assert str(label) == "2:1:1:5"
    assert VertexLabel.parse("2:1:1:5") == label
    with pytest.raises(ValueError, match="layer:branch:unit:position"):
        VertexLabel.parse("2:1:1")
    with pytest.raises(ValueError, match="non-integer"):
        VertexLabel.parse("a:b:c:d")

    # labels sort as (layer, branch, unit, position) ...
    shuffled = [
        VertexLabel(2, 1, 2, 1),
        VertexLabel(2, 2, 1, 1),
        VertexLabel(1, 0, 0, 8),
        VertexLabel(2, 1, 1, 5),
        VertexLabel(2, 1, 1, 2),
    ]
    assert sorted(shuffled) == [
        (1, 0, 0, 8),
        (2, 1, 1, 2),
        (2, 1, 1, 5),
        (2, 1, 2, 1),
        (2, 2, 1, 1),
    ]
    # ... and hash and compare equal to any label, or plain tuple, of the same fields
    assert label == VertexLabel(2, 1, 1, 5) == (2, 1, 1, 5)
    assert hash(label) == hash(VertexLabel(2, 1, 1, 5)) == hash((2, 1, 1, 5))
    assert label != VertexLabel(2, 1, 5, 1)
    g = build_ccc(2)
    assert id_of(g, VertexLabel(2, 1, 1, 5)) == id_of(g, label) == 12
    assert read_labels_tsv(write_labels_tsv(g)) == g.labels


@pytest.mark.parametrize(
    "argv, out_digest, labels_digest",
    [
        (
            ["ccc", "--n", "3", "--format", "dimacs"],
            "4d063b7c467f26b8b27b55f693c5210b62a40cade5032883370191f8fafd8902",
            "c2b611c08b3d17bb0499df7aeb9a591ebd774b442387874dadc9bf0abd73c7ef",
        ),
        (
            ["lcg", "--n", "4", "--k", "3"],
            "189571b6f5b45f766c5f134fd47fc011ec0d98a3c24adbf5a04b1851fa85b18f",
            "d9d86711f4a6c9c3a398b4704990ca4abb3e8d4ea8cf1a792a22dd990366a964",
        ),
    ],
    ids=["ccc3-dimacs", "lcg43-edge-list"],
)
def test_gen_output_and_labels_pinned(argv, out_digest, labels_digest, tmp_path, capsys):
    # sha256 of gen's stdout and of its --labels-out file, both byte for byte
    labels = tmp_path / "labels.tsv"
    assert run(["gen", *argv, "--labels-out", str(labels)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == out_digest
    assert hashlib.sha256(labels.read_bytes()).hexdigest() == labels_digest


def test_labels_tsv_round_trip(lcg32):
    text = write_labels_tsv(lcg32)
    labels = read_labels_tsv(text)
    assert labels == lcg32.labels
    stripped = with_labels(lcg32, labels)
    assert stripped.labels == lcg32.labels


@pytest.mark.parametrize("g", [build_ccc(2), build_lcg(4, 3)], ids=["ccc2", "lcg4,3"])
def test_sidecar_labels_find_their_ids(g):
    # labels read back from a sidecar are a plain tuple, which id_of searches
    # with the tuple's own index
    sidecar = with_labels(g, read_labels_tsv(write_labels_tsv(g)))
    assert type(sidecar.labels) is tuple
    assert all(id_of(sidecar, label_of(sidecar, v)) == v for v in range(g.order))
    with pytest.raises(ValueError, match="no vertex labelled 2:1:1:9"):
        id_of(sidecar, VertexLabel(2, 1, 1, 9))


def test_labels_tsv_rejects_sparse_ids():
    with pytest.raises(ValueError, match="dense"):
        read_labels_tsv("0\t1\t0\t0\t1\n2\t1\t0\t0\t2\n")
    with pytest.raises(ValueError, match="duplicate id"):
        read_labels_tsv("0\t1\t0\t0\t1\n0\t1\t0\t0\t2\n")
    with pytest.raises(ValueError, match="5 tab-separated"):
        read_labels_tsv("0\t1\t0\t0\n")
    with pytest.raises(ValueError, match="label line 2: expected integer fields"):
        read_labels_tsv("0\t1\t0\t0\t1\n1\t1\t0\t0\tx\n")


# ------------------------------------------------- handed-over block-cut tree

HANDOVER_GRAPHS = [(build_ccc, (n,)) for n in range(1, 6)]
HANDOVER_GRAPHS += [(build_lcg, (n, k)) for n in range(3, 9) for k in range(2, 5)]


def _led_blocks(tree):
    return {(block[0], frozenset(block)) for block in tree.blocks}


def _round_sets(rounds):
    return [sorted((tuple(sorted(block)), h) for block, h in leaves) for leaves in rounds]


@pytest.mark.parametrize(
    "build, params", HANDOVER_GRAPHS, ids=[f"{b.__name__[6:]}{p}" for b, p in HANDOVER_GRAPHS]
)
def test_handed_over_block_tree_matches_the_dfs(build, params):
    # the generator's tree, shape keys and last-layer units equal what a
    # make_graph rebuild of the same graph finds by the lowpoint DFS,
    # block_shape and a scan of every label
    g = build(*params)
    rebuilt = make_graph(g.order, g.edges(), g.labels, g.family)
    assert "block_tree" in vars(g) and "block_tree" not in vars(rebuilt)
    tree, dfs = g.block_tree, rebuilt.block_tree
    assert tree.leaves == dfs.leaves
    assert tree.count == dfs.count
    # each block led by its vertex nearest vertex 0, as the docstring says
    assert len(tree.blocks) == len(dfs.blocks) and _led_blocks(tree) == _led_blocks(dfs)
    assert g.leaf_shapes == rebuilt.leaf_shapes
    assert last_layer_units(g) == last_layer_units(rebuilt) == last_layer_units_brute(g.labels)
    if len(dfs.blocks) > 1:  # a bare unit is one block and has no leaf block
        assert last_layer_units(g) == tuple(block for block, _ in dfs.leaves)
    # apsp reads the tree only through _peel's rounds, so equal rounds give
    # equal rows; ccc 5's rows, 25,608 of 25,608 bytes, are compared only
    # through them
    assert _round_sets(graphs._peel(g)) == _round_sets(graphs._peel(rebuilt))
    if g.order < 4000:
        assert apsp(g).rows == apsp(rebuilt).rows


# ---------------------------------------------------- labels from the layout


@pytest.mark.parametrize(
    "build, params", HANDOVER_GRAPHS, ids=[f"{b.__name__[6:]}{p}" for b, p in HANDOVER_GRAPHS]
)
def test_layout_labels_match_the_nested_loop(build, params):
    # the view computes each label from its id; the loop lists them in order
    g = build(*params)
    layers, size = (params[0], 8) if build is build_ccc else (params[1], params[0])
    want = layered_labels_brute(layers, size)
    view = g.labels
    assert isinstance(view, generators.LayoutLabels) and len(view) == g.order == len(want)
    got = [view[v] for v in range(g.order)]
    assert got == list(want) and all(type(label) is VertexLabel for label in got)
    assert view[-1] == want[-1] and view[-g.order] == want[0]
    assert view[3 : g.order - 2 : 7] == want[3 : g.order - 2 : 7]
    assert type(view[3::7]) is tuple
    assert list(view) == list(want) and all(type(label) is VertexLabel for label in view)
    assert view == want and want == view and view == generators.LayoutLabels(layers, size)
    assert view != want[:-1] and want[:-1] != view and view != list(want)
    assert hash(view) == hash(want) == hash(view)
    for bad in (g.order, -g.order - 1):
        with pytest.raises(IndexError):
            view[bad]
    assert all(id_of(g, label_of(g, v)) == v for v in range(g.order))


@pytest.mark.parametrize(
    "build, params", HANDOVER_GRAPHS, ids=[f"{b.__name__[6:]}{p}" for b, p in HANDOVER_GRAPHS]
)
def test_layout_index_inverts_every_id(build, params):
    # index runs the layout forwards from the fields and reads the label back
    g = build(*params)
    layers, size = (params[0], 8) if build is build_ccc else (params[1], params[0])
    view = g.labels
    want = layered_labels_brute(layers, size)
    assert [view.index(label) for label in want] == list(range(g.order))
    assert view.index(VertexLabel(*want[-1])) == g.order - 1
    units = (size - 1) ** (layers - 2) if layers > 1 else 1
    absent = [
        (0, 0, 0, 1),  # no layer 0
        (layers + 1, 1, 1, 1),  # past the last layer
        (10**9, 1, 1, 1),  # far past it, where the layer's unit count is huge
        (-1, 1, 1, 1),
        (1, 0, 0, 0),  # position 0
        (1, 0, 0, size + 1),  # one past the unit
        (layers, 0, 1, 1) if layers > 1 else (1, 1, 0, 1),  # branch 0
        (layers, 1, units + 1, 1) if layers > 1 else (1, 0, 1, 1),  # a unit past the layer's count
        (layers, 1, 1, 0),
        (layers, 1, 1, size + 1),
        (layers, size + 1, 1, 1),
        (1, 0, 0),
        (1, 0, 0, 1, 1),
        "1:0:0:1",
        "abcd",
        None,
        (1.5, 0, 0, 1),
    ]
    for label in absent:
        with pytest.raises(ValueError):
            view.index(label)
        if isinstance(label, tuple) and len(label) == 4:
            with pytest.raises(ValueError, match="no vertex labelled"):
                id_of(g, VertexLabel(*label))
    # start and stop bound the ids searched, as for a tuple
    last = g.order - 1
    assert view.index(want[last], last) == view.index(want[last], -1) == last
    assert view.index(want[0], 0, 1) == 0 and view.index(want[5], -last, None) == 5
    for start, stop in ((6, g.order), (0, 5), (-2, g.order), (0, -last), (3, 3)):
        with pytest.raises(ValueError):
            want.index(want[5], start, stop)
        with pytest.raises(ValueError):
            view.index(want[5], start, stop)


ID_OF_HELD = """
import tracemalloc
from resolvekit import VertexLabel, build_ccc, id_of
g = build_ccc(5)
tracemalloc.start()
before = tracemalloc.get_traced_memory()[0]
assert id_of(g, VertexLabel(5, 8, 343, 8)) == g.order - 1
print(tracemalloc.get_traced_memory()[0] - before)
"""


def test_id_of_keeps_no_index():
    # each lookup is arithmetic on the layout, so nothing stays behind it; in
    # a fresh interpreter, where no earlier lookup on an equal view can have
    # left an index that this one reuses
    env = {**os.environ, "PYTHONPATH": str(Path(generators.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", ID_OF_HELD], capture_output=True, text=True, env=env, check=True)
    assert int(done.stdout) < 1 << 20


def test_the_audit_path_builds_no_labels(monkeypatch):
    # the strong audit reads one label, the last; label_of builds one label
    # per call and id_of one, the label it reads back to confirm an id
    built = []

    class Counted(VertexLabel):
        __slots__ = ()

        def __new__(cls, *fields):
            built.append(fields)
            return super().__new__(cls, *fields)

    monkeypatch.setattr(generators, "VertexLabel", Counted)
    assert audit_claim("ccc", "strong", (4,)).verified == "confirmed"
    assert len(built) <= 8
    g = build_ccc(4)
    assert g.order == 3656
    built.clear()
    vids = range(0, g.order, 3)[:1000]
    assert [id_of(g, label_of(g, v)) for v in vids] == list(vids)
    assert len(vids) == 1000 and len(built) <= 2000
