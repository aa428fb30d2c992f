"""Deterministic constructors for the layered cube/cycle graph families.

Both families grow the same way: layer 1 is a single base unit (an 8-vertex
cube, or an n-cycle); every later layer consists of copies of the unit, and
each unit hangs off the previous layer through its position-1 "head" vertex.
Within a unit in layer p < max, every non-head vertex is the parent of exactly
one unit in layer p+1, and every layer-1 vertex parents one layer-2 unit.

The "ccc" family has 8-vertex cube units (fanout 7, one child per non-head
cube position); the "lcg" family has n-cycle units (fanout n-1). The
child-assignment bijection is fixed: position i of unit (r, s) in layer p
spawns unit (r, (s-1)*fanout + (i-1)) in layer p+1. Any other assignment
bijection yields an isomorphic graph, since the spawned subtrees are
identical.

Ids are assigned layer-major, then branch, then unit, then position, so
golden files and lexicographic tie-breaking downstream are stable. A
generated graph's labels are that layout read backwards: LayoutLabels
computes the label of an id by divmod of its offset in its layer, and index
the id of a label, so no label or index is stored, and the solve and audit
paths build none. Labels read from a sidecar stay a tuple.

The layered graph is laid out from the unit, which make_graph has checked,
with no second pass over its edges. Each copy's rows are the unit's sorted
rows shifted to the copy's first id, all of a copy's at once as one flat
tuple that is then sliced per row; the parent's id is prepended to the
head's row and the head's id appended to the parent's row. Rows stay sorted,
because a parent lies in an earlier unit and a child in a later one. The
result is simple because the unit is, the copies are disjoint, and each unit
adds one edge to an earlier unit: no loop, and no edge twice. A guard raises
unless each parent lies in an earlier unit and no vertex parents two units.

The graph comes with its block_tree and leaf_shapes, read off the same
parents list, so no lowpoint DFS and no block_shape call runs on it. The
unit, a cube or a cycle, is 2-connected, so each copy is a block and each
(parent, head) edge a bridge, and the head and the parent lie in one block
more each. The leaf blocks are the top-layer units, each with its head,
local id 0, as cut vertex, so each has the shape key (unit adjacency, 0).
"""
from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import replace
from itertools import accumulate, chain, product, starmap
from typing import Iterator, NamedTuple

from .graphs import BlockTree, Graph, make_graph


class VertexLabel(NamedTuple):
    """Structured coordinate (layer p, branch r, unit s, position i).

    Layer-1 vertices carry sentinel branch/unit 0 and their raw 1-based name
    as the position. Position 1 of any unit in layers >= 2 is the head vertex.
    A label is a tuple of its fields: it sorts, hashes and compares equal as
    the plain tuple (layer, branch, unit, position) does.
    """

    layer: int
    branch: int
    unit: int
    position: int

    def __str__(self) -> str:
        return f"{self.layer}:{self.branch}:{self.unit}:{self.position}"

    @classmethod
    def parse(cls, text: str) -> VertexLabel:
        parts = text.split(":")
        if len(parts) != 4:
            raise ValueError(f"label must be layer:branch:unit:position, got {text!r}")
        try:
            layer, branch, unit, position = (int(p) for p in parts)
        except ValueError:
            raise ValueError(f"non-integer field in label {text!r}") from None
        return cls(layer, branch, unit, position)


class LayoutLabels(Sequence):
    """The labels of a generated graph, computed from its id layout rather
    than stored: layers of units of size vertices, layer p >= 2 holding size
    branches of (size - 1)^(p - 2) units. A label is built on each read, by
    divmod of the id's offset in its layer, and index computes a label's id
    from its fields. The view equals, and hashes as, the tuple of its
    labels; the hash is taken over plain tuples."""

    __slots__ = ("_size", "_starts")

    def __init__(self, layers: int, size: int):
        starts = [0, size]  # the first id of each layer, then the order
        for layer in range(2, layers + 1):
            starts.append(starts[-1] + size * size * (size - 1) ** (layer - 2))
        self._size = size
        self._starts = tuple(starts)

    def __len__(self) -> int:
        return self._starts[-1]

    def __getitem__(self, index: int | slice):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(*index.indices(len(self)))))
        order = len(self)
        vid = index + order if index < 0 else index
        if not 0 <= vid < order:
            raise IndexError(f"vertex {index} out of range for order {order}")
        layer = bisect_right(self._starts, vid)
        unit, position = divmod(vid - self._starts[layer - 1], self._size)
        if layer == 1:
            return VertexLabel(1, 0, 0, position + 1)
        branch, unit = divmod(unit, (self._size - 1) ** (layer - 2))
        return VertexLabel(layer, branch + 1, unit + 1, position + 1)

    def index(self, value: object, start: int = 0, stop: int | None = None) -> int:
        """As a tuple's index, from the id the layout gives value, read back to confirm."""
        try:
            layer, branch, unit, position = value
            first = self._starts[layer - 1]  # first, so a huge layer fails fast
            units = (branch - 1) * (self._size - 1) ** (layer - 2) + unit - 1 if layer > 1 else 0
            vid = first + units * self._size + position - 1
        except (TypeError, ValueError, IndexError):
            vid = -1
        if vid in range(len(self))[start:stop] and self[vid] == value:
            return vid
        raise ValueError(f"{value!r} is not in the labels")

    def _fields(self) -> Iterator[tuple[int, int, int, int]]:
        """Each label's fields as a plain tuple, in id order."""
        positions = range(1, self._size + 1)
        return chain(
            product((1,), (0,), (0,), positions),
            *(
                product((layer,), positions, range(1, (self._size - 1) ** (layer - 2) + 1), positions)
                for layer in range(2, len(self._starts))
            ),
        )

    def __iter__(self) -> Iterator[VertexLabel]:
        return starmap(VertexLabel, self._fields())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LayoutLabels):
            return self._starts == other._starts
        if isinstance(other, tuple):
            return len(other) == len(self) and other == tuple(self._fields())
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._fields()))

    def __repr__(self) -> str:
        return f"LayoutLabels(layers={len(self._starts) - 1}, size={self._size})"


def build_cube_unit() -> Graph:
    """The 8-vertex, 12-edge base unit (isomorphic to a 4-cycle prism).

    Positions split into rings {1..4} and {5..8}; within a ring, positions at
    circular distance 1 are adjacent, and position i of the lower ring
    connects to position i+4 of the upper ring.
    """
    edges = [(lo + a, lo + (a + 1) % 4) for lo in (0, 4) for a in range(4)]
    edges += [(i, i + 4) for i in range(4)]
    return make_graph(8, edges, labels=LayoutLabels(1, 8), family="cube-unit")


def build_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return make_graph(n, edges, labels=LayoutLabels(1, n), family=f"cycle:n={n}")


def ccc_order(n: int) -> int:
    """Closed-form vertex count of the n-layer cube-family graph."""
    if n < 1:
        raise ValueError(f"ccc needs n >= 1, got {n}")
    return 8 + 64 * sum(7 ** (k - 2) for k in range(2, n + 1))


def lcg_order(n: int, k: int) -> int:
    """Closed-form vertex count of the k-layer cycle-family graph."""
    if n < 3 or k < 2:
        raise ValueError(f"lcg needs n >= 3 and k >= 2, got n={n}, k={k}")
    return n + sum(n * n * (n - 1) ** (p - 2) for p in range(2, k + 1))


def _layered_graph(layers: int, unit: Graph, family: str) -> Graph:
    """Shared layered construction from a checked unit; fanout = order - 1
    children per unit. Rows are laid out as the module docstring says."""
    size = unit.order
    fanout = size - 1
    labels = LayoutLabels(layers, size)
    order = len(labels)
    top = size * fanout ** (layers - 2) if layers > 1 else 0  # units in the last layer
    # parents[k - 1] is the vertex whose child is the unit at id k * size:
    # each layer-1 vertex, then each non-head vertex of a unit below the top
    parents = list(range(size)) if layers > 1 else []
    for base in range(size, order - top * size, size):
        parents += range(base + 1, base + size)
    flat = [w for row in unit.adjacency for w in row]
    ends = list(accumulate(map(len, unit.adjacency)))
    rows: list[tuple[int, ...]] = []
    for base in range(0, order, size):
        shifted = tuple([w + base for w in flat])
        rows += [shifted[lo:hi] for lo, hi in zip([0] + ends, ends)]
    if len(set(parents)) != len(parents):
        raise RuntimeError(f"a vertex parents two units in {family}")
    count = [1] * order
    bridges = tuple(zip(parents, range(size, order, size)))
    for parent, base in bridges:
        if not parent < base:
            raise RuntimeError(f"unit at id {base} hangs off {parent}, not an earlier unit")
        rows[base] = (parent, *rows[base])
        rows[parent] += (base,)
        count[base] += 1
        count[parent] += 1
    units = tuple(tuple(range(base, base + size)) for base in range(0, order, size))
    tree = BlockTree(units + bridges, tuple(count))
    # a cached_property is read from the instance dict first, so these are never derived
    vars(tree)["leaves"] = tuple((block, block[0]) for block in units[len(units) - top :])
    g = Graph(order, tuple(rows), labels=labels, family=family)
    vars(g).update(block_tree=tree, leaf_shapes=((unit.adjacency, 0),) * top)
    return g


def build_ccc(n: int) -> Graph:
    """n-layer cube-family graph; n = 1 is the bare cube unit."""
    if n < 1:
        raise ValueError(f"ccc needs n >= 1, got {n}")
    g = _layered_graph(n, build_cube_unit(), f"ccc:n={n}")
    if g.order != ccc_order(n):
        raise RuntimeError(f"built {g.order} vertices for ccc n={n}, expected {ccc_order(n)}")
    return g


def build_lcg(n: int, k: int) -> Graph:
    """k-layer cycle graph with n-cycle units."""
    if n < 3:
        raise ValueError(f"lcg needs n >= 3, got n={n}")
    if k < 2:
        raise ValueError(f"lcg needs k >= 2, got k={k}")
    g = _layered_graph(k, build_cycle(n), f"lcg:n={n},k={k}")
    if g.order != lcg_order(n, k):
        raise RuntimeError(
            f"built {g.order} vertices for lcg n={n}, k={k}, expected {lcg_order(n, k)}"
        )
    return g


def _require_labels(g: Graph) -> Sequence[VertexLabel]:
    if g.labels is None:
        raise ValueError("graph carries no vertex labels")
    return g.labels


def id_of(g: Graph, label: VertexLabel) -> int:
    """Vertex id of a structured coordinate by the labels' own index; inverse of label_of."""
    labels = _require_labels(g)
    try:
        return labels.index(label)
    except ValueError:
        raise ValueError(f"no vertex labelled {label}") from None


def label_of(g: Graph, vid: int) -> VertexLabel:
    labels = _require_labels(g)
    if not (0 <= vid < g.order):
        raise ValueError(f"vertex {vid} out of range for order {g.order}")
    return labels[vid]


def last_layer_units(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Ids of each unit in the last layer, grouped and sorted: the trailing
    units of the id layout, counted from the last label's layer and its
    position, the unit size. For a bare unit the whole vertex set is one
    group."""
    top, _, _, size = _require_labels(g)[-1]
    count = size * (size - 1) ** (top - 2) if top > 1 else 1
    return tuple(tuple(range(base, base + size)) for base in range(g.order - count * size, g.order, size))


# ------------------------------------------------------------- label sidecar
# TSV schema: id <TAB> layer <TAB> branch <TAB> unit <TAB> position


def write_labels_tsv(g: Graph) -> str:
    labels = _require_labels(g)
    # a layout view hands over plain field tuples, so no label is built
    fields = labels._fields() if isinstance(labels, LayoutLabels) else labels
    lines = [
        f"{vid}\t{layer}\t{branch}\t{unit}\t{position}"
        for vid, (layer, branch, unit, position) in enumerate(fields)
    ]
    return "\n".join(lines) + "\n"


def read_labels_tsv(text: str) -> tuple[VertexLabel, ...]:
    rows: dict[int, VertexLabel] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise ValueError(f"label line {lineno}: expected 5 tab-separated fields")
        try:
            vid, layer, branch, unit, position = (int(p) for p in parts)
        except ValueError:
            raise ValueError(f"label line {lineno}: expected integer fields, got {line!r}") from None
        if vid in rows:
            raise ValueError(f"label line {lineno}: duplicate id {vid}")
        rows[vid] = VertexLabel(layer, branch, unit, position)
    if sorted(rows) != list(range(len(rows))):
        raise ValueError("label ids are not dense 0..order-1")
    return tuple(rows[vid] for vid in range(len(rows)))


def with_labels(g: Graph, labels: tuple[VertexLabel, ...]) -> Graph:
    if len(labels) != g.order:
        raise ValueError(f"got {len(labels)} labels for order {g.order}")
    return replace(g, labels=labels)
