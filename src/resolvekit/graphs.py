"""Immutable simple undirected graphs, all-pairs distances, and text I/O.

Vertex ids are dense 0-based integers. Adjacency lists are kept sorted so
edge-set equality and output determinism are trivially checkable. Graphs and
distance matrices are frozen after construction and safe to share.

apsp grows the balls B_k(v) of all sources together, one level at a time,
with B_0(v) = {v} and B_{k+1}(v) = B_k(v) united with B_k(u) over the
neighbors u of v. A ball is a Python int with one bit per vertex, so a level
costs one big-int OR per (vertex, neighbor) in C over order / 8 bytes. The
vertices that level k adds to v's ball are those at distance k, and they
are ORed into v's distance bit planes: plane j holds the vertices u whose
d(v, u) has bit j set. Blocks of sources are then transposed from planes to
rows, each an immutable ``bytes`` with d(v, u) at index u. On graphs of at
least _PEEL_MIN_ORDER vertices apsp first peels pieces in rounds: leaf
blocks, those with one cut vertex, each with the bridge that holds it when
that bridge is the only other block at its cut vertex. Only the core left
inside grows balls, and the rows of a peeled vertex come from its cut
vertex's row plus a constant, shifted once per distinct constant, with the
piece's own columns read off the piece. When a distance may not fit a byte
(2 * ecc(0) >= 256), apsp runs one BFS per source instead, into unsigned
``array.array`` rows. Rows are decided here alone, and DistanceMatrix.lanes
reads each as little-endian lanes of the rows' item size in bytes.
"""
from __future__ import annotations

import sys
from array import array
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from .generators import VertexLabel

EDGE_LIST = "edge-list"
DIMACS = "dimacs"
FORMATS = (EDGE_LIST, DIMACS)

UNREACHED = -1

# read_graph rejects a header declaring more vertices than this before any
# adjacency list is allocated; ccc 7, 1,254,920 vertices, fits
MAX_ORDER = 1 << 21

# bytes of distance lanes apsp converts at a time
_BLOCK_BYTES = 1 << 20
# apsp peels leaf blocks off graphs and cores of at least this order, a
# crossover measured with every round peeled: lcg 5,3 (130 vertices) took
# 1.6 ms peeled against 1.35 ms, random trees of 128 to 255 vertices 1.5 to
# 1.8 times as long and random graphs of 14 to 18 vertices 1.9 times, while
# lcg 6,3 (222) and ccc 3 (520) took 0.8 and 0.67 times as long. Random
# trees of 256 to 300 vertices still take up to 1.10 times as long at this
# floor (Python 3.11, 2 vCPUs).
_PEEL_MIN_ORDER = 256
# a peeled apsp reads check once per this many columns joined or rows sliced
_CHECK_STRIDE = 256


class FormatError(ValueError):
    """Malformed graph text; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DisconnectedGraphError(ValueError):
    """Raised by apsp when some pair of vertices has no connecting path."""

    def __init__(self, u: int, v: int):
        super().__init__(f"graph is disconnected: no path between {u} and {v}")
        self.pair = (u, v)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with sorted adjacency lists.

    labels, when present, map each id to a structured family coordinate: a
    tuple read from a sidecar, or on a generated graph a view computed from
    the id layout (generators.LayoutLabels); family is a descriptor such as "ccc:n=2" for generated instances.
    """

    order: int
    adjacency: tuple[tuple[int, ...], ...]
    labels: Sequence[VertexLabel] | None = None
    family: str | None = None

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) with u < v, in sorted order."""
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @cached_property
    def block_tree(self) -> BlockTree:
        """The block-cut tree, kept with the graph: handed over by the family
        generators, else from one DFS on first use."""
        blocks = _blocks(self)
        count = [0] * self.order
        for block in blocks:
            for v in block:
                count[v] += 1
        return BlockTree(tuple(blocks), tuple(count))

    @cached_property
    def leaf_shapes(self) -> tuple[tuple[tuple[tuple[int, ...], ...], int], ...]:
        """The block_shape key of each of block_tree.leaves, in its order."""
        return tuple(block_shape(self.adjacency, block, h) for block, h in self.block_tree.leaves)


def make_graph(
    order: int,
    edges: Iterable[tuple[int, int]],
    labels: Sequence[VertexLabel] | None = None,
    family: str | None = None,
) -> Graph:
    """Build a Graph, rejecting self-loops, duplicate edges, and bad ids."""
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    if labels is not None and len(labels) != order:
        raise ValueError(f"got {len(labels)} labels for order {order}")
    seen: set[tuple[int, int]] = set()
    adj: list[list[int]] = [[] for _ in range(order)]
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < order and 0 <= v < order):
            raise ValueError(f"edge ({u}, {v}) out of range for order {order}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"duplicate edge ({key[0]}, {key[1]})")
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    return Graph(
        order=order,
        adjacency=tuple(tuple(sorted(nbrs)) for nbrs in adj),
        labels=labels,
        family=family,
    )


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs hop counts of a connected graph: rows all ``bytes`` or all
    unsigned arrays of one typecode, with room for distance + 1 in each lane."""

    order: int
    rows: tuple[bytes | array, ...]

    def __post_init__(self) -> None:
        rows, width = self.rows, self.width
        kinds = set(map(type, rows)) | {row.typecode for row in rows if type(row) is array}
        if not (kinds <= {bytes} or len(kinds) == 2 and kinds - {array} <= set("HILQ")):
            raise TypeError("distance rows must be all bytes or all arrays of one typecode of HILQ")
        # only an all-ones item lacks room, and a row without its bytes has
        # none. Byte rows go unscanned: the scan added 10% to small apsps
        full = (1 << 8 * width) - 1
        if array in kinds and any(b"\xff" * width in bytes(row) and full in row for row in rows):
            raise ValueError(f"a distance of {full} leaves no room in its {width}-byte lane")

    def __getitem__(self, u: int) -> bytes | array:
        return self.rows[u]

    def eccentricity(self, u: int) -> int:
        return max(self.rows[u])

    def diameter(self) -> int:
        """Largest entry. On ``bytes`` rows a row counts only when it keeps a
        byte after translate deletes every value up to the running maximum,
        one C pass per row."""
        rows = self.rows
        if not rows or not isinstance(rows[0], bytes):
            return max(map(max, rows))
        top = 0
        for row in rows:
            rest = row.translate(None, bytes(range(top + 1)))
            if rest:
                top = max(rest)
        return top

    @property
    def width(self) -> int:
        """Bytes per lane: the rows' item size, 1 for ``bytes`` rows."""
        return self.rows[0].itemsize if self.rows and type(self.rows[0]) is array else 1

    @cached_property
    def lanes(self) -> tuple[bytes | memoryview, ...]:
        """Each row as order little-endian lanes of width bytes, lane u holding
        d(v, u): the rows' own bytes, copied on a big-endian host to match."""
        rows = self.rows
        if self.width > 1 and sys.byteorder == "big":
            # reversed bytes hold every item swapped, in reverse order
            rows = tuple(array(row.typecode, row.tobytes()[::-1])[::-1] for row in rows)
        return rows if self.width == 1 else tuple(memoryview(row).cast("B") for row in rows)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Ascending neighbor ids of each vertex (the entries equal to 1),
        read off the rows on first use and kept with the matrix."""
        out = []
        for row in self.rows:
            nbrs = []
            i = -1
            try:
                while True:
                    i = row.index(1, i + 1)
                    nbrs.append(i)
            except ValueError:
                pass
            out.append(tuple(nbrs))
        return tuple(out)


def bfs_distances(g: Graph, src: int) -> list[int]:
    """Hop counts from src to every vertex; UNREACHED (-1) where no path exists."""
    if not (0 <= src < g.order):
        raise ValueError(f"source {src} out of range for order {g.order}")
    dist = [UNREACHED] * g.order
    dist[src] = 0
    queue = deque([src])
    adjacency = g.adjacency
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in adjacency[u]:
            if dist[v] == UNREACHED:
                dist[v] = du + 1
                queue.append(v)
    return dist


def is_connected(g: Graph) -> bool:
    if g.order == 0:
        return True
    return UNREACHED not in bfs_distances(g, 0)


def _blocks(g: Graph) -> list[tuple[int, ...]]:
    """Every block of the block-cut tree, as a tuple of its vertices.

    One depth-first search with lowpoints, kept on an explicit stack of
    (vertex, DFS parent, neighbour iterator) so long paths do not recurse:
    when a child w of v has low[w] >= disc[v], v separates w's subtree, and
    the vertices pushed since w, with v, form a block.
    """
    order = g.order
    adjacency = g.adjacency
    disc = [-1] * order
    low = [0] * order
    blocks: list[tuple[int, ...]] = []
    clock = 0
    for root in range(order):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        trail = [root]
        stack = [(root, -1, iter(adjacency[root]))]
        while stack:
            v, parent, nbrs = stack[-1]
            for w in nbrs:
                if disc[w] < 0:
                    disc[w] = low[w] = clock
                    clock += 1
                    trail.append(w)
                    stack.append((w, v, iter(adjacency[w])))
                    break
                if w != parent and disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if parent < 0:
                    continue
                if low[v] < low[parent]:
                    low[parent] = low[v]
                if low[v] >= disc[parent]:
                    block = [parent]
                    while block[-1] != v:
                        block.append(trail.pop())
                    blocks.append(tuple(block))
    return blocks


def _leaves(blocks: Sequence[tuple], count: Sequence[int]) -> list[tuple[tuple, int]]:
    """(block, cut vertex) for each of blocks with exactly one vertex that
    count places in two blocks or more, in the order of blocks."""
    out = []
    for block in blocks:
        cuts = [v for v in block if count[v] > 1]
        if len(cuts) == 1:
            out.append((block, cuts[0]))
    return out


@dataclass(frozen=True)
class BlockTree:
    """A graph's blocks and how many blocks hold each vertex: v is a cut
    vertex iff count[v] > 1. Each block is led by its vertex nearest the
    least id of its component. The DFS lists blocks in the order it closes
    them, a family generator its units in id order and then its bridges."""

    blocks: tuple[tuple[int, ...], ...]
    count: tuple[int, ...]

    @cached_property
    def leaves(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """(block, cut vertex) of each block with one cut vertex, each block
        and the whole ascending; sorted when first read, which apsp never does."""
        return tuple(sorted((tuple(sorted(b)), h) for b, h in _leaves(self.blocks, self.count)))


def block_shape(
    adjacency: Sequence[Sequence[int]], block: Sequence[int], h: int
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The memo key of a block with cut vertex h: its adjacency in local ids,
    i standing for block[i], and h's local id. Blocks are isometric, so the
    key decides the block's rows; on a sorted block local order is id order."""
    local = {v: i for i, v in enumerate(block)}
    return tuple(tuple(local[w] for w in adjacency[v] if w in local) for v in block), local[h]


def _peel(
    g: Graph, check: Callable[[], object] = lambda: None
) -> list[list[tuple[tuple[int, ...], int]]]:
    """Rounds of pieces (vertices, cut vertex). Round r holds the pieces of
    the core that rounds 0..r-1 leave, g less every peeled piece but its cut
    vertex. A piece is a leaf block B with its cut vertex h or, when h lies
    in no live block but B and a bridge hp and p lies in two or more, B + (p,)
    with cut vertex p: it is isometric and left only through p. A bridge
    joins at most one piece per round. g.block_tree serves every round:
    peeling a piece takes its blocks off a copy of the counts, so the blocks
    around it may become leaves. Rounds stop once the core has one block or
    none, or fewer than _PEEL_MIN_ORDER vertices; check is called once per
    round."""
    size = g.order
    if size < _PEEL_MIN_ORDER:
        return []
    live = g.block_tree.blocks
    count = list(g.block_tree.count)
    rounds = []
    while size >= _PEEL_MIN_ORDER and len(live) > 1:
        check()
        bridges: dict[int, list[tuple[int, ...]]] = {}  # the live bridges at each vertex
        for block in live:
            if len(block) == 2:
                for v in block:
                    bridges.setdefault(v, []).append(block)
        pieces = []
        taken = set()  # the bridges that joined a piece this round
        for block, h in _leaves(live, count):
            if count[h] == 2:
                for bridge in bridges.get(h, ()):
                    p = bridge[0] if bridge[1] == h else bridge[1]
                    if bridge != block and count[p] > 1 and bridge not in taken:
                        taken.add(bridge)
                        block, h = block + (p,), p
                        break
            pieces.append((block, h))
            size -= len(block) - 1
        # a peeled piece leaves every vertex but its cut vertex in no live
        # block, and its cut vertex in one block fewer
        for block, h in pieces:
            for v in block:
                if v != h:
                    count[v] = 0
            count[h] -= 1
        live = [block for block in live if all(count[v] for v in block)]
        rounds.append(pieces)
    return rounds


def _ball_rows(
    adjacency: Sequence[Sequence[int]], check: Callable[[], object] = lambda: None
) -> list[bytes]:
    """Byte rows of a connected graph of diameter at most 254, from its bit
    balls and distance bit planes (see apsp)."""
    order = len(adjacency)
    full = (1 << order) - 1
    balls = [1 << v for v in range(order)]
    planes: list[list[int]] = []
    active = [v for v in range(order) if balls[v] != full]
    level = 0
    while active:
        check()
        level += 1
        if level == 1 << len(planes):
            planes.append([0] * order)
        hit = [plane for j, plane in enumerate(planes) if level >> j & 1]
        grown = balls[:]
        still = []
        for v in active:
            ball = old = balls[v]
            for u in adjacency[v]:
                ball |= balls[u]
            new = ball ^ old
            for plane in hit:
                plane[v] |= new
            if ball == full:
                grown[v] = full  # full balls share one int
            else:
                grown[v] = ball
                still.append(v)
        balls, active = grown, still
    width = (order + 7) // 8
    stride = 8 * width
    step = max(1, _BLOCK_BYTES // stride)
    lows = int.from_bytes(b"\x01" * (min(step, order) * width), "little")
    masks = [lows << j for j in range(len(planes))]
    rows = []
    for lo in range(0, order, step):
        hi = min(lo + step, order)
        size = (hi - lo) * width
        # P_j << 7, so that ((P_j >> i) & lows) << j is one right shift and
        # one AND: (P_j << 7) >> (7 + i - j) & (lows << j)
        joined = [
            int.from_bytes(b"".join(p.to_bytes(width, "little") for p in plane[lo:hi]), "little")
            << 7
            for plane in planes
        ]
        out = bytearray(8 * size)
        for i in range(8):
            lane = 0
            for j, bits in enumerate(joined):
                lane |= bits >> (7 + i - j) & masks[j]
            out[i::8] = lane.to_bytes(size, "little")
        view = memoryview(out)
        rows.extend(view[s : s + order].tobytes() for s in range(0, 8 * size, stride))
    return rows


def shift_row(row: bytes, d: int, tables: dict) -> bytes:
    """row with d added to every byte, modulo 256; tables caches one
    translate table per d."""
    if not d:
        return row
    if d not in tables:
        tables[d] = bytes(range(d, 256)) + bytes(range(d))
    return row.translate(tables[d])


def _narrowest(top: int) -> str:
    """The typecode of the narrowest unsigned array whose items hold top."""
    return next(code for code in "BHILQ" if top < 1 << 8 * array(code).itemsize)


def _checked(items: Sequence[int], check: Callable[[], object] = lambda: None) -> Iterator[int]:
    """items, with check called before every _CHECK_STRIDE-th one."""
    for i, item in enumerate(items):
        if not i % _CHECK_STRIDE:
            check()
        yield item


def _peeled_rows(g: Graph, check: Callable[[], object] = lambda: None) -> list[bytes]:
    """Byte rows of g: ball growth on the core that _peel leaves, then each
    round rebuilt outward from the rows of the core inside it, core rows by
    joined columns, each (anchor row, offset) shifted once, and each peeled
    piece's rows by a stack of its cut vertex's row shifted once per
    distinct offset, with the piece's own columns written in (see apsp);
    check is called once per round, once per _CHECK_STRIDE columns joined
    and rows sliced, and once per piece rebuilt."""
    rounds = _peel(g, check)
    if not rounds:
        return _ball_rows(g.adjacency, check)
    order = g.order
    adjacency = g.adjacency
    cores = [list(range(order))]  # the vertices before each round, ascending
    kept = bytearray(b"\x01") * order
    for leaves in rounds:
        for block, h in leaves:
            for v in block:
                if v != h:
                    kept[v] = 0
        cores.append([v for v in cores[-1] if kept[v]])
    pos = [-1] * order  # each vertex's place in the core being rebuilt
    for i, v in enumerate(cores[-1]):
        pos[v] = i
    rows = _ball_rows([[pos[w] for w in adjacency[v] if pos[w] >= 0] for v in cores[-1]], check)
    shapes: dict = {}  # a piece's block_shape -> its rows
    tables: dict = {}
    for r in range(len(rounds) - 1, -1, -1):
        check()
        anchor = pos[:]  # inner place of each vertex, or of its cut vertex
        off = bytearray(order)  # distance to that vertex
        peeled = []
        for block, h in rounds[r]:
            key = block_shape(adjacency, block, h)
            if key not in shapes:
                shapes[key] = _ball_rows(key[0], check)
            brows = shapes[key]
            for x, brow in zip(block, brows):
                anchor[x] = pos[h]
                off[x] = brow[key[1]]
            peeled.append((block, h, brows))
        outer = cores[r]
        for i, v in enumerate(outer):
            pos[v] = i
        # rows are symmetric, so column v of the inner rows over the outer
        # core is the row of v's anchor plus off[v], shifted once per
        # (anchor, offset); with the columns joined, the row of inner place i
        # is every len(rows)-th byte from i
        shifted: dict = {}
        parts = []
        for v in _checked(outer, check):
            key = anchor[v], off[v]
            if key not in shifted:
                shifted[key] = shift_row(rows[key[0]], key[1], tables)
            parts.append(shifted[key])
        columns = b"".join(parts)
        del shifted, parts
        new = [b""] * len(outer)
        for i, v in enumerate(_checked(cores[r + 1], check)):
            new[pos[v]] = columns[i :: len(rows)]
        width = len(outer)
        step = max(1, _BLOCK_BYTES // width)
        for block, h, brows in peeled:
            check()
            # h's row plus each distance from h in the piece, shifted once
            ups = {d: shift_row(new[pos[h]], d, tables) for d in {off[x] for x in block}}
            for lo in range(0, len(block), step):
                part = block[lo : lo + step]
                stacked = bytearray().join(ups[off[x]] for x in part)
                # d_P(x, u) over the stacked rows is u's own piece row
                for u, brow in zip(block, brows):
                    stacked[pos[u] :: width] = brow[lo : lo + step]
                view = memoryview(stacked)
                for i, x in enumerate(part):
                    new[pos[x]] = view[i * width : (i + 1) * width].tobytes()
        rows = new
    return rows


def apsp(g: Graph, check: Callable[[], object] = lambda: None) -> DistanceMatrix:
    """All-pairs hop counts. Disconnected input is an error, not a sentinel
    matrix: every family graph is connected, and silent infinities would
    corrupt the verifiers downstream. check is called once per level of
    ball growth, once per peel round on the way in, once more as each
    round is rebuilt, once per _CHECK_STRIDE columns joined and rows
    sliced and once per piece of it, or once per BFS source, so a deadline
    it enforces stops apsp within one level, one stride of core rows, one
    piece or one source.

    One BFS from vertex 0 finds the first unreached vertex, if any, and
    ecc(0), which bounds the diameter by 2 * ecc(0). Below 256 the bit balls
    of the module docstring grow in lock step: level k reads only level-(k-1)
    balls, since a ball already grown in the same level would count some
    vertices a level early. The vertices new at level k, F = B_k(v) ^
    B_(k-1)(v), are ORed into v's plane j for each set bit j of k, so bit u
    of plane j holds bit j of d(v, u); levels stop at 254, so eight planes
    suffice. v drops out once its ball is full.

    The planes are turned into byte rows a block of sources at a time. With
    a plane's block joined into one int P_j of width = ceil(order / 8) bytes
    per source and lows = 0x01 in every byte, byte m of lane i = OR_j
    ((P_j >> i) & lows) << j is the distance to vertex 8 * (m % width) + i,
    so the eight lanes interleaved byte by byte hold each row in the first
    order bytes of its 8 * width stride. A block holds about _BLOCK_BYTES of
    lanes, so graphs up to about 1,000 vertices convert in one. Blocks bound
    the transpose's temporaries: on ccc 4 (3,656 vertices) unpeeled apsp in
    a fresh process peaked at 78 MB of RSS with all sources in one block,
    against 49 MB with 1 MB blocks.

    From _PEEL_MIN_ORDER vertices on, _peel first takes pieces off in
    rounds, each round the pieces of the core the earlier ones left, until
    the core has one block or none or falls below the floor. A piece is a
    leaf block, or a leaf block B whose cut vertex lies in B and one bridge
    alone, with that bridge's far end p, which lies in another block and is
    the piece's cut vertex; each bridge joins one piece a round, so units
    hung by bridges, as in CCC(n) and LCG(n, k), need no round for the
    bridges alone. A shortest path from a vertex x inside a peeled piece P
    with cut vertex h to a vertex u outside P passes h, so d(x, u) = d(x, h)
    + d(h, u); and P is isometric, so for u in P d(x, u) = d_P(x, u), from
    ball growth on P once per piece shape. Only the last core grows balls.
    Each round is then rebuilt from the m rows of the core inside it,
    innermost first:

    * every vertex v of the outer core has an anchor, v itself or the cut
      vertex of v's piece, and d(c, v) = d(c, anchor) + d(anchor, v) for
      every c of the inner core. Rows are symmetric, so column v of the
      inner rows over the outer core is the anchor's row plus that offset,
      one bytes.translate per (anchor, offset) of the round, shared by the
      columns that have both. With the columns joined, the row of inner
      place i is every m-th byte from i, one slice. No sum carries, as
      every distance is at most 254.
    * the row of x is h's new row plus d(x, h), one translate per distinct
      d(x, h) of the piece, and the rows of P are stacked into one
      bytearray. Over those rows column u of P holds d_P(x, u) = d_P(u, x),
      which is u's own piece row, so each column is one strided write. A
      stack holds at most _BLOCK_BYTES, or one row, so a block of thousands
      of vertices is rebuilt a chunk of rows at a time.

    Rows are the same bytes either way. On ccc 4, whose 392 cubes and then
    56 more peel with their bridges in two rounds down to 72 vertices, each
    cube piece of 9 vertices making 4 translates for its 8 columns and 4 for
    its stack, apsp took 0.028 to 0.030 s against 0.13 to 0.15 s unpeeled
    and peaked at 32 MB of RSS against 48 MB (Python 3.11, 2 vCPUs, one
    fresh process each); with a round for the bridges alone and one
    translate a vertex, 0.037 to 0.044 s at 34 MB.

    Wider distances take one BFS per source: ball growth costs one level per
    unit of diameter, and on a 1,500-vertex path 2-byte lanes took 4.9 s
    against 0.45 s for the BFS (Python 3.11, 2 vCPUs). Rows are packed as
    each BFS ends, in the narrowest unsigned array for 2 * ecc(0) + 1, then
    narrowed to the fewest bytes that hold diameter + 1 (``bytes`` for one).
    """
    order = g.order
    if not order:
        return DistanceMatrix(order=0, rows=())
    first = bfs_distances(g, 0)
    if UNREACHED in first:
        raise DisconnectedGraphError(0, first.index(UNREACHED))
    if 2 * max(first) >= 256:
        code = _narrowest(2 * max(first) + 1)
        rows = []
        for src in range(order):
            check()
            rows.append(array(code, bfs_distances(g, src)))
        if _narrowest(max(first) + 1) != code:  # ecc(0) <= diameter may fit a narrower type
            code = _narrowest(max(map(max, rows)) + 1)
            rows = [bytes(row.tolist()) if code == "B" else array(code, row) for row in rows]
        return DistanceMatrix(order=order, rows=tuple(rows))
    return DistanceMatrix(order=order, rows=tuple(_peeled_rows(g, check)))


# ------------------------------------------------------------------ text I/O
#
# edge-list: header "p <order> <edges>", then one "u v" per line, 0-based,
#            u < v, newline-terminated.  Chosen for bit-exact golden files.
# dimacs:    "p edge <order> <edges>" then "e u v" lines, 1-based; "c" lines
#            are comments.


def write_graph(g: Graph, fmt: str = EDGE_LIST) -> str:
    if fmt == EDGE_LIST:
        lines = [f"p {g.order} {g.edge_count}"]
        lines += [f"{u} {v}" for u, v in g.edges()]
    elif fmt == DIMACS:
        lines = [f"p edge {g.order} {g.edge_count}"]
        lines += [f"e {u + 1} {v + 1}" for u, v in g.edges()]
    else:
        raise ValueError(f"unknown graph format {fmt!r}")
    return "\n".join(lines) + "\n"


def _parse_int(token: str, what: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"expected integer {what}, got {token!r}", line) from None


def read_graph(text, fmt: str = EDGE_LIST) -> Graph:
    """Parse graph text (a string or a readable stream); raises FormatError
    with a line number on bad input. make_graph checks the edges, and its
    ValueError names the line of the edge it rejected."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown graph format {fmt!r}")
    if hasattr(text, "read"):
        text = text.read()
    lineno = 0

    def content() -> Iterator[str]:
        nonlocal lineno
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if line and not (fmt == DIMACS and line.startswith("c")):
                yield line

    lines = content()
    line = next(lines, None)
    if line is None:
        raise FormatError("missing header line", max(lineno, 1))
    base = 0 if fmt == EDGE_LIST else 1  # DIMACS ids are 1-based, after a tag
    parts = line.split()
    if parts[0] != "p":
        raise FormatError("edge before header line", lineno)
    if len(parts) != 3 + base or (base and parts[1] != "edge"):
        raise FormatError(f"malformed header {line!r}", lineno)
    order = _parse_int(parts[-2], "order", lineno)
    declared_edges = _parse_int(parts[-1], "edge count", lineno)
    for what, value in (("order", order), ("edge count", declared_edges)):
        if value < 0:
            raise FormatError(f"negative {what} {value}", lineno)
    if order > MAX_ORDER:
        raise FormatError(f"order {order} exceeds the limit {MAX_ORDER}", lineno)

    def edges() -> Iterator[tuple[int, int]]:
        for line in lines:
            parts = line.split()
            if parts[0] == "p":
                raise FormatError("duplicate header line", lineno)
            if len(parts) != 2 + base or (base and parts[0] != "e"):
                raise FormatError(f"malformed edge line {line!r}", lineno)
            u = _parse_int(parts[-2], "vertex", lineno)
            v = _parse_int(parts[-1], "vertex", lineno)
            yield u - base, v - base

    try:
        g = make_graph(order, edges())
    except FormatError:
        raise
    except ValueError as exc:
        raise FormatError(str(exc), lineno) from None
    if declared_edges != g.edge_count:
        raise FormatError(f"header declares {declared_edges} edges, found {g.edge_count}", lineno)
    return g
