"""Distance representations, the three set-verification predicates, mutually
maximally distant pairs, and twin classes.

All predicates are pure functions of an immutable DistanceMatrix.
is_resolving and is_doubly_resolving are O(order * |set|): on ``bytes`` rows
they transpose one byte column per member into a row-major buffer and hash
each vertex's record, so the per-vertex work runs in C; on tuple rows they
hash one tuple per vertex. is_strong_resolving keeps one Python int bitset
H(v) per vertex, the sources u with v on a shortest path from u to a member,
and scans the pairs H leaves open. On ``bytes`` rows every source is handled
at once: one big-int subtraction per edge gives both directions' step sets,
and sweeps over the vertices propagate H from the members until nothing
changes, O(size) bitset operations of order bits per sweep and at most
max ecc(member) sweeps. On tuple rows it builds each member's geodesic
intervals, O(|set| * (order + size)) bitset unions. Interval membership
follows the distance rows, never path enumeration, and the neighbor lists
are read off the rows once per matrix. mmd_pairs marks local maxima on byte
lanes: on ``bytes`` rows it is O(size) big-int operations of order bytes
each (one subtraction and one OR per edge end); on tuple rows it is one
O(order * size) pass over the edge list. Either way each vertex gets a 0/1
byte row and the pairs are read off those rows by bytes.find.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphs import DistanceMatrix, Graph, apsp


def _check_members(order: int, members: Sequence[int], min_size: int = 1) -> None:
    if len(members) < min_size:
        raise ValueError(f"vertex set needs at least {min_size} members, got {len(members)}")
    if len(set(members)) != len(members):
        raise ValueError("vertex set contains duplicates")
    for v in members:
        if not (0 <= v < order):
            raise ValueError(f"vertex {v} out of range for order {order}")


def representation(dist: DistanceMatrix, u: int, members: Sequence[int]) -> tuple[int, ...]:
    """Tuple of distances from u to each member, in member order."""
    _check_members(dist.order, members)
    if not (0 <= u < dist.order):
        raise ValueError(f"vertex {u} out of range for order {dist.order}")
    row = dist.rows[u]
    return tuple(row[z] for z in members)


def _distinct_records(order: int, columns: Sequence[bytes]) -> bool:
    """True iff the order records of the byte columns are pairwise distinct,
    record x being byte x of every column, in column order.

    Strided slice assignment writes each column into a row-major transpose,
    so record x is one contiguous slice and hashing it is one C call.
    """
    width = len(columns)
    buf = bytearray(order * width)
    for j, column in enumerate(columns):
        buf[j::width] = column
    view = memoryview(buf)
    return len({view[i : i + width].tobytes() for i in range(0, len(buf), width)}) == order


def is_resolving(dist: DistanceMatrix, members: Sequence[int]) -> bool:
    """True iff all vertices have pairwise distinct representations.

    d is symmetric, so the column of member z is its own row, and on
    ``bytes`` rows the representations are the records of those columns.
    Tuple rows (distances past a byte) hash one tuple per vertex.
    """
    _check_members(dist.order, members)
    rows = dist.rows
    if isinstance(rows[0], bytes):
        return _distinct_records(dist.order, [rows[z] for z in members])
    reps = zip(*(rows[z] for z in members))
    return len(set(reps)) == dist.order


def doubly_resolves(dist: DistanceMatrix, x: int, y: int, u: int, v: int) -> bool:
    """True iff the pair (x, y) separates u and v by a non-constant shift."""
    if x == y:
        raise ValueError("doubly_resolves needs two distinct probe vertices")
    if u == v:
        raise ValueError("doubly_resolves needs two distinct target vertices")
    rows = dist.rows
    return rows[u][x] - rows[u][y] != rows[v][x] - rows[v][y]


def is_doubly_resolving(dist: DistanceMatrix, members: Sequence[int]) -> bool:
    """True iff no two vertices have representations differing by a constant
    vector.

    Computed by normalizing each representation against its first coordinate:
    r(u) - r(v) is a constant vector exactly when the normalized tuples of u
    and v coincide, so one hashing pass over the vertices checks every pair.
    A single probe vertex can never doubly resolve, so |members| >= 2 is
    required rather than answered False.

    On ``bytes`` rows, with z0 the first member, each other member z gives a
    column of 2-byte lanes holding 256 + d(u, z) - d(u, z0) in lane u. Both
    rows are spread into the even bytes of 2 * order bytes, 0x0100 is ORed
    into every lane of z's, and the base is subtracted as one big int: every
    lane of the minuend is at least 256 and every base lane at most 255, so
    no lane borrows and each lane ends in [1, 511]. The low and high bytes of
    the lanes are two byte columns of the transposed records. Tuple rows
    (distances past a byte) hash one tuple of differences per vertex.
    """
    _check_members(dist.order, members)
    if len(members) < 2:
        raise ValueError("a doubly resolving set needs at least 2 members")
    rows = dist.rows
    order = dist.order
    if isinstance(rows[0], bytes):
        high = int.from_bytes(b"\x00\x01" * order, "little")
        base = _spread(rows[members[0]])
        columns: list[bytes] = []
        for z in members[1:]:
            lanes = ((_spread(rows[z]) | high) - base).to_bytes(2 * order, "little")
            columns += (lanes[0::2], lanes[1::2])
        return _distinct_records(order, columns)
    base = rows[members[0]]
    rest = [rows[z] for z in members[1:]]
    normalized = {
        tuple(x - b for x in shifted)
        for b, shifted in zip(base, zip(*rest))
    }
    return len(normalized) == order


def _spread(row: bytes) -> int:
    """row as an int with byte row[u] in the low byte of 2-byte lane u."""
    lanes = bytearray(2 * len(row))
    lanes[0::2] = row
    return int.from_bytes(lanes, "little")


def strongly_resolves(dist: DistanceMatrix, w: int, u: int, v: int) -> bool:
    """True iff u lies on a shortest v-w path or v lies on a shortest u-w path."""
    if u == v:
        raise ValueError("strongly_resolves needs two distinct target vertices")
    rows = dist.rows
    duv = rows[u][v]
    return rows[u][w] == duv + rows[v][w] or rows[v][w] == duv + rows[u][w]


def is_strong_resolving(dist: DistanceMatrix, members: Sequence[int]) -> bool:
    """True iff every vertex pair is strongly resolved by some member.

    w strongly resolves (u, v) exactly when v lies on a shortest u-w path or
    u lies on a shortest v-w path. Let H(v) be the set of sources u such that
    v lies on a shortest path from u to some member; then (u, v) is resolved
    iff u is in H(v) or v is in H(u), and one scan over the bitsets checks
    every pair.

    On ``bytes`` rows H is built for every source at once. A member's H is
    every vertex. For any other v, v lies on a shortest u-w path iff some
    neighbor y does with d(u, y) = d(u, v) + 1, so H(v) is the union over
    the neighbors y of H(y) & F(v, y), F(v, y) = {u : d(u, y) = d(u, v) + 1}.
    With A_x holding d(u, x) in byte lane u and ones holding 1 in every lane,
    lane u of A_y + ones - A_v is d(u, y) + 1 - d(u, v), in {0, 1, 2} since
    adjacent vertices differ by at most 1 from any u; no lane of A_y + ones
    passes 255 (byte rows mean a diameter below 255) and none of the
    difference is negative, so no lane carries or borrows. Lane 2 gives
    F(v, y) and lane 0 gives F(y, v): one subtraction per edge. Sweeping the
    vertices in id order until no H changes reaches the least solution,
    which is H: after k sweeps H(v) holds every u with v on a u-w geodesic at
    most k steps from w, so no sweep after the first max ecc(w) changes
    anything, and the loop stops by one more sweep. Tuple
    rows (distances past a byte) build each member's geodesic intervals
    instead, I_w(x) = {x} united with I_w(y) over the neighbors y one step
    closer to w, and take reach(u), the union of I_w(u), which is H
    transposed; the pair condition is symmetric, so the same scan applies.
    The neighbor lists come from dist.adjacency, read once per matrix.
    """
    _check_members(dist.order, members)
    order = dist.order
    rows = dist.rows
    nbrs = dist.adjacency
    full = (1 << order) - 1
    hits = [0] * order
    if isinstance(rows[0], bytes):
        for w in members:
            hits[w] = full
        ones = int.from_bytes(b"\x01" * order, "little")
        lifted = [int.from_bytes(row, "little") + ones for row in rows]
        # the big-endian bytes of a lane int put source u at string index
        # order - 1 - u, so int(..., 2) sets bit u for source u
        farther = bytes.maketrans(b"\x00\x01\x02", b"001")
        nearer = bytes.maketrans(b"\x00\x01\x02", b"100")
        free = [v for v in range(order) if hits[v] != full]
        # links[v] pairs each neighbor y of a non-member v with F(v, y)
        links: list[list[tuple[int, int]] | None] = [None] * order
        for v in free:
            links[v] = []
        for v in free:
            base = lifted[v] - ones
            for y in nbrs[v]:
                if y < v and links[y] is not None:
                    continue  # the edge was done from y
                step = (lifted[y] - base).to_bytes(order, "big")
                links[v].append((y, int(step.translate(farther), 2)))
                if links[y] is not None:
                    links[y].append((v, int(step.translate(nearer), 2)))
        changed = True
        while changed:
            changed = False
            for v in free:
                acc = hits[v]
                for y, toward in links[v]:
                    acc |= hits[y] & toward
                if acc != hits[v]:
                    hits[v] = acc
                    changed = True
    else:
        for w in members:
            rw = rows[w]
            interval = [0] * order
            for x in sorted(range(order), key=rw.__getitem__):
                closer = rw[x] - 1
                acc = 1 << x
                for y in nbrs[x]:
                    if rw[y] == closer:
                        acc |= interval[y]
                interval[x] = acc
                hits[x] |= acc
    for u in range(order):
        # partners v > u outside hits(u); each needs u in hits(v)
        open_pairs = full & ~hits[u] & ~((2 << u) - 1)
        while open_pairs:
            low = open_pairs & -open_pairs
            if not (hits[low.bit_length() - 1] >> u) & 1:
                return False
            open_pairs ^= low
    return True


@dataclass(frozen=True)
class MmdGraph:
    """Graph on the same vertex set whose edges are the mutually maximally
    distant pairs of the base graph; its minimum vertex cover is the strong
    solver's cross-check oracle."""

    order: int
    edges: tuple[tuple[int, int], ...]

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.order)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(nbrs)) for nbrs in adj)


def mmd_graph(order: int, pairs: Sequence[tuple[int, int]]) -> MmdGraph:
    """Normalize arbitrary vertex pairs into an MmdGraph."""
    normalized = sorted({(min(u, v), max(u, v)) for u, v in pairs})
    for u, v in normalized:
        if u == v or not (0 <= u < order and 0 <= v < order):
            raise ValueError(f"bad pair ({u}, {v}) for order {order}")
    return MmdGraph(order=order, edges=tuple(normalized))


def mmd_pairs(g: Graph, dist: DistanceMatrix | None = None) -> MmdGraph:
    """All pairs {u, v} where each vertex is maximally distant from the other
    (no neighbor of one is farther from the other).

    v is a local maximum of u, v in LM(u), when no neighbor of v is farther
    from u; {u, v} is a pair exactly when v is in LM(u) and u is in LM(v).
    Pairs come out sorted, as (u, v) with u < v.

    On ``bytes`` rows, A_x = int.from_bytes(rows[x]) holds d(u, x) in byte
    lane u, and ones holds 1 in every lane. For v and a neighbor w, lane u of
    A_w + ones - A_v is d(u, w) + 1 - d(u, v), which lies in {0, 1, 2}
    because adjacent vertices differ by at most 1 from any u. Every lane of
    A_w + ones is at most 255 (byte rows mean a diameter below 255) and no
    lane of the difference is negative, so no lane carries or borrows. Bit 1
    of lane u is set iff w is farther from u than v; ORed over N(v), shifted
    down one bit and complemented within ones, lane u is 1 iff v is in
    LM(u). That is O(size) big-int operations. Tuple rows (distances past a
    byte) mark LM(u) by one pass over the edge list per source u instead.
    Both keep one 0/1 byte row per vertex; bytes.find lists the candidates
    of each u and one byte lookup tests the partner.
    """
    if dist is None:
        dist = apsp(g)
    rows = dist.rows
    order = g.order
    # flags[x] is a 0/1 byte row; {u, v} is a pair iff flags[u][v] and
    # flags[v][u], a symmetric test, so either orientation serves
    flags: list[bytes] = []
    if order and isinstance(rows[0], bytes):
        # byte u of flags[v] is 1 iff v is in LM(u)
        ones = int.from_bytes(b"\x01" * order, "little")
        lifted = [int.from_bytes(row, "little") + ones for row in rows]
        for v, nbrs in enumerate(g.adjacency):
            base = lifted[v] - ones
            farther = 0
            for w in nbrs:
                farther |= lifted[w] - base
            flags.append((ones & ~(farther >> 1)).to_bytes(order, "little"))
    else:
        # byte v of flags[u] is 1 iff v is in LM(u)
        edge_list = list(g.edges())
        for u in range(order):
            ru = rows[u]
            row = bytearray(b"\x01") * order
            for a, b in edge_list:
                da, db = ru[a], ru[b]
                if da < db:
                    row[a] = 0
                elif db < da:
                    row[b] = 0
            flags.append(bytes(row))
    edges = []
    for u, row in enumerate(flags):
        v = row.find(1, u + 1)
        while v >= 0:
            if flags[v][u]:
                edges.append((u, v))
            v = row.find(1, v + 1)
    return MmdGraph(order=order, edges=tuple(edges))


def twin_classes(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Partition of the vertices into twin classes.

    u and v are twins when N(u) \\ {v} = N(v) \\ {u}; equivalently they share
    open neighborhoods (non-adjacent twins) or closed neighborhoods (adjacent
    twins). A class never mixes the two flavors, so grouping by both keys and
    merging yields the partition. Any resolving set must contain all but at
    most one member of each class.
    """
    parent = list(range(g.order))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    open_groups: dict[frozenset[int], int] = {}
    closed_groups: dict[frozenset[int], int] = {}
    for v in range(g.order):
        nbrs = g.adjacency[v]
        open_key = frozenset(nbrs)
        closed_key = frozenset(nbrs) | {v}
        for groups, key in ((open_groups, open_key), (closed_groups, closed_key)):
            if key in groups:
                union(groups[key], v)
            else:
                groups[key] = v
    classes: dict[int, list[int]] = {}
    for v in range(g.order):
        classes.setdefault(find(v), []).append(v)
    return tuple(tuple(sorted(c)) for c in sorted(classes.values()))


def twin_lower_bound(g: Graph) -> int:
    """Forced resolving-set size from twin classes: sum of (|class| - 1)."""
    return sum(len(c) - 1 for c in twin_classes(g))
