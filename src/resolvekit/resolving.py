"""Distance representations, the three set-verification predicates, mutually
maximally distant pairs, and twin classes.

All predicates are pure functions of an immutable DistanceMatrix. The set
predicates and mmd_pairs read its rows only as dist.lanes: order
little-endian lanes of dist.width bytes per row, so one algorithm per
predicate serves every diameter. is_resolving and is_doubly_resolving are O(order * |set|): they
join the members' lanes once and read each vertex's record out of the join
as one strided slice per lane byte, so the per-vertex work runs in C. On
byte rows below 128, doubly translates each vertex's record over the other
members by -d(x, z0) mod 256, one bytes.translate per vertex. Other rows
keep one big-int subtraction per member, in lanes of the members' own width
that hold 2**(8W - 1) + d(u, z) - d(u, z0) with no borrow, one byte wider
only when some member's distances reach 2**(8W - 1).
is_strong_resolving keeps one Python int bitset H(v) per vertex, the sources
u with v on a shortest path from u to a member, and scans the pairs H leaves
open. Every source is handled at once: one big-int subtraction per edge
gives both directions' step sets, and sweeps over the vertices propagate H
from the members until nothing changes, O(size) bitset operations of order
bits per sweep and at most max ecc(member) + 1 sweeps. Membership follows
the distance rows, never path enumeration, and the neighbor lists are read
off the rows once per matrix. mmd_pairs marks local maxima with O(size)
big-int operations of order lanes each (one subtraction and one OR per edge
end), keeps a 0/1 byte row per vertex, and reads the pairs off those rows by
bytes.find.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .graphs import DistanceMatrix, Graph, apsp, shift_row


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


def _lifted(dist: DistanceMatrix) -> tuple[int, list[int]]:
    """ones, holding 1 in every lane, and each row's lanes as an int plus
    ones: A_x + ones, with A_x holding d(u, x) in lane u. On byte rows a
    distance of 255 carries into the next lane here, but callers read only
    A_y + ones - A_v for adjacent v and y, which is exact as an int and has
    each lane d(u, y) + 1 - d(u, v) in {0, 1, 2}."""
    ones = int.from_bytes((b"\x01" + bytes(dist.width - 1)) * dist.order, "little")
    return ones, [int.from_bytes(row, "little") + ones for row in dist.lanes]


def _distinct_records(order: int, columns: Sequence[bytes], lane: int) -> bool:
    """True iff the order records of the columns of lane-byte lanes are
    pairwise distinct, record x being lane x of every column.

    The columns are joined once. Byte i of lane x in every column is then
    the strided slice joined[x * lane + i :: order * lane], so a record is
    one slice per lane byte, each one C call.
    """
    joined = b"".join(columns)
    if lane == 1:
        return len({joined[x::order] for x in range(order)}) == order
    stride = order * lane
    starts = range(0, stride, lane)
    return len({tuple(joined[s + i :: stride] for i in range(lane)) for s in starts}) == order


def is_resolving(dist: DistanceMatrix, members: Sequence[int]) -> bool:
    """True iff all vertices have pairwise distinct representations.

    d is symmetric, so the column of member z is its own row of lanes, and
    the representations are the records of those columns: one strided slice
    of their join per lane byte (see _distinct_records).
    """
    _check_members(dist.order, members)
    return _distinct_records(dist.order, [dist.lanes[z] for z in members], dist.width)


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

    With z0 the first member: on byte rows whose entries in z0's row and in
    the other members' rows all lie below 128 (bytes.isascii), the record of
    x over the other members is translated by -d(x, z0) mod 256, one
    bytes.translate per vertex with the tables built as needed. Each
    difference d(x, z) - d(x, z0) then lies in [-127, 127], two of them
    differ by at most 254, and so equality mod 256 is equality; the argument
    needs no triangle inequality, which DistanceMatrix does not check.

    Any other rows take columns. With A_z each member's lanes as one int and
    W the lane width, top holds bit 8W - 1 of every lane, and the column of
    each other member z is (A_z | top) - A_z0, whose lane u is
    2**(8W - 1) + d(u, z) - d(u, z0). When no member's lanes reach top, z0
    included (every distance below 2**(8W - 1)), each lane lies in
    [1, 2**(8W) - 1]: no lane borrows, and the value is injective in the
    difference. Otherwise every member is spread into lanes one byte wider
    first, where distances below 256**W keep the same bounds; byte rows that
    miss the translate always widen so.
    """
    _check_members(dist.order, members)
    if len(members) < 2:
        raise ValueError("a doubly resolving set needs at least 2 members")
    lanes, width = dist.lanes, dist.width
    order = dist.order
    if width == 1:
        anchor = lanes[members[0]]
        rest = b"".join(lanes[z] for z in members[1:])
        if anchor.isascii() and rest.isascii():
            tables: dict[int, bytes] = {}
            records = {shift_row(rest[x::order], -d & 255, tables) for x, d in enumerate(anchor)}
            return len(records) == order
    top = _top_bits(width, order)
    ints = [int.from_bytes(lanes[z], "little") for z in members]
    if any(a & top for a in ints):
        ints = [_spread(lanes[z], width) for z in members]
        width += 1
        top = _top_bits(width, order)
    base = ints[0]
    columns = [((a | top) - base).to_bytes(width * order, "little") for a in ints[1:]]
    return _distinct_records(order, columns, width)


def _top_bits(width: int, order: int) -> int:
    """The int with the top bit of each of order width-byte lanes set."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * order, "little")


def _spread(lanes: bytes, width: int) -> int:
    """lanes of width bytes as an int with lane u in the low bytes of the
    (width + 1)-byte lane u."""
    out = bytearray(len(lanes) // width * (width + 1))
    for i in range(width):
        out[i :: width + 1] = lanes[i::width]
    return int.from_bytes(out, "little")


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

    H is built for every source at once. A member's H is every vertex. For
    any other v, v lies on a shortest u-w path iff some neighbor y does with
    d(u, y) = d(u, v) + 1, so H(v) is the union over the neighbors y of
    H(y) & F(v, y), F(v, y) = {u : d(u, y) = d(u, v) + 1}. With A_x holding
    d(u, x) in lane u, lane u of A_y + ones - A_v (see _lifted) is
    d(u, y) + 1 - d(u, v), in {0, 1, 2} since adjacent vertices differ by at
    most 1 from any u, so no lane borrows. Value 2 in the low byte of a lane
    gives F(v, y) and value 0 gives F(y, v): one subtraction per edge.
    Sweeping the vertices until no H changes reaches the least solution,
    which is H: in any order, after k sweeps H(v) holds every u with v on a
    u-w geodesic at most k steps from w, so no sweep after the first
    max ecc(w) changes anything, and the loop stops by one more sweep. The
    sweeps alternate direction, so H crosses a path numbered from either end
    in a few sweeps. The neighbor lists come from dist.adjacency.
    """
    _check_members(dist.order, members)
    order = dist.order
    width = dist.width
    nbrs = dist.adjacency
    full = (1 << order) - 1
    hits = [0] * order
    for w in members:
        hits[w] = full
    ones, lifted = _lifted(dist)
    # the big-endian bytes of a lane int put the low byte of source u's
    # lane at index order - 1 - u of the strided slice, so int(..., 2) sets
    # bit u for source u
    farther = bytes.maketrans(b"\x00\x01\x02", b"001")
    nearer = bytes.maketrans(b"\x00\x01\x02", b"100")
    free = [v for v in range(order) if hits[v] != full]
    # links[v] pairs each neighbor y of a non-member v with F(v, y)
    links: list[list[tuple[int, int]] | None] = [None if h == full else [] for h in hits]
    for v in free:
        base = lifted[v] - ones
        for y in nbrs[v]:
            if y < v and links[y] is not None:
                continue  # the edge was done from y
            step = (lifted[y] - base).to_bytes(order * width, "big")[width - 1 :: width]
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
        free.reverse()
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


def mmd_pairs(
    g: Graph, dist: DistanceMatrix | None = None, check: Callable[[], object] = lambda: None
) -> MmdGraph:
    """All pairs {u, v} where each vertex is maximally distant from the other
    (no neighbor of one is farther from the other).

    v is a local maximum of u, v in LM(u), when no neighbor of v is farther
    from u; {u, v} is a pair exactly when v is in LM(u) and u is in LM(v).
    Pairs come out sorted, as (u, v) with u < v.

    With A_x holding d(u, x) in lane u, for v and a neighbor w lane u of
    A_w + ones - A_v (see _lifted) is d(u, w) + 1 - d(u, v), which lies in
    {0, 1, 2} because adjacent vertices differ by at most 1 from any u, so
    no lane borrows. Bit 1 of lane u is set iff w is farther from u than v;
    ORed over N(v), shifted down one bit and masked by ones, lane u is 1 iff
    v is in LM(u). That is O(size) big-int operations. The low byte of each
    lane makes a 0/1 byte row per vertex; bytes.find lists the candidates of
    each u and one byte lookup tests the partner. check is called once per
    vertex of the marking loop; a budget raises from it.
    """
    if dist is None:
        dist = apsp(g)
    order = g.order
    width = dist.width
    ones, lifted = _lifted(dist)
    # byte u of flags[v] is 1 iff v is in LM(u); {u, v} is a pair iff
    # flags[u][v] and flags[v][u]
    flags: list[bytes] = []
    for v, nbrs in enumerate(g.adjacency):
        check()
        base = lifted[v] - ones
        farther = 0
        for w in nbrs:
            farther |= lifted[w] - base
        flags.append((ones & ~(farther >> 1)).to_bytes(order * width, "little")[::width])
    edges = []
    for u, row in enumerate(flags):
        v = row.find(1, u + 1)
        while v >= 0:
            if flags[v][u]:
                edges.append((u, v))
            v = row.find(1, v + 1)
    return MmdGraph(order=order, edges=tuple(edges))


def twin_classes(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Partition of the vertices into twin classes, ascending by least member.

    u and v are twins when N(u) \\ {v} = N(v) \\ {u}: open twins have N(u) =
    N(v), closed twins N[u] = N[v]. No vertex has both, since N(u) = N(v) and
    N[v] = N[w] put w in N(u), so u in N[w] = N[v], adjacent to v. So the
    classes are the open groups of two or more and the closed groups of the
    other vertices. Any resolving set holds all but at most one of each class.
    """
    open_groups: dict[tuple[int, ...], list[int]] = {}
    for v, nbrs in enumerate(g.adjacency):
        open_groups.setdefault(nbrs, []).append(v)
    classes = [group for group in open_groups.values() if len(group) > 1]
    closed_groups: dict[frozenset[int], list[int]] = {}
    for v in (group[0] for group in open_groups.values() if len(group) == 1):
        closed_groups.setdefault(frozenset(g.adjacency[v]) | {v}, []).append(v)
    return tuple(map(tuple, sorted(classes + list(closed_groups.values()))))


def twin_lower_bound(g: Graph) -> int:
    """Forced resolving-set size from twin classes: sum of (|class| - 1)."""
    return sum(len(c) - 1 for c in twin_classes(g))
