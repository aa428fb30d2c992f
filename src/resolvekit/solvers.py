"""Exact minimization for the three resolving parameters.

Search order is the contract: cardinalities ascending, and within a
cardinality, candidate sets in lexicographic order of their sorted id tuples;
the first success is returned, so optima are deterministic and witnesses are
lexicographically least. The search is sequential; any future parallel split
over subset ranges must still publish the least successful candidate.

Each cardinality runs one depth-first search that grows a prefix by ids in
ascending order, so its leaves are the candidates in exactly that order. The
search cuts a subtree only when no set in it can succeed, which is why the
first leaf accepted is still the least success. Every cut looks at the
largest set in the subtree, the prefix plus every later id:

* resolving and doubly resolving are closed under supersets, so when that
  set leaves two vertices unseparated, every set below it does too. Tables
  of the later ids, built before the first node, answer this at every node;
* a mask is a bitset with a need, the fewest members every success holds in
  it (a leaf block's count, an MMD pair's 1). Once the search has passed a
  mask's largest id without taking any of its members, no set below hits
  it; and when the needs still owed to vertex-disjoint masks add up to more
  than the slots left, no completion meets them all. The first cardinality
  tried is raised until the owed needs fit.

A resolving or doubly node holds which pairs its set leaves unseparated,
in one of two forms that give the same answers, so the search visits the
same nodes in the same order in either:

* pair lanes, on graphs of order at most 32: one int with a byte lane for
  each ordered pair, lane x * order + y, holding 0x80 while x and y are
  unseparated. Per vertex z, X_z holds d(x, z) in that lane and Y_z holds
  d(y, z), and eq(Z) = (((Z & L7) + L7) | Z) & H ^ H, with L7 and H 0x7F
  and 0x80 in every lane, puts 0x80 in the lanes where Z is 0. The
  resolving table is tab[z] = eq(X_z ^ Y_z). A doubly set leaves x, y
  unseparated iff d(x, z) - d(y, z) is the same for every member z, that
  is iff d(x, z) + d(y, a) = d(x, a) + d(y, z) for one member a, so the
  doubly table anchored at a is tab[z] = eq((X_z + Y_a) ^ (X_a + Y_z)).
  The identity needs sums, not differences, so no lane borrows;
  distances are below 32 and their sums below 64, so no lane carries into
  the next, and eq, whose lane sum (Z & L7) + L7 stays below 0x100, reads
  each lane alone. A child is node & tab[v], and a set succeeds iff its
  node is DIAG, 0x80 in the lanes x = y only. The superset cut ANDs the
  node with the AND of tab over pool[j:] and compares with DIAG. Doubly
  tables are anchored at the first member, mandatory[0] when there is
  one; before the search has taken one, the cut reads the ANDs anchored at
  the last free id, which every such superset holds. The tables are
  order^3 bytes, built once per solve and, for doubly, once per first
  member, all in C-level big-int and bytearray operations on byte rows;
* per-vertex keys, above order 32: a node names each vertex's
  representation on the prefix by one small int, and the superset cut
  names the later ids' columns once per solve (see _key_nodes). Its tables
  are order^2 ints.

On a small graph a node's cost is Python overhead, not distance work, and
one int per node cuts it: twin-free random graphs of 14 to 18 vertices
solved 2 to 4 times faster on pair lanes than on keys, and random graphs of
24 to 40 vertices, with 8,000 to 1.7 million nodes, 4 to 8 times faster. A
search of a few hundred nodes on a larger graph spends its time building
the tables, though: on pair lanes lcg 6,2 (42 vertices) took 0.98 to 1.13
times as long as on keys, and lcg 4,3 and ccc 2 (68 and 72 vertices) 1.5
to 2.4 times (Python 3.11, 2 vCPUs). No case measured at order 32 or below
was slower, so pair lanes stop there.

Every solve call, on either route, holds one ticker for its whole budget;
its clock starts before apsp, which reads it as it runs (see graphs.apsp),
and is read again after apsp; the strong leaf-block route runs no apsp of
g and reads it once per leaf block instead. A node with one slot left tests
its leaves as one row and charges the row's length before it tests it;
every other node is one tick. So max_subsets and the timeout bound all of
the search's work, and SearchStats.subsets_examined counts interior nodes
plus the leaves of every row tested, the leaf-block count searches
included, alike on either node form. On the cover route every branch-and-bound node is one
tick and also reads the clock. Searches and verifiers are looked up in
SEARCHES and VERIFIERS at call time, and the unrestricted verifier
re-checks the returned witness.

Pruning never trades away exactness:

* twin forcing - all but the lexicographically largest member of each twin
  class are mandatory. Two twins left out of a set collapse to the same
  representation (their distance rows agree everywhere else), and swapping
  twins is a graph automorphism, so the lexicographically least optimum
  always contains the forced prefix.
* leaf-block counts - let B be a block of the block-cut tree with a single
  cut vertex h, and C = B - h. Every vertex outside C reaches C only
  through h, so on pairs inside B an outside probe acts as h (for doubly,
  d(u, z) - d(v, z) = d(u, h) - d(v, h)). Every resolving (doubly
  resolving) set S therefore has |S & C| >= c_B, the fewest members of C
  that with h resolve (doubly resolve) the pairs of B; the sets C are
  disjoint, so the counts add. Blocks are isometric, so c_B is a small
  search with h mandatory on the rows of B's shape, run once per shape, as
  the strong route's are. This is the legs argument for trees (Khuller,
  Raghavachari and Rosenfeld, Discrete Appl. Math. 70, 1996), read with the
  doubly definition of Cáceres et al. (SIAM J. Discrete Math. 21, 2007). The
  blocks come from g.block_tree, the tree that apsp's peel also reads, and
  their shape keys from g.leaf_shapes. A file input finds the tree by one
  DFS and the keys by block_shape, so it is cut too; a family graph's
  generator hands both over, with the last-layer units as the leaf blocks,
  all of one key. A block whose C holds more than half the vertices is the
  graph's body, and its count would cost a search as large as the solve, so
  it gets no mask. Every resolving and doubly search takes these masks, and
  they already make every success hit each last-layer unit, so no family
  restriction is left to add.
* strong search covers the mutually-maximally-distant pairs first - no third
  vertex can strongly resolve an MMD pair (a geodesic past either endpoint
  would contradict maximal distance), so every strong resolving set is a
  vertex cover of the MMD graph. The converse holds as well: a set is
  strong resolving iff it covers every MMD pair (Oellermann and
  Peters-Fransen, Discrete Appl. Math. 155, 2007). The direct search,
  solve_min_strong_direct, uses the pairs only as a cut and runs the
  definition verifier on its leaves. It does not start at the cover bound,
  so it is far slower than the cover route on all but small graphs: on
  lcg 6,3 it ran out of a 5,000,001-node budget.

The vertex-cover route computes sdim by that theorem: the minimum cover of
the MMD graph is a certified lower bound by the necessity argument above,
and the cover itself is the matching upper bound once it is checked, so
every cover solve certifies its own answer whoever calls it. Off the
leaf-block route below, the definition verifier checks the cover. On the
route it must cover the derived MMD graph, so the bound rests on the
theorem plus the three facts that derive that graph; tests cross-check
both wherever apsp fits. A failed check raises StrongReductionError
instead of publishing either bound.

The route reads the MMD graph off the leaf blocks of g.block_tree, with
no whole-graph apsp, mmd_pairs or cover search, when g is connected, has
two leaf blocks or more and every vertex is a cut vertex or lies in C_B =
B - h of a leaf block B with cut vertex h, as on every family graph. Blocks
are isometric, so a block shape's rows are the apsp of its own graph, and
three facts give the pairs:

* a cut vertex u is never an MMD endpoint: for any other v, u's neighbour
  in a component of g - u without v is farther from v;
* a vertex of C_B has all its neighbours in B, and blocks are isometric, so
  a pair inside C_B is MMD in g iff it is MMD in B;
* for u in C_B1 and v in C_B2 of distinct leaf blocks, d(u, v) = d(u, h1) +
  d(h1, v), so u is maximally distant from v iff u is in F_B1, the vertices
  of C_B1 with no neighbour farther from h1.

So the MMD pairs are each block's inner pairs, those of B without h, plus
F_B1 x F_B2 for every two blocks, and a cover holds F_B in every block but
at most one, the free block: sdim = sum a_B - max (a_B - b_B), with b_B the
least cover of B's inner pairs and a_B that of those holding F_B. These
covers are searched once per block shape, and the lex-least optimum is the
union of each block's lex-least a-cover, but the free block's b-cover. Only
blocks of the top gain a_B - b_B may be free, and two unions differ first
at the least of the candidates' delta_B, the least id of (a-cover ^
b-cover): if some delta_B lies in its b-cover, the block of the least such
is free; else a top gain of 0 frees none, and a positive one the block of
the largest delta_B. Any other graph takes apsp, mmd_pairs, the whole-graph
cover and the definition verifier.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace
from operator import add
from typing import Any, Callable, NamedTuple, Sequence

from .graphs import DistanceMatrix, Graph, apsp
from .resolving import (
    MmdGraph,
    is_doubly_resolving,
    is_resolving,
    is_strong_resolving,
    mmd_pairs,
    twin_classes,
)

KIND_RESOLVING = "resolving"
KIND_DOUBLY = "doubly"
KIND_STRONG = "strong"
KINDS = (KIND_RESOLVING, KIND_DOUBLY, KIND_STRONG)
_ADJECTIVES = {
    KIND_RESOLVING: "resolving",
    KIND_DOUBLY: "doubly resolving",
    KIND_STRONG: "strongly resolving",
}

VERIFIERS = {
    KIND_RESOLVING: is_resolving,
    KIND_DOUBLY: is_doubly_resolving,
    KIND_STRONG: is_strong_resolving,
}

METHOD_PRUNED = "pruned"
METHOD_VC = "vc-reduction"


class BudgetExceededError(RuntimeError):
    """Search ran out of budget; carries the work done at abort so budgets
    can be tuned reproducibly. Never a wrong answer. unit names what
    subsets_examined counts: subset-search nodes or vertex-cover nodes."""

    def __init__(self, message: str, subsets_examined: int, unit: str = "search nodes"):
        super().__init__(f"{message} (after {subsets_examined} {unit})")
        self.subsets_examined = subsets_examined


class StrongReductionError(RuntimeError):
    """The cover route's certificate failed: the minimum MMD cover misses a
    pair of the leaf-block route's derived MMD graph or, off that route,
    fails the definition verifier."""


@dataclass(frozen=True)
class Budget:
    max_subsets: int = 5_000_000
    timeout_seconds: float | None = None


DEFAULT_BUDGET = Budget()


@dataclass
class SearchStats:
    subsets_examined: int = 0
    elapsed_seconds: float = 0.0


@dataclass(frozen=True)
class SolveResult:
    kind: str
    optimum: int
    witness: tuple[int, ...]
    method: str
    stats: SearchStats


class Ticker:
    """The budget of one whole solve or audit call: examined counts its
    nodes against max_subsets, and the clock runs from construction against
    the timeout. tick(count) charges count nodes before they run, and reads
    the clock whenever examined crosses a multiple of 1024. A cover ticker
    counts vertex-cover nodes and names them in its errors; any other counts
    search nodes."""

    def __init__(self, budget: Budget, cover: bool = False):
        self.budget = budget
        self.stage = "vertex-cover" if cover else "subset"
        self.unit = "vertex-cover nodes" if cover else "search nodes"
        self.examined = 0
        self.start = time.perf_counter()

    def tick(self, count: int = 1) -> None:
        before = self.examined
        self.examined += count
        if self.examined > self.budget.max_subsets:
            raise BudgetExceededError(f"{self.stage} budget exhausted", self.examined, self.unit)
        if self.examined >> 10 != before >> 10:
            self.check_time()

    def check_time(self) -> None:
        timeout = self.budget.timeout_seconds
        if timeout is not None and time.perf_counter() - self.start > timeout:
            raise BudgetExceededError("time budget exhausted", self.examined, self.unit)

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def left(self) -> Budget:
        """The budget with its timeout cut to the time left on this clock,
        for a call that must end by this ticker's deadline."""
        timeout = self.budget.timeout_seconds
        if timeout is None:
            return self.budget
        return replace(self.budget, timeout_seconds=timeout - self.elapsed())


# graphs up to this order search on pair lanes, larger ones on keys
_PAIR_MAX_ORDER = 32
# a child's keys are renamed to dense ids once they may pass this bound
_DENSE_KEYS = 1 << 40


class _Nodes(NamedTuple):
    """How a search holds its node states; the loop of _lex_search is the
    same for every kind. root is the node of the empty prefix and cuts its
    cut table. grow(node, v) is the child that takes v. accepts(node, vs)
    tests a row of leaves: the index of the first id in vs whose set, the
    node's plus that id, succeeds, or -1. dead(node, cuts, j), None when the
    kind has no superset cut, says whether the superset prefix + pool[j:]
    fails. first(a), present for every doubly search, gives the child and
    cut table of the root's child that takes a, the first member, and
    anchors the later children at a."""

    root: Any
    cuts: Any
    grow: Callable[[Any, int], Any]
    accepts: Callable[[Any, Sequence[int]], int]
    dead: Callable[[Any, Any, int], bool] | None = None
    first: Callable[[int], tuple[Any, Any]] | None = None


def _suffix_names(
    columns: Sequence[Sequence[int]], order: int, ticker: Ticker
) -> list[list[int]]:
    """out[i][x] names x's tuple over columns[i:]; out[len(columns)] is all 0.

    On a large pool this runs long before the first search node, so it reads
    the clock once per column.
    """
    out = [[0] * order]
    for column in reversed(columns):
        ticker.check_time()
        ids: dict[tuple[int, int], int] = {}
        out.append([ids.setdefault(pair, len(ids)) for pair in zip(column, out[-1])])
    out.reverse()
    return out


def _pair_nodes(dist: DistanceMatrix, doubly: bool, pool: Sequence[int]) -> _Nodes:
    """Resolving and doubly nodes as one pair-lane int each, for graphs of
    order at most _PAIR_MAX_ORDER (see the module docstring). A table tab[z]
    holds 0x80 in the lanes of the pairs z leaves unseparated, and cuts[j]
    is the AND of tab over pool[j:]. Doubly tables are anchored at the first
    member, set by first, or at pool[-1] before the search has one; first
    builds each anchor's tables once per solve, at most about 2 MB at order
    32."""
    order = dist.order
    size = order * order
    high = int.from_bytes(b"\x80" * size, "little")
    low = int.from_bytes(b"\x7f" * size, "little")
    ones = int.from_bytes(b"\x01" * order, "little")
    lanes = bytearray(size)
    lanes[:: order + 1] = b"\x80" * order
    diag = int.from_bytes(lanes, "little")
    # xs[z] holds d(x, z) in lane x * order + y, and ys[z] holds d(y, z)
    xs, ys = [], []
    for row in dist.rows:
        lanes = bytearray(size)
        lanes[::order] = row
        xs.append(int.from_bytes(lanes, "little") * ones)
        ys.append(int.from_bytes(row * order, "little"))

    def eq(z: int) -> int:
        """0x80 in each lane of z that is 0, and 0 in every other lane."""
        return (((z & low) + low) | z) & high ^ high

    def table(a: int | None) -> list[int]:
        if a is None:
            return [eq(x ^ y) for x, y in zip(xs, ys)]
        xa, ya = xs[a], ys[a]
        return [eq((x + ya) ^ (xa + y)) for x, y in zip(xs, ys)]

    def suffixes(tab: list[int]) -> list[int]:
        out = [high]
        for v in reversed(pool):
            out.append(out[-1] & tab[v])
        out.reverse()
        return out

    tab = table(pool[-1] if doubly else None)
    anchored: dict[int, tuple[list[int], list[int]]] = {}

    def first(a: int) -> tuple[int, list[int]]:
        nonlocal tab
        if a not in anchored:
            tab = table(a)
            anchored[a] = tab, suffixes(tab)
        tab, cuts = anchored[a]
        return high, cuts

    def accepts(node: int, vs: Sequence[int]) -> int:
        for k, v in enumerate(vs):
            if node & tab[v] == diag:
                return k
        return -1

    return _Nodes(
        high,
        suffixes(tab),
        lambda node, v: node & tab[v],
        accepts,
        lambda node, cuts, j: node & cuts[j] != diag,
        first if doubly else None,
    )


def _key_nodes(dist: DistanceMatrix, doubly: bool, pool: Sequence[int], ticker: Ticker) -> _Nodes:
    """Resolving and doubly nodes as per-vertex keys, for graphs above
    _PAIR_MAX_ORDER. A node is (shifted, spread, bound).

    keys[x] names x's representation on the prefix, and a child appends v's
    column as k * radix + entry. A doubly set fails iff two vertices'
    differences from one member agree, so doubly keys are differences from
    the first member a: shifted folds diameter - d(x, a) into the keys once,
    and a child adds the raw rows[v]. The node's set plus v succeeds iff
    shifted plus rows[v] is pairwise distinct.

    The cut table, built once per solve, is suffix[j][x], the name of x's
    column over pool[j:]; for doubly, as differences from b = pool[-1], which
    every superset prefix + pool[j:] holds. Differences from a and from b
    meet through anchor[x] = d(x, a) - d(x, b) + diameter, and the cut code
    spread[x] + suffix[j][x] is (k * radix + anchor[x]) * order +
    suffix[j][x]: two vertices collide iff their differences from b agree on
    the whole superset, that is iff it fails. Without the anchor two
    vertices whose differences agree from a on the prefix and from b on the
    rest could collide on a superset that succeeds, and the cut would drop a
    success. Entries stay below radix and names below order, so every such
    code is an exact pair code at any diameter, and map(add) keeps the
    per-vertex work at C speed.

    Keys grow by a factor radix per level from names below order, and bound
    exceeds every key of the node, so a child whose keys may pass
    _DENSE_KEYS is renamed to dense ids, which keeps every key a small int
    at any depth.
    """
    order = dist.order
    # a list hands out its ints, where an array row would build one per entry
    rows = dist.rows if dist.width == 1 else [row.tolist() for row in dist.rows]
    diameter = dist.diameter()
    radix = 2 * diameter + 1 if doubly else diameter + 1
    last = rows[pool[-1]]
    if doubly:
        columns = [[d - e for d, e in zip(rows[v], last)] for v in pool]
    else:
        columns = [rows[v] for v in pool]
    suffix = _suffix_names(columns, order, ticker)
    del columns
    # offset[x] = diameter - d(x, a) and scaled[x] = anchor[x] * order for
    # the first doubly member a; both are 0 before it, and resolving keys
    # take neither
    offset = scaled = [0] * order
    step = radix * order

    def lift(keys: list[int], bound: int) -> tuple[list[int], list[int], int]:
        if not doubly:
            return [k * radix for k in keys], [k * order for k in keys], bound
        shifted = [k * radix + o for k, o in zip(keys, offset)]
        return shifted, [k * step + c for k, c in zip(keys, scaled)], bound

    def first(a: int):
        nonlocal offset, scaled
        offset = [diameter - d for d in rows[a]]
        scaled = [(d - e + diameter) * order for d, e in zip(rows[a], last)]
        return lift([0] * order, order), suffix

    def grow(node, v: int):
        shifted, _, bound = node
        child = list(map(add, shifted, rows[v]))
        bound *= radix
        if bound > _DENSE_KEYS:
            ids: dict[int, int] = {}
            child = [ids.setdefault(k, len(ids)) for k in child]
            bound = order
        return lift(child, bound)

    def accepts(node, vs: Sequence[int]) -> int:
        shifted = node[0]
        for k, v in enumerate(vs):
            if len(set(map(add, shifted, rows[v]))) == order:
                return k
        return -1

    def dead(node, cuts: list[list[int]], j: int) -> bool:
        return len(set(map(add, node[1], cuts[j]))) < order

    # on the empty prefix every key is 0, and the cut reads suffix alone
    return _Nodes(lift([0] * order, order), suffix, grow, accepts, dead, first if doubly else None)


def _lex_search(
    dist: DistanceMatrix,
    kind: str,
    mandatory: tuple[int, ...],
    masks: Sequence[tuple[int, int]],
    ticker: Ticker,
) -> tuple[int, ...]:
    """First (smallest, then lexicographically least) accepted vertex set.

    The depth-first search of the module docstring, rooted at the mandatory
    members; merging its lex-ordered free tuples with a fixed mandatory set
    keeps lex order. The first cardinality tried is len(mandatory), or 2
    for doubly (one member makes every difference 0) and 1 otherwise if that
    is more, raised until the masks' owed needs fit. Masks are (bitset,
    need) pairs: every success holds at least need members of the bitset.
    The node builders start from the empty prefix, and this function alone
    adds the mandatory members: a doubly search is anchored at the first of
    them, and the root takes each of them by grow.

    Resolving and doubly nodes are pair-lane ints (_pair_nodes) up to
    _PAIR_MAX_ORDER and per-vertex keys (_key_nodes) above it; a strong node
    is its prefix, and its leaves run the kind's verifier from VERIFIERS.

    Each cardinality runs as one loop over an explicit stack of suspended
    nodes, so the depth is bounded by memory, not by the recursion limit. A
    node with one slot left is never pushed: accepts tests its leaves as one
    row (see leaves). The loop carries each prefix as a bitset, and the
    witness is read off the accepted leaf's.
    """
    order = dist.order
    mandatory_mask = 0
    for v in mandatory:
        mandatory_mask |= 1 << v
    pool = [v for v in range(order) if not (mandatory_mask >> v) & 1]
    n = len(pool)
    position = {v: j for j, v in enumerate(pool)}
    # mandatory members count towards a mask's need, and the free ids owe the
    # rest; a mask drops out once the mandatory set meets its need
    owed = []
    for m, need in masks:
        need -= (m & mandatory_mask).bit_count()
        if need > 0:
            owed.append((m & ~mandatory_mask, need))
    masks = owed
    # a mask is dead once the search has passed its largest id without
    # taking any of its members; a leaf-block mask that is hit but still
    # short needs no rule of its own, since its need is exact and the
    # superset cut already fails there
    closing: list[list[int]] = [[] for _ in range(n)]
    for m, _ in masks:
        closing[position[m.bit_length() - 1]].append(m)

    def too_few_slots(covered: int, slots: int) -> bool:
        """The needs still owed to greedily chosen vertex-disjoint masks add
        up to more than slots; a new member serves at most one of them."""
        used = total = 0
        for m, need in masks:
            if not m & used:
                deficit = need - (m & covered).bit_count()
                if deficit > 0:
                    used |= m
                    total += deficit
                    if total > slots:
                        return True
        return False

    if kind == KIND_STRONG:
        verifier = VERIFIERS[kind]
        nodes = _Nodes(
            (),
            None,
            lambda node, v: node + (v,),
            lambda node, vs: next((k for k, v in enumerate(vs) if verifier(dist, (*node, v))), -1),
        )
    elif order <= _PAIR_MAX_ORDER and dist.width == 1:
        nodes = _pair_nodes(dist, kind == KIND_DOUBLY, pool)
    else:
        nodes = _key_nodes(dist, kind == KIND_DOUBLY, pool, ticker)
    root, root_cuts, grow, accepts, dead, first = nodes
    # the root takes every mandatory member and reads the clock once per
    # member; a doubly search that has them is anchored at the first
    if first is not None and mandatory:
        root, root_cuts = first(mandatory[0])
        first = None
    for v in mandatory:
        ticker.check_time()
        root = grow(root, v)

    def fails(j: int, pmask: int, node, cuts) -> bool:
        """No set below the node at pool[j] can succeed: a mask closing at
        pool[j - 1] is missed, or the superset prefix + pool[j:] fails."""
        dying = closing[j - 1]
        if dying and any(not m & pmask for m in dying):
            return True
        return dead is not None and dead(node, cuts, j)

    def leaves(node, pmask: int, j: int) -> int:
        """The bitset of the first success below a node with one slot left,
        or 0. Its row is the ids of pool[j:] in every mask still owed one
        member, none when a mask is owed more: exactly the leaves that meet
        every mask. The row is charged before accepts tests it."""
        row = pool[j:]
        for m, need in masks:
            deficit = need - (m & pmask).bit_count()
            if deficit > 1:
                row = []
                break
            if deficit == 1:
                row = [v for v in row if m >> v & 1]
        ticker.tick(len(row))
        k = accepts(node, row)
        return pmask | 1 << row[k] if k >= 0 else 0

    def descend(slots: int) -> int:
        """The bitset of the first success with slots more members than the
        mandatory ones, or 0; one loop step per node at pool[j]. A suspended
        node is a stack entry, and a child with one slot left is never
        pushed: its leaves are tested as one row."""
        if slots == 1:
            return leaves(root, mandatory_mask, 0)
        node, cuts = root, root_cuts
        pmask, i, j = mandatory_mask, 0, 0
        stack = []
        while True:
            # the subtree at pool[j] holds subsets of prefix + pool[j:]; for
            # j == i the parent already checked that union
            if j > n - slots or (j > i and fails(j, pmask, node, cuts)):
                if not stack:
                    return 0
                node, cuts, pmask, i, j, slots = stack.pop()
                continue
            ticker.tick()
            v = pool[j]
            j += 1
            child_mask = pmask | 1 << v
            if masks and too_few_slots(child_mask, slots - 1):
                continue
            if first is not None and not stack:
                child, child_cuts = first(v)
            else:
                child, child_cuts = grow(node, v), cuts
            if slots > 2:
                stack.append((node, cuts, pmask, i, j, slots))
                node, cuts, pmask, i, slots = child, child_cuts, child_mask, j, slots - 1
            elif found := leaves(child, child_mask, j):
                return found

    start = max(len(mandatory), 2 if kind == KIND_DOUBLY else 1)
    while too_few_slots(mandatory_mask, start - len(mandatory)):
        start += 1
    for size in range(start, order + 1):
        slots = size - len(mandatory)
        if slots:
            found = descend(slots)
        else:
            # only twin forcing and the leaf-block count searches make
            # mandatory members, and only for resolving and doubly, so the
            # root is such a candidate; a set that holds v succeeds with v
            # iff it succeeds
            ticker.tick()
            found = mandatory_mask if not masks and accepts(root, mandatory[:1]) == 0 else 0
        if found:
            return tuple(v for v in range(order) if found >> v & 1)
    raise RuntimeError("exhausted all subsets without success")  # pragma: no cover


def _leaf_block_needs(g: Graph, kind: str, ticker: Ticker) -> list[tuple[tuple[int, ...], int, int]]:
    """(B, h, c_B) for each leaf block B of g with cut vertex h whose C = B - h
    holds at most half the vertices; c_B is the fewest members of C that with
    h resolve (doubly resolve) the pairs of B, found once per key of
    g.leaf_shapes by a search that draws on ticker, on the apsp of the key's
    own graph: B is isometric and its local order is id order."""
    out = []
    shapes: dict = {}  # shape key -> c_B
    for (block, h), key in zip(g.block_tree.leaves, g.leaf_shapes):
        if 2 * (len(block) - 1) > g.order:
            continue
        if key not in shapes:
            rows = apsp(Graph(len(key[0]), key[0]), ticker.check_time)
            shapes[key] = len(_lex_search(rows, kind, (key[1],), (), ticker)) - 1
        out.append((block, h, shapes[key]))
    return out


def _distances(g: Graph, dist: DistanceMatrix | None, ticker: Ticker) -> DistanceMatrix:
    """Prologue of every solve call: check the order, run apsp unless dist
    is given, and read ticker's clock. apsp reads the clock as it runs (see
    graphs.apsp), so a timeout that runs out inside apsp stops it there; the
    clock is read once more here, also when dist is given."""
    if g.order < 2:
        raise ValueError("solvers need a graph with at least 2 vertices")
    if dist is None:
        dist = apsp(g, check=ticker.check_time)
    ticker.check_time()
    return dist


def _solve(
    g: Graph, kind: str, method: str, budget: Budget, dist: DistanceMatrix | None
) -> SolveResult:
    """The subset search of a kind: MMD pair masks for strong, twin forcing
    and leaf-block masks for resolving and doubly."""
    if method != METHOD_PRUNED:
        raise ValueError(f"unknown method {method!r}")
    ticker = Ticker(budget)
    dist = _distances(g, dist, ticker)
    if kind == KIND_STRONG:
        mandatory: tuple[int, ...] = ()
        pairs = mmd_pairs(g, dist, check=ticker.check_time).edges
        masks = [((1 << u) | (1 << v), 1) for u, v in pairs]
    else:
        mandatory = tuple(sorted(v for cls in twin_classes(g) for v in cls[:-1]))
        needs = _leaf_block_needs(g, kind, ticker)
        masks = [(sum(1 << v for v in block) ^ 1 << h, need) for block, h, need in needs if need]
    witness = _lex_search(dist, kind, mandatory, masks, ticker)
    # the cuts shaped the search, not the verdict; the unrestricted verifier
    # checks the witness once more before it is published
    if not VERIFIERS[kind](dist, witness):
        raise RuntimeError(f"search returned {witness}, which is not {_ADJECTIVES[kind]}")
    stats = SearchStats(ticker.examined, ticker.elapsed())
    return SolveResult(kind, len(witness), witness, method, stats)


def solve_min_resolving(
    g: Graph,
    method: str = METHOD_PRUNED,
    *,
    budget: Budget = DEFAULT_BUDGET,
    dist: DistanceMatrix | None = None,
) -> SolveResult:
    """Minimum resolving set (metric dimension) by exact ascending search."""
    return _solve(g, KIND_RESOLVING, method, budget, dist)


def solve_min_doubly(
    g: Graph,
    method: str = METHOD_PRUNED,
    *,
    budget: Budget = DEFAULT_BUDGET,
    dist: DistanceMatrix | None = None,
) -> SolveResult:
    """Minimum doubly resolving set; search starts at cardinality 2."""
    return _solve(g, KIND_DOUBLY, method, budget, dist)


def solve_min_strong_direct(
    g: Graph,
    method: str = METHOD_PRUNED,
    *,
    budget: Budget = DEFAULT_BUDGET,
    dist: DistanceMatrix | None = None,
) -> SolveResult:
    """Minimum strong resolving set by subset search over the definition.

    The search cuts subtrees that cannot cover every MMD pair (a necessary
    condition for any strong resolving set); every leaf still runs the full
    verifier, so the result never leans on the cover reduction, nor starts
    at its bound: solve_min_strong_vc is the route that scales.
    """
    return _solve(g, KIND_STRONG, method, budget, dist)


# the subset search of each kind; callers look it up at call time, like
# VERIFIERS, so a wrapper bound over an entry sees every call
SEARCHES = {
    KIND_RESOLVING: solve_min_resolving,
    KIND_DOUBLY: solve_min_doubly,
    KIND_STRONG: solve_min_strong_direct,
}


# ------------------------------------------------------------ vertex cover


class _VcSearch:
    """Exact vertex cover via branch and bound with degree-1 kernelization
    and max-degree branching, restricted to an allowed vertex set so the
    same decision procedure can rebuild the lexicographically least cover.

    nbrs holds the adjacency of the component being searched as bitsets over
    local ids, which follow ascending global ids. A search state is a bitset
    alive of vertices not taken into the cover: the uncovered edges are those
    between two alive vertices, and a degree is a bit count. cover is the
    cover the last successful feasible call found, as a bitset. Every
    feasible call is one tick of ticker, which holds the whole budget.
    """

    def __init__(self, ticker: Ticker):
        self.ticker = ticker
        self.nbrs: list[int] = []
        self.cover = 0

    def feasible(self, alive: int, allowed: int, r: int, taken: int = 0) -> bool:
        """Can the edges among alive be covered by <= r vertices from allowed?

        taken holds the vertices the recursion has already put in the cover;
        on success, cover is set to taken plus the vertices this call took,
        which together cover every edge among the alive of the outermost call.
        """
        self.ticker.tick()
        self.ticker.check_time()
        nbrs = self.nbrs
        # degrees of the vertices with uncovered edges, in ascending id
        # (deletions keep a dict's order); alive shrinks to them, and the
        # kernel below keeps both current
        degree: dict[int, int] = {}
        rest = alive
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            d = (nbrs[v] & alive).bit_count()
            if d:
                degree[v] = d
            else:
                alive ^= low
        # any edge with no allowed endpoint is a dead end; the kernel takes
        # only allowed vertices and drops only isolated ones, so no such
        # edge appears or goes away below
        blocked = alive & ~allowed
        if any(nbrs[v] & blocked for v in degree if (blocked >> v) & 1):
            return False
        pendants = {v for v, d in degree.items() if d == 1}
        while True:
            if not degree:
                self.cover = taken
                return True
            if r <= 0:
                return False
            if not pendants:
                break
            # degree-1 kernel: take the neighbor when possible (it covers a
            # superset of the pendant vertex's edges), else the pendant itself
            pendant = min(pendants)
            nbr = (nbrs[pendant] & alive).bit_length() - 1
            pick = nbr if (allowed >> nbr) & 1 else pendant
            alive ^= 1 << pick
            taken |= 1 << pick
            r -= 1
            del degree[pick]
            pendants.discard(pick)
            # only the pick's alive neighbors lose a degree
            rest = nbrs[pick] & alive
            while rest:
                low = rest & -rest
                v = low.bit_length() - 1
                rest ^= low
                d = degree[v] - 1
                if d == 1:
                    pendants.add(v)
                if d:
                    degree[v] = d
                else:
                    del degree[v]
                    pendants.discard(v)
                    alive ^= low
        edge_count = sum(degree.values()) // 2
        branch_candidates = [v for v in degree if (allowed >> v) & 1]
        if not branch_candidates:
            return False
        # only allowed vertices may enter the cover, each covering <= max_deg
        max_deg = max(degree[v] for v in branch_candidates)
        if edge_count > r * max_deg:
            return False
        x = next(v for v in branch_candidates if degree[v] == max_deg)
        if self.feasible(alive & ~(1 << x), allowed, r - 1, taken | 1 << x):
            return True
        # excluding x forces all of its neighbors into the cover
        forced = nbrs[x] & alive
        if forced & ~allowed or degree[x] > r:
            return False
        return self.feasible(alive & ~forced, allowed, r - degree[x], taken | forced)


def min_vertex_cover(h: MmdGraph, *, budget: Budget = DEFAULT_BUDGET) -> tuple[int, ...]:
    """Minimum-cardinality cover of the pair graph, lexicographically least
    among the optima.

    The graph is split into connected components. A clique K_m is covered by
    its m - 1 smallest ids with no search; any other component runs the
    branch and bound, and every component draws on one node budget for the
    whole call. Per-component lex-least optima compose into the global one.
    A global cover is optimal iff it holds no isolated vertex and each of its
    component restrictions is optimal. For equal-size sorted tuples, lex
    order is decided by the least element of the symmetric difference. That
    element lies in a single component, where the lex-least restriction is
    the one holding it, so no optimum beats the union of the per-component
    lex-least covers.
    """
    return _min_cover(h, Ticker(budget, cover=True))


def _component_edges(h: MmdGraph) -> list[list[tuple[int, int]]]:
    """Edge lists of the connected components of h, each in h.edges order,
    components ordered by their least vertex."""
    adjacency = h.adjacency()
    component = [-1] * h.order
    count = 0
    for root in range(h.order):
        if component[root] >= 0 or not adjacency[root]:
            continue
        component[root] = count
        stack = [root]
        while stack:
            x = stack.pop()
            for y in adjacency[x]:
                if component[y] < 0:
                    component[y] = count
                    stack.append(y)
        count += 1
    groups: list[list[tuple[int, int]]] = [[] for _ in range(count)]
    for u, v in h.edges:
        groups[component[u]].append((u, v))
    return groups


def _min_cover(h: MmdGraph, ticker: Ticker) -> tuple[int, ...]:
    """min_vertex_cover drawing on ticker; ticker.examined ends at the
    branch-and-bound node count."""
    search = _VcSearch(ticker)
    cover: list[int] = []
    for edges in _component_edges(h):
        ticker.check_time()
        verts = sorted({v for edge in edges for v in edge})
        if 2 * len(edges) == len(verts) * (len(verts) - 1):
            cover.extend(verts[:-1])
        else:
            cover.extend(_component_cover(search, verts, edges))
    return tuple(sorted(cover))


def _component_cover(
    search: _VcSearch, verts: Sequence[int], edges: Sequence[tuple[int, int]]
) -> list[int]:
    """Lex-least minimum cover of one connected component, on the vertices
    verts (ascending), by branch and bound.

    The size is settled by feasible calls from a packing lower bound up. The
    rebuild then decides the ids in ascending order: it takes id i exactly
    when a cover of the r - 1 members still owed, from ids above i, exists
    once i is taken. Its choices depend only on these yes/no answers, so any
    way of getting the same answers publishes the same cover.

    A witness W saves most of those searches. W is a cover found by feasible:
    the decision's last one, then the rebuild's last successful one plus the
    id it was run for. Its members not yet decided cover every edge among the
    alive vertices and are at most r, all above every decided id. So when i
    is in W the answer is yes with no search: W less i is such a cover of the
    rest. Only an id outside W is searched; a yes makes its cover plus i the
    new W, and a no leaves W as it was, for a rejected id was never in it.
    On lcg 5,3 the rebuild adds 2 nodes to the 114 that settle the size,
    where searching every id added 1,123; lcg 5,4 drops from 19,357 nodes to
    476 and lcg 7,4 from 254,266 to 1,509.
    """
    local = {v: i for i, v in enumerate(verts)}
    nbrs = [0] * len(verts)
    # lower bounds from a greedy maximal matching and a greedy clique
    # packing; start at the larger and raise until feasible
    matched = size = 0
    for u, v in edges:
        a, b = 1 << local[u], 1 << local[v]
        nbrs[local[u]] |= b
        nbrs[local[v]] |= a
        if not matched & (a | b):
            matched |= a | b
            size += 1
    size = max(size, _clique_packing_bound(nbrs))
    search.nbrs = nbrs
    everyone = (1 << len(verts)) - 1
    while not search.feasible(everyone, everyone, size):
        size += 1
    # the decision's cover may skip searches only if it is one; an empty
    # witness skips none
    witness = search.cover
    outside = ~witness
    if witness and (
        witness.bit_count() > size
        or any(ns & outside for i, ns in enumerate(nbrs) if (outside >> i) & 1)
    ):
        raise RuntimeError(
            f"cover search settled optimum {size} with a witness of "
            f"{witness.bit_count()} vertices that is not a cover of at most that size"
        )
    # rebuild the lex-least optimum: keep an id exactly when a completion of
    # the optimal size still exists using only larger ids
    chosen: list[int] = []
    alive = everyone
    r = size
    for i, v in enumerate(verts):
        if not (alive >> i) & 1 or not nbrs[i] & alive:
            continue
        trial = alive & ~(1 << i)
        if not (witness >> i) & 1:
            if not search.feasible(trial, everyone & ~((2 << i) - 1), r - 1):
                continue
            witness = search.cover | 1 << i
        chosen.append(v)
        alive = trial
        r -= 1
    uncovered = sum(1 for i, ns in enumerate(nbrs) if (alive >> i) & 1 and ns & alive)
    if len(chosen) != size or uncovered:
        raise RuntimeError(
            f"cover rebuild chose {len(chosen)} vertices for optimum {size} "
            f"and left {uncovered} vertices uncovered"
        )
    return chosen


def _clique_packing_bound(nbrs: Sequence[int]) -> int:
    """Cover lower bound from vertex-disjoint cliques of the graph whose
    adjacency bitsets are nbrs: a cover leaves at most one vertex of a clique
    K_m out, so each clique packed needs m - 1 cover vertices.

    Greedy: seeds in descending degree (ties by ascending id). A clique's
    candidates are the free vertices adjacent to all of its members, and it
    grows by the candidate adjacent to the most other candidates (ties by
    ascending id), which keeps the most candidates for the next step.
    """
    degree = [ns.bit_count() for ns in nbrs]
    free = (1 << len(nbrs)) - 1
    bound = 0
    for v in sorted(range(len(nbrs)), key=degree.__getitem__, reverse=True):
        if not (free >> v) & 1:
            continue
        free ^= 1 << v
        common = nbrs[v] & free
        while common:
            best = kept = -1
            rest = common
            while rest:
                low = rest & -rest
                w = low.bit_length() - 1
                rest ^= low
                count = (nbrs[w] & common).bit_count()
                if count > kept:
                    best, kept = w, count
            free ^= 1 << best
            common &= nbrs[best]
            bound += 1
    return bound


class LeafBlockMmd(NamedTuple):
    """The MMD graph read off the leaf blocks (see the module docstring):
    (block, g.leaf_shapes key) per leaf block in id order, and per key, in
    local ids, the apsp rows of its local graph, B's MMD pairs without h
    and F_B."""

    parts: tuple[tuple[tuple[int, ...], tuple], ...]
    shapes: dict[tuple, tuple[DistanceMatrix, tuple[tuple[int, int], ...], tuple[int, ...]]]

    def missed(self, members: set[int]) -> tuple[int, int] | None:
        """An MMD pair that members misses, or None: an inner pair, or far
        vertices of two blocks."""
        loose: list[int] = []  # a far vertex out of members, from each block
        for block, key in self.parts:
            _, inner, far = self.shapes[key]
            for u, v in inner:
                if block[u] not in members and block[v] not in members:
                    return block[u], block[v]
            loose += [block[x] for x in far if block[x] not in members][:1]
            if len(loose) == 2:
                return min(loose), max(loose)
        return None


def leaf_block_mmd(g: Graph, check: Callable[[], object] = lambda: None) -> LeafBlockMmd | None:
    """The MMD graph of g by the leaf-block route of the module docstring,
    or None when g does not meet its condition. check is called once per
    leaf block, before its shape's rows are read, and by each shape's apsp."""
    tree = g.block_tree
    leaves = tree.leaves
    cuts = [c for c in tree.count if c > 1]
    inside = sum(len(block) - 1 for block, _ in leaves)
    # the block-cut forest is one tree iff its nodes, blocks and cut
    # vertices, exceed its edges, the incidences, by one
    if len(leaves) < 2 or inside + len(cuts) != g.order or len(tree.blocks) + len(cuts) - sum(cuts) != 1:
        return None
    shapes: dict = {}
    parts = []
    for (block, _), key in zip(leaves, g.leaf_shapes):
        check()
        if key not in shapes:
            nbrs, x = key
            local = Graph(len(nbrs), nbrs)
            rows = apsp(local, check)
            inner = tuple(pair for pair in mmd_pairs(local, rows).edges if x not in pair)
            row = rows[x]
            far = tuple(y for y in range(local.order) if y != x and all(row[w] <= row[y] for w in nbrs[y]))
            shapes[key] = rows, inner, far
        parts.append((block, key))
    return LeafBlockMmd(tuple(parts), shapes)


def _leaf_block_cover(route: LeafBlockMmd, ticker: Ticker) -> tuple[int, ...]:
    """The lex-least minimum MMD cover of route's graph (see the module
    docstring): per shape, the covers a and b and the least id of a ^ b, or
    -1, searched on ticker."""
    covers = {}
    for key, (rows, inner, far) in route.shapes.items():
        rest = tuple((u, v) for u, v in inner if u not in far and v not in far)
        a = tuple(sorted(far + _min_cover(MmdGraph(rows.order, rest), ticker)))
        b = _min_cover(MmdGraph(rows.order, inner), ticker)
        covers[key] = a, b, min(set(a) ^ set(b), default=-1)
    parts = [(block, covers[key]) for block, key in route.parts]
    gains = [len(a) - len(b) for _, (a, b, _) in parts]
    top = max(gains)
    # (delta_B, delta_B in b, index) of each block of top gain whose covers differ
    deltas = [
        (block[first], first in b, i)
        for i, (block, (_, b, first)) in enumerate(parts)
        if gains[i] == top and first >= 0
    ]
    into_b = min(((d, i) for d, in_b, i in deltas if in_b), default=None)
    free = into_b[1] if into_b else max(deltas)[2] if top else -1
    cover = (block[x] for i, (block, (a, b, _)) in enumerate(parts) for x in (b if i == free else a))
    return tuple(sorted(cover))


def solve_min_strong_vc(
    g: Graph,
    *,
    budget: Budget = DEFAULT_BUDGET,
    dist: DistanceMatrix | None = None,
    route: LeafBlockMmd | None = None,
) -> SolveResult:
    """Minimum strong resolving set via the MMD vertex-cover route.

    The cover comes from the leaf blocks when g qualifies, with no apsp, so
    dist goes unread; route, when given, is leaf_block_mmd(g), not derived
    again. Else it comes from apsp, mmd_pairs and the whole-graph cover
    search. Its size is the lower bound, and the cover itself, checked once,
    is the matching upper bound: against the derived MMD graph on the
    leaf-block route, else by the definition verifier. A failed check raises
    StrongReductionError rather than publishing either bound.
    """
    ticker = Ticker(budget, cover=True)
    route = route or leaf_block_mmd(g, ticker.check_time)
    if route is None:
        dist = _distances(g, dist, ticker)
        # apsp and mmd_pairs read the clock as they run, so a timeout that
        # runs out in either stops it before the cover search
        cover = _min_cover(mmd_pairs(g, dist, check=ticker.check_time), ticker)
        if not VERIFIERS[KIND_STRONG](dist, cover):
            raise StrongReductionError(
                f"minimum MMD cover {cover} is not a strong resolving set; "
                "cover size and direct search would disagree"
            )
    else:
        cover = _leaf_block_cover(route, ticker)
        pair = route.missed(set(cover))
        if pair is not None:
            raise StrongReductionError(f"minimum MMD cover {cover} misses the MMD pair {pair}")
    stats = SearchStats(ticker.examined, ticker.elapsed())
    return SolveResult(KIND_STRONG, len(cover), cover, METHOD_VC, stats)
