"""Independent answers for the benchmark, written without resolvekit.

Distances come from this file's own BFS, and the predicates follow the
definitions. The benchmark uses these functions to validate its stored
expected answers and to derive the expected answers for random graphs; it
never uses them inside a timed region.
"""
from __future__ import annotations

import random
from collections import deque
from itertools import combinations


def parse_edge_list(text: str) -> list[list[int]]:
    """Adjacency lists from resolvekit's edge-list text ("p n m", then "u v")."""
    lines = text.split("\n")
    _, order, _ = lines[0].split()
    adj: list[list[int]] = [[] for _ in range(int(order))]
    for line in lines[1:]:
        if line:
            u, v = map(int, line.split())
            adj[u].append(v)
            adj[v].append(u)
    return adj


def dimacs_text(adj: list[list[int]]) -> str:
    """DIMACS text with edges (u, v), u < v, in sorted order, as resolvekit
    writes it."""
    edges = [(u, v) for u, nbrs in enumerate(adj) for v in sorted(nbrs) if u < v]
    lines = [f"p edge {len(adj)} {len(edges)}"] + [f"e {u + 1} {v + 1}" for u, v in edges]
    return "\n".join(lines) + "\n"


def bfs(adj: list[list[int]], src: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    if -1 in dist:
        raise ValueError("graph is disconnected")
    return dist


def all_distances(adj: list[list[int]]) -> list[list[int]]:
    return [bfs(adj, s) for s in range(len(adj))]


# ---------------------------------------------------------------- predicates
# d is a full distance matrix (d[u][v]); the *_by_definition forms compare
# every vertex pair directly and suit graphs of up to a few hundred vertices.


def resolving_by_definition(d, members) -> bool:
    n = len(d)
    return all(
        any(d[u][z] != d[v][z] for z in members)
        for u in range(n)
        for v in range(u + 1, n)
    )


def doubly_by_definition(d, members) -> bool:
    n = len(d)
    probes = list(combinations(members, 2))
    return all(
        any(d[u][x] - d[u][y] != d[v][x] - d[v][y] for x, y in probes)
        for u in range(n)
        for v in range(u + 1, n)
    )


def strong_by_definition(d, members) -> bool:
    n = len(d)
    for u in range(n):
        du = d[u]
        for v in range(u + 1, n):
            dv = d[v]
            duv = du[v]
            if not any(du[w] == duv + dv[w] or dv[w] == duv + du[w] for w in members):
                return False
    return True


# The hashed forms take one distance column per member (columns[i][u] is the
# distance from members[i] to u). Two vertices are unresolved exactly when
# their representations are equal, and doubly unresolved exactly when the
# representations differ by a constant, i.e. when they agree after
# subtracting the first coordinate; so one set of tuples checks every pair.


def resolving_by_columns(columns, order: int) -> bool:
    return len(set(zip(*columns))) == order


def doubly_by_columns(columns, order: int) -> bool:
    first = columns[0]
    rest = columns[1:]
    return len({tuple(x - b for x in rep) for b, rep in zip(first, zip(*rest))}) == order


def lex_least_minimum(order: int, accept, lo: int) -> tuple[tuple[int, ...], int]:
    """Smallest, then lexicographically least, accepted vertex set, and its
    rank: how many sets the unpruned ascending search examines to reach it."""
    rank = 0
    for size in range(lo, order + 1):
        for combo in combinations(range(order), size):
            rank += 1
            if accept(combo):
                return combo, rank
    raise ValueError("no vertex set is accepted")


def has_twins(adj: list[list[int]]) -> bool:
    """True iff two vertices share their open or their closed neighbourhood."""
    open_sets = {frozenset(nbrs) for nbrs in adj}
    closed_sets = {frozenset(nbrs) | {v} for v, nbrs in enumerate(adj)}
    return len(open_sets) < len(adj) or len(closed_sets) < len(adj)


def twin_partition(adj: list[list[int]]) -> list[tuple[int, ...]]:
    """Classes of u ~ v iff N(u) minus v equals N(v) minus u, sorted."""
    groups: dict[tuple[str, frozenset[int]], list[int]] = {}
    for v, nbrs in enumerate(adj):
        groups.setdefault(("open", frozenset(nbrs)), []).append(v)
        groups.setdefault(("closed", frozenset(nbrs) | {v}), []).append(v)
    classes = {v: {v} for v in range(len(adj))}
    for members in groups.values():
        merged = set().union(*(classes[v] for v in members))
        for v in merged:
            classes[v] = merged
    return sorted({tuple(sorted(c)) for c in classes.values()})


def mmd_edges(adj: list[list[int]], d) -> list[tuple[int, int]]:
    """Pairs {u, v} where no neighbour of u is farther from v, and vice versa."""
    n = len(adj)

    def maximally_distant(u: int, v: int) -> bool:
        dv = d[v]
        return all(dv[w] <= dv[u] for w in adj[u])

    return [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if maximally_distant(u, v) and maximally_distant(v, u)
    ]


def clique_cover_lower_bound(order: int, edges) -> int:
    """A lower bound on the minimum vertex cover: split the graph greedily
    into vertex-disjoint cliques; a cover takes all but one vertex of each."""
    nbrs: list[set[int]] = [set() for _ in range(order)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    left = {v for v in range(order) if nbrs[v]}
    bound = 0
    while left:
        v = min(left, key=lambda x: (-len(nbrs[x] & left), x))
        clique = {v}
        candidates = nbrs[v] & left
        while candidates:
            w = min(candidates, key=lambda x: (-len(nbrs[x] & candidates), x))
            clique.add(w)
            candidates &= nbrs[w]
        bound += len(clique) - 1
        left -= clique
    return bound


def random_twin_free_graph(
    rng: random.Random, lo: int, hi: int
) -> tuple[int, list[tuple[int, int]]] | None:
    """A random spanning tree plus noise edges on lo..hi vertices, as the
    order and a sorted edge list; None when the draw has twins."""
    order = rng.randint(lo, hi)
    density = rng.uniform(0.1, 0.3)
    edges = {(rng.randrange(v), v) for v in range(1, order)}
    for u in range(order):
        for v in range(u + 1, order):
            if rng.random() < density:
                edges.add((u, v))
    adj: list[list[int]] = [[] for _ in range(order)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return None if has_twins(adj) else (order, sorted(edges))
