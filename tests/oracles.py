"""Definition-direct brute-force oracles, independent of the package code.

Distances come from Floyd-Warshall (the package uses BFS), verifiers follow
the raw definitions pairwise (the package hashes normalized tuples), and
minimization enumerates subsets smallest-first. Deliberately slow and simple.
"""
from __future__ import annotations

import random
from array import array
from itertools import combinations

INF = 10**9


def floyd_warshall(order, edges):
    d = [[0 if i == j else INF for j in range(order)] for i in range(order)]
    for u, v in edges:
        d[u][v] = d[v][u] = 1
    for k in range(order):
        dk = d[k]
        for i in range(order):
            dik = d[i][k]
            if dik == INF:
                continue
            di = d[i]
            for j in range(order):
                if dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]
    return d


def packed(rows, width):
    """Integer rows as a DistanceMatrix takes them: bytes for width 1,
    otherwise arrays of the unsigned typecode of width bytes."""
    if width == 1:
        return tuple(bytes(row) for row in rows)
    code = next(c for c in "HILQ" if array(c).itemsize == width)
    return tuple(array(code, list(row)) for row in rows)


def shortest_path_by_enumeration(order, edges, s, t):
    """Min length over all simple paths, by DFS enumeration."""
    adj = [[] for _ in range(order)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    best = INF

    def walk(v, seen, length):
        nonlocal best
        if length >= best:
            return
        if v == t:
            best = length
            return
        for w in adj[v]:
            if w not in seen:
                walk(w, seen | {w}, length + 1)

    walk(s, {s}, 0)
    return best


def resolving_ok(d, members):
    reps = [tuple(d[u][z] for z in members) for u in range(len(d))]
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if reps[i] == reps[j]:
                return False
    return True


def doubly_ok(d, members):
    """Exists-pair formulation: every u, v doubly resolved by two members."""
    n = len(d)
    for u in range(n):
        for v in range(u + 1, n):
            if not any(
                d[u][x] - d[u][y] != d[v][x] - d[v][y]
                for x, y in combinations(members, 2)
            ):
                return False
    return True


def doubly_resolving_pairs(d, members, u, v):
    """Member pairs (x, y) with d(u,x) - d(u,y) != d(v,x) - d(v,y)."""
    return [
        (x, y)
        for x, y in combinations(members, 2)
        if d[u][x] - d[u][y] != d[v][x] - d[v][y]
    ]


def strong_ok(d, members):
    n = len(d)
    for u in range(n):
        for v in range(u + 1, n):
            if not any(
                d[u][w] == d[u][v] + d[v][w] or d[v][w] == d[v][u] + d[u][w]
                for w in members
            ):
                return False
    return True


def brute_minimum(order, accept, lo=1):
    """Smallest accepted subset, lexicographically least at that size."""
    for size in range(lo, order + 1):
        for combo in combinations(range(order), size):
            if accept(combo):
                return size, combo
    raise AssertionError("no accepted subset exists")


def mmd_pairs_brute(order, edges, d):
    adj = [set() for _ in range(order)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)

    def maximally_distant(u, v):
        return all(d[w][v] <= d[u][v] for w in adj[u])

    return [
        (u, v)
        for u in range(order)
        for v in range(u + 1, order)
        if maximally_distant(u, v) and maximally_distant(v, u)
    ]


def vertex_cover_brute(order, pairs):
    for size in range(0, order + 1):
        for combo in combinations(range(order), size):
            s = set(combo)
            if all(u in s or v in s for u, v in pairs):
                return size, combo
    raise AssertionError("unreachable")


def twin_classes_brute(order, edges):
    adj = [set() for _ in range(order)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    classes = []
    assigned = [False] * order
    for u in range(order):
        if assigned[u]:
            continue
        cls = [u]
        assigned[u] = True
        for v in range(u + 1, order):
            if not assigned[v] and adj[u] - {v} == adj[v] - {u}:
                cls.append(v)
                assigned[v] = True
        classes.append(tuple(cls))
    return tuple(classes)


def automorphism_orbit_of_zero(order, edges):
    """Orbit of vertex 0 under the full automorphism group, by enumeration.
    Only sensible for tiny graphs."""
    from itertools import permutations

    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    orbit = set()
    for perm in permutations(range(order)):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in edge_set for u, v in edge_set):
            orbit.add(perm[0])
    return orbit


def random_connected_graph(rng: random.Random, lo=4, hi=10):
    """Seeded random connected graph: random spanning tree plus noise edges."""
    order = rng.randint(lo, hi)
    edges = set()
    for v in range(1, order):
        u = rng.randrange(v)
        edges.add((u, v))
    p = rng.uniform(0.1, 0.5)
    for u in range(order):
        for v in range(u + 1, order):
            if (u, v) not in edges and rng.random() < p:
                edges.add((u, v))
    return order, sorted(edges)


def _connected_without(order, edges, gone, a, b):
    """Is b reachable from a once the vertex gone is removed?"""
    adj = [[] for _ in range(order)]
    for u, v in edges:
        if gone not in (u, v):
            adj[u].append(v)
            adj[v].append(u)
    seen = {a}
    stack = [a]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return b in seen


def cut_vertices_brute(order, edges):
    """The vertices whose removal disconnects G, found by trying every pair."""
    return {
        x
        for x in range(order)
        if any(
            not _connected_without(order, edges, x, a, b)
            for a in range(order)
            for b in range(order)
            if x not in (a, b)
        )
    }


def leaf_blocks_brute(order, edges):
    """(block vertices, cut vertex) of each block with one cut vertex, blocks
    ascending. Two edges share a block iff no vertex x separates what is left
    of them in G - x; a cut vertex is one whose removal disconnects G."""
    cuts = cut_vertices_brute(order, edges)
    classes = []
    for e in edges:
        for cls in classes:
            f = cls[0]
            if all(
                _connected_without(order, edges, x, next(a for a in e if a != x), next(c for c in f if c != x))
                for x in range(order)
            ):
                cls.append(e)
                break
        else:
            classes.append([e])
    out = []
    for cls in classes:
        block = tuple(sorted({v for e in cls for v in e}))
        inside = [v for v in block if v in cuts]
        if len(inside) == 1:
            out.append((block, inside[0]))
    return tuple(sorted(out))


def layered_labels_brute(layers, size):
    """The (layer, branch, unit, position) of each id of a layered family
    graph, by a nested loop over the layout: layer 1 is one unit with branch
    and unit 0, then layer-major, branch, unit, position, with size branches
    of (size - 1)^(layer - 2) units in each later layer."""
    positions = range(1, size + 1)
    labels = [(1, 0, 0, pos) for pos in positions]
    for layer in range(2, layers + 1):
        for branch in positions:
            for unit in range(1, (size - 1) ** (layer - 2) + 1):
                labels += [(layer, branch, unit, pos) for pos in positions]
    return tuple(labels)


def last_layer_units_brute(labels):
    """Ids of each unit of the top layer, by a scan of every (layer, branch,
    unit, position) label: grouped by (branch, unit), groups and ids
    ascending."""
    top = max(label[0] for label in labels)
    groups = {}
    for vid, label in enumerate(labels):
        if label[0] == top:
            groups.setdefault(label[1:3], []).append(vid)
    return tuple(tuple(sorted(groups[key])) for key in sorted(groups))


def lollipop_edges(cycle, tail):
    """A cycle on 0..cycle-1 with a path of tail vertices hung off its last id."""
    edges = [(i, i + 1) for i in range(cycle - 1)] + [(0, cycle - 1)]
    return edges + [(cycle - 1 + i, cycle + i) for i in range(tail)]


def pendant_block_graph(rng: random.Random, cliques: bool, max_order=11):
    """A random connected core with blocks glued at random vertices, one at a
    time, so later blocks may hang off earlier ones: paths of 1-3 new
    vertices, cycles of length 4-6 and, when cliques, K3 or K4. A clique's
    vertices other than its cut vertex are twins."""
    order, edges = random_connected_graph(rng, lo=3, hi=5)
    edges = list(edges)
    shapes = ("path", "cycle", "clique") if cliques else ("path", "cycle")
    first = True
    while order < max_order:
        shape = "clique" if cliques and first else rng.choice(shapes)
        size = {"path": rng.randint(1, 3), "cycle": rng.randint(3, 5), "clique": rng.randint(2, 3)}[shape]
        if order + size > max_order:
            break
        h = rng.randrange(order)
        new = list(range(order, order + size))
        if shape == "path":
            edges += zip([h] + new, new)
        elif shape == "cycle":
            edges += zip([h] + new, new + [h])
        else:
            edges += combinations([h] + new, 2)
        order += size
        first = False
        if rng.random() < 0.3:
            break
    return order, [(min(u, v), max(u, v)) for u, v in edges]


def bridged_unit_graph(rng: random.Random, max_order=30):
    """Units hung by bridges, as CCC(n) and LCG(n, k) hang theirs: each unit
    after the first is joined by one edge from its first vertex to a random
    vertex of an earlier unit. A unit is a cycle of 3-5 vertices, a K4, or
    one vertex, which makes paths of bridges."""
    order, edges = 0, []
    while True:
        size = rng.choice((1, 3, 4, 5))
        if order + size > max_order:
            break
        new = list(range(order, order + size))
        if size == 4 and rng.random() < 0.3:
            edges += combinations(new, 2)
        elif size > 1:
            edges += zip(new, new[1:] + new[:1])
        if order:
            edges.append((rng.randrange(order), order))
        order += size
        if rng.random() < 0.1:
            break
    return max(order, 1), [(min(u, v), max(u, v)) for u, v in edges]
