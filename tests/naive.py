"""The plain subset search: the package's search with no forced twins and
no leaf-block or MMD masks, only the superset cut that every search makes.
Tests hold the cuts of solve_min_* against it and both against the
brute-force oracles."""
from resolvekit import DistanceMatrix, Graph, solvers


def naive_search(
    g: Graph,
    kind: str,
    budget: solvers.Budget = solvers.DEFAULT_BUDGET,
    dist: DistanceMatrix | None = None,
) -> tuple[tuple[int, ...], int]:
    """The smallest, then lexicographically least, set of the kind and the
    search nodes it took, under one budget whose clock starts before apsp."""
    ticker = solvers.Ticker(budget)
    dist = solvers._distances(g, dist, ticker)
    return solvers._lex_search(dist, kind, (), (), ticker), ticker.examined
