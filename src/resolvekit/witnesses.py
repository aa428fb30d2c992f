"""Closed-form claimed minima, explicit witness sets, and the audit pipeline
that ties formulas, witnesses, verifiers, and exact solvers into one verdict.

Witness layout, per family and parameter kind (unit = last-layer cube/cycle,
positions counted from the head vertex at position 1):

  cube family    resolving  positions {2, 4} of every last-layer cube
                 doubly     positions {2, 4, 5}
                 strong     positions {2, 4, 5}, plus position 7 (the unique
                            vertex antipodal to the head) of every cube
                            except the last one in id order
  cycle family   resolving  position n of every last-layer cycle
                 doubly     positions {n, floor(n/2)+1}
                 strong     positions 2..ceil(n/2), plus one vertex at
                            maximum distance from the head per cycle except
                            the last one in id order

For odd n a cycle has two vertices at maximum distance from its head,
positions floor(n/2)+1 and floor(n/2)+2; position floor(n/2)+1 already sits
inside the strong witness's 2..ceil(n/2) block, so the extra vertex is
floor(n/2)+2 (for even n the antipode floor(n/2)+1 is unique and outside the
block). Excluding "the last unit" is an arbitrary symmetric choice fixed for
golden-file stability.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from .generators import build_ccc, build_lcg, last_layer_units
from .graphs import DistanceMatrix, Graph, apsp
from .resolving import is_doubly_resolving, is_resolving, is_strong_resolving
from .solvers import (
    Budget,
    BudgetExceededError,
    DEFAULT_BUDGET,
    KIND_DOUBLY,
    KIND_RESOLVING,
    KIND_STRONG,
    KINDS,
    SolveResult,
    StrongReductionError,
    solve_min_doubly,
    solve_min_resolving,
    solve_min_strong_direct,
    solve_min_strong_vc,
    subset_search_estimate,
)
from .solvers import _mandatory_from_twins  # shared sizing heuristic

FAMILY_CCC = "ccc"
FAMILY_LCG = "lcg"

CONFIRMED = "confirmed"
REFUTED = "refuted"
UNTESTED = "untested"

# direct strong search is only attempted alongside the cover route when the
# instance is this small; beyond it the cover route alone decides
_DIRECT_STRONG_MAX_ORDER = 24

_VERIFIERS = {
    KIND_RESOLVING: is_resolving,
    KIND_DOUBLY: is_doubly_resolving,
    KIND_STRONG: is_strong_resolving,
}


def ccc_formula(kind: str, n: int) -> int:
    """Claimed minimum for the cube family: 16*7^(n-2) resolving,
    24*7^(n-2) doubly, 32*7^(n-2)-1 strong; stated for n >= 2."""
    if kind not in KINDS:
        raise ValueError(f"unknown parameter kind {kind!r}")
    if n < 2:
        raise ValueError(f"cube-family closed forms require n >= 2, got n={n}")
    scale = 7 ** (n - 2)
    if kind == KIND_RESOLVING:
        return 16 * scale
    if kind == KIND_DOUBLY:
        return 24 * scale
    return 32 * scale - 1


def lcg_formula(kind: str, n: int, k: int) -> int:
    """Claimed minimum for the cycle family: n(n-1)^(k-2) resolving (n >= 3),
    2n(n-1)^(k-2) doubly (n >= 4), ceil(n/2)*n(n-1)^(k-2)-1 strong (n >= 3);
    all for k >= 2."""
    if kind not in KINDS:
        raise ValueError(f"unknown parameter kind {kind!r}")
    if k < 2:
        raise ValueError(f"cycle-family closed forms require k >= 2, got k={k}")
    if n < 3:
        raise ValueError(f"cycle-family closed forms require n >= 3, got n={n}")
    if kind == KIND_DOUBLY and n < 4:
        raise ValueError(
            f"the cycle-family doubly-resolving closed form requires n >= 4, got n={n}"
        )
    units = n * (n - 1) ** (k - 2)
    if kind == KIND_RESOLVING:
        return units
    if kind == KIND_DOUBLY:
        return 2 * units
    return ceil(n / 2) * units - 1


def _units_by_position(g: Graph) -> list[dict[int, int]]:
    """For each last-layer unit, map position -> vertex id."""
    labels = g.labels
    if labels is None:
        raise ValueError(f"graph family {g.family!r} carries no vertex labels")
    out = []
    for unit in last_layer_units(g):
        out.append({labels[v].position: v for v in unit})
    return out


def ccc_witness(kind: str, n: int, g: Graph | None = None) -> tuple[int, ...]:
    """The explicit witness set for the cube-family claim, in arranged order:
    position blocks unit-major (all position-2 vertices, then 4, then 5, then
    the per-cube extras for the strong kind)."""
    ccc_formula(kind, n)  # validate kind and range
    if g is None:
        g = build_ccc(n)
    elif g.family != f"ccc:n={n}":
        raise ValueError(f"graph family {g.family!r} does not match ccc:n={n}")
    units = _units_by_position(g)
    positions = {KIND_RESOLVING: (2, 4), KIND_DOUBLY: (2, 4, 5), KIND_STRONG: (2, 4, 5)}
    members = [unit[pos] for pos in positions[kind] for unit in units]
    if kind == KIND_STRONG:
        members += [unit[7] for unit in units[:-1]]
    if len(members) != ccc_formula(kind, n):
        raise RuntimeError(
            f"built {len(members)} members, the ccc {kind} claim is {ccc_formula(kind, n)}"
        )
    return tuple(members)


def lcg_witness(kind: str, n: int, k: int, g: Graph | None = None) -> tuple[int, ...]:
    """The explicit witness set for the cycle-family claim.

    Resolving and doubly witnesses are position blocks unit-major; the strong
    witness lists positions 2..ceil(n/2) per unit, then the extra
    maximum-distance vertex per unit except the last.
    """
    lcg_formula(kind, n, k)  # validate kind and range
    if g is None:
        g = build_lcg(n, k)
    elif g.family != f"lcg:n={n},k={k}":
        raise ValueError(f"graph family {g.family!r} does not match lcg:n={n},k={k}")
    units = _units_by_position(g)
    if kind == KIND_RESOLVING:
        members = [unit[n] for unit in units]
    elif kind == KIND_DOUBLY:
        members = [unit[n] for unit in units]
        members += [unit[n // 2 + 1] for unit in units]
    else:
        members = [unit[pos] for unit in units for pos in range(2, ceil(n / 2) + 1)]
        far_position = n // 2 + 1 if n % 2 == 0 else n // 2 + 2
        members += [unit[far_position] for unit in units[:-1]]
    if len(members) != lcg_formula(kind, n, k):
        raise RuntimeError(
            f"built {len(members)} members, the lcg {kind} claim is {lcg_formula(kind, n, k)}"
        )
    return tuple(members)


@dataclass(frozen=True)
class TheoremClaim:
    """One audited closed-form claim and what the artifact could certify.

    verified is "confirmed" only when the witness passed its verifier and an
    exact solve matched the claimed value; "untested" records a valid witness
    whose minimality was out of solver budget; "refuted" carries the
    counterexample in note.
    """

    family: str
    kind: str
    params: tuple[int, ...]
    claimed_value: int
    witness: tuple[int, ...]
    witness_ok: bool
    optimum: int | None
    method: str | None
    verified: str
    note: str = ""

    def row(self) -> str:
        params = ",".join(f"{name}={value}" for name, value in zip(("n", "k"), self.params))
        optimum = "-" if self.optimum is None else str(self.optimum)
        method = "-" if self.method is None else self.method
        return "\t".join(
            (
                self.family,
                self.kind,
                params,
                str(self.claimed_value),
                str(len(self.witness)),
                "yes" if self.witness_ok else "no",
                optimum,
                method,
                self.verified,
            )
        )


REPORT_HEADER = "\t".join(
    ("family", "kind", "params", "claimed", "witness_size", "witness_ok", "optimum", "method", "verdict")
)


def _build(family: str, params: tuple[int, ...]) -> Graph:
    if family == FAMILY_CCC:
        (n,) = params
        return build_ccc(n)
    n, k = params
    return build_lcg(n, k)


def _exact_solve(
    g: Graph,
    dist: DistanceMatrix,
    kind: str,
    claimed: int,
    budget: Budget,
    verified: tuple[int, ...] | None,
) -> tuple[SolveResult | None, str | None]:
    """Run the exact solver appropriate for the kind, or decline when even
    reaching the claimed cardinality would blow the subset budget. verified
    is the witness when it passed its verifier, else None; the cover route
    takes it as its upper bound."""
    if kind == KIND_STRONG:
        result = solve_min_strong_vc(g, budget=budget, dist=dist, verified=verified)
        if g.order <= _DIRECT_STRONG_MAX_ORDER:
            direct = solve_min_strong_direct(g, budget=budget, dist=dist)
            if direct.optimum != result.optimum:
                raise StrongReductionError(
                    f"strong solvers disagree on {g.family}: "
                    f"cover route {result.optimum}, direct search {direct.optimum}"
                )
            return result, "vc-reduction+direct"
        return result, result.method
    mandatory, bound = _mandatory_from_twins(g)
    start = max(bound, 2 if kind == KIND_DOUBLY else 1)
    estimate = subset_search_estimate(g.order, claimed, len(mandatory), start)
    if estimate > budget.max_subsets:
        return None, None
    solver = solve_min_resolving if kind == KIND_RESOLVING else solve_min_doubly
    result = solver(g, "pruned", family_pruned=True, budget=budget, dist=dist)
    return result, result.method


def audit_claim(
    family: str,
    kind: str,
    params: tuple[int, ...],
    budget: Budget = DEFAULT_BUDGET,
) -> TheoremClaim:
    """Check one closed-form claim: witness validity always, exact optimum
    when the instance fits the budget. Budget shortfalls degrade the verdict
    to "untested", never to an error."""
    if family not in (FAMILY_CCC, FAMILY_LCG):
        raise ValueError(f"unknown family {family!r}")
    if family == FAMILY_CCC:
        claimed = ccc_formula(kind, *params)
    else:
        claimed = lcg_formula(kind, *params)
    g = _build(family, params)
    dist = apsp(g)
    witness = (
        ccc_witness(kind, *params, g=g)
        if family == FAMILY_CCC
        else lcg_witness(kind, *params, g=g)
    )
    witness_ok = len(witness) == claimed and _VERIFIERS[kind](dist, witness)
    result: SolveResult | None = None
    method: str | None = None
    note = ""
    verified = witness if witness_ok else None
    try:
        result, method = _exact_solve(g, dist, kind, claimed, budget, verified)
    except BudgetExceededError as exc:
        note = f"solver budget exhausted: {exc}"
    optimum = result.optimum if result is not None else None
    if not witness_ok:
        verified = REFUTED
        note = f"witness of size {len(witness)} failed the {kind} verifier"
    elif optimum is None:
        verified = UNTESTED
        note = note or "exact search out of budget; witness validity only"
    elif optimum != claimed:
        verified = REFUTED
        note = f"exact optimum {optimum} != claimed {claimed}; counterexample {result.witness}"
    else:
        verified = CONFIRMED
    return TheoremClaim(
        family=family,
        kind=kind,
        params=params,
        claimed_value=claimed,
        witness=witness,
        witness_ok=witness_ok,
        optimum=optimum,
        method=method,
        verified=verified,
        note=note,
    )


# smallest in-range parameters for every closed-form claim, plus the larger
# cycle instances that exercise k = 3 and the doubly closed form's n >= 4 range
REPRODUCE_CLAIMS: tuple[tuple[str, str, tuple[int, ...]], ...] = (
    (FAMILY_CCC, KIND_RESOLVING, (2,)),
    (FAMILY_CCC, KIND_DOUBLY, (2,)),
    (FAMILY_CCC, KIND_STRONG, (2,)),
    (FAMILY_LCG, KIND_RESOLVING, (3, 2)),
    (FAMILY_LCG, KIND_RESOLVING, (4, 2)),
    (FAMILY_LCG, KIND_RESOLVING, (3, 3)),
    (FAMILY_LCG, KIND_DOUBLY, (4, 2)),
    (FAMILY_LCG, KIND_STRONG, (3, 2)),
    (FAMILY_LCG, KIND_STRONG, (4, 2)),
)


def reproduce(budget: Budget = DEFAULT_BUDGET) -> list[TheoremClaim]:
    """Audit every claim in the standard reproduction table."""
    return [audit_claim(family, kind, params, budget) for family, kind, params in REPRODUCE_CLAIMS]


def doubly_small_cycle_data_point(k: int = 2, budget: Budget = DEFAULT_BUDGET) -> SolveResult:
    """Empirical minimum doubly resolving set size for the n = 3 cycle family,
    which the closed form deliberately excludes; reported, never asserted."""
    g = build_lcg(3, k)
    return solve_min_doubly(g, "pruned", family_pruned=True, budget=budget)
