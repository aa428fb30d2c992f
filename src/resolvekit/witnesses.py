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
from typing import Callable

from .generators import build_ccc, build_lcg, last_layer_units
from .graphs import Graph, apsp
from .solvers import (
    Budget,
    BudgetExceededError,
    DEFAULT_BUDGET,
    KIND_DOUBLY,
    KIND_RESOLVING,
    KIND_STRONG,
    KINDS,
    SEARCHES,
    VERIFIERS,
    SolveResult,
    Ticker,
    leaf_block_mmd,
    solve_min_doubly,
    solve_min_strong_vc,
)

FAMILY_CCC = "ccc"
FAMILY_LCG = "lcg"

CONFIRMED = "confirmed"
REFUTED = "refuted"
UNTESTED = "untested"


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


def _family(family: str) -> tuple[Callable, Callable, Callable]:
    """Builder, closed form and witness constructor of a family, read from
    the module's names at call time so wrappers bound over them see calls."""
    if family == FAMILY_CCC:
        return build_ccc, ccc_formula, ccc_witness
    if family == FAMILY_LCG:
        return build_lcg, lcg_formula, lcg_witness
    raise ValueError(f"unknown family {family!r}")


def family_params(family: str, n: int | None, k: int | None) -> tuple[int, ...]:
    """The size parameters of a generated family: (n,) for the cube family,
    (n, k) for the cycle family. A missing or inapplicable one raises."""
    if n is None:
        raise ValueError("--n is required for a generated family")
    if family == FAMILY_CCC:
        if k is not None:
            raise ValueError("--k does not apply to the cube family")
        return (n,)
    if k is None:
        raise ValueError("--k is required for the cycle family")
    return (n, k)


def family_graph(family: str, params: tuple[int, ...]) -> Graph:
    """The generated graph of a family at params (see family_params)."""
    return _family(family)[0](*params)


def family_witness(family: str, kind: str, params: tuple[int, ...], g: Graph) -> tuple[int, ...]:
    """The closed-form witness of a family's claim, on its graph g."""
    return _family(family)[2](kind, *params, g=g)


def _params_text(params: tuple[int, ...]) -> str:
    return ",".join(f"{name}={value}" for name, value in zip(("n", "k"), params))


def _witness(
    family: str, kind: str, params: tuple[int, ...], g: Graph | None, pick: Callable
) -> tuple[int, ...]:
    """The frame both witness constructors share: validate kind and range,
    build or check the graph, let pick choose the members from the
    last-layer units, and guard their count against the claim. pick gets
    each unit as its tuple of ids, so position p of a unit is unit[p - 1]:
    position i of the unit at base id b is id b + i - 1."""
    build, formula, _ = _family(family)
    claimed = formula(kind, *params)
    name = f"{family}:{_params_text(params)}"
    if g is None:
        g = build(*params)
    elif g.family != name:
        raise ValueError(f"graph family {g.family!r} does not match {name}")
    members = pick(last_layer_units(g))  # raises when g carries no labels
    if len(members) != claimed:
        raise RuntimeError(f"built {len(members)} members, the {family} {kind} claim is {claimed}")
    return tuple(members)


def ccc_witness(kind: str, n: int, g: Graph | None = None) -> tuple[int, ...]:
    """The explicit witness set for the cube-family claim, in arranged order:
    position blocks unit-major (all position-2 vertices, then 4, then 5, then
    the per-cube extras for the strong kind)."""

    def pick(units):
        positions = (2, 4) if kind == KIND_RESOLVING else (2, 4, 5)
        extras = [unit[6] for unit in units[:-1]] if kind == KIND_STRONG else []  # position 7
        return [unit[pos - 1] for pos in positions for unit in units] + extras

    return _witness(FAMILY_CCC, kind, (n,), g, pick)


def lcg_witness(kind: str, n: int, k: int, g: Graph | None = None) -> tuple[int, ...]:
    """The explicit witness set for the cycle-family claim.

    Resolving and doubly witnesses are position blocks unit-major; the strong
    witness lists positions 2..ceil(n/2) per unit, then the extra
    maximum-distance vertex per unit except the last.
    """

    def pick(units):
        if kind == KIND_STRONG:
            members = [unit[pos - 1] for unit in units for pos in range(2, ceil(n / 2) + 1)]
            far_position = n // 2 + 1 if n % 2 == 0 else n // 2 + 2
            return members + [unit[far_position - 1] for unit in units[:-1]]
        positions = (n,) if kind == KIND_RESOLVING else (n, n // 2 + 1)
        return [unit[pos - 1] for pos in positions for unit in units]

    return _witness(FAMILY_LCG, kind, (n, k), g, pick)


@dataclass(frozen=True)
class TheoremClaim:
    """One audited closed-form claim and what the artifact could certify.

    verified is "confirmed" only when the witness passed its check and an
    exact solve matched the claimed value; "untested" records a witness that
    did not fail whose exact solve ran out of budget, the budget error in
    note; "refuted" carries the counterexample in note. witness_ok is None
    when the budget ran out before the witness could be checked: before the
    build or the witness construction, which leaves witness empty, in the
    leaf-block route of a strong audit or else in apsp; note names which.
    """

    family: str
    kind: str
    params: tuple[int, ...]
    claimed_value: int
    witness: tuple[int, ...]
    witness_ok: bool | None
    optimum: int | None
    method: str | None
    verified: str
    note: str = ""

    def row(self) -> str:
        optimum = "-" if self.optimum is None else str(self.optimum)
        method = "-" if self.method is None else self.method
        witness_ok = "-" if self.witness_ok is None else "yes" if self.witness_ok else "no"
        return "\t".join(
            (
                self.family,
                self.kind,
                _params_text(self.params),
                str(self.claimed_value),
                str(len(self.witness)),
                witness_ok,
                optimum,
                method,
                self.verified,
            )
        )


REPORT_HEADER = "\t".join(
    ("family", "kind", "params", "claimed", "witness_size", "witness_ok", "optimum", "method", "verdict")
)


def audit_claim(
    family: str,
    kind: str,
    params: tuple[int, ...],
    budget: Budget = DEFAULT_BUDGET,
) -> TheoremClaim:
    """Check one closed-form claim: witness validity, and the exact optimum
    from a solve under budget, the only bound on it. The timeout bounds the
    whole call: one clock starts first and is read before the graph is
    built, before the witness is constructed and by the stage before the
    witness check, and the solve gets only the time left. A spent budget
    degrades the verdict to "untested", never to an error.
    Strong takes the cover route alone, exact by the theorem in the solvers
    docstring; the cover is its own upper bound, so the audit alone checks
    the witness and passes it to no solve. On a graph leaf_block_mmd takes,
    as it takes every family graph, the witness is checked against the
    derived MMD graph, which the solve reuses, and no apsp runs; any other
    claim checks it by the kind's verifier. A checked witness smaller than
    the exact optimum would mean a verifier or solve is wrong, so it raises
    RuntimeError for every kind rather than publishing a verdict."""
    build, formula, construct = _family(family)
    claimed = formula(kind, *params)
    ticker = Ticker(budget)
    witness: tuple[int, ...] = ()
    witness_ok: bool | None = None
    result: SolveResult | None = None
    dist = route = pair = None
    note = ""
    stage = "before the build"
    try:
        ticker.check_time()
        g = build(*params)
        stage = "before the witness construction"
        ticker.check_time()
        witness = construct(kind, *params, g=g)
        stage = "in the leaf-block route, before the witness check"
        route = leaf_block_mmd(g, ticker.check_time) if kind == KIND_STRONG else None
        stage = "in apsp, before the witness check"
        dist = None if route else apsp(g, check=ticker.check_time)
    except BudgetExceededError as exc:
        note = f"budget exhausted {stage}: {exc}"
    else:
        pair = route.missed(set(witness)) if route else None
        witness_ok = len(witness) == claimed and (pair is None if route else VERIFIERS[kind](dist, witness))
        try:
            if kind == KIND_STRONG:
                result = solve_min_strong_vc(g, budget=ticker.left(), dist=dist, route=route)
            else:
                result = SEARCHES[kind](g, budget=ticker.left(), dist=dist)
        except BudgetExceededError as exc:
            note = f"solver budget exhausted: {exc}"
    optimum = result.optimum if result is not None else None
    if witness_ok and optimum is not None and optimum > len(witness):
        raise RuntimeError(
            f"checked {kind} witness of size {len(witness)} is smaller than the exact optimum {optimum}"
        )
    if witness_ok is False:
        verified = REFUTED
        failure = f"failed the {kind} verifier" if pair is None else f"misses the MMD pair {pair}"
        note = f"witness of size {len(witness)} {failure}"
    elif optimum is None:
        verified = UNTESTED
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
        method=result.method if result is not None else None,
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
    """Audit every claim in the standard reproduction table. The timeout
    bounds the whole table: one clock starts here, and each audit gets only
    the time left on it. max_subsets bounds each solve."""
    ticker = Ticker(budget)
    return [audit_claim(family, kind, params, ticker.left()) for family, kind, params in REPRODUCE_CLAIMS]


def doubly_small_cycle_data_point(k: int = 2, budget: Budget = DEFAULT_BUDGET) -> SolveResult:
    """Empirical minimum doubly resolving set size for the n = 3 cycle family,
    which the closed form deliberately excludes; reported, never asserted."""
    g = build_lcg(3, k)
    return solve_min_doubly(g, "pruned", budget=budget)
