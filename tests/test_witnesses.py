import ast
import itertools
from dataclasses import replace

import pytest

from resolvekit import (
    Budget,
    apsp,
    build_ccc,
    build_lcg,
    audit_claim,
    ccc_formula,
    ccc_witness,
    is_doubly_resolving,
    is_resolving,
    is_strong_resolving,
    lcg_formula,
    lcg_witness,
    last_layer_units,
    lcg_order,
    make_graph,
    mmd_pairs,
    reproduce,
    solvers,
    witnesses,
)
from resolvekit.witnesses import (
    CONFIRMED,
    REFUTED,
    REPRODUCE_CLAIMS,
    UNTESTED,
    doubly_small_cycle_data_point,
)

from oracles import last_layer_units_brute

VERIFIERS = {
    "resolving": is_resolving,
    "doubly": is_doubly_resolving,
    "strong": is_strong_resolving,
}


# ---------------------------------------------------------------- formulas


def test_ccc_formula_values():
    assert ccc_formula("resolving", 2) == 16
    assert ccc_formula("doubly", 2) == 24
    assert ccc_formula("strong", 2) == 31
    assert ccc_formula("strong", 3) == 223
    assert ccc_formula("doubly", 3) == 168


def test_lcg_formula_values():
    assert lcg_formula("resolving", 5, 3) == 20
    assert lcg_formula("resolving", 3, 2) == 3
    assert lcg_formula("doubly", 4, 2) == 8
    assert lcg_formula("strong", 3, 2) == 5
    assert lcg_formula("strong", 4, 2) == 7
    assert lcg_formula("strong", 5, 2) == 14


def test_formula_domain_errors():
    with pytest.raises(ValueError, match="n >= 2"):
        ccc_formula("resolving", 1)
    with pytest.raises(ValueError, match="unknown parameter kind"):
        ccc_formula("weird", 2)
    with pytest.raises(ValueError, match="n >= 3"):
        lcg_formula("resolving", 2, 2)
    with pytest.raises(ValueError, match="k >= 2"):
        lcg_formula("resolving", 3, 1)
    with pytest.raises(ValueError, match="n >= 4"):
        lcg_formula("doubly", 3, 2)


# --------------------------------------------------------------- witnesses


def test_ccc2_witness_layout():
    g = build_ccc(2)
    w = ccc_witness("resolving", 2, g=g)
    assert len(w) == 16
    positions = sorted({(g.labels[v].branch, g.labels[v].position) for v in w})
    assert positions == [(r, p) for r in range(1, 9) for p in (2, 4)]


def test_ccc_witness_chain():
    g = build_ccc(2)
    resolving = set(ccc_witness("resolving", 2, g=g))
    doubly = set(ccc_witness("doubly", 2, g=g))
    strong = set(ccc_witness("strong", 2, g=g))
    assert resolving < doubly < strong


def test_witness_sizes_match_formulas():
    for n in (2, 3):
        g = build_ccc(n)
        for kind in ("resolving", "doubly", "strong"):
            assert len(ccc_witness(kind, n, g=g)) == ccc_formula(kind, n)
    for n in range(3, 10):
        for k in range(2, 8):
            if lcg_order(n, k) > 600:
                continue
            g = build_lcg(n, k)
            for kind in ("resolving", "doubly", "strong"):
                if kind == "doubly" and n < 4:
                    continue
                assert len(lcg_witness(kind, n, k, g=g)) == lcg_formula(kind, n, k)


def test_lcg_witness_layouts():
    g = build_lcg(3, 2)
    # resolving: position n of each last-layer triangle
    w = lcg_witness("resolving", 3, 2, g=g)
    assert [(g.labels[v].branch, g.labels[v].position) for v in w] == [
        (1, 3), (2, 3), (3, 3),
    ]
    g = build_lcg(4, 2)
    # doubly: position n then position n//2+1 per cycle
    w = lcg_witness("doubly", 4, 2, g=g)
    assert [(g.labels[v].branch, g.labels[v].position) for v in w] == [
        (1, 4), (2, 4), (3, 4), (4, 4), (1, 3), (2, 3), (3, 3), (4, 3),
    ]
    # strong: position 2 per cycle plus the head antipode in all cycles but one
    w = lcg_witness("strong", 4, 2, g=g)
    assert [(g.labels[v].branch, g.labels[v].position) for v in w] == [
        (1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3),
    ]


def test_witnesses_live_in_last_layer():
    for g, witness in (
        (build_ccc(2), ccc_witness("strong", 2)),
        (build_lcg(4, 2), lcg_witness("doubly", 4, 2)),
        (build_lcg(3, 3), lcg_witness("resolving", 3, 3)),
    ):
        top = max(label.layer for label in g.labels)
        assert all(g.labels[v].layer == top for v in witness)


@pytest.mark.parametrize(
    "kind,n,k",
    [
        ("resolving", 3, 2),
        ("resolving", 4, 2),
        ("resolving", 3, 3),
        ("resolving", 5, 2),
        ("doubly", 4, 2),
        ("doubly", 5, 2),
        ("doubly", 4, 3),
        ("strong", 3, 2),
        ("strong", 4, 2),
        ("strong", 5, 2),
        ("strong", 3, 3),
    ],
)
def test_lcg_witnesses_pass_verifiers(kind, n, k):
    g = build_lcg(n, k)
    witness = lcg_witness(kind, n, k, g=g)
    assert VERIFIERS[kind](apsp(g), witness)


@pytest.mark.parametrize("kind", ["resolving", "doubly", "strong"])
def test_ccc2_witnesses_pass_verifiers(kind, ccc2, ccc2_dist):
    witness = ccc_witness(kind, 2, g=ccc2)
    assert VERIFIERS[kind](ccc2_dist, witness)


def test_witness_family_mismatch_rejected(ccc2):
    with pytest.raises(ValueError, match="does not match"):
        ccc_witness("resolving", 3, g=ccc2)
    with pytest.raises(ValueError, match="does not match"):
        lcg_witness("resolving", 3, 2, g=ccc2)


def test_witness_without_labels_rejected(ccc2, lcg32):
    bare_ccc = make_graph(ccc2.order, ccc2.edges(), family=ccc2.family)
    bare_lcg = make_graph(lcg32.order, lcg32.edges(), family=lcg32.family)
    with pytest.raises(ValueError, match="no vertex labels"):
        ccc_witness("resolving", 2, g=bare_ccc)
    with pytest.raises(ValueError, match="no vertex labels"):
        lcg_witness("resolving", 3, 2, g=bare_lcg)


def test_witness_size_guard_raises(monkeypatch, ccc2, lcg32):
    from resolvekit import witnesses

    monkeypatch.setattr(witnesses, "ccc_formula", lambda kind, n: 0)
    monkeypatch.setattr(witnesses, "lcg_formula", lambda kind, n, k: 0)
    with pytest.raises(RuntimeError, match="ccc resolving claim is 0"):
        ccc_witness("resolving", 2, g=ccc2)
    with pytest.raises(RuntimeError, match="lcg doubly claim is 0"):
        lcg_witness("doubly", 3, 2, g=lcg32)


# ------------------------------------------------------------------ audits


def test_audit_lcg_resolving_confirmed():
    claim = audit_claim("lcg", "resolving", (3, 2))
    assert claim.verified == CONFIRMED
    assert claim.optimum == 3
    assert claim.witness_ok


def test_audit_ccc_doubly_confirmed_by_search():
    claim = audit_claim("ccc", "doubly", (2,))
    assert claim.verified == CONFIRMED
    assert claim.witness_ok
    assert claim.optimum == 24
    assert claim.method == "pruned"
    assert claim.note == ""


def test_audit_lcg_strong_takes_the_cover_route_alone(monkeypatch):
    # the cover route is exact, so the audit runs no direct search beside it
    def no_direct(*args, **kwargs):
        raise AssertionError("the audit ran the direct strong search")

    monkeypatch.setattr(solvers, "solve_min_strong_direct", no_direct)
    monkeypatch.setattr(witnesses, "solve_min_strong_direct", no_direct, raising=False)
    for params, optimum in (((3, 2), 5), ((4, 2), 7)):
        claim = audit_claim("lcg", "strong", params)
        assert claim.verified == CONFIRMED
        assert claim.optimum == optimum
        assert claim.method == "vc-reduction"


def test_audit_row_format():
    claim = audit_claim("lcg", "resolving", (3, 2))
    row = claim.row().split("\t")
    assert row == ["lcg", "resolving", "n=3,k=2", "3", "3", "yes", "3", "pruned", "confirmed"]


def test_audit_rejects_out_of_range_params():
    with pytest.raises(ValueError, match="n >= 4"):
        audit_claim("lcg", "doubly", (3, 2))
    with pytest.raises(ValueError, match="unknown family"):
        audit_claim("petersen", "resolving", (5,))


def test_audit_budget_degrades_to_untested():
    claim = audit_claim("lcg", "resolving", (3, 2), Budget(max_subsets=0))
    assert claim.verified == UNTESTED
    assert claim.witness_ok


def joined_ccc(n):
    """build_ccc(n) with one more edge, between the antipodal vertices of the
    first two last-layer cubes: their cubes join one block that is no leaf,
    so the strong cover route's leaf-block shortcut declines the graph."""
    g = build_ccc(n)
    first, second = ([v for v in unit if g.labels[v].position == 7] for unit in last_layer_units(g)[:2])
    return make_graph(g.order, [*g.edges(), (*first, *second)], g.labels, g.family)


def _no_solve(*args, **kwargs):
    raise AssertionError("a solve ran after the audit's time was spent")


def _spent_after_the_witness(monkeypatch):
    """A budget whose clock runs out at the first reading after the witness
    is built: the clock steps one second per reading, so the audit's start
    and its reads before the build and before the witness construction stay
    within 2.5 s, and the next reading is past it."""
    readings = itertools.count()
    monkeypatch.setattr(solvers.time, "perf_counter", lambda: next(readings))
    return Budget(timeout_seconds=2.5)


def test_audit_timeout_counts_apsp_and_skips_every_solve(monkeypatch):
    # one clock runs from the start of the audit and apsp reads it, so a
    # spent timeout stops apsp on a graph the leaf-block route declines; the
    # witness is then unchecked, not failed
    monkeypatch.setattr(witnesses, "solve_min_strong_vc", _no_solve)
    monkeypatch.setattr(witnesses, "build_ccc", joined_ccc)
    claim = audit_claim("ccc", "strong", (2,), _spent_after_the_witness(monkeypatch))
    assert claim.verified == UNTESTED
    assert claim.witness_ok is None and claim.optimum is None
    assert claim.row().split("\t")[5:] == ["-", "-", "-", "untested"]
    assert "in apsp" in claim.note and "time budget exhausted" in claim.note


def test_audit_timeout_stops_the_leaf_block_route_and_skips_every_solve(monkeypatch):
    # on the family graph the route reads the same clock at its first leaf
    # block, before any apsp, and the note names it
    def no_apsp(g, check=lambda: None):
        raise AssertionError("apsp ran after the audit's time was spent")

    monkeypatch.setattr(witnesses, "solve_min_strong_vc", _no_solve)
    monkeypatch.setattr(witnesses, "apsp", no_apsp)
    monkeypatch.setattr(solvers, "apsp", no_apsp)
    claim = audit_claim("ccc", "strong", (2,), _spent_after_the_witness(monkeypatch))
    assert claim.verified == UNTESTED
    assert claim.witness_ok is None and claim.optimum is None
    assert claim.row().split("\t")[5:] == ["-", "-", "-", "untested"]
    assert claim.note.startswith("budget exhausted in the leaf-block route, before the witness check")
    assert "apsp" not in claim.note and "time budget exhausted" in claim.note


def test_declined_strong_audit_checks_its_witness_by_the_definition(monkeypatch):
    # off the route the witness is checked by is_strong_resolving on apsp's
    # rows. ccc 2's witness does not strongly resolve the joined graph; the
    # solve then checks its whole-graph cover by the same verifier
    monkeypatch.setattr(witnesses, "build_ccc", joined_ccc)
    calls = _count_strong_calls(monkeypatch)
    claim = audit_claim("ccc", "strong", (2,))
    assert claim.witness_ok is False and claim.verified == REFUTED
    assert claim.note == "witness of size 31 failed the strong verifier"
    assert len(calls) == 2 and calls[0] == claim.witness and len(calls[1]) == claim.optimum


def test_audit_solves_get_only_the_time_left(monkeypatch):
    # lcg 3,2 strong runs one solve, on the cover route; it gets the node
    # budget and what is left of the audit's timeout when it starts, and
    # the leaf-block route the audit derived on that clock
    checks, timeouts, routes = [], [], []

    def spy_route(g, check=lambda: None):
        checks.append(check)
        routes.append(leaf_block_mmd(g, check))
        return routes[-1]

    def spy(solve):
        def run(g, *args, budget, route, **kwargs):
            timeouts.append(budget.timeout_seconds)
            assert budget.max_subsets == 10**6
            assert route is routes[0]
            return solve(g, *args, budget=budget, route=route, **kwargs)

        return run

    leaf_block_mmd = witnesses.leaf_block_mmd
    monkeypatch.setattr(witnesses, "leaf_block_mmd", spy_route)
    monkeypatch.setattr(witnesses, "solve_min_strong_vc", spy(witnesses.solve_min_strong_vc))
    claim = audit_claim("lcg", "strong", (3, 2), Budget(max_subsets=10**6, timeout_seconds=1000.0))
    assert claim.verified == CONFIRMED
    assert len(checks) == 1 and checks[0] is not None
    assert len(timeouts) == 1 and 1000.0 > timeouts[0]


def test_reproduce_table():
    claims = reproduce()
    assert len(claims) == len(REPRODUCE_CLAIMS) == 9
    by_key = {(c.family, c.kind, c.params): c for c in claims}
    confirmed = {
        ("ccc", "strong", (2,)): 31,
        ("lcg", "resolving", (3, 2)): 3,
        ("lcg", "resolving", (4, 2)): 4,
        ("lcg", "resolving", (3, 3)): 6,
        ("lcg", "doubly", (4, 2)): 8,
        ("lcg", "strong", (3, 2)): 5,
        ("lcg", "strong", (4, 2)): 7,
    }
    for key, optimum in confirmed.items():
        assert by_key[key].verified == CONFIRMED
        assert by_key[key].optimum == optimum
    for key, optimum in ((("ccc", "resolving", (2,)), 16), (("ccc", "doubly", (2,)), 24)):
        assert by_key[key].verified == CONFIRMED
        assert by_key[key].optimum == optimum
        assert by_key[key].method == "pruned"
    # confirmed verdicts always rest on a passing witness
    assert all(c.witness_ok for c in claims if c.verified == CONFIRMED)


def _clock_readings_alone(monkeypatch):
    """Step the clock one second per reading, and return how many readings
    each reproduce claim's audit takes on its own, under a timeout far too
    long to run out."""
    readings = itertools.count()
    monkeypatch.setattr(solvers.time, "perf_counter", lambda: next(readings))
    counts = []
    for family, kind, params in REPRODUCE_CLAIMS:
        start = next(readings)
        audit_claim(family, kind, params, Budget(timeout_seconds=10**6))
        counts.append(next(readings) - start)
    return counts


def test_reproduce_timeout_bounds_the_whole_table(monkeypatch):
    # a budget that confirms each claim audited alone is spent by the claims
    # before the last one, so the last reads untested; max_subsets stays
    # per solve, so the first claim, with the whole clock, is confirmed
    budget = Budget(timeout_seconds=max(_clock_readings_alone(monkeypatch)))
    for family, kind, params in REPRODUCE_CLAIMS:
        assert audit_claim(family, kind, params, budget).verified == CONFIRMED
    claims = reproduce(budget)
    assert claims[0].verified == CONFIRMED
    assert claims[-1].verified == UNTESTED and "time budget exhausted" in claims[-1].note


@pytest.mark.parametrize(
    "timeout, stage, builds",
    [(0.5, "before the build", []), (1.5, "before the witness construction", [6])],
)
def test_audit_reads_its_clock_before_the_build_and_the_witness(monkeypatch, timeout, stage, builds):
    # the clock steps one second per reading: the audit's start reads 0, the
    # read before the build 1 and the one before the witness construction 2.
    # A spent clock stops the audit there, with no witness and nothing checked
    readings = itertools.count()
    monkeypatch.setattr(solvers.time, "perf_counter", lambda: next(readings))
    built = []
    monkeypatch.setattr(witnesses, "build_ccc", built.append)
    monkeypatch.setattr(witnesses, "ccc_witness", _no_solve)
    monkeypatch.setattr(witnesses, "leaf_block_mmd", _no_solve)
    claim = audit_claim("ccc", "strong", (6,), Budget(timeout_seconds=timeout))
    assert built == builds
    assert claim.witness == () and claim.witness_ok is None and claim.verified == UNTESTED
    assert claim.row().split("\t")[3:] == ["76831", "0", "-", "-", "-", "untested"]
    assert claim.note == f"budget exhausted {stage}: time budget exhausted (after 0 search nodes)"


def test_reproduce_builds_no_graph_once_its_clock_is_spent(monkeypatch):
    # the budget of test_reproduce_timeout_bounds_the_whole_table runs out
    # within the table; every later audit stops before its build
    budget = Budget(timeout_seconds=max(_clock_readings_alone(monkeypatch)))
    built = []
    for name in ("build_ccc", "build_lcg"):
        build = getattr(witnesses, name)
        monkeypatch.setattr(witnesses, name, lambda *params, build=build: built.append(params) or build(*params))
    claims = reproduce(budget)
    spent = [c for c in claims if c.note.startswith("budget exhausted before the build: ")]
    assert spent and claims[-len(spent) :] == spent
    assert built == [params for _, _, params in REPRODUCE_CLAIMS[: -len(spent)]]
    assert all(c.witness == () and c.verified == UNTESTED for c in spent)


@pytest.mark.parametrize("kind", ["strong", "resolving"])
def test_checked_witness_smaller_than_the_optimum_raises(monkeypatch, kind):
    # a witness that passed its check bounds the optimum from above, so an
    # optimum past it means a solve or a verifier is wrong: the audit raises
    # rather than publishing a verdict, for every kind. The strong cover
    # gains a non-member, which keeps it a cover; the resolving search
    # reports an optimum one larger
    if kind == "strong":
        cover = solvers._leaf_block_cover

        def padded(route, ticker):
            members = cover(route, ticker)
            return tuple(sorted({*members, min(set(range(len(members) + 1)) - set(members))}))

        monkeypatch.setattr(solvers, "_leaf_block_cover", padded)
    else:
        search = solvers.SEARCHES[kind]

        def one_larger(g, **kwargs):
            result = search(g, **kwargs)
            return replace(result, optimum=result.optimum + 1)

        monkeypatch.setitem(solvers.SEARCHES, kind, one_larger)
    claimed = lcg_formula(kind, 3, 2)
    match = f"witness of size {claimed} is smaller than the exact optimum {claimed + 1}"
    with pytest.raises(RuntimeError, match=match):
        audit_claim("lcg", kind, (3, 2))


def test_small_cycle_doubly_data_point():
    result = doubly_small_cycle_data_point()
    assert result.optimum == 3
    assert is_doubly_resolving(apsp(build_lcg(3, 2)), result.witness)


# ------------------------------------------------- beyond the smallest sizes


def test_ccc3_witnesses_pass_verifiers():
    g = build_ccc(3)
    dist = apsp(g)
    for kind, size in (("resolving", 112), ("doubly", 168), ("strong", 223)):
        witness = ccc_witness(kind, 3, g=g)
        assert len(witness) == size
        assert VERIFIERS[kind](dist, witness)


def test_audit_ccc3_strong_confirmed():
    # certified from both sides on the 520-vertex instance: the MMD cover
    # bound below, the checked cover above
    claim = audit_claim("ccc", "strong", (3,))
    assert claim.verified == CONFIRMED
    assert claim.optimum == 223


def test_audit_lcg53_strong_confirmed():
    claim = audit_claim("lcg", "strong", (5, 3))
    assert claim.verified == CONFIRMED
    assert claim.optimum == 59


def _counterexample(claim):
    """The solver witness a refuted verdict quotes in its note."""
    return ast.literal_eval(claim.note.rpartition("counterexample ")[2])


def test_audit_lcg53_doubly_refuted_at_20():
    # the closed-form witness of size 40 verifies, but the exact optimum is 20
    claim = audit_claim("lcg", "doubly", (5, 3))
    assert claim.verified == REFUTED
    assert claim.witness_ok
    assert claim.optimum == 20
    assert claim.method == "pruned"
    counterexample = _counterexample(claim)
    assert len(counterexample) == 20
    assert is_doubly_resolving(apsp(build_lcg(5, 3)), counterexample)


# on each cell the count of subsets up to the claim far exceeds
# max_subsets, while the pruned search needs at most a few thousand nodes
@pytest.mark.parametrize(
    "family, kind, params, optimum, verdict",
    [
        ("lcg", "doubly", (4, 3), 24, CONFIRMED),
        ("lcg", "doubly", (6, 3), 60, CONFIRMED),
        ("lcg", "resolving", (7, 3), 42, CONFIRMED),
        ("ccc", "resolving", (3,), 112, CONFIRMED),
        ("ccc", "doubly", (3,), 168, CONFIRMED),
        ("lcg", "doubly", (5, 2), 5, REFUTED),
        ("lcg", "doubly", (7, 3), 42, REFUTED),
    ],
)
def test_audit_searches_under_the_budget_alone(family, kind, params, optimum, verdict):
    claim = audit_claim(family, kind, params)
    assert claim.verified == verdict
    assert claim.witness_ok
    assert claim.optimum == optimum
    assert claim.method == "pruned"
    if verdict == REFUTED:
        counterexample = _counterexample(claim)
        assert len(counterexample) == optimum
        g = build_ccc(*params) if family == "ccc" else build_lcg(*params)
        assert VERIFIERS[kind](apsp(g), counterexample)


# ------------------------------------------------- one strong verification


def _count_strong_calls(monkeypatch):
    """Route every is_strong_resolving call of an audit through a counter."""
    from resolvekit import solvers

    calls = []

    def counted(dist, members):
        calls.append(tuple(members))
        return is_strong_resolving(dist, members)

    monkeypatch.setattr(solvers, "is_strong_resolving", counted)
    monkeypatch.setitem(solvers.VERIFIERS, "strong", counted)
    return calls


def _apsp_orders(monkeypatch):
    """The order of the graph of every apsp call of an audit."""
    orders = []

    def spy(g, check=lambda: None):
        orders.append(g.order)
        return apsp(g, check)

    monkeypatch.setattr(witnesses, "apsp", spy)
    monkeypatch.setattr(solvers, "apsp", spy)
    return orders


def _missed_checks(monkeypatch):
    """Every set a leaf-block route checks for a missed MMD pair."""
    checks = []
    missed = solvers.LeafBlockMmd.missed

    def spy(route, members):
        checks.append(tuple(sorted(members)))
        return missed(route, members)

    monkeypatch.setattr(solvers.LeafBlockMmd, "missed", spy)
    return checks


@pytest.mark.parametrize("family, params, optimum", [("ccc", (2,), 31), ("lcg", (5, 3), 59)])
def test_confirmed_strong_audit_runs_no_apsp_and_no_verifier(monkeypatch, family, params, optimum):
    # the witness and then the cover, its own upper bound, are each checked
    # once against the derived MMD graph. ccc 2's closed-form witness is not
    # its lex-least cover. apsp runs only on the shapes' own local graphs:
    # the cube with its pendant edge, 9 vertices, and the 5-cycle
    cover = solvers.solve_min_strong_vc(witnesses.family_graph(family, params)).witness
    calls = _count_strong_calls(monkeypatch)
    orders = _apsp_orders(monkeypatch)
    checks = _missed_checks(monkeypatch)
    claim = audit_claim(family, "strong", params)
    assert claim.verified == CONFIRMED
    assert claim.optimum == optimum
    assert calls == []
    assert orders and max(orders) <= 9
    assert checks == [tuple(sorted(claim.witness)), cover]


def test_failed_strong_witness_makes_the_cover_verified(monkeypatch):
    calls = _count_strong_calls(monkeypatch)
    checks = _missed_checks(monkeypatch)
    # a set of the claimed size that is not strong resolving
    monkeypatch.setattr(witnesses, "lcg_witness", lambda kind, n, k, g: tuple(range(59)))
    claim = audit_claim("lcg", "strong", (5, 3))
    assert not claim.witness_ok
    assert claim.verified == REFUTED
    assert claim.optimum == 59
    # refuted with the MMD pair it misses; the solve checks its cover after it
    missed = ast.literal_eval(claim.note.rpartition("misses the MMD pair ")[2])
    assert missed in mmd_pairs(build_lcg(5, 3)).edges and not set(missed) & set(range(59))
    assert calls == []
    assert len(checks) == 2
    assert checks[0] == tuple(range(59))
    assert checks[1] != checks[0] and len(checks[1]) == 59


def test_ccc5_strong_audit_confirms_with_no_whole_graph_apsp(monkeypatch):
    orders = _apsp_orders(monkeypatch)
    claim = audit_claim("ccc", "strong", (5,))
    assert claim.verified == CONFIRMED
    assert claim.optimum == claim.claimed_value == 10975
    assert orders and max(orders) <= 9


def _witness_from_position_dicts(family, kind, params, g):
    # the witness layout of the module docstring, read through a
    # {position: id} dict per last-layer unit built from a scan of the labels
    units = [{g.labels[v].position: v for v in unit} for unit in last_layer_units_brute(g.labels)]
    if family == "ccc":
        positions = (2, 4) if kind == "resolving" else (2, 4, 5)
        extras = [unit[7] for unit in units[:-1]] if kind == "strong" else []
        return tuple([unit[p] for p in positions for unit in units] + extras)
    n = params[0]
    if kind == "strong":
        members = [unit[p] for unit in units for p in range(2, (n + 1) // 2 + 1)]
        far = n // 2 + 1 if n % 2 == 0 else n // 2 + 2
        return tuple(members + [unit[far] for unit in units[:-1]])
    positions = (n,) if kind == "resolving" else (n, n // 2 + 1)
    return tuple(unit[p] for p in positions for unit in units)


OFFSET_WITNESS_CELLS = [("ccc", (n,)) for n in range(2, 5)]
OFFSET_WITNESS_CELLS += [("lcg", (n, k)) for n in range(3, 8) for k in range(2, 5)]


@pytest.mark.parametrize(
    "family, params", OFFSET_WITNESS_CELLS, ids=[f"{f}{p}" for f, p in OFFSET_WITNESS_CELLS]
)
def test_witnesses_by_offset_equal_the_position_dicts(family, params):
    g = witnesses.family_graph(family, params)
    for kind in ("resolving", "doubly", "strong"):
        if family == "lcg" and kind == "doubly" and params[0] < 4:
            continue  # no closed form
        want = _witness_from_position_dicts(family, kind, params, g)
        assert witnesses.family_witness(family, kind, params, g) == want
