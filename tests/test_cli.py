import re
import time
import tracemalloc

import pytest

from resolvekit import build_lcg, ccc_formula, ccc_witness, lcg_formula, lcg_witness, make_graph, write_graph
from resolvekit import cli, solvers
from resolvekit.cli import run
from resolvekit.witnesses import REPRODUCE_CLAIMS


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


def test_gen_lcg_edge_list(capsys):
    assert run(["gen", "lcg", "--n", "3", "--k", "2", "--format", "edge-list"]) == 0
    out, _ = out_of(capsys)
    lines = out.splitlines()
    assert lines[0] == "p 12 15"
    assert len(lines) == 16
    for line in lines[1:]:
        u, v = map(int, line.split())
        assert 0 <= u < v < 12


def test_gen_matches_library(capsys):
    assert run(["gen", "lcg", "--n", "4", "--k", "2"]) == 0
    out, _ = out_of(capsys)
    assert out == write_graph(build_lcg(4, 2))


def test_gen_deterministic(capsys):
    run(["gen", "ccc", "--n", "2"])
    first, _ = out_of(capsys)
    run(["gen", "ccc", "--n", "2"])
    second, _ = out_of(capsys)
    assert first == second


def test_gen_dimacs(capsys):
    assert run(["gen", "ccc", "--n", "1", "--format", "dimacs"]) == 0
    out, _ = out_of(capsys)
    assert out.splitlines()[0] == "p edge 8 12"


def test_gen_labels_sidecar(tmp_path, capsys):
    labels = tmp_path / "labels.tsv"
    assert run(["gen", "lcg", "--n", "3", "--k", "2", "--labels-out", str(labels)]) == 0
    out_of(capsys)
    assert labels.read_text().splitlines()[0] == "0\t1\t0\t0\t1"


def test_verify_ccc_doubly_witness(capsys):
    code = run(["verify", "--family", "ccc", "--n", "2", "--kind", "doubly", "--set", "@witness"])
    out, _ = out_of(capsys)
    assert code == 0
    assert out == "true 24\n"


def test_verify_false_exits_one(capsys):
    code = run(["verify", "--family", "lcg", "--n", "3", "--k", "2", "--kind", "resolving", "--set", "0,1"])
    out, _ = out_of(capsys)
    assert code == 1
    assert out == "false 2\n"


def test_verify_label_tokens(capsys):
    # the three position-2 vertices of the last-layer triangles
    code = run(
        [
            "verify",
            "--family",
            "lcg",
            "--n",
            "3",
            "--k",
            "2",
            "--kind",
            "resolving",
            "--set",
            "2:1:1:2,2:2:1:2,2:3:1:2",
        ]
    )
    out, _ = out_of(capsys)
    assert code == 0
    assert out == "true 3\n"


def test_solve_lcg32(capsys):
    code = run(
        [
            "solve",
            "--family",
            "lcg",
            "--n",
            "3",
            "--k",
            "2",
            "--kind",
            "resolving",
            "--family-pruned",
        ]
    )
    out, _ = out_of(capsys)
    assert code == 0
    assert out == (
        "kind=resolving optimum=3 witness=4,7,10 method=pruned restriction=family-pruned\n"
    )


def test_family_pruning_needs_labels(tmp_path, capsys):
    # the CLI checks the labels itself: a --graph file carries none, and its
    # --labels sidecar supplies them
    graph_file = tmp_path / "g.txt"
    labels_file = tmp_path / "labels.tsv"
    assert run(["gen", "lcg", "--n", "3", "--k", "2", "--labels-out", str(labels_file)]) == 0
    graph_file.write_text(out_of(capsys)[0])
    argv = ["solve", "--graph", str(graph_file), "--kind", "resolving", "--family-pruned"]
    assert run(argv) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert "family pruning needs a labelled family graph" in err
    assert run(argv + ["--labels", str(labels_file)]) == 0
    assert out_of(capsys)[0] == (
        "kind=resolving optimum=3 witness=4,7,10 method=pruned restriction=family-pruned\n"
    )


@pytest.mark.parametrize("n, k", [(3, 2), (4, 2), (3, 3)])
@pytest.mark.parametrize("kind", ["resolving", "doubly"])
def test_family_pruning_keeps_the_witness(kind, n, k, capsys):
    # the flag only tags the result: the search, its witness and its node
    # count are the same
    argv = ["solve", "--family", "lcg", "--n", str(n), "--k", str(k), "--kind", kind, "--stats"]
    assert run(argv) == 0
    plain, plain_err = out_of(capsys)
    assert run(argv + ["--family-pruned"]) == 0
    pruned, pruned_err = out_of(capsys)
    assert plain.endswith(" restriction=none\n")
    assert pruned == plain.replace(" restriction=none\n", " restriction=family-pruned\n")

    def stats(err):
        return re.sub(r"elapsed=\S+ ", "", err)

    assert stats(pruned_err) == stats(plain_err).replace("restriction=none", "restriction=family-pruned")


def test_solve_strong_vc(capsys):
    code = run(
        ["solve", "--family", "lcg", "--n", "3", "--k", "2", "--kind", "strong", "--method", "vc-reduction"]
    )
    out, _ = out_of(capsys)
    assert code == 0
    assert "optimum=5 witness=4,5,7,8,10 method=vc-reduction" in out


def test_solve_bad_search_result_prints_nothing(monkeypatch, capsys):
    # the CLI publishes what the solvers return; their own checks stop a bad
    # witness before anything reaches stdout
    from resolvekit import solvers

    monkeypatch.setattr(solvers, "_lex_search", lambda *args: (0,))
    with pytest.raises(RuntimeError, match="not resolving"):
        run(["solve", "--family", "lcg", "--n", "3", "--k", "2", "--kind", "resolving"])
    assert out_of(capsys)[0] == ""
    monkeypatch.setattr(solvers, "_min_cover", lambda h, ticker: (0,))
    with pytest.raises(solvers.StrongReductionError):
        run(
            ["solve", "--family", "lcg", "--n", "3", "--k", "2", "--kind", "strong", "--method", "vc-reduction"]
        )
    assert out_of(capsys)[0] == ""


def test_solve_stats_on_stderr(capsys):
    run(
        [
            "solve",
            "--family",
            "lcg",
            "--n",
            "3",
            "--k",
            "2",
            "--kind",
            "resolving",
            "--stats",
        ]
    )
    out, err = out_of(capsys)
    assert "stats:" in err and "stats:" not in out


def test_solve_stats_label_names_the_counter(capsys):
    base = ["solve", "--family", "lcg", "--n", "3", "--k", "2", "--kind", "strong", "--stats"]
    assert run(base + ["--method", "vc-reduction"]) == 0
    vc_out, vc_err = out_of(capsys)
    assert run(base + ["--method", "pruned"]) == 0
    _, direct_err = out_of(capsys)
    assert vc_err.startswith("stats: vc_nodes=") and "subsets=" not in vc_err
    assert direct_err.startswith("stats: subsets=")
    assert "stats" not in vc_out


def test_solve_budget_exit_three(capsys):
    code = run(
        [
            "solve",
            "--family",
            "lcg",
            "--n",
            "3",
            "--k",
            "3",
            "--kind",
            "resolving",
            "--max-subsets",
            "3",
        ]
    )
    _, err = out_of(capsys)
    assert code == 3
    assert "budget" in err


def test_solve_cover_route_timeout_exit_three(capsys):
    argv = ["solve", "--family", "lcg", "--n", "5", "--k", "3", "--kind", "strong"]
    code = run(argv + ["--method", "vc-reduction", "--timeout-seconds", "0.0001"])
    out, err = out_of(capsys)
    assert code == 3
    assert "time budget" in err and out == ""


def test_solve_cover_route_node_budget_exit_three(capsys, tmp_path, lcg53_joined):
    # --max-subsets bounds the vertex-cover nodes of the cover route too,
    # here of the whole-graph cover search
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(write_graph(lcg53_joined))
    argv = ["solve", "--graph", str(graph_file), "--kind", "strong"]
    code = run(argv + ["--method", "vc-reduction", "--max-subsets", "5"])
    out, err = out_of(capsys)
    assert code == 3
    assert "after 6 vertex-cover nodes" in err and out == ""


def test_solve_leaf_block_route_node_budget_exit_three(capsys):
    # and of the leaf-block shortcut, whose one lcg 5,3 leaf shape takes 3
    argv = ["solve", "--family", "lcg", "--n", "5", "--k", "3", "--kind", "strong"]
    code = run(argv + ["--method", "vc-reduction", "--max-subsets", "2"])
    out, err = out_of(capsys)
    assert code == 3
    assert "after 3 vertex-cover nodes" in err and out == ""


@pytest.mark.parametrize(
    "extra",
    [["--kind", "resolving"], ["--kind", "strong"], ["--kind", "strong", "--method", "vc-reduction"]],
)
def test_solve_timeout_counts_apsp(monkeypatch, capsys, extra):
    # apsp runs inside the solve's clock, so a timeout shorter than apsp
    # stops the solve even though the search itself would be quick
    real = solvers.apsp

    def slow_apsp(g, check=lambda: None):
        time.sleep(0.2)
        return real(g, check)

    monkeypatch.setattr(solvers, "apsp", slow_apsp)
    monkeypatch.setattr(cli, "apsp", slow_apsp)
    argv = ["solve", "--family", "lcg", "--n", "3", "--k", "2", "--timeout-seconds", "0.1"]
    code = run(argv + extra)
    out, err = out_of(capsys)
    assert code == 3
    assert "time budget" in err and out == ""


def test_solve_vc_on_non_strong_rejected(capsys):
    code = run(
        ["solve", "--family", "lcg", "--n", "3", "--k", "2", "--kind", "doubly", "--method", "vc-reduction"]
    )
    _, err = out_of(capsys)
    assert code == 2
    assert "only solves the strong kind" in err


def test_witness_output(capsys):
    code = run(["witness", "--family", "lcg", "--n", "4", "--k", "2", "--kind", "doubly"])
    out, _ = out_of(capsys)
    assert code == 0
    expected = ",".join(str(v) for v in lcg_witness("doubly", 4, 2))
    assert out == expected + "\n"


def test_witness_pretty(capsys):
    code = run(["witness", "--family", "ccc", "--n", "2", "--kind", "resolving", "--pretty"])
    out, _ = out_of(capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 16
    assert lines[0].split("\t")[1] == "2:1:1:2"


def test_dist_tsv(capsys):
    code = run(["dist", "--family", "lcg", "--n", "3", "--k", "2"])
    out, _ = out_of(capsys)
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert len(rows) == 12
    assert rows[0][0] == "0"


@pytest.mark.parametrize("fmt, header", [("edge-list", "p -5 0"), ("dimacs", "p edge -2 0")])
def test_dist_rejects_a_negative_header(fmt, header, tmp_path, capsys):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(header + "\n")
    assert run(["dist", "--graph", str(graph_file), "--graph-format", fmt]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert "line 1: negative" in err


@pytest.mark.parametrize(
    "fmt, header", [("edge-list", "p 1000000000 0"), ("dimacs", "p edge 1000000000 0")]
)
def test_dist_rejects_a_huge_header_before_allocating(fmt, header, tmp_path, capsys):
    # the header's order is checked before make_graph allocates a row per vertex
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(header + "\n")
    tracemalloc.start()
    try:
        code = run(["dist", "--graph", str(graph_file), "--graph-format", fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = out_of(capsys)
    assert code == 2 and out == ""
    assert "line 1: order 1000000000 exceeds" in err
    assert peak < 5 * 2**20


def test_audit_confirmed(capsys):
    code = run(["audit", "--family", "lcg", "--n", "3", "--k", "2", "--kind", "strong"])
    out, _ = out_of(capsys)
    assert code == 0
    assert "confirmed" in out


def test_audit_ccc2_resolving_confirmed(capsys):
    code = run(["audit", "--family", "ccc", "--n", "2", "--kind", "resolving"])
    out, _ = out_of(capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "ccc\tresolving\tn=2\t16\t16\tyes\t16\tpruned\tconfirmed"
    assert len(lines) == 2  # a confirmed verdict carries no note


def test_graph_file_input(tmp_path, capsys):
    graph_file = tmp_path / "g.txt"
    labels_file = tmp_path / "labels.tsv"
    run(
        [
            "gen",
            "lcg",
            "--n",
            "3",
            "--k",
            "2",
            "--labels-out",
            str(labels_file),
        ]
    )
    out, _ = out_of(capsys)
    graph_file.write_text(out)
    code = run(
        [
            "verify",
            "--graph",
            str(graph_file),
            "--labels",
            str(labels_file),
            "--kind",
            "resolving",
            "--set",
            "2:1:1:2,2:2:1:2,2:3:1:2",
        ]
    )
    out, _ = out_of(capsys)
    assert code == 0
    assert out == "true 3\n"


def test_dist_on_a_1500_path_file(tmp_path, capsys):
    # diameter 1,499: 2-byte array rows print as the path's distances, and
    # row i reads i, i - 1, ..., 1, 0, 1, ..., order - 1 - i
    order = 1500
    graph_file = tmp_path / "path.txt"
    graph_file.write_text(write_graph(make_graph(order, [(i, i + 1) for i in range(order - 1)])))
    assert run(["dist", "--graph", str(graph_file)]) == 0
    out, _ = out_of(capsys)
    names = [str(d) for d in range(order)]
    assert out == "".join("\t".join(names[i:0:-1] + names[: order - i]) + "\n" for i in range(order))


def test_solves_on_a_600_cycle_file(tmp_path, capsys):
    # diameter 300: apsp gives 2-byte array rows, which are their own lanes
    graph_file = tmp_path / "c600.txt"
    assert run(["gen", "cycle", "--n", "600"]) == 0
    graph_file.write_text(out_of(capsys)[0])
    half = ",".join(map(str, range(300)))
    for extra, want in (
        (["--kind", "resolving"], "kind=resolving optimum=2 witness=0,1 method=pruned restriction=none\n"),
        (
            ["--kind", "strong", "--method", "vc-reduction"],
            f"kind=strong optimum=300 witness={half} method=vc-reduction restriction=none\n",
        ),
        (["--kind", "strong"], f"kind=strong optimum=300 witness={half} method=pruned restriction=none\n"),
    ):
        assert run(["solve", "--graph", str(graph_file)] + extra) == 0
        assert out_of(capsys)[0] == want


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--family", "lcg", "--n", "3", "--kind", "resolving"],  # missing --k
        ["solve", "--kind", "resolving"],  # no graph source
        ["gen", "ccc", "--n", "0"],  # out-of-range parameter
        ["verify", "--family", "ccc", "--n", "2", "--kind", "doubly", "--set", "zzz"],
        ["solve", "--family", "ccc", "--n", "2", "--k", "3", "--kind", "resolving"],
        ["audit", "--family", "ccc", "--n", "2", "--k", "3", "--kind", "strong"],
        ["solve", "--family", "lcg", "--n", "3", "--k", "2", "--kind", "strong", "--family-pruned"],
        ["solve", "--family", "lcg", "--n", "3", "--k", "2", "--kind", "strong", "--family-pruned",
         "--method", "vc-reduction"],
        ["gen", "cycle", "--n", "4", "--k", "3"],  # stray --k on the plain cycle
        # stray family parameters with a readable graph file
        ["verify", "--graph", "GRAPH", "--n", "9", "--k", "9", "--kind", "resolving", "--set", "0,1"],
        # the subset search has one method, pruned
        ["solve", "--family", "lcg", "--n", "3", "--k", "2", "--kind", "resolving", "--method", "naive"],
    ],
)
def test_usage_errors_exit_two(argv, tmp_path, capsys):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(write_graph(build_lcg(3, 2)))
    assert run([str(graph_file) if arg == "GRAPH" else arg for arg in argv]) == 2
    out_of(capsys)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--graph", "GRAPH", "--family", "ccc", "--kind", "resolving"],
         "give either --graph or --family, not both"),
        (["verify", "--graph", "GRAPH", "--kind", "resolving", "--set", "@witness"],
         "@witness needs a generated --family graph"),
    ],
)
def test_usage_errors_name_the_clash(argv, message, tmp_path, capsys):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(write_graph(build_lcg(3, 2)))
    assert run([str(graph_file) if arg == "GRAPH" else arg for arg in argv]) == 2
    out, err = out_of(capsys)
    assert out == "" and err == f"resolvekit: {message}\n"


def test_verify_rejects_a_malformed_edge_line(tmp_path, capsys):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text("p 3 2\n0 1\n1 2 0\n")
    assert run(["verify", "--graph", str(graph_file), "--kind", "resolving", "--set", "0"]) == 2
    out, err = out_of(capsys)
    assert out == "" and err == "resolvekit: line 3: malformed edge line '1 2 0'\n"


def test_unknown_verb_exits_two(capsys):
    assert run(["frobnicate"]) == 2
    out_of(capsys)


def test_witness_missing_k_exits_two(capsys):
    assert run(["witness", "--family", "lcg", "--n", "3", "--kind", "resolving"]) == 2
    _, err = out_of(capsys)
    assert "--k is required" in err


def test_reproduce_table(capsys):
    code = run(["reproduce"])
    out, _ = out_of(capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("family\tkind\tparams")
    assert len(lines) == 11  # header + 9 claims + data-point comment
    verdicts = [line.split("\t")[-1] for line in lines[1:10]]
    assert verdicts == ["confirmed"] * 9
    assert lines[1].split("\t")[6:] == ["16", "pruned", "confirmed"]
    assert lines[2].split("\t")[6:] == ["24", "pruned", "confirmed"]
    assert lines[10].startswith("# data point")
    assert "optimum=3" in lines[10]


REPRODUCE_STDOUT = """\
family\tkind\tparams\tclaimed\twitness_size\twitness_ok\toptimum\tmethod\tverdict
ccc\tresolving\tn=2\t16\t16\tyes\t16\tpruned\tconfirmed
ccc\tdoubly\tn=2\t24\t24\tyes\t24\tpruned\tconfirmed
ccc\tstrong\tn=2\t31\t31\tyes\t31\tvc-reduction\tconfirmed
lcg\tresolving\tn=3,k=2\t3\t3\tyes\t3\tpruned\tconfirmed
lcg\tresolving\tn=4,k=2\t4\t4\tyes\t4\tpruned\tconfirmed
lcg\tresolving\tn=3,k=3\t6\t6\tyes\t6\tpruned\tconfirmed
lcg\tdoubly\tn=4,k=2\t8\t8\tyes\t8\tpruned\tconfirmed
lcg\tstrong\tn=3,k=2\t5\t5\tyes\t5\tvc-reduction\tconfirmed
lcg\tstrong\tn=4,k=2\t7\t7\tyes\t7\tvc-reduction\tconfirmed
# data point, no closed-form claim: lcg doubly n=3,k=2 optimum=3
"""


def test_reproduce_stdout_pinned(capsys):
    assert run(["reproduce"]) == 0
    out, _ = out_of(capsys)
    assert out == REPRODUCE_STDOUT


def test_reproduce_timeout_bounds_the_whole_verb(monkeypatch, capsys):
    # each reading of the clock is one second later than the last. The
    # table's clock runs out before its last claim, and the data point gets
    # what is left of the same clock, none, so the verb exits 3 after the
    # table
    readings = iter(range(10**6))
    monkeypatch.setattr(solvers.time, "perf_counter", lambda: next(readings))
    assert run(["reproduce", "--timeout-seconds", "100"]) == 3
    out, err = out_of(capsys)
    rows = out.splitlines()
    assert len(rows) == 1 + len(REPRODUCE_CLAIMS) and rows[-1].endswith("\tuntested")
    assert "time budget exhausted" in err


@pytest.mark.parametrize("family, kind, params", REPRODUCE_CLAIMS)
def test_witness_and_verify_agree_with_the_library(family, kind, params, capsys):
    source = ["--family", family] + [
        arg for name, value in zip(("--n", "--k"), params) for arg in (name, str(value))
    ]
    formula, witness = {"ccc": (ccc_formula, ccc_witness), "lcg": (lcg_formula, lcg_witness)}[family]
    assert run(["witness", *source, "--kind", kind]) == 0
    out, _ = out_of(capsys)
    assert out == ",".join(str(v) for v in witness(kind, *params)) + "\n"
    assert run(["verify", *source, "--kind", kind, "--set", "@witness"]) == 0
    out, _ = out_of(capsys)
    assert out == f"true {formula(kind, *params)}\n"
