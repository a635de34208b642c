import gc
import hashlib
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from coloredcut import (
    ColoredGraph,
    CnfFormula,
    ReductionKind,
    brute_force_max,
    cut_colors,
    is_colorful,
    multigraph_to_simple,
    parse_cut,
    parse_graph,
    parse_provenance,
    serialize_dimacs,
    sat_to_multigraph,
    serialize_graph,
    serialize_provenance,
)
from coloredcut import cli, kernel, solve
from coloredcut.cli import _cmd_solve, main

from helpers import (
    distinct_pairs,
    greedy_misses,
    inflate_one_color,
    plain_int,
    random_3cnf,
    random_multigraph,
    span,
    unsat_3cnf_draws,
)

TRIANGLE = ColoredGraph(3, ((1, 2, 1), (2, 3, 2), (1, 3, 3)), 3)
C4 = ColoredGraph(4, ((1, 2, 1), (2, 3, 2), (3, 4, 3), (4, 1, 4)), 4)
STAR = ColoredGraph(4, ((1, 2, 1), (1, 3, 1), (1, 4, 1)), 1)
# a rainbow C_41: 41 vertices to search, above the cap, and optimum 40; the
# greedy cut puts the odd vertices on S and misses color 41
C41 = ColoredGraph(41, tuple((v, v % 41 + 1, v) for v in range(1, 42)), 41)
C41_GREEDY = "s " + " ".join(map(str, range(1, 42, 2))) + "\n"
DEMO_CNF = CnfFormula(3, ((1, -2, -3), (-1, 2, 3), (-1, -2, 3)))

ALL_REDUCTIONS = ("planar-multi", "planar-simple", "k4mf", "oct1", "complete", "nae")


@pytest.fixture
def graph_file(tmp_path):
    def write(g, name="g.ecg"):
        path = tmp_path / name
        path.write_text(serialize_graph(g))
        return str(path)

    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- colorful


def test_colorful_yes_on_rainbow_c4(graph_file, capsys, tmp_path):
    out_file = tmp_path / "cut.txt"
    code, out, _ = run(
        capsys, ["colorful", graph_file(C4), "--output", str(out_file)]
    )
    assert code == 0
    assert out.splitlines()[0] == "colorful yes"
    cut = parse_cut(out_file.read_text(), C4.n)
    assert is_colorful(C4, cut)


def test_colorful_no_on_rainbow_triangle(graph_file, capsys):
    code, out, _ = run(capsys, ["colorful", graph_file(TRIANGLE)])
    assert code == 1
    assert out.strip() == "colorful no"


@pytest.mark.parametrize(
    "argv,answer",
    [
        (["colorful", "GRAPH"], "colorful no"),
        (["kernelize", "GRAPH", "--param", "k", "-k", "1"], "early yes"),
        (["solve", "C41", "-k", "41"], "at most 40"),
        (["solve", "C41", "-k", "42"], "at most 41"),
    ],
)
def test_answers_without_a_body_leave_the_output_file_alone(
    argv, answer, graph_file, capsys, tmp_path
):
    out_file = tmp_path / "kept.txt"
    out_file.write_text("old\n")
    graphs = {"GRAPH": TRIANGLE, "C41": C41}
    argv = [graph_file(graphs[a]) if a in graphs else a for a in argv]
    _, out, _ = run(capsys, [*argv, "--output", str(out_file)])
    assert out.splitlines()[0] == answer
    assert out_file.read_text() == "old\n"


def test_colorful_no_on_an_18_clause_planar_tail_graph(graph_file, capsys):
    # an unsatisfiable 4-variable formula whose planar-simple graph contracts
    # to a quotient of more than 50 classes
    f = unsat_3cnf_draws(18, count=1)[0]
    g = multigraph_to_simple(sat_to_multigraph(f)).graph
    code, out, _ = run(capsys, ["colorful", graph_file(g)])
    assert code == 1
    assert out.strip() == "colorful no"


def test_colorful_exit_code_matches_brute_force_max(graph_file, capsys):
    for g in (TRIANGLE, C4, STAR):
        code, _, _ = run(capsys, ["colorful", graph_file(g)])
        assert code == (0 if brute_force_max(g).value == g.p else 1)


HUGE_HEADER_CASES = {
    "colorful": (["colorful"], 0, ["colorful yes", "s 1"]),
    "greedy": (["solve", "--algo", "greedy"], 0, ["value 1", "s 1"]),
    "solve": (["solve"], 0, ["value 1", "s 1 3"]),
    "solve-k1": (["solve", "-k", "1"], 0, ["value 1", "s 1 3"]),
    "solve-k2": (["solve", "-k", "2"], 1, ["value 1", "s 1 3"]),
    # the one color is removed, and with it vertices 1 and 2
    "kernelize": (["kernelize"], 0, ["removed 1 colors, p' 0", "p ecg 999999998 0 0"]),
    "kernelize-k1": (
        ["kernelize", "--param", "k", "-k", "1"],
        0,
        ["early yes", "removed 0 colors, k' 1"],
    ),
    "verify-k4mf": (
        ["verify", "--kind", "k4mf", "--graph"],
        1,
        [
            "check graph-valid: pass",
            "check connected: fail (graph is disconnected)",
            "check max-degree-3: pass",
            "check color-class-size-le-2: pass",
            "check simple: pass",
            "check series-parallel: pass",
        ],
    ),
    "verify-oct1": (
        ["verify", "--kind", "oct1", "--graph"],
        1,
        [
            "check graph-valid: pass",
            "check color-class-size-2: fail (color 1 has 1 edges)",
            "check apex-removal-bipartite: pass",
        ],
    ),
    "verify-planar-multi": (
        ["verify", "--kind", "planar-multi", "--graph"],
        1,
        ["check graph-valid: pass", "check color-class-size-2: fail (color 1 has 1 edges)"],
    ),
    "verify-planar-simple": (
        ["verify", "--kind", "planar-simple", "--graph"],
        0,
        ["check graph-valid: pass", "check simple: pass", "check color-class-size-le-2: pass"],
    ),
    # one edge is far below n(n-1)/2, so no pair matrix is made
    "verify-complete": (
        ["verify", "--kind", "complete", "--graph"],
        1,
        ["check graph-valid: pass", "check complete: fail (missing edge between 1 and 3)"],
    ),
    "verify-nae": (
        ["verify", "--kind", "nae", "--graph"],
        0,
        ["check graph-valid: pass", "check color-class-clique: pass"],
    ),
    "verify-graph": (["verify", "--kind", "graph", "--graph"], 0, ["check graph-valid: pass"]),
    "stats": (["stats"], 0, ["n 1000000000 m 1 p 1", "color 1 edges 1 pairs 1 span 1"]),
}


@pytest.mark.parametrize(
    "argv,code,stdout", list(HUGE_HEADER_CASES.values()), ids=list(HUGE_HEADER_CASES)
)
def test_colorful_ignores_untouched_vertices_in_time_and_memory(argv, code, stdout, tmp_path):
    # a one-edge file declaring 10^9 vertices, answered by a child process
    # whose address space is capped at 2 GB: every subcommand costs O(m)
    path = tmp_path / "huge.ecg"
    path.write_text("p ecg 1000000000 1 1\ne 1 2 1\n")
    probe = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from coloredcut.cli import main\n"
        "raise SystemExit(main(sys.argv[2:] + [sys.argv[1]]))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", probe, str(path), *argv],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == code, result.stderr
    assert result.stdout.splitlines() == stdout


# ---------------------------------------------------------------------- solve


def test_solve_default_kernel_route(graph_file, capsys):
    code, out, _ = run(capsys, ["solve", graph_file(TRIANGLE)])
    assert code == 0
    assert out.splitlines()[0] == "value 2"


def test_solve_threshold_exit_codes(graph_file, capsys):
    path = graph_file(TRIANGLE)
    assert run(capsys, ["solve", path, "-k", "2"])[0] == 0
    assert run(capsys, ["solve", path, "-k", "3"])[0] == 1
    # greedy -k answers from the greedy cut alone: it crosses 2 of the 3
    # colors an exact cut reaches here, so -k 3 is a no
    path = graph_file(ColoredGraph(4, ((4, 3, 1), (1, 3, 1), (4, 2, 2), (2, 3, 3)), 3))
    for extra, code, value in (([], 0, 3), (["--algo", "greedy"], 1, 2)):
        got, out, _ = run(capsys, ["solve", path, *extra, "-k", "3"])
        assert (got, out.splitlines()[0]) == (code, f"value {value}")
    assert run(capsys, ["solve", path, "--algo", "greedy", "-k", "2"])[0] == 0


def test_solve_brute_writes_witness(graph_file, capsys, tmp_path):
    out_file = tmp_path / "cut.txt"
    code, out, _ = run(
        capsys,
        ["solve", graph_file(C4), "--output", str(out_file)],
    )
    assert code == 0
    value = int(out.splitlines()[0].split()[1])
    cut = parse_cut(out_file.read_text(), C4.n)
    assert len(cut_colors(C4, cut)) == value == 4


def test_solve_greedy_emits_cut_to_stdout(graph_file, capsys):
    code, out, _ = run(capsys, ["solve", graph_file(TRIANGLE), "--algo", "greedy"])
    assert code == 0
    lines = out.splitlines()
    value = int(lines[0].split()[1])
    assert value >= math.ceil(TRIANGLE.p / 2)
    cut = parse_cut(lines[1] + "\n", TRIANGLE.n)
    assert len(cut_colors(TRIANGLE, cut)) == value


def test_solve_brute_cap_exit_code(graph_file, capsys):
    # 28 vertices to search, and the greedy cut crosses 14 of the 21 colors,
    # so no cut is certified to cross them all
    code, out, err = run(capsys, ["solve", graph_file(greedy_misses(7))])
    assert (code, out) == (3, "")
    assert err == "error: refusing exhaustive search on 28 vertices (cap 24)\n"


def test_solve_above_the_cap_answers_when_a_cut_crosses_every_color(graph_file, capsys):
    # a rainbow path touches all 25 vertices and the rule removes no color,
    # but the greedy cut alternates the sides and crosses all 24 colors
    path = ColoredGraph(25, tuple((v, v + 1, v) for v in range(1, 25)), 24)
    odd = "s " + " ".join(map(str, range(1, 26, 2))) + "\n"
    assert run(capsys, ["solve", graph_file(path)]) == (0, "value 24\n" + odd, "")


def test_solve_below_the_cap_reads_no_staged_answer(graph_file, capsys, monkeypatch):
    # the value comes from the search alone; the stages answer only where it refuses
    def refuse(*args):
        raise AssertionError("staged")

    monkeypatch.setattr(cli, "_staged", refuse)
    path = graph_file(TRIANGLE)
    code, out, _ = run(capsys, ["solve", path])
    assert code == 0 and out.startswith("value 2\n")
    assert run(capsys, ["solve", path, "-k", "2"])[0] == 0
    assert run(capsys, ["solve", path, "-k", "3"])[:2] == (1, out)


@pytest.mark.parametrize(
    "k,code,line",
    [(k, 0, "at least 40") for k in ("5", "30", "40", "0", "-1")]
    + [("41", 1, "at most 40"), ("42", 1, "at most 41")],
)
def test_solve_k_answers_by_certificate_above_the_cap(k, code, line, graph_file, capsys):
    # `solve` refuses the search, so -k asks the staged answer with max(K, 1):
    # the early yes (K <= 21) or the greedy cut (K = 22..40) crosses 40
    # colors, the odd-cycle packing refutes 41, and 42 exceeds p; a no
    # prints its bound alone
    path = graph_file(C41)
    assert run(capsys, ["solve", path])[0] == 3
    out = line + "\n" + (C41_GREEDY if code == 0 else "")
    assert run(capsys, ["solve", path, "-k", k]) == (code, out, "")


def test_solve_k_yes_above_the_cap_writes_a_cut_verify_accepts(graph_file, capsys, tmp_path):
    path, cut = graph_file(C41), str(tmp_path / "c41.cut")
    assert run(capsys, ["solve", path, "-k", "30", "--output", cut]) == (0, "at least 40\n", "")
    assert parse_cut(Path(cut).read_text(), C41.n) == parse_cut(C41_GREEDY, C41.n)
    code, out, _ = run(capsys, ["verify", "--kind", "graph", "--graph", path, "--cut", cut])
    assert code == 1  # colorful fails: color 41 does not cross
    assert "check cut-valid: pass (crosses 40 colors)\n" in out


def test_solve_k_exits_3_where_no_stage_settles_k(graph_file, capsys):
    # 28 vertices, optimum 21, but the greedy cut crosses 14 (S holds a, b
    # and d of each block) and no odd cycle bounds the optimum below 21
    path = graph_file(greedy_misses(7))
    assert run(capsys, ["solve", path])[0] == 3
    greedy = "s " + " ".join(str(v) for v in range(1, 29) if v % 4 != 3) + "\n"
    assert run(capsys, ["solve", path, "-k", "14"]) == (0, "at least 14\n" + greedy, "")
    code, out, err = run(capsys, ["solve", path, "-k", "15"])
    assert (code, out) == (3, "")
    assert err == "error: refusing exhaustive search on 28 vertices (cap 24)\n"


def test_solve_builds_one_table_and_recounts_only_the_greedy_cut(graph_file, capsys, monkeypatch):
    # the refused search and the staged answer to -k read one color-class
    # table; the search and the greedy cut recounted their witnesses on g,
    # so the CLI prints their counts and recounts none
    tables, recounts = [], []
    real_classes, real_count = kernel._color_classes, cli.cut_colors
    monkeypatch.setattr(kernel, "_color_classes", lambda g: tables.append(g) or real_classes(g))
    monkeypatch.setattr(cli, "cut_colors", lambda g, cut: recounts.append(g) or real_count(g, cut))
    c41, misses = graph_file(C41, "c41.ecg"), graph_file(greedy_misses(7), "misses.ecg")
    triangle = graph_file(TRIANGLE, "triangle.ecg")
    for argv, code in (
        ([c41, "-k", "5"], 0),
        ([c41, "-k", "30"], 0),
        ([c41, "-k", "41"], 1),
        ([misses, "-k", "15"], 3),
        ([triangle], 0),
        ([triangle, "-k", "4"], 1),
    ):
        tables.clear()
        assert run(capsys, ["solve", *argv])[0] == code
        assert len(tables) == 1
    assert recounts == []
    assert run(capsys, ["solve", "--algo", "greedy", triangle])[0] == 0
    assert recounts == []


def test_solve_counts_only_touched_vertices_against_the_cap(graph_file, capsys):
    path = graph_file(ColoredGraph(40, ((3, 7, 1),), 1))
    code, out, _ = run(capsys, ["solve", path])
    assert code == 0 and out.splitlines()[0] == "value 1"
    assert run(capsys, ["solve", path, "-k", "1"])[0] == 0
    assert run(capsys, ["solve", path, "-k", "2"])[0] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--algo", "brute"],
        ["colorful", "--algo", "sat"],
        ["colorful", "--cap", "5"],
        ["solve", "--cap", "25"],
    ],
)
def test_removed_brute_force_flags_are_usage_errors(argv, graph_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], graph_file(C4), *argv[1:]])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "GRAPH", "-k", "1_0"],
        ["solve", "GRAPH", "-k", "\uff12\uff10"],
        ["kernelize", "GRAPH", "--param", "k", "-k", "\u0663"],
        ["kernelize", "GRAPH", "--param", "k", "-k", "1_0"],
        ["solve", "GRAPH", "-k", "two"],
        ["solve", "GRAPH", "-k", " 1"],
        ["kernelize", "GRAPH", "--param", "k", "-k", "2\t"],
        ["solve", "GRAPH", "-k", "3\n"],
    ],
)
def test_integer_flags_take_only_a_sign_and_ascii_digits(argv, graph_file, capsys):
    argv = [graph_file(C4) if a == "GRAPH" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"invalid int value: {argv[-1]!r}" in err


def test_integer_flags_take_a_sign(graph_file, capsys):
    code, out, _ = run(capsys, ["solve", graph_file(C4), "-k", "+4"])
    assert (code, out.splitlines()[0]) == (0, "value 4")
    code, _, _ = run(capsys, ["solve", graph_file(C4), "-k", "-1"])
    assert code == 0


@pytest.mark.parametrize(
    "token",
    ["7", "007", "+7", "-0", "1_0", "\u0667", "\uff17", "+", "-", "0x7", "7" * 4301, " 7", "7\t"],
    ids=lambda t: repr(t)[:12],
)
def test_integer_flags_take_the_rule_of_the_files(token, capsys):
    # -k takes exactly the tokens of a sign and ASCII digits that `int`
    # reads, as the files' integer fields do, and no surrounding space
    value = plain_int(token)
    if value is not None:
        assert cli.build_parser().parse_args(["solve", "g.ecg", "-k", token]).k == value
        return
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["solve", "g.ecg", "-k", token])
    assert exc.value.code == 2
    assert f"invalid int value: {token!r}" in capsys.readouterr().err


# ------------------------------------------------------------------ kernelize


def test_kernelize_colors_star(graph_file, capsys, tmp_path):
    out_file = tmp_path / "reduced.ecg"
    code, out, _ = run(
        capsys,
        ["kernelize", graph_file(STAR), "--output", str(out_file)],
    )
    assert code == 0
    assert out.strip() == "removed 1 colors, p' 0"
    reduced = parse_graph(out_file.read_text())
    assert (reduced.n, reduced.m, reduced.p) == (0, 0, 0)


def test_kernelize_colors_prints_graph_without_output_flag(graph_file, capsys):
    code, out, _ = run(capsys, ["kernelize", graph_file(STAR)])
    assert code == 0
    assert out.splitlines()[0] == "removed 1 colors, p' 0"
    assert "p ecg 0 0 0" in out


def test_kernelize_param_k_early_yes(graph_file, capsys):
    code, out, _ = run(
        capsys, ["kernelize", graph_file(TRIANGLE), "--param", "k", "-k", "2"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "early yes"
    assert lines[1] == "removed 0 colors, k' 2"


def test_kernelize_param_k_reduced(graph_file, capsys):
    code, out, _ = run(
        capsys, ["kernelize", graph_file(TRIANGLE), "--param", "k", "-k", "3"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "removed 0 colors, p' 3, k' 3"
    assert parse_graph("\n".join(lines[1:]) + "\n") == TRIANGLE


def test_kernelize_param_k_requires_k(graph_file, capsys):
    code, _, err = run(capsys, ["kernelize", graph_file(TRIANGLE), "--param", "k"])
    assert code == 2
    assert "requires -k" in err


def test_kernelize_param_k_early_yes_below_half(graph_file, capsys):
    path = ColoredGraph(40, tuple((v, v + 1, v) for v in range(1, 40)), 39)
    code, out, _ = run(
        capsys, ["kernelize", graph_file(path), "--param", "k", "-k", "1"]
    )
    assert code == 0
    assert out.splitlines() == ["early yes", "removed 0 colors, k' 1"]


def test_kernelize_k_requires_param_k(graph_file, capsys):
    code, out, err = run(capsys, ["kernelize", graph_file(TRIANGLE), "-k", "2"])
    assert code == 2
    assert out == ""
    assert err == "error: -k requires --param k\n"


# ------------------------------------------------------------------- generate


@pytest.fixture
def cnf_file(tmp_path):
    path = tmp_path / "demo.cnf"
    path.write_text(serialize_dimacs(DEMO_CNF))
    return str(path)


@pytest.mark.parametrize("reduction", ALL_REDUCTIONS)
def test_generate_each_reduction_verifies(reduction, cnf_file, capsys, tmp_path):
    base = str(tmp_path / reduction)
    code, out, _ = run(
        capsys,
        ["generate", "--reduction", reduction, "--cnf", cnf_file, "--output", base],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith(f"generated {reduction}: n ")
    assert lines[1] == f"wrote {base}.ecg and {base}.prov"

    g = parse_graph((tmp_path / f"{reduction}.ecg").read_text())
    colors, vertices = parse_provenance((tmp_path / f"{reduction}.prov").read_text())
    assert set(colors) == set(range(1, g.p + 1))
    assert vertices  # every construction annotates at least some vertices

    code, out, _ = run(
        capsys,
        [
            "verify",
            "--kind",
            reduction,
            "--graph",
            base + ".ecg",
            "--provenance",
            base + ".prov",
        ],
    )
    assert code == 0, out
    assert all(" pass" in line for line in out.splitlines())


def test_generate_multi_shape_line(cnf_file, capsys, tmp_path):
    base = str(tmp_path / "multi")
    _, out, _ = run(
        capsys,
        ["generate", "--reduction", "planar-multi", "--cnf", cnf_file, "--output", base],
    )
    assert out.splitlines()[0] == "generated planar-multi: n 9 m 12 p 6"


def test_generate_is_deterministic(cnf_file, capsys, tmp_path):
    base1, base2 = str(tmp_path / "a"), str(tmp_path / "b")
    for base in (base1, base2):
        run(capsys, ["generate", "--reduction", "nae", "--cnf", cnf_file, "--output", base])
    assert (tmp_path / "a.ecg").read_bytes() == (tmp_path / "b.ecg").read_bytes()
    assert (tmp_path / "a.prov").read_bytes() == (tmp_path / "b.prov").read_bytes()


def test_generate_rejects_unpreprocessable_formula(capsys, tmp_path):
    path = tmp_path / "bad.cnf"
    path.write_text(serialize_dimacs(CnfFormula(3, ((1, 2, 3),))))
    code, _, err = run(
        capsys,
        [
            "generate",
            "--reduction",
            "planar-multi",
            "--cnf",
            str(path),
            "--output",
            str(tmp_path / "x"),
        ],
    )
    assert code == 2
    assert err.startswith("error:")


# --------------------------------------------------------------------- verify


def test_verify_plain_graph(graph_file, capsys):
    code, out, _ = run(capsys, ["verify", "--kind", "graph", "--graph", graph_file(C4)])
    assert code == 0
    assert out.strip() == "check graph-valid: pass"


def test_verify_expect_colors_is_a_usage_error(graph_file, capsys):
    # verify has no color-count check: `stats` prints p on its first line
    with pytest.raises(SystemExit) as exc:
        main(
            ["verify", "--kind", "graph", "--graph", graph_file(TRIANGLE), "--expect-colors", "3"]
        )
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_verify_cut_reports_crossing_count(graph_file, capsys, tmp_path):
    cut_path = tmp_path / "cut.txt"
    cut_path.write_text("s 1\n")
    code, out, _ = run(
        capsys,
        [
            "verify",
            "--kind",
            "graph",
            "--graph",
            graph_file(TRIANGLE),
            "--cut",
            str(cut_path),
        ],
    )
    assert code == 1  # valid cut, but not colorful
    assert "check cut-valid: pass (crosses 2 colors)" in out
    assert "check cut-colorful: fail" in out


def test_verify_colorful_cut_passes(graph_file, capsys, tmp_path):
    cut_path = tmp_path / "cut.txt"
    cut_path.write_text("s 1 3\n")  # opposite corners cross all four C4 colors
    code, out, _ = run(
        capsys,
        [
            "verify",
            "--kind",
            "graph",
            "--graph",
            graph_file(C4),
            "--cut",
            str(cut_path),
        ],
    )
    assert code == 0
    assert "check cut-colorful: pass" in out


def test_greedy_solve_and_verify_cut_count_the_cut_once(
    graph_file, capsys, monkeypatch, tmp_path
):
    # `_greedy_cut` counts its cut, and cut-colorful reads cut-valid's count
    counts = []
    real_count = cli.cut_colors
    counting = lambda g, cut: counts.append(g) or real_count(g, cut)
    monkeypatch.setattr(cli, "cut_colors", counting)
    monkeypatch.setattr(solve, "cut_colors", counting)
    code, out, _ = run(capsys, ["solve", "--algo", "greedy", graph_file(C41)])
    assert (code, out) == (0, "value 40\n" + C41_GREEDY)
    assert len(counts) == 1
    counts.clear()
    cut_path = tmp_path / "cut.txt"
    cut_path.write_text("s 1\n")
    triangle = graph_file(TRIANGLE)
    code, out, _ = run(
        capsys, ["verify", "--kind", "graph", "--graph", triangle, "--cut", str(cut_path)]
    )
    assert code == 1
    assert "check cut-colorful: fail (only 2 of 3 colors cross)" in out
    assert len(counts) == 1


def test_verify_keeps_a_meaning_over_the_digit_limit_as_text(graph_file, capsys, tmp_path):
    # a meaning token `int` rejects stays text, also one over CPython's limit
    # on digits, whose conversion message names no line
    a = sat_to_multigraph(DEMO_CNF)
    meaning = "7" * 5000
    lines = serialize_provenance(a).splitlines()
    prov = tmp_path / "long.prov"
    prov.write_text("\n".join([f"color 1 pair 1 {meaning} 1", *lines[1:]]) + "\n")
    assert parse_provenance(prov.read_text())[0][1] == ("pair", 1, meaning, 1)
    graph = graph_file(a.graph)
    code, out, err = run(
        capsys,
        ["verify", "--kind", "planar-multi", "--graph", graph, "--provenance", str(prov)],
    )
    assert (code, err) == (0, "")
    assert out == "check graph-valid: pass\ncheck color-class-size-2: pass\n"


def test_verify_structural_failure_is_exit_1(graph_file, capsys):
    # a rainbow triangle is not a legal clause multigraph: classes have size 1
    code, out, _ = run(
        capsys, ["verify", "--kind", "planar-multi", "--graph", graph_file(TRIANGLE)]
    )
    assert code == 1
    assert "check color-class-size-2: fail" in out


def test_verify_k4mf_reports_parallel_edges_as_failed_checks(graph_file, capsys):
    g = ColoredGraph(3, ((1, 2, 1), (2, 3, 2), (1, 2, 2)), 2)
    code, out, _ = run(capsys, ["verify", "--kind", "k4mf", "--graph", graph_file(g)])
    assert code == 1
    assert out.splitlines() == [
        "check graph-valid: pass",
        "check connected: pass",
        "check max-degree-3: pass",
        "check color-class-size-le-2: pass",
        "check simple: fail (parallel edges between 1 and 2)",
        "check series-parallel: fail (input has parallel edges)",
    ]


def test_verify_apex_outside_graph_fails_the_check(cnf_file, capsys, tmp_path):
    base = str(tmp_path / "inst")
    main(["generate", "--reduction", "oct1", "--cnf", cnf_file, "--output", base])
    capsys.readouterr()
    prov = tmp_path / "p.prov"
    prov.write_text("vertex 99 apex\n")
    code, out, _ = run(
        capsys,
        ["verify", "--kind", "oct1", "--graph", base + ".ecg", "--provenance", str(prov)],
    )
    assert code == 1
    assert "check apex-removal-bipartite: fail (apex 99 is outside 1..7)" in out
    # without --provenance the apex is vertex 1, where the construction puts it
    code, out, _ = run(capsys, ["verify", "--kind", "oct1", "--graph", base + ".ecg"])
    assert code == 0
    assert "check apex-removal-bipartite: pass" in out


LEAN_COMMANDS = (
    ["solve"],
    ["solve", "-k", "3"],
    ["solve", "--algo", "greedy"],
    ["kernelize"],
    ["kernelize", "--param", "k", "-k", "3"],
    ["stats"],
    ["colorful"],
    ["verify", "--kind", "graph", "--graph"],
)


def test_import_leaves_networkx_unloaded(graph_file):
    # solving subcommands never load the generators, the SAT tools,
    # `dataclasses` (no module of the package imports it) or `typing`, while
    # `import coloredcut` loads the solving modules up front, so a library
    # caller's first timed call pays no import.  The child runs
    # with -S, since a `.pth` file in site-packages may load `typing` itself.
    argvs = [[*argv, graph_file(TRIANGLE)] for argv in LEAN_COMMANDS]
    probe = (
        "import contextlib, io, sys\n"
        "import coloredcut\n"
        "print(all(f'coloredcut.{m}' in sys.modules for m in ('graph', 'kernel', 'solve')))\n"
        "from coloredcut.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {argvs!r}]\n"
        "print(codes)\n"
        "lazy = ('networkx', 'dataclasses', 'typing', 'coloredcut.reductions', 'coloredcut.sat')\n"
        "print([m for m in lazy if m in sys.modules])\n"
    )
    assert _run_isolated(probe) == ["True", "[0, 1, 0, 0, 0, 0, 1, 0]", "[]"]


def test_import_builds_no_truth_table():
    # the search's truth tables are built on first use, so `import coloredcut`
    # and the CLI's import pay nothing for them; a search then fills the cache
    probe = (
        "import coloredcut, coloredcut.cli\n"
        "from coloredcut import solve\n"
        "print(solve._TABLES)\n"
        "coloredcut.brute_force_max(coloredcut.ColoredGraph(3, ((1, 2, 1), (2, 3, 2)), 2))\n"
        "print(sorted(solve._TABLES))\n"
    )
    assert _run_isolated(probe) == ["{}", "[2]"]


def test_generate_and_verify_leave_typing_unloaded(cnf_file, tmp_path):
    # the generators and the SAT tools load, but their annotations need no
    # `typing`, and their records no `dataclasses` (whose `inspect` import
    # outweighs the package's own)
    argvs = []
    for kind in ("k4mf", "oct1"):
        base = str(tmp_path / kind)
        argvs += [
            ["generate", "--reduction", kind, "--cnf", cnf_file, "--output", base],
            ["verify", "--kind", kind, "--graph", base + ".ecg", "--provenance", base + ".prov"],
        ]
    probe = (
        "import contextlib, io, sys\n"
        "from coloredcut.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {argvs!r}]\n"
        "print(codes, 'coloredcut.reductions' in sys.modules)\n"
        "print([m for m in ('typing', 'dataclasses', 'inspect') if m in sys.modules])\n"
    )
    assert _run_isolated(probe) == ["[0, 0, 0, 0] True", "[]"]


def _run_isolated(probe):
    """Stdout lines of `probe` run in a child with -S and this checkout's
    package on the path."""
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.splitlines()


def test_package_surface(monkeypatch):
    import coloredcut
    from coloredcut import errors, graph, kernel, reductions, sat, solve
    from coloredcut.cli import _KINDS

    owners = {}
    for module in (errors, graph, kernel, solve, reductions, sat):
        for name, value in vars(module).items():
            if getattr(value, "__module__", module.__name__) == module.__name__:
                owners.setdefault(name, module)
    for name in coloredcut.__all__:
        assert getattr(coloredcut, name) is getattr(owners[name], name), name
    star: dict = {}
    exec("from coloredcut import *", star)
    assert set(coloredcut.__all__) <= star.keys()
    assert set(coloredcut.__all__) <= set(dir(coloredcut))
    assert not hasattr(coloredcut, "nope")
    assert list(_KINDS) == [k.value for k in ReductionKind]
    # lazy names are looked up on every access, so a rebinding shows through
    monkeypatch.setattr(reductions, "parse_provenance", "patched")
    monkeypatch.setattr(sat, "parse_dimacs", "patched")
    assert coloredcut.parse_provenance == coloredcut.parse_dimacs == "patched"


# ------------------------------------------------------------------- stats


def test_stats_rainbow_triangle(graph_file, capsys):
    code, out, _ = run(capsys, ["stats", graph_file(TRIANGLE)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n 3 m 3 p 3"
    assert lines[1] == "color 1 edges 1 pairs 1 span 1"
    assert len(lines) == 4


def test_stats_counts_parallels_and_span(graph_file, capsys):
    g = ColoredGraph(4, ((1, 2, 1), (1, 2, 1), (3, 4, 1)), 1)
    _, out, _ = run(capsys, ["stats", graph_file(g)])
    assert out.splitlines()[1] == "color 1 edges 3 pairs 2 span 2"


@pytest.mark.parametrize(
    "n,edges,line",
    [
        (4, ((1, 2, 1), (3, 4, 1)), "color 1 edges 2 pairs 2 span 2"),  # two components
        (3, ((1, 2, 1), (2, 3, 1)), "color 1 edges 2 pairs 2 span 1"),  # a path
        (3, ((1, 2, 1), (2, 1, 1), (2, 3, 1)), "color 1 edges 3 pairs 2 span 1"),  # (2,1) = (1,2)
    ],
)
def test_stats_pairs_and_span_of_one_color(n, edges, line, graph_file, capsys):
    _, out, _ = run(capsys, ["stats", graph_file(ColoredGraph(n, edges, 1))])
    assert out.splitlines()[1] == line


def test_stats_matches_per_color_functions_on_many_colors(graph_file, capsys):
    rng = random.Random(11)
    n, p = 30, 80
    edges = []
    for c in range(1, p + 1):
        for _ in range(rng.randint(1, 5)):
            u, v = rng.sample(range(1, n + 1), 2)
            edges.append((u, v, c))
    edges += [(v, u, c) for u, v, c in rng.sample(edges, 40)]  # parallels
    rng.shuffle(edges)
    g = ColoredGraph(n, tuple(edges), p)
    code, out, _ = run(capsys, ["stats", graph_file(g)])
    assert code == 0
    expected = [f"n {n} m {g.m} p {p}"] + [
        f"color {c} edges {sum(d == c for _, _, d in g.edges)}"
        f" pairs {len(distinct_pairs(g, c))} span {span(g, c)}"
        for c in range(1, p + 1)
    ]
    assert out.splitlines() == expected


def test_kernelize_and_stats_stdout_is_pinned(graph_file, capsys):
    # sha256 prefixes of the stdout of kernelize, kernelize --param k -k K
    # (K = 1..p+1) and stats on seeded files with removed colors and
    # untouched vertices, each declaring 10^9 vertices
    rng = random.Random(30)
    outputs: dict[str, list[str]] = {"kernelize": [], "kernelize_k": [], "stats": []}
    removals = 0
    for i in range(40):
        g = random_multigraph(rng, n_max=9, p_max=5)
        g = inflate_one_color(rng, g) or g
        shift = rng.randint(0, 3)
        edges = tuple((u + shift, v + shift, c) for u, v, c in g.edges)
        path = graph_file(ColoredGraph(10**9, edges, g.p), f"g{i}.ecg")
        outputs["kernelize"].append(run(capsys, ["kernelize", path])[1])
        removals += not outputs["kernelize"][-1].startswith("removed 0 ")
        for k in range(1, g.p + 2):
            argv = ["kernelize", path, "--param", "k", "-k", str(k)]
            outputs["kernelize_k"].append(run(capsys, argv)[1])
        outputs["stats"].append(run(capsys, ["stats", path])[1])
    assert removals == 23
    digests = {
        name: hashlib.sha256("".join(texts).encode()).hexdigest()[:16]
        for name, texts in outputs.items()
    }
    assert digests == {
        "kernelize": "0a12b14dbeab1d89",
        "kernelize_k": "d94b0da1316c5001",
        "stats": "fa9d5776ef357c6f",
    }


def test_solve_colorful_verify_and_generate_stdout_is_pinned(graph_file, capsys, tmp_path):
    # sha256 prefixes of exit code plus stdout, with the tmp path replaced by
    # TMP, of solve, solve -k K (K = value, value + 1), solve --algo greedy,
    # colorful and verify --kind graph --cut on seeded files, and of generate
    # and verify --kind <construction> --provenance on seeded formulas
    rng = random.Random(32)
    names = ("solve", "solve_k", "solve_greedy", "colorful", "verify_cut", "generate", "verify")
    outputs: dict[str, list[str]] = {name: [] for name in names}
    codes: dict[str, set[int]] = {name: set() for name in names}

    def record(name, argv):
        code, out, _ = run(capsys, argv)
        outputs[name].append(f"{code}\n" + out.replace(str(tmp_path), "TMP"))
        codes[name].add(code)
        return code, out

    for i in range(30):
        g = random_multigraph(rng, n_max=9, p_max=5)
        path = graph_file(g, f"g{i}.ecg")
        value = int(record("solve", ["solve", path])[1].split()[1])
        for k in (value, value + 1):
            record("solve_k", ["solve", path, "-k", str(k)])
        record("solve_greedy", ["solve", path, "--algo", "greedy"])
        record("colorful", ["colorful", path])
        cut = tmp_path / f"c{i}.cut"
        side = sorted(rng.sample(range(1, g.n + 1), rng.randint(1, g.n - 1)))
        cut.write_text("s " + " ".join(map(str, side)) + "\n")
        record("verify_cut", ["verify", "--kind", "graph", "--graph", path, "--cut", str(cut)])
    for i in range(4):
        cnf = tmp_path / f"f{i}.cnf"
        cnf.write_text(serialize_dimacs(random_3cnf(rng, rng.randint(3, 4), rng.randint(2, 5))))
        for kind in ALL_REDUCTIONS:
            base = str(tmp_path / f"f{i}-{kind}")
            argv = ["generate", "--reduction", kind, "--cnf", str(cnf), "--output", base]
            if record("generate", argv)[0] == 0:
                argv = ["--graph", base + ".ecg", "--provenance", base + ".prov"]
                record("verify", ["verify", "--kind", kind, *argv])
    assert codes == {
        "solve": {0},
        "solve_k": {0, 1},
        "solve_greedy": {0},
        "colorful": {0, 1},
        "verify_cut": {0, 1},
        "generate": {0, 2},
        "verify": {0},
    }
    assert len(outputs["verify"]) == 19  # of 24 generate runs
    digests = {
        name: hashlib.sha256("".join(texts).encode()).hexdigest()[:16]
        for name, texts in outputs.items()
    }
    assert digests == {
        "solve": "91fd060dbe128f50",
        "solve_k": "a6a9a4a7b8809c16",
        "solve_greedy": "d1db6ecfa09dc480",
        "colorful": "e66665b226b088cd",
        "verify_cut": "0fdf7adfc385ae12",
        "generate": "2fa08c302ea6d4a8",
        "verify": "c3c7f2236dad761a",
    }


# ------------------------------------------------------------------- failures


def test_malformed_graph_is_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.ecg"
    path.write_text("p ecg 3 1 1\ne 1 5 1\n")  # endpoint out of range
    code, _, err = run(capsys, ["stats", str(path)])
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv,text,message",
    [
        (["stats"], "p ecg 3 1 1\ne 2 2 1\n", "line 2: self-loop"),
        (["solve"], "c only a comment\n", "line 1: missing 'p ecg' header"),
        (["generate", "--reduction", "nae", "--output", "x", "--cnf"],
         "1 2 3 0\np cnf 3 1\n", "line 1: clause data before"),
        (["verify", "--kind", "nae", "--graph", "GRAPH", "--provenance"],
         "vertex 1 hub\n", "line 1: unknown vertex tag"),
        (["verify", "--kind", "graph", "--graph", "GRAPH", "--cut"],
         "s 1 9\n", "line 1: cut vertex outside 1..3"),
        (["verify", "--kind", "oct1", "--graph", "GRAPH", "--provenance"],
         "vertex 1 apex\nvertex 1 corner 1 1\n", "line 2: vertex 1 already defined on line 1"),
        (["stats"], "p ecg 1_0 1 1\ne 1 2 1\n", "line 1: non-integer field in header"),
        (["solve"], "p ecg 1 0 0\n", "no nontrivial cut exists on 1 vertices"),
        (["solve", "--algo", "greedy"], "p ecg 1 0 0\n",
         "no nontrivial cut exists on 1 vertices"),
    ],
)
def test_malformed_inputs_are_exit_2(argv, text, message, graph_file, capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    argv = [graph_file(TRIANGLE) if a == "GRAPH" else a for a in argv] + [str(bad)]
    code, _, err = run(capsys, argv)
    assert code == 2
    assert err.startswith(f"error: {message}")


def test_missing_file_is_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, ["stats", str(tmp_path / "nope.ecg")])
    assert code == 2
    assert "cannot read" in err


def test_malformed_cut_is_exit_2(graph_file, capsys, tmp_path):
    cut_path = tmp_path / "cut.txt"
    cut_path.write_text("s 2 1\n")  # not increasing
    code, _, err = run(
        capsys,
        [
            "verify",
            "--kind",
            "graph",
            "--graph",
            graph_file(TRIANGLE),
            "--cut",
            str(cut_path),
        ],
    )
    assert code == 2
    assert err.startswith("error:")


def test_unknown_reduction_is_usage_error(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--reduction", "banana", "--cnf", "x", "--output", "y"])
    assert exc.value.code == 2


def test_unwritable_output_is_exit_2(graph_file, cnf_file, capsys, tmp_path):
    missing = str(tmp_path / "no" / "such" / "out")
    for argv in (
        ["solve", graph_file(TRIANGLE), "--output", missing],
        ["colorful", graph_file(C4), "--output", missing],
        ["kernelize", graph_file(STAR), "--output", missing],
        ["generate", "--reduction", "nae", "--cnf", cnf_file, "--output", missing],
    ):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""  # no answer line for a run that failed
        assert err.startswith(f"error: cannot write {missing}")


STDOUT_CASES = {
    "stats": (["stats"], ColoredGraph(401, tuple((v, v + 1, v) for v in range(1, 401)), 400)),
    "solve": (["solve"], TRIANGLE),
    "colorful-yes": (["colorful"], C4),
    "colorful-no": (["colorful"], TRIANGLE),
    "kernelize": (["kernelize"], STAR),
    "verify": (["verify", "--kind", "graph", "--graph"], TRIANGLE),
    "generate": (["generate", "--reduction", "nae", "--output", "BASE", "--cnf"], None),
}


def run_child(argv, env=None, stdout=None, closed=False):
    """Run the CLI in a child with stdout as given, or closed (`>&-`)."""
    src = Path(__file__).resolve().parents[1] / "src"
    command = [sys.executable, "-m", "coloredcut.cli", *argv]
    if closed:
        command = ["sh", "-c", 'exec "$0" "$@" >&-', *command]
    env = dict(os.environ, PYTHONPATH=str(src), **(env or {}))
    return subprocess.run(
        command, env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60
    )


@pytest.mark.parametrize(
    "closed",
    [
        "fd",
        "pipe",
        pytest.param(
            "full",
            marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full"),
        ),
    ],
)
@pytest.mark.parametrize("argv,g", list(STDOUT_CASES.values()), ids=list(STDOUT_CASES))
def test_unwritable_stdout_is_exit_2(argv, g, closed, graph_file, cnf_file, tmp_path):
    # stdout closed (`>&-`), a pipe whose reader is gone before the child
    # starts, or a full device; the stats output (about 13 KB) fills the
    # buffer mid-command
    base = tmp_path / "out"
    argv = [str(base) if a == "BASE" else a for a in argv]
    argv.append(cnf_file if g is None else graph_file(g))
    if closed == "fd":
        result = run_child(argv, closed=True)
    elif closed == "pipe":
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = run_child(argv, stdout=write_end)
        finally:
            os.close(write_end)
    else:
        with open("/dev/full", "w") as full:
            result = run_child(argv, stdout=full)
    assert result.returncode == 2, result.stderr
    assert len(result.stderr.splitlines()) == 1, result.stderr
    assert result.stderr.startswith("error: cannot write stdout: ")
    if g is None:  # a closed fd 1 is refused before any work; else both files stay
        written = [(tmp_path / f"out{suffix}").exists() for suffix in (".ecg", ".prov")]
        assert written == [closed != "fd"] * 2


def test_unencodable_stdout_is_exit_2(cnf_file, tmp_path):
    # the answer names a path that stdout's encoding cannot write
    base = str(tmp_path / "é")
    argv = ["generate", "--reduction", "nae", "--cnf", cnf_file, "--output", base]
    result = run_child(argv, env={"PYTHONIOENCODING": "ascii"}, stdout=subprocess.PIPE)
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert result.stderr.startswith("error: cannot write stdout: 'ascii' codec can't encode")
    assert len(result.stderr.splitlines()) == 1, result.stderr
    assert Path(base + ".ecg").exists() and Path(base + ".prov").exists()


def test_generate_leaves_no_graph_when_the_provenance_write_fails(cnf_file, capsys, tmp_path):
    (tmp_path / "base.prov").mkdir()
    base = str(tmp_path / "base")
    code, out, err = run(
        capsys, ["generate", "--reduction", "nae", "--cnf", cnf_file, "--output", base]
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {base}.prov: ")
    assert not (tmp_path / "base.ecg").exists()


def test_internal_errors_are_exit_4(graph_file, capsys, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr("coloredcut.solve.cut_colors", lambda g, cut: frozenset())
        code, out, err = run(capsys, ["solve", graph_file(TRIANGLE)])
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: InvariantError: ")
    assert len(err.splitlines()) == 1

    def broken(text):
        raise KeyError("boom")

    monkeypatch.setattr("coloredcut.cli.parse_graph", broken)
    code, _, err = run(capsys, ["stats", graph_file(TRIANGLE)])
    assert code == 4
    assert err == "internal error: KeyError: 'boom'\n"


@pytest.mark.parametrize("was_enabled", [True, False])
def test_main_restores_the_gc_state(was_enabled, graph_file, capsys, monkeypatch):
    # the GC is off while a command runs, and main gives back the state it
    # found after a yes, a no, a bad input and a usage error
    seen = []
    monkeypatch.setattr(
        "coloredcut.cli._cmd_solve", lambda args: seen.append(gc.isenabled()) or _cmd_solve(args)
    )
    path = graph_file(TRIANGLE)
    (gc.enable if was_enabled else gc.disable)()
    try:
        for argv, code in (([path], 0), ([path, "-k", "3"], 1), ([path + ".missing"], 2)):
            assert main(["solve", *argv]) == code
            assert gc.isenabled() is was_enabled
        with pytest.raises(SystemExit):
            main(["solve", path, "-k", "x"])
        assert gc.isenabled() is was_enabled
    finally:
        gc.enable()
    capsys.readouterr()
    assert seen == [False, False, False]


def test_oserror_inside_a_command_is_exit_4(graph_file, capsys, monkeypatch):
    # only the write of stdout maps an OSError to exit 2
    def broken(pairs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("coloredcut.cli._span", broken)
    code, out, err = run(capsys, ["stats", graph_file(TRIANGLE)])
    assert (code, out) == (4, "")
    assert err == "internal error: OSError: [Errno 28] No space left on device\n"


# --------------------------------------------------------------------- README


def test_readme_examples_print_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme.split("```python\n", 1)[1].split("```", 1)[0]
    capsys.readouterr()
    namespace: dict = {}
    exec(library, namespace)
    shown = [
        line.split("#", 1)[1].split(":", 1)[0].strip()
        for line in library.splitlines()
        if line.startswith("print(")
    ]
    assert capsys.readouterr().out.splitlines() == shown == ["2", "None"]

    monkeypatch.chdir(tmp_path)
    for name, g in (
        ("rainbow_triangle.ecg", namespace["g"]),
        ("rainbow_c4.ecg", C4),
        ("star_one_color.ecg", STAR),
    ):
        Path(name).write_text(serialize_graph(g))
    Path("demo.cnf").write_text(serialize_dimacs(DEMO_CNF))
    block = readme.split("Examples:\n\n```\n", 1)[1].split("```", 1)[0]
    examples = re.split(r"^\$ coloredcut ", block, flags=re.MULTILINE)[1:]
    assert len(examples) == 5
    for example in examples:
        argv, *lines = example.strip().splitlines()
        assert run(capsys, argv.split()) == (0, "\n".join(lines) + "\n", ""), argv


# -------------------------------------------------------------------- scripts


def test_demo_pipeline_runs():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run(
        [sys.executable, str(root / "scripts" / "demo_pipeline.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert re.search(
        r"^exact maximum \d+; greedy crosses \d+", result.stdout, re.MULTILINE
    )
