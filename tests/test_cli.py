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
    color_span,
    cut_colors,
    distinct_pairs_of_color,
    is_colorful,
    multigraph_to_simple,
    parse_cut,
    parse_graph,
    parse_provenance,
    serialize_dimacs,
    sat_to_multigraph,
    serialize_graph,
)
from coloredcut.cli import main

from helpers import unsat_3cnf_draws

TRIANGLE = ColoredGraph(3, ((1, 2, 1), (2, 3, 2), (1, 3, 3)), 3)
C4 = ColoredGraph(4, ((1, 2, 1), (2, 3, 2), (3, 4, 3), (4, 1, 4)), 4)
STAR = ColoredGraph(4, ((1, 2, 1), (1, 3, 1), (1, 4, 1)), 1)
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


def test_colorful_no_on_an_18_clause_planar_tail_graph(graph_file, capsys):
    # an unsatisfiable 4-variable formula whose planar-simple graph contracts
    # to a quotient of more than 50 classes
    f = unsat_3cnf_draws(18, count=1)[0]
    g = multigraph_to_simple(sat_to_multigraph(f)).graph
    code, out, _ = run(capsys, ["colorful", graph_file(g)])
    assert code == 1
    assert out.strip() == "colorful no"


def test_colorful_algos_agree(graph_file, capsys):
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
    # a rainbow path touches all 25 vertices and the rule removes no color
    big = ColoredGraph(25, tuple((v, v + 1, v) for v in range(1, 25)), 24)
    code, _, err = run(capsys, ["solve", graph_file(big)])
    assert code == 3
    assert err.startswith("error:")
    # a raised cap lets the same file through
    code, out, _ = run(capsys, ["solve", graph_file(big), "--cap", "25"])
    assert code == 0 and out.splitlines()[0] == "value 24"


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
    ],
)
def test_removed_brute_force_flags_are_usage_errors(argv, graph_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], graph_file(C4), *argv[1:]])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


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


def test_verify_expect_colors(graph_file, capsys):
    path = graph_file(TRIANGLE)
    code, out, _ = run(
        capsys, ["verify", "--kind", "graph", "--graph", path, "--expect-colors", "3"]
    )
    assert code == 0
    code, out, _ = run(
        capsys, ["verify", "--kind", "graph", "--graph", path, "--expect-colors", "4"]
    )
    assert code == 1
    assert "check color-count: fail (graph has 3 colors)" in out


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
    # `dataclasses` (whose `inspect` import outweighs the package's own) or
    # `typing`, while `import coloredcut` loads the solving modules up front,
    # so a library caller's first timed call pays no import.  The child runs
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


def test_generate_and_verify_leave_typing_unloaded(cnf_file, tmp_path):
    # the generators and the SAT tools load, but their annotations need no
    # `typing` either
    base = str(tmp_path / "k4mf")
    argvs = [
        ["generate", "--reduction", "k4mf", "--cnf", cnf_file, "--output", base],
        ["verify", "--kind", "k4mf", "--graph", base + ".ecg", "--provenance", base + ".prov"],
    ]
    probe = (
        "import contextlib, io, sys\n"
        "from coloredcut.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {argvs!r}]\n"
        "print(codes, 'coloredcut.reductions' in sys.modules, 'typing' in sys.modules)\n"
    )
    assert _run_isolated(probe) == ["[0, 0] True False"]


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
        f"color {c} edges {len(g.edges_of_color(c))}"
        f" pairs {distinct_pairs_of_color(g, c)} span {color_span(g, c)}"
        for c in range(1, p + 1)
    ]
    assert out.splitlines() == expected


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
        r"^exact maximum \d+ via kernel\+brute-force;", result.stdout, re.MULTILINE
    )
