"""End-to-end acceptance sweep.

Each test checks one promised guarantee over a fresh seeded corpus and prints
a single ``acceptance <label>: PASS|FAIL`` line (visible with ``pytest -s``).
The corpora are seeded here; their generators and the oracles come from
``helpers``, the only other test module imported.
"""

import math
import random
import time

import pytest

from coloredcut import (
    CnfFormula,
    ColoredGraph,
    brute_force_max,
    claim1_bound,
    colorful_cut_decide,
    cut_colors,
    decide_max,
    dpll_solve,
    embed_complete,
    greedy_half_colors,
    kernelize_colors,
    make_k4mf_connected,
    make_oct_one,
    multigraph_to_simple,
    nae_to_cliques,
    parse_cut,
    parse_graph,
    sat_to_multigraph,
    serialize_graph,
    solve_via_kernel,
    strip_single_polarity,
    verify_structural,
)
from coloredcut.cli import main as cli_main

from helpers import (
    all_3var_formulas,
    distinct_pairs,
    encode_colorful_to_cnf,
    inflate_one_color,
    oracle_nae,
    oracle_sat,
    random_3cnf,
    random_multigraph,
    random_simple_graph,
)

# the eight-sign-pattern formula over three variables: the smallest 3-CNF
# that is unsatisfiable, and not-all-equal-unsatisfiable as well
UNSAT8 = CnfFormula(
    3,
    tuple(
        (s1 * 1, s2 * 2, s3 * 3) for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)
    ),
)

DEMO = CnfFormula(3, ((1, -2, -3), (-1, 2, 3), (-1, -2, 3)))


def _report(label: str, violations: int, total: int, detail: str = "") -> None:
    ok = violations == 0
    extra = f" ({detail})" if detail else ""
    print(f"\nacceptance {label}: {'PASS' if ok else 'FAIL'}"
          f" [{total - violations}/{total}]{extra}")
    if not ok:
        pytest.fail(f"{label}: {violations} of {total} checks failed {extra}")


# --- independent evaluators used instead of the library's own ----------------


def _recount_cut_colors(g: ColoredGraph, s_side: frozenset) -> int:
    seen = set()
    for u, v, c in g.edges:
        if (u in s_side) != (v in s_side):
            seen.add(c)
    return len(seen)


def _eval_clause(clause, asg) -> bool:
    return any(asg[abs(lit)] == (lit > 0) for lit in clause)


def _eval_sat(f: CnfFormula, asg) -> bool:
    return all(_eval_clause(cl, asg) for cl in f.clauses)


def _eval_nae(f: CnfFormula, asg) -> bool:
    return all(
        _eval_clause(cl, asg) and not all(asg[abs(l)] == (l > 0) for l in cl)
        for cl in f.clauses
    )


def _surviving_random_formulas(rng, count, var_count=4, max_clauses=7):
    out = []
    while len(out) < count:
        f = random_3cnf(rng, var_count, rng.randint(2, max_clauses))
        if strip_single_polarity(f)[0]:
            out.append(f)
    return out


# ----------------------------------------------------------------- criteria


def test_criterion_1_dense_color_removal_soundness():
    rng = random.Random(1001)
    start = time.time()
    violations = 0
    done = 0
    while done < 500:
        base = random_simple_graph(rng, n_max=10, p_max=4)
        g = inflate_one_color(rng, base)
        if g is None:
            continue
        done += 1
        out = kernelize_colors(g)
        reduced_opt = (
            brute_force_max(out.reduced_graph).value if out.reduced_graph.n >= 2 else 0
        )
        if brute_force_max(g).value != reduced_opt + len(out.removed_colors):
            violations += 1
    elapsed = time.time() - start
    assert elapsed <= 60, f"soundness sweep took {elapsed:.0f}s"
    _report("dense-color-removal-soundness", violations, done, f"{elapsed:.1f}s")


def test_criterion_2_kernel_size_bound():
    rng = random.Random(1002)
    corpus = [random_multigraph(rng, n_max=10, p_max=5) for _ in range(300)]
    for _ in range(200):
        g = inflate_one_color(rng, random_multigraph(rng, n_max=10, p_max=4))
        if g is not None:
            corpus.append(g)
    multi = sat_to_multigraph(DEMO)
    simple = multigraph_to_simple(multi)
    corpus += [
        multi.graph,
        simple.graph,
        make_k4mf_connected(simple).graph,
        make_oct_one(multi).graph,
        embed_complete(simple.graph),
        nae_to_cliques(DEMO).graph,
    ]
    violations = 0
    for g in corpus:
        red = kernelize_colors(g).reduced_graph
        bound = claim1_bound(red.p)
        per_color = [len(distinct_pairs(red, c)) for c in range(1, red.p + 1)]
        if any(q > bound for q in per_color) or sum(per_color) > red.p * bound:
            violations += 1
    _report("kernel-size-bound", violations, len(corpus))


def test_criterion_3_greedy_half_guarantee():
    rng = random.Random(1003)
    violations = 0
    compared = 0
    for _ in range(1000):
        g = random_multigraph(rng, n_max=14, p_max=10)
        value = len(cut_colors(g, greedy_half_colors(g)))
        if value < math.ceil(g.p / 2):
            violations += 1
        if g.n <= 12:
            compared += 1
            if value > brute_force_max(g).value:
                violations += 1
    assert compared >= 500
    _report("greedy-half-guarantee", violations, 1000, f"{compared} brute-checked")


def test_criterion_4_half_threshold_shortcut():
    rng = random.Random(1004)
    violations = 0
    checks = 0
    for _ in range(300):
        g = random_multigraph(rng, n_max=10, p_max=6)
        for k in range(1, math.ceil(g.p / 2) + 1):
            checks += 1
            yes, cut = decide_max(g, k)
            if not yes or cut is None or len(cut_colors(g, cut)) < k:
                violations += 1
    _report("half-threshold-shortcut", violations, checks)


def test_criterion_5_sat_equivalence():
    rng = random.Random(1005)
    start = time.time()
    formulas = [
        f for f in all_3var_formulas(3) if strip_single_polarity(f)[0]
    ] + _surviving_random_formulas(rng, 200)
    violations = 0
    for f in formulas:
        sat = oracle_sat(f) is not None
        multi = sat_to_multigraph(f)
        simple = multigraph_to_simple(multi)
        if (colorful_cut_decide(multi.graph) is not None) != sat:
            violations += 1
        if (colorful_cut_decide(simple.graph) is not None) != sat:
            violations += 1
    # the unsatisfiable extreme: every sign pattern over three variables
    multi8 = sat_to_multigraph(UNSAT8)
    if colorful_cut_decide(multi8.graph) is not None:
        violations += 1
    if colorful_cut_decide(multigraph_to_simple(multi8).graph) is not None:
        violations += 1
    elapsed = time.time() - start
    assert elapsed <= 300, f"equivalence sweep took {elapsed:.0f}s"
    _report(
        "sat-equivalence",
        violations,
        2 * len(formulas) + 2,
        f"{len(formulas)} formulas, {elapsed:.0f}s",
    )


def test_criterion_6_structural_guarantees():
    rng = random.Random(1006)
    formulas = [
        f for f in all_3var_formulas(3) if strip_single_polarity(f)[0]
    ] + _surviving_random_formulas(rng, 60) + [
        UNSAT8,
        CnfFormula(1, ((1, -1, 1),)),
        CnfFormula(
            4,
            ((3, 1, 4), (-4, -2, 3), (-1, 2, -3), (2, -3, 4), (2, -4, -3), (-4, -2, -1)),
        ),
    ]
    violations = 0
    checks = 0
    for f in formulas:
        multi = sat_to_multigraph(f)
        k4 = make_k4mf_connected(multigraph_to_simple(multi))
        report = verify_structural(k4)
        checks += len(report.items)
        violations += sum(1 for item in report.items if not item.passed)
        oct1 = make_oct_one(multi)
        report = verify_structural(oct1)
        checks += len(report.items)
        violations += sum(1 for item in report.items if not item.passed)
    _report("structural-guarantees", violations, checks, f"{len(formulas)} formulas")


def test_criterion_7_complete_embedding_equivalence():
    rng = random.Random(1007)
    violations = 0
    for _ in range(200):
        g = random_simple_graph(rng, n_max=8, p_max=5)
        k = embed_complete(g)
        before = brute_force_max(g).value == g.p
        after = brute_force_max(k).value == k.p
        if before != after:
            violations += 1
    _report("complete-embedding-equivalence", violations, 200)


def test_criterion_8_nae_equivalence():
    rng = random.Random(1008)
    formulas = list(all_3var_formulas(3))
    formulas += [random_3cnf(rng, 4, rng.randint(2, 8)) for _ in range(100)]
    formulas += [
        CnfFormula(3, ((1, 2, 3), (-1, -2, 3), (1, -2, -3), (-1, 2, -3))),
        UNSAT8,
    ]
    violations = 0
    for f in formulas:
        nae = oracle_nae(f) is not None
        a = nae_to_cliques(f)
        if not verify_structural(a).all_passed:
            violations += 1
        if (colorful_cut_decide(a.graph) is not None) != nae:
            violations += 1
    _report("nae-equivalence", violations, 2 * len(formulas))


def test_criterion_9_witness_integrity(tmp_path, capsys):
    from coloredcut import assignment_to_cut, cut_to_assignment

    rng = random.Random(1009)
    violations = 0
    checks = 0

    def check(ok):
        nonlocal violations, checks
        checks += 1
        if not ok:
            violations += 1

    for _ in range(120):
        g = random_multigraph(rng, n_max=9, p_max=6)
        res = brute_force_max(g)
        check(_recount_cut_colors(g, res.witness.s_side) == res.value)
        res = solve_via_kernel(g)
        check(_recount_cut_colors(g, res.witness.s_side) == res.value)
        cut = greedy_half_colors(g)
        check(2 * _recount_cut_colors(g, cut.s_side) >= g.p)
        colorful = colorful_cut_decide(g)
        if colorful is not None:
            check(_recount_cut_colors(g, colorful.s_side) == g.p)
        k = rng.randint(1, g.p)
        yes, witness = decide_max(g, k)
        if yes:
            check(_recount_cut_colors(g, witness.s_side) >= k)
        enc = encode_colorful_to_cnf(g)
        model = dpll_solve(enc.formula)
        if model is not None:
            check(_eval_sat(enc.formula, model))

    for f in _surviving_random_formulas(rng, 20, max_clauses=5):
        multi = sat_to_multigraph(f)
        model = oracle_sat(f)
        if model is not None:
            cut = assignment_to_cut(multi, model)
            check(_recount_cut_colors(multi.graph, cut.s_side) == multi.graph.p)
            check(_eval_sat(f, cut_to_assignment(multi, cut)))
        nae_model = oracle_nae(f)
        if nae_model is not None:
            a = nae_to_cliques(f)
            cut = assignment_to_cut(a, nae_model)
            check(_recount_cut_colors(a.graph, cut.s_side) == a.graph.p)
            check(_eval_nae(f, cut_to_assignment(a, cut)))

    # ... and the files the command-line surface writes
    c4 = ColoredGraph(4, ((1, 2, 1), (2, 3, 2), (3, 4, 3), (4, 1, 4)), 4)
    graph_path = tmp_path / "c4.ecg"
    graph_path.write_text(serialize_graph(c4))
    for name, extra, minimum in (
        ("w1", [], 4),
        ("w2", None, 4),
        ("w3", ["--algo", "greedy"], 2),
    ):
        out = tmp_path / name
        if extra is None:
            argv = ["colorful", str(graph_path), "--output", str(out)]
        else:
            argv = ["solve", str(graph_path), *extra, "--output", str(out)]
        assert cli_main(argv) == 0
        cut = parse_cut(out.read_text(), c4.n)
        check(_recount_cut_colors(c4, cut.s_side) >= minimum)

    assert cli_main(
        ["kernelize", str(graph_path), "--output", str(tmp_path / "red.ecg")]
    ) == 0
    reduced = parse_graph((tmp_path / "red.ecg").read_text())
    check(reduced.p <= c4.p)

    capsys.readouterr()  # swallow the CLI chatter so only the verdict prints
    _report("witness-integrity", violations, checks)


def test_criterion_10_solver_agreement():
    rng = random.Random(1010)
    corpus = [random_multigraph(rng, n_max=14, p_max=8) for _ in range(220)]
    for f in all_3var_formulas(1):
        corpus.append(nae_to_cliques(f).graph)
    for f in all_3var_formulas(2):
        if strip_single_polarity(f)[0]:
            a = sat_to_multigraph(f)
            corpus.append(a.graph)
            corpus.append(make_oct_one(a).graph)
    corpus.append(sat_to_multigraph(CnfFormula(1, ((1, -1, 1),))).graph)
    violations = 0
    used = 0
    for g in corpus:
        if g.n < 2 or g.n > 14:
            continue
        used += 1
        sat_route = colorful_cut_decide(g) is not None
        brute_route = brute_force_max(g).value == g.p
        if sat_route != brute_route:
            violations += 1
    assert used >= 230
    _report("solver-agreement", violations, used)
