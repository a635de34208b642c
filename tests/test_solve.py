import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coloredcut import (
    BRUTE_FORCE_CAP,
    CapExceededError,
    CnfFormula,
    ColoredGraph,
    Cut,
    KernelVerdict,
    augment_cut,
    brute_force_max,
    brute_force_nae,
    brute_force_sat,
    colorful_cut_decide,
    cut_colors,
    decide_max,
    dpll_solve,
    embed_complete_artifact,
    encode_colorful_to_cnf,
    greedy_half_colors,
    is_colorful,
    kernelize_colors,
    kernelize_value,
    make_k4mf_connected,
    make_oct_one,
    multigraph_to_simple,
    nae_to_cliques,
    sat_to_multigraph,
    solve_via_kernel,
    strip_single_polarity,
)
from coloredcut.solve import _contract_forced

from helpers import (
    inflate_one_color,
    oracle_colorful_cut,
    oracle_first_max_mask,
    oracle_max_cut_colors,
    random_3cnf,
    random_multigraph,
    unsat_3cnf_draws,
)
from test_graph import RAINBOW_TRIANGLE, graphs

RAINBOW_C5 = ColoredGraph(
    5, ((1, 2, 1), (2, 3, 2), (3, 4, 3), (4, 5, 4), (5, 1, 5)), 5
)
RAINBOW_C4 = ColoredGraph(4, ((1, 2, 1), (2, 3, 2), (3, 4, 3), (4, 1, 4)), 4)


# ---------------------------------------------------------------- brute force


def test_brute_rainbow_triangle():
    res = brute_force_max(RAINBOW_TRIANGLE)
    assert res.value == 2
    assert res.method == "brute-force"
    assert len(cut_colors(RAINBOW_TRIANGLE, res.witness)) == 2


def test_brute_single_edge_first_optimum_wins():
    res = brute_force_max(ColoredGraph(2, ((1, 2, 1),), 1))
    assert res.value == 1
    assert res.witness.s_side == frozenset({1})
    assert res.explored == 1  # the single nontrivial bipartition up to symmetry


def test_brute_odd_cycle_misses_one_color():
    assert brute_force_max(RAINBOW_C5).value == 4


def test_brute_explored_counts_bipartitions():
    # vertices 3 and 4 touch no edge, so only vertices 1 and 2 are enumerated
    g = ColoredGraph(4, ((1, 2, 1),), 1)
    assert brute_force_max(g).explored == 2 ** 1 - 1
    g = ColoredGraph(4, ((1, 2, 1), (3, 4, 1)), 1)
    assert brute_force_max(g).explored == 2 ** 3 - 1


def test_brute_rejects_tiny_graphs():
    with pytest.raises(ValueError):
        brute_force_max(ColoredGraph(1, (), 0))


def test_brute_cap():
    path = ColoredGraph(25, tuple((v, v + 1, v) for v in range(1, 25)), 24)
    with pytest.raises(CapExceededError):
        brute_force_max(path)
    # a looser cap lets it through
    assert brute_force_max(path, cap=25).value == 24
    assert BRUTE_FORCE_CAP == 24
    # the cap counts vertex 1 and the touched vertices, not n
    assert brute_force_max(ColoredGraph(25, ((1, 2, 1),), 1)).value == 1


def test_brute_matches_oracle():
    rng = random.Random(100)
    for _ in range(150):
        g = random_multigraph(rng, n_max=8, p_max=5)
        assert brute_force_max(g).value == oracle_max_cut_colors(g)


def _with_duplicates(rng: random.Random, g: ColoredGraph) -> ColoredGraph:
    """g plus copies of some of its edges, some with endpoints swapped."""
    extra = []
    for u, v, c in rng.sample(g.edges, rng.randint(0, g.m)):
        extra.append((v, u, c) if rng.random() < 0.5 else (u, v, c))
    return ColoredGraph(g.n, g.edges + tuple(extra), g.p)


def _mask_of(cut: Cut) -> int:
    return sum(1 << (v - 2) for v in cut.s_side if v != 1)


@pytest.mark.parametrize("block_bits", [None, 2])
def test_brute_matches_first_max_oracle(block_bits, monkeypatch):
    # a 2-bit block makes graphs with n >= 4 span several blocks
    if block_bits is not None:
        monkeypatch.setattr("coloredcut.solve._BLOCK_BITS", block_bits)
    rng = random.Random(404)
    for _ in range(300):
        g = _with_duplicates(rng, random_multigraph(rng, n_max=10, p_max=6))
        res = brute_force_max(g)
        value, mask, _ = oracle_first_max_mask(g)
        assert (res.value, _mask_of(res.witness)) == (value, mask)
        # only vertex 1 and the touched vertices are enumerated
        t = len({1} | {x for u, v, _ in g.edges for x in (u, v)})
        assert res.explored == 2 ** (t - 1) - 1
        assert 1 in res.witness.s_side


@pytest.mark.parametrize("n,seed", [(19, 1), (20, 2), (21, 3)])
def test_brute_finds_planted_optimum_past_the_first_block(n, seed):
    # rainbow complete bipartite graph: the only cut crossing every color is
    # the planted side A, which holds vertices 1 and n, so its mask is at
    # least 2^(n-2) and lies beyond the first block of masks
    rng = random.Random(seed)
    side_a = {1, n} | set(rng.sample(range(2, n), n // 2 - 2))
    side_b = set(range(1, n + 1)) - side_a
    pairs = [(u, v) for u in sorted(side_a) for v in sorted(side_b)]
    edges = tuple((u, v, c) for c, (u, v) in enumerate(pairs, start=1))
    g = ColoredGraph(n, edges, len(edges))
    res = brute_force_max(g)
    assert res.value == g.p == len(side_a) * len(side_b)
    assert res.witness.s_side == frozenset(side_a)
    assert res.explored == 2 ** (n - 1) - 1


@pytest.mark.parametrize("n", [2, 5])
def test_brute_edgeless_graph_takes_the_first_mask(n):
    res = brute_force_max(ColoredGraph(n, (), 0))
    assert res.value == 0
    assert res.witness.s_side == frozenset({1})
    assert res.explored == 0  # only vertex 1 is enumerated


def test_brute_witness_check_survives_optimize_flag():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = (
        "import coloredcut.solve as s\n"
        "from coloredcut import ColoredGraph, InvariantError\n"
        "assert False, 'asserts are on'\n"
        "s.cut_colors = lambda g, cut: frozenset()\n"
        "try:\n"
        "    s.brute_force_max(ColoredGraph(3, ((1, 2, 1), (2, 3, 2)), 2))\n"
        "except InvariantError:\n"
        "    print('raised')\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "raised"


# --------------------------------------------------------------------- greedy


def test_greedy_reaches_half_on_hand_cases():
    for g in (RAINBOW_TRIANGLE, RAINBOW_C4, RAINBOW_C5):
        cut = greedy_half_colors(g)
        assert isinstance(cut, Cut)
        assert 2 * len(cut_colors(g, cut)) >= g.p


def test_greedy_rejects_tiny_graphs():
    with pytest.raises(ValueError):
        greedy_half_colors(ColoredGraph(1, (), 0))


def test_greedy_handles_colorless_graph():
    cut = greedy_half_colors(ColoredGraph(3, (), 0))
    assert cut.s_side == frozenset({1})


def test_greedy_and_early_yes_put_untouched_vertices_on_t():
    # vertices 1, 3 and 6 lie on no edge; at k = 2 the value kernel removes
    # the triangle color 1 and then answers early, so vertices 2 and 4 are
    # touched only by a removed color
    g = ColoredGraph(7, ((2, 4, 1), (4, 5, 1), (2, 5, 1), (5, 7, 2)), 2)
    outcome = kernelize_value(g, 2)
    assert (outcome.verdict, outcome.removed_colors) == (KernelVerdict.EARLY_YES, (1,))
    # greedy places 2 | 4 and 5 | 7; the early yes places 2, 4, 5 | 7 over
    # color 2 alone, and augment_cut then flips 2 to make color 1 cross
    for cut, s_side in ((greedy_half_colors(g), {2, 5}), (decide_max(g, 2)[1], {4, 5})):
        assert cut.s_side == s_side
        assert len(cut_colors(g, cut)) == 2


def test_greedy_half_and_below_optimum():
    rng = random.Random(101)
    for _ in range(200):
        g = random_multigraph(rng, n_max=9, p_max=6)
        got = len(cut_colors(g, greedy_half_colors(g)))
        assert got >= math.ceil(g.p / 2)
        assert got <= brute_force_max(g).value


# ------------------------------------------------------------------- encoding


def test_encoding_single_edge_shape():
    enc = encode_colorful_to_cnf(ColoredGraph(2, ((1, 2, 1),), 1))
    assert enc.formula.var_count == 3
    assert len(enc.formula.clauses) == 7
    assert enc.vertex_var == {1: 1, 2: 2}
    assert enc.aux_var == {0: 3}


def test_encoding_clause_count_general():
    g = ColoredGraph(4, ((1, 2, 1), (2, 3, 1), (3, 4, 2)), 2)
    enc = encode_colorful_to_cnf(g)
    assert enc.formula.var_count == g.n + g.m
    assert len(enc.formula.clauses) == 4 * g.m + g.p + 2


def test_encoding_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        encode_colorful_to_cnf(ColoredGraph(1, (), 0))
    with pytest.raises(ValueError):
        encode_colorful_to_cnf(ColoredGraph(3, (), 0))


def test_encoding_models_are_exactly_colorful_cuts():
    g = RAINBOW_C4
    enc = encode_colorful_to_cnf(g)
    model = dpll_solve(enc.formula)
    assert model is not None
    cut = Cut(g.n, frozenset(v for v in range(1, g.n + 1) if model[v]))
    assert is_colorful(g, cut)


# ------------------------------------------------------------ colorful decide


def test_colorful_even_cycle_yes():
    cut = colorful_cut_decide(RAINBOW_C4)
    assert cut is not None and is_colorful(RAINBOW_C4, cut)


def test_colorful_odd_cycle_no():
    assert colorful_cut_decide(RAINBOW_TRIANGLE) is None


def test_colorful_no_colors_is_trivially_yes():
    cut = colorful_cut_decide(ColoredGraph(3, (), 0))
    assert cut == Cut(3, frozenset({1}))


def test_colorful_single_vertex_is_no():
    assert colorful_cut_decide(ColoredGraph(1, (), 0)) is None


def test_colorful_matches_oracle():
    rng = random.Random(102)
    for _ in range(120):
        g = random_multigraph(rng, n_max=8, p_max=5)
        got = colorful_cut_decide(g)
        want = oracle_colorful_cut(g)
        assert (got is not None) == (want is not None)
        if got is not None:
            assert is_colorful(g, got)


def _forced_multigraph(rng: random.Random) -> ColoredGraph:
    """A random multigraph plus single-edge colors (each must cross), two-edge
    colors that such crossings can leave with one choice, and exact
    duplicates in both orientations, in shuffled edge order."""
    g = random_multigraph(rng, n_max=8, p_max=5)
    edges, p = list(g.edges), g.p
    for _ in range(rng.randint(0, 5)):
        p += 1
        edges.append((*rng.sample(range(1, g.n + 1), 2), p))
    for _ in range(rng.randint(0, 3)):
        p += 1
        edges.append((*rng.sample(range(1, g.n + 1), 2), p))
        edges.append((*rng.sample(range(1, g.n + 1), 2), p))
    for u, v, c in rng.sample(edges, rng.randint(0, len(edges))):
        edges.append((v, u, c) if rng.random() < 0.5 else (u, v, c))
    rng.shuffle(edges)
    return ColoredGraph(g.n, tuple(edges), p)


def _forced_multigraph_pairs():
    """600 `_forced_multigraph` graphs, each with the same graph carrying
    0-15 untouched vertices spread among the ids."""
    rng = random.Random(106)
    for _ in range(600):
        g = _forced_multigraph(rng)
        n = g.n + rng.randint(0, 15)
        ids = rng.sample(range(1, n + 1), n)
        yield g, ColoredGraph(n, tuple((ids[u - 1], ids[v - 1], c) for u, v, c in g.edges), g.p)


def _check_colorful_answer(g: ColoredGraph, want: bool) -> None:
    cut = colorful_cut_decide(g)
    assert (cut is not None) == want
    if cut is not None:
        assert is_colorful(g, cut)
        # untouched vertices sit on T
        assert cut.s_side <= {x for u, v, _ in g.edges for x in (u, v)}


def test_colorful_differential_against_brute_force_and_dpll():
    answers = set()
    for g, spread in _forced_multigraph_pairs():
        want = brute_force_max(g).value == g.p
        assert (dpll_solve(encode_colorful_to_cnf(spread).formula) is not None) == want
        for h in (g, spread):
            _check_colorful_answer(h, want)
        answers.add(want)
    assert answers == {True, False}


UNSAT8 = CnfFormula(
    3, tuple((a, 2 * b, 3 * c) for a in (1, -1) for b in (1, -1) for c in (1, -1))
)

_GENERATORS = {
    "planar-multi": sat_to_multigraph,
    "planar-simple": lambda f: multigraph_to_simple(sat_to_multigraph(f)),
    "k4mf": lambda f: make_k4mf_connected(multigraph_to_simple(sat_to_multigraph(f))),
    "oct1": lambda f: make_oct_one(sat_to_multigraph(f)),
    "complete": lambda f: embed_complete_artifact(multigraph_to_simple(sat_to_multigraph(f))),
    "nae": nae_to_cliques,
}


def _construction_formulas() -> list[CnfFormula]:
    rng = random.Random(107)
    formulas = [UNSAT8, CnfFormula(3, ((1, 2, 3), (-1, -2, 3), (1, -2, -3), (-1, 2, -3)))]
    while len(formulas) < 14:
        f = random_3cnf(rng, 4, rng.randint(3, 9))
        if strip_single_polarity(f)[0]:
            formulas.append(f)
    return formulas


@pytest.mark.parametrize("kind", sorted(_GENERATORS))
def test_colorful_matches_formula_truth_on_every_construction(kind):
    # colorful iff the formula is satisfiable (not-all-equal satisfiable for
    # nae); DPLL on the encoding cross-checks the graphs small enough for it
    truths = set()
    for f in _construction_formulas():
        truth = (brute_force_nae(f) if kind == "nae" else brute_force_sat(f)) is not None
        g = _GENERATORS[kind](f).graph
        _check_colorful_answer(g, truth)
        if g.m <= 60:
            assert (dpll_solve(encode_colorful_to_cnf(g).formula) is not None) == truth
        truths.add(truth)
    assert truths == {True, False}


def test_colorful_branching_backtracks_into_the_second_branch():
    # found by a seeded scan: the first branch (the first edge of the
    # shortest color crosses) fails, and every colorful cut lies under its
    # sibling, where that edge does not cross
    g = ColoredGraph(
        9,
        ((8, 3, 1), (6, 3, 2), (4, 5, 3), (8, 4, 4), (2, 3, 5))
        + ((5, 8, 6), (2, 8, 4), (5, 9, 1), (8, 6, 3)),
        6,
    )
    assert brute_force_max(g).value == g.p
    cut = colorful_cut_decide(g)
    assert cut is not None and is_colorful(g, cut)


def test_colorful_tail_formulas_stay_fast():
    # 16- and 18-clause unsatisfiable planar graphs: their quotients have
    # 48-54 classes, which a search that only prunes fully set colors takes
    # seconds to tens of seconds to refute
    start = time.perf_counter()
    for clause_count in (16, 18):
        for f in unsat_3cnf_draws(clause_count):
            multi = sat_to_multigraph(f)
            assert colorful_cut_decide(multi.graph) is None
            assert colorful_cut_decide(multigraph_to_simple(multi).graph) is None
    assert time.perf_counter() - start < 5.0


def test_contraction_cascades_to_a_fixpoint():
    # color 3 forces 3 | 4 only after color 2 was first looked at; then both
    # edges of color 2 cross together, so it is forced too and nothing is
    # left to search
    g = ColoredGraph(4, ((1, 2, 1), (1, 3, 2), (2, 4, 2), (3, 4, 3)), 3)
    _, quotient = _contract_forced(g)
    assert quotient == []
    assert colorful_cut_decide(g) == Cut(4, frozenset({1, 4}))


def test_contraction_cascade_against_color_order_stays_fast():
    # colors L and L+1 are single edges; color i < L joins i to i+1 and i+3,
    # which cross together only once i+1 and i+3 are forced to one side, that
    # is after colors i+1 and i+2.  The worklist re-queues only the colors on
    # the class a union absorbs, so the cascade stays fast; sweeping all colors
    # in increasing order once per round forces one color per round and
    # takes quadratic time
    L = 5000
    edges = [e for i in range(1, L) for e in ((i, i + 1, i), (i, i + 3, i))]
    g = ColoredGraph(L + 2, tuple(edges) + ((L, L + 1, L), (L + 1, L + 2, L + 1)), L + 1)
    start = time.perf_counter()
    _, quotient = _contract_forced(g)
    cut = colorful_cut_decide(g)
    assert time.perf_counter() - start < 5.0
    assert quotient == []
    assert cut is not None


def test_quotient_deeper_than_the_recursion_limit():
    # each color joins 3i+1 to 3i+2 and to 3i+3: nothing is forced, so all
    # 3K vertices stay classes, and each of the K colors is one branch on the
    # search's stack, K deeper than a recursive search could nest
    K = 2000
    edges = [(3 * i + 1, 3 * i + t, i + 1) for i in range(K) for t in (2, 3)]
    g = ColoredGraph(3 * K, tuple(edges), K)
    labels, quotient = _contract_forced(g)
    assert len({root for root, _ in labels.values()}) == 3 * K > sys.getrecursionlimit()
    assert len(quotient) == K
    start = time.perf_counter()
    cut = colorful_cut_decide(g)
    assert time.perf_counter() - start < 2.0
    assert cut is not None and is_colorful(g, cut)


def test_quotient_search_keeps_the_all_one_side_mask():
    # the single-edge colors put 4, 5 and 6 opposite 1 in one class.  On the
    # quotient of classes 1, 2, 3 each other color rules out one of the other
    # three side pairs of classes 2 and 3 against class 1, so the only
    # colorful assignment puts every class on one side: the nontrivial cut
    # {1, 2, 3} | {4, 5, 6}
    g = ColoredGraph(
        6,
        ((1, 4, 1), (1, 2, 2), (4, 3, 2), (4, 2, 3), (1, 3, 3))
        + ((4, 2, 4), (4, 3, 4), (2, 3, 4), (1, 5, 5), (1, 6, 6)),
        6,
    )
    assert colorful_cut_decide(g) == Cut(6, frozenset({1, 2, 3}))
    assert oracle_colorful_cut(g) == frozenset({1, 2, 3})


def test_colorful_never_runs_dpll(monkeypatch):
    def refuse(*args):
        raise AssertionError("DPLL ran")

    # every DPLL run starts with unit propagation
    monkeypatch.setattr("coloredcut.sat._propagate", refuse)
    g = sat_to_multigraph(UNSAT8).graph
    assert colorful_cut_decide(g) is None
    assert colorful_cut_decide(RAINBOW_C4) is not None


def test_colorful_witness_check_survives_optimize_flag():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = (
        "import coloredcut.solve as s\n"
        "from coloredcut import ColoredGraph, InvariantError\n"
        "assert False, 'asserts are on'\n"
        "s.is_colorful = lambda g, cut: False\n"
        "try:\n"
        "    s.colorful_cut_decide(ColoredGraph(3, ((1, 2, 1), (2, 3, 2)), 2))\n"
        "except InvariantError:\n"
        "    print('raised')\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "raised"


# ------------------------------------------------------------------ decide_max


def test_decide_max_rejects_bad_arguments():
    with pytest.raises(ValueError):
        decide_max(RAINBOW_TRIANGLE, 0)
    with pytest.raises(ValueError):
        decide_max(ColoredGraph(1, (), 0), 1)


def test_decide_max_rainbow_triangle_boundary():
    yes, cut = decide_max(RAINBOW_TRIANGLE, 2)
    assert yes and cut is not None
    assert len(cut_colors(RAINBOW_TRIANGLE, cut)) >= 2
    no, missing = decide_max(RAINBOW_TRIANGLE, 3)
    assert not no and missing is None


def test_value_kernel_answers_every_k_up_to_half_without_search():
    # a 40-vertex rainbow path: p = 39 colors, far above the search cap, and
    # every k <= ceil(39/2) = 20 is covered by the greedy cut
    path = ColoredGraph(40, tuple((v, v + 1, v) for v in range(1, 40)), 39)
    for k in (1, 2, 20):
        out = kernelize_value(path, k)
        assert out.verdict is KernelVerdict.EARLY_YES
        assert (out.removed_colors, out.remaining_k) == ((), k)
        yes, cut = decide_max(path, k)
        assert yes and len(cut_colors(path, cut)) >= k
    assert kernelize_value(path, 21).verdict is KernelVerdict.REDUCED


def test_decide_max_agrees_with_oracle_for_all_k():
    rng = random.Random(103)
    for _ in range(80):
        g = random_multigraph(rng, n_max=8, p_max=5)
        opt = oracle_max_cut_colors(g)
        for k in range(1, g.p + 1):
            yes, cut = decide_max(g, k)
            assert yes == (opt >= k)
            if yes:
                assert cut is not None
                assert len(cut_colors(g, cut)) >= k
            else:
                assert cut is None


# ------------------------------------------------------------ solve_via_kernel


def test_solve_via_kernel_hand_cases():
    res = solve_via_kernel(RAINBOW_TRIANGLE)
    assert res.value == 2
    assert res.method == "kernel+brute-force"
    res = solve_via_kernel(RAINBOW_C5)
    assert res.value == 4


def test_solve_via_kernel_star_collapses_to_no_search():
    g = ColoredGraph(4, ((1, 2, 1), (1, 3, 1), (1, 4, 1)), 1)
    res = solve_via_kernel(g)
    assert res.value == 1
    assert res.explored == 0  # kernel emptied the graph, no brute force ran
    assert len(cut_colors(g, res.witness)) == 1


def test_solve_via_kernel_matches_brute():
    rng = random.Random(104)
    for _ in range(120):
        g = random_multigraph(rng, n_max=8, p_max=4)
        maybe = inflate_one_color(rng, g)
        if maybe is not None and rng.random() < 0.6:
            g = maybe
        res = solve_via_kernel(g)
        assert res.value == brute_force_max(g).value
        assert len(cut_colors(g, res.witness)) == res.value


@pytest.mark.parametrize("first", [1, 2])
def test_untouched_vertices_are_not_searched(first):
    # a rainbow triangle among 30 vertices no edge touches; with first == 2
    # vertex 1 is one of them
    a, b, c = first, first + 1, first + 2
    g = ColoredGraph(33, ((a, b, 1), (b, c, 2), (a, c, 3)), 3)
    res = solve_via_kernel(g)
    assert res.value == 2 == len(cut_colors(g, res.witness))
    # searched: vertex 1 and the triangle, so 2^(3-1)-1 or 2^(4-1)-1 masks
    assert res.explored == (3 if first == 1 else 7)
    yes, cut = decide_max(g, 2)
    assert yes and len(cut_colors(g, cut)) >= 2
    assert decide_max(g, 3) == (False, None)


def test_kernel_witness_is_the_lifted_full_search():
    rng = random.Random(105)
    for _ in range(200):
        g = random_multigraph(rng, n_max=8, p_max=4)
        maybe = inflate_one_color(rng, g)
        if maybe is not None and rng.random() < 0.5:
            g = maybe
        # spread up to four untouched vertices among the ids, n <= 12
        n = g.n + rng.randint(0, 4)
        ids = rng.sample(range(1, n + 1), n)
        g = ColoredGraph(n, tuple((ids[u - 1], ids[v - 1], c) for u, v, c in g.edges), g.p)
        out = kernelize_colors(g)
        red = out.reduced_graph
        if red.n >= 2:
            full = brute_force_max(red)
            # a vertex survives if a kept color touches it or no edge does
            touched = {x for u, v, _ in g.edges for x in (u, v)}
            kept = {x for u, v, c in g.edges if c in out.color_renaming for x in (u, v)}
            survivors = [v for v in range(1, g.n + 1) if v in kept or v not in touched]
            assert len(survivors) == red.n
            s_side = {survivors[new - 1] for new in full.witness.s_side}
            value = full.value
        else:
            s_side, value = {1}, 0
        expected = augment_cut(g, out.removed_colors, Cut(g.n, frozenset(s_side)))
        res = solve_via_kernel(g)
        assert (res.value, res.witness) == (value + len(out.removed_colors), expected)
        for k in range(1, g.p + 1):
            yes, cut = decide_max(g, k)
            assert yes == (res.value >= k)
            # an early yes answers with the greedy cut instead
            if yes and kernelize_value(g, k).verdict is KernelVerdict.REDUCED:
                assert cut == expected


# ------------------------------------------------------------------ properties


@given(graphs(), st.sampled_from([0, 0, 1, 3]))
@settings(max_examples=60, deadline=None)
def test_property_solver_stack_is_consistent(g, untouched):
    g = ColoredGraph(g.n + untouched, g.edges, g.p)
    opt = brute_force_max(g).value
    assert solve_via_kernel(g).value == opt
    assert len(cut_colors(g, greedy_half_colors(g))) >= math.ceil(g.p / 2)
    colorful = colorful_cut_decide(g)
    assert (colorful is not None) == (opt == g.p)
    for k in range(1, g.p + 2):
        assert decide_max(g, k)[0] == (opt >= k)


@given(st.integers(min_value=2, max_value=7), st.data())
@settings(max_examples=40, deadline=None)
def test_property_bipartite_rainbow_is_colorful(half, data):
    # rainbow edges across a fixed bipartition never block a colorful cut
    pairs = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=half),
                st.integers(min_value=half + 1, max_value=2 * half),
            ),
            min_size=1,
            max_size=10,
            unique=True,
        )
    )
    edges = tuple((u, v, i + 1) for i, (u, v) in enumerate(pairs))
    g = ColoredGraph(2 * half, edges, len(pairs))
    cut = colorful_cut_decide(g)
    assert cut is not None and is_colorful(g, cut)
