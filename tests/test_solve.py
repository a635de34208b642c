import hashlib
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
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
    InvariantError,
    KernelOutcome,
    augment_cut,
    brute_force_max,
    colorful_cut_decide,
    cut_colors,
    decide_max,
    dpll_solve,
    embed_complete_artifact,
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
from coloredcut.graph import _color_classes
from coloredcut.kernel import _rule_table, _value_kernel
from coloredcut.solve import (
    _STAGES,
    _add_bits,
    _check_odd_cycles,
    _Contraction,
    _greedy_cut,
    _odd_cycles,
    _staged,
)

from helpers import (
    encode_colorful_to_cnf,
    greedy_misses,
    inflate_one_color,
    oracle_colorful_cut,
    oracle_first_max_mask,
    oracle_max_cut_colors,
    oracle_nae,
    oracle_sat,
    random_3cnf,
    random_multigraph,
    root_contraction,
    unsat_3cnf_draws,
)
from test_graph import RAINBOW_TRIANGLE, graphs

RAINBOW_C5 = ColoredGraph(
    5, ((1, 2, 1), (2, 3, 2), (3, 4, 3), (4, 5, 4), (5, 1, 5)), 5
)
RAINBOW_C4 = ColoredGraph(4, ((1, 2, 1), (2, 3, 2), (3, 4, 3), (4, 1, 4)), 4)
TWO_TRIANGLES = ColoredGraph(
    6, ((1, 2, 1), (2, 3, 2), (1, 3, 3), (4, 5, 4), (5, 6, 5), (4, 6, 6)), 6
)


# ---------------------------------------------------------------- brute force


def test_brute_rainbow_triangle():
    res = brute_force_max(RAINBOW_TRIANGLE)
    assert res.value == 2
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


@pytest.mark.parametrize("block_bits", [None, 2, 3])
def test_brute_matches_first_max_oracle_with_many_colors(block_bits, monkeypatch):
    # up to 40 colors make the counter 6 bits tall, and 2- or 3-bit blocks
    # make the colors every block shares a count of its own
    if block_bits is not None:
        monkeypatch.setattr("coloredcut.solve._BLOCK_BITS", block_bits)
    rng = random.Random(405)
    for _ in range(150):
        g = random_multigraph(rng, n_max=9, p_max=40)
        res = brute_force_max(g)
        value, mask, total = oracle_first_max_mask(g)
        assert (res.value, _mask_of(res.witness)) == (value, mask)
        # the oracle scans all n vertices, the search only the t touched ones
        t = len({1} | {x for u, v, _ in g.edges for x in (u, v)})
        assert res.explored == total >> (g.n - t) == 2 ** (t - 1) - 1


@pytest.mark.parametrize("start", [False, True])
def test_add_bits_counts_every_mask(start):
    # every column length the search can meet at p <= 40, summed into an
    # empty counter or into a 6-bit one that already holds up to 63 per mask
    def count(counter, mask):
        return sum((c >> mask & 1) << i for i, c in enumerate(counter))

    rng = random.Random(406)
    for k in range(41):
        width = rng.randint(0, 6)  # ints over the 2^width masks of a block
        bits = [rng.getrandbits(1 << width) for _ in range(k)]
        base = [rng.getrandbits(1 << width) for _ in range(6)] if start else []
        counter = _add_bits(bits, base)
        for mask in range(1 << width):
            assert count(counter, mask) == sum(b >> mask & 1 for b in bits) + count(base, mask)


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
    assert (outcome.reduced_graph, outcome.removed_colors) == (None, (1,))
    # greedy places 2 | 4 and 5 | 7; the early yes places 2, 4, 5 | 7 over
    # color 2 alone, and augment_cut then flips 2 to make color 1 cross
    for cut, s_side in ((greedy_half_colors(g), {2, 5}), (decide_max(g, 2)[1], {4, 5})):
        assert cut.s_side == s_side
        assert len(cut_colors(g, cut)) == 2


def _pinned_corpus() -> list[ColoredGraph]:
    """Seeded multigraphs with parallel edges, untouched vertices (vertex 1
    among them on about half), and on every other draw a color the rule
    removes."""
    rng = random.Random(7)
    corpus = []
    for i in range(300):
        g = _with_duplicates(rng, random_multigraph(rng, n_max=10, p_max=6))
        if i % 2:
            g = inflate_one_color(rng, g) or g
        shift = rng.randint(0, 1)
        edges = tuple((u + shift, v + shift, c) for u, v, c in g.edges)
        corpus.append(ColoredGraph(g.n + shift + rng.randint(0, 2), edges, g.p))
    return corpus


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _answer(g: ColoredGraph, k: int) -> str:
    yes, cut = decide_max(g, k)
    return f"{yes} {None if cut is None else sorted(cut.s_side)}"


def _multi_block_corpus() -> list[ColoredGraph]:
    """Seeded graphs on t = 18..21 vertices, all touched, so that the search
    spans 2 to 16 blocks: planted rainbow triangles plus free colors (one
    per vertex, whose first edge crosses the planted sides), a rainbow
    Hamiltonian cycle with one chord and one two-pair color, and a rainbow
    K_{a,b} with a = 2 or 3.  Vertex ids are shuffled."""
    rng = random.Random(38)
    corpus = []
    for t in range(18, 22):
        vertices = list(range(1, t + 1))
        rng.shuffle(vertices)
        s_side = set(vertices[: t // 2])
        classes = []
        for i in range(0, 3 * (t // 5), 3):
            a, b, c = vertices[i : i + 3]
            classes += [[(a, b)], [(b, c)], [(a, c)]]
        for i, v in enumerate(rng.sample(vertices, t)):
            other = rng.choice([w for w in vertices if (w in s_side) != (v in s_side)])
            classes.append([(v, other)] + [tuple(rng.sample(vertices, 2)) for _ in range(i % 3)])
        rng.shuffle(vertices)
        cycle = [[(vertices[i - 1], vertices[i])] for i in range(t)]
        chord = [[(vertices[0], vertices[rng.randrange(2, t - 1)])]]
        two_pairs = [[tuple(rng.sample(vertices, 2)), tuple(rng.sample(vertices, 2))]]
        rng.shuffle(vertices)
        a = 2 + t % 2
        biclique = [[(u, v)] for u in vertices[:a] for v in vertices[a:]]
        for graph_classes in (classes, cycle + chord + two_pairs, biclique):
            edges = [(u, v, c) for c, pairs in enumerate(graph_classes, 1) for u, v in pairs]
            corpus.append(ColoredGraph(t, edges, len(graph_classes)))
    return corpus


def test_greedy_decide_and_encoding_outputs_are_pinned():
    # sha256 prefixes of every greedy witness, every decide_max answer at
    # k = 1..p+1 and every CNF encoding over one seeded corpus, so that a
    # rewrite of these routes shows it gives the same bytes
    corpus = _pinned_corpus()
    assert sum(bool(kernelize_colors(g).removed_colors) for g in corpus) == 120
    assert sum(1 not in {x for u, v, _ in g.edges for x in (u, v)} for g in corpus) == 151
    assert _digest(repr(sorted(greedy_half_colors(g).s_side)) for g in corpus) == "0c1857323d6e7744"
    assert _digest(_answer(g, k) for g in corpus for k in range(1, g.p + 2)) == "a7876cc9e24d1cfa"
    assert _digest(repr(encode_colorful_to_cnf(g)) for g in corpus) == "7f86c0aa0239b5d9"


def test_kernel_outputs_are_pinned():
    # sha256 prefixes of every kernel outcome (the color kernel's, and the
    # value kernel's at k = 1..p+1) and every solve over the seeded corpus
    corpus = _pinned_corpus()
    outcomes = [kernelize_colors(g) for g in corpus]
    outcomes += [kernelize_value(g, k) for g in corpus for k in range(1, g.p + 2)]

    def solved(g: ColoredGraph) -> str:
        try:
            return repr(solve_via_kernel(g))
        except CapExceededError as exc:
            return str(exc)

    assert _digest(repr(o) for o in outcomes[: len(corpus)]) == "e605f8ba9ae36411"
    assert _digest(repr(o) for o in outcomes[len(corpus) :]) == "799506255cff77a3"
    assert _digest(solved(g) for g in corpus) == "481905748ffb4f2d"
    # the reduced graphs are built unchecked; the constructor accepts each
    reduced = [o.reduced_graph for o in outcomes if o.reduced_graph is not None]
    assert len(reduced) == 1022
    for r in reduced:
        assert ColoredGraph(r.n, r.edges, r.p) == r


def test_search_past_one_block_is_pinned():
    # sha256 prefixes of every solve and every decide_max answer at
    # k = 1..p+1 over graphs whose search spans 2 to 16 blocks, recorded
    # before decide_max answered "no" from the odd-cycle bound: that answer
    # changes no value and no witness
    corpus = _multi_block_corpus()
    touched = [len({x for u, v, _ in g.edges for x in (u, v)}) for g in corpus]
    assert touched == [t for t in range(18, 22) for _ in range(3)]
    assert _digest(repr(solve_via_kernel(g)) for g in corpus) == "ba941c407022e4b9"
    assert _digest(_answer(g, k) for g in corpus for k in range(1, g.p + 2)) == "438d5aaf44165cf4"


def test_greedy_half_and_below_optimum():
    rng = random.Random(101)
    for _ in range(200):
        g = random_multigraph(rng, n_max=9, p_max=6)
        got = len(cut_colors(g, greedy_half_colors(g)))
        assert got >= math.ceil(g.p / 2)
        assert got <= brute_force_max(g).value


def test_greedy_guarantee_holds_on_every_removal_prefix():
    # _greedy_cut recounts its cut and checks that every removed color and
    # half of the kept ones cross; here on each prefix of the rule's removal
    # order that keeps a color, and on every early yes of the value kernel
    rng = random.Random(7)
    prefixes = early = every_color_removed = 0
    for i in range(600):
        g = random_multigraph(rng, n_max=10, p_max=8)
        if i % 2:
            g = inflate_one_color(rng, g) or g
        table = _rule_table(g)
        order = table[1]
        every_color_removed += len(order) == g.p
        for r in range(min(len(order), g.p - 1) + 1):
            cut, crossed = _greedy_cut(g, order[:r])
            assert crossed == len(cut_colors(g, cut))
            assert 2 * crossed >= g.p + r
            prefixes += 1
        for k in range(1, g.p + 1):
            _, removed, yes = _value_kernel(g, k, table)
            if yes:
                cut, crossed = _greedy_cut(g, removed)
                assert crossed >= k
                early += 1
    assert prefixes > 600 and early > 1000 and every_color_removed > 100


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
        truth = (oracle_nae(f) if kind == "nae" else oracle_sat(f)) is not None
        g = _GENERATORS[kind](f).graph
        _check_colorful_answer(g, truth)
        if g.m <= 60:
            assert (dpll_solve(encode_colorful_to_cnf(g).formula) is not None) == truth
        truths.add(truth)
    assert truths == {True, False}


def test_colorful_witnesses_on_the_constructions_are_pinned():
    # sha256 prefix of every colorful answer (None or the sorted S side) on
    # the construction-shaped graphs of small random 3-CNF, so that a rewrite
    # of the colorful search shows it finds the same cuts
    rng = random.Random(49)
    formulas = []
    while len(formulas) < 24:
        f = random_3cnf(rng, rng.randint(4, 6), rng.randint(6, 12))
        if strip_single_polarity(f)[0]:
            formulas.append(f)
    answers = []
    for kind in ("planar-multi", "planar-simple", "k4mf", "oct1", "nae"):
        for f in formulas:
            cut = colorful_cut_decide(_GENERATORS[kind](f).graph)
            answers.append(repr(None if cut is None else sorted(cut.s_side)))
    # every formula is satisfiable, and 8 of the 24 are not NAE-satisfiable
    assert answers.count("None") == 8
    assert _digest(answers) == "871efb3a8f591d89"


def _record_calls(monkeypatch, name: str) -> list[tuple]:
    """The arguments of every `_Contraction.<name>` call from now on."""
    calls: list[tuple] = []
    original = getattr(_Contraction, name)

    def recording(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(_Contraction, name, recording)
    return calls


def test_colorful_branching_backtracks_into_the_second_branch(monkeypatch):
    # found by a seeded scan: the first branch (the busiest edge of a
    # shortest color crosses) fails, and every colorful cut lies under its
    # sibling, where that edge does not cross
    undos = _record_calls(monkeypatch, "undo")
    g = ColoredGraph(
        9,
        ((8, 3, 1), (6, 3, 2), (4, 5, 3), (8, 4, 4), (2, 3, 5))
        + ((5, 8, 6), (2, 8, 4), (5, 9, 1), (8, 6, 3)),
        6,
    )
    assert brute_force_max(g).value == g.p
    cut = colorful_cut_decide(g)
    assert cut is not None and is_colorful(g, cut)
    assert undos


@pytest.mark.parametrize(
    "edges, first_branch",
    [
        # color 1 is the only shortest color: its edge 3-4 carries 4 color
        # incidences and 1-2 carries 2; 5-6 carries 8 but lies in longer colors
        (
            ((1, 2, 1), (3, 4, 1), (3, 5, 2), (4, 6, 2), (5, 6, 2))
            + ((5, 6, 3), (5, 7, 3), (6, 7, 3)),
            (3, 4, 0),
        ),
        # colors 1 and 2 are the shortest, and their edges 3-4 and 7-8 tie at
        # 4 incidences: the first of them, in color order, wins
        (
            ((1, 2, 1), (3, 4, 1), (5, 6, 2), (7, 8, 2))
            + ((3, 7, 3), (4, 8, 3), (9, 10, 3)),
            (3, 4, 0),
        ),
    ],
    ids=["busiest", "tie"],
)
def test_colorful_branches_on_the_busiest_edge_of_a_shortest_color(
    monkeypatch, edges, first_branch
):
    unions = _record_calls(monkeypatch, "unite")
    g = ColoredGraph(max(max(u, v) for u, v, _ in edges), edges, max(c for *_, c in edges))
    cut = colorful_cut_decide(g)
    assert cut is not None and is_colorful(g, cut)
    assert unions[0] == first_branch


def test_colorful_refutes_a_20_variable_formula_in_few_branches(monkeypatch):
    # the third draw is unsatisfiable.  Branching on the first edge of a
    # shortest color took 25,200 branches (5 s) to refute its planar graph;
    # the busiest edge of a shortest color takes 46.  The bound is a count of
    # branches (only the search calls `unite`), so it holds on any machine.
    rng = random.Random(1020)
    f = [random_3cnf(rng, 20, 86) for _ in range(3)][2]
    assert dpll_solve(f) is None
    unions = _record_calls(monkeypatch, "unite")
    assert colorful_cut_decide(sat_to_multigraph(f).graph) is None
    assert len(unions) <= 300


def _threshold_formulas() -> list[CnfFormula]:
    """Three random 3-CNF on each of 10, 11 and 12 variables at about 4.3
    clauses per variable, near the satisfiability threshold."""
    formulas = []
    for v in (10, 11, 12):
        rng = random.Random(1000 + v)
        formulas += [random_3cnf(rng, v, round(4.3 * v)) for _ in range(3)]
    return formulas


# complete is left out: its graph grows with the square of the simple one's
@pytest.mark.parametrize("kind", sorted(set(_GENERATORS) - {"complete"}))
def test_colorful_matches_formula_truth_near_the_threshold(kind):
    truths = []
    for f in _threshold_formulas():
        truth = (oracle_nae(f) if kind == "nae" else oracle_sat(f)) is not None
        _check_colorful_answer(_GENERATORS[kind](f).graph, truth)
        truths.append(truth)
    # two of the nine are unsatisfiable, and none is NAE-satisfiable
    assert truths.count(True) == (0 if kind == "nae" else 7)


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
    assert root_contraction(g).live == {}
    assert colorful_cut_decide(g) == Cut(4, frozenset({1, 4}))


# single-pair colors, some listed twice or in both orientations: a chain
# 1..8 (colors 1-7) and a tree on 9..15 (colors 8-13), each numbered so that
# its two halves are joined last; color 14 stays live, color 15 crosses by
# parity and color 16 stays live
SINGLE_PAIR_CHAIN = (
    (1, 2, 1), (2, 1, 1), (3, 2, 2), (3, 4, 3), (6, 5, 4),
    (6, 7, 5), (8, 7, 6), (7, 8, 6), (4, 5, 7),
)
SINGLE_PAIR_TREE = ((9, 10, 8), (11, 9, 9), (9, 12, 10), (13, 14, 11), (15, 13, 12), (10, 13, 13))
TWO_PAIR_COLORS = ((1, 9, 14), (2, 9, 14), (3, 6, 15), (4, 7, 15), (10, 16, 16), (11, 17, 16))


@pytest.mark.parametrize(
    "g, colorful",
    [
        (ColoredGraph(17, SINGLE_PAIR_CHAIN + SINGLE_PAIR_TREE + TWO_PAIR_COLORS, 16), True),
        # an odd cycle of single-pair colors, each edge in both orientations
        (
            ColoredGraph(
                6,
                ((1, 2, 1), (2, 1, 1), (2, 3, 2), (3, 2, 2), (3, 1, 3), (1, 3, 3))
                + ((4, 5, 4), (5, 6, 4)),
                4,
            ),
            False,
        ),
    ],
    ids=["chain-and-tree", "odd-cycle"],
)
def test_root_contraction_links_single_pair_colors_to_their_root(g, colorful):
    state = root_contraction(g)
    assert (colorful_cut_decide(g) is not None) == colorful == (brute_force_max(g).value == g.p)
    if not colorful:
        assert state is None
        return
    pairs: dict[int, set] = {}
    for u, v, c in g.edges:
        pairs.setdefault(c - 1, set()).add(frozenset((u, v)))
    single = [c for c, ps in pairs.items() if len(ps) == 1]
    for c in single:
        for v in next(iter(pairs[c])):
            assert v not in state.up or state.up[v][0] not in state.up
    assert not set(single) & set(state.live)


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
    state = root_contraction(g)
    cut = colorful_cut_decide(g)
    assert time.perf_counter() - start < 5.0
    assert state.live == {}
    assert cut is not None


def test_quotient_deeper_than_the_recursion_limit():
    # each color joins 3i+1 to 3i+2 and to 3i+3: nothing is forced, so all
    # 3K vertices stay classes, and each of the K colors is one branch on the
    # search's stack, K deeper than a recursive search could nest
    K = 2000
    edges = [(3 * i + 1, 3 * i + t, i + 1) for i in range(K) for t in (2, 3)]
    g = ColoredGraph(3 * K, tuple(edges), K)
    state = root_contraction(g)
    roots = {state.find(v)[0] for v in range(1, 3 * K + 1)}
    assert len(roots) == 3 * K > sys.getrecursionlimit()
    assert len(state.live) == K
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


# (stub, call on the path 1-2-3 colored 1, 2 unless a graph is given, message
# of the check it trips); each stub leaves the checks before the targeted one
# passing
NO_COLORS = "s.cut_colors = lambda g, cut: frozenset()"
WITNESS_CHECKS = {
    "brute": (
        NO_COLORS,
        "s.brute_force_max(G)",
        "exhaustive-search witness does not cross the 2 colors it scored",
    ),
    "colorful": (
        "s.is_colorful = lambda g, cut: False",
        "s.colorful_cut_decide(G)",
        "the lifted quotient assignment is not a colorful cut",
    ),
    "greedy": (
        NO_COLORS,
        "s.greedy_half_colors(G)",
        "greedy witness crosses 0 colors, fewer than the 0 removed and half of the 2 kept",
    ),
    "kernel-lift": (
        "s.augment_cut = lambda g, removed, cut: s.Cut(g.n, frozenset({1, 2}))",
        "s.solve_via_kernel(G)",
        "exhaustive-search witness does not cross the 2 colors it scored",
    ),
    "early-yes": (
        NO_COLORS,
        "s.decide_max(G, 1)",
        "greedy witness crosses 0 colors, fewer than the 0 removed and half of the 2 kept",
    ),
    "greedy-above-cap": (
        "s.BRUTE_FORCE_CAP = 2; " + NO_COLORS,
        "s.decide_max(G, 2)",
        "greedy witness crosses 0 colors, fewer than the 0 removed and half of the 2 kept",
    ),
    "odd-cycle-no": (
        "s._odd_cycles = lambda classes, single: [[1, 2]]",
        "s.decide_max(ColoredGraph(3, ((1, 2, 1), (2, 3, 2), (1, 3, 3)), 3), 3)",
        "colors [1, 2] do not form an odd cycle",
    ),
}


@pytest.mark.parametrize(
    "stub,call,message", list(WITNESS_CHECKS.values()), ids=list(WITNESS_CHECKS)
)
def test_witness_checks_survive_optimize_flag(stub, call, message):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = (
        "import coloredcut.solve as s\n"
        "from coloredcut import ColoredGraph, InvariantError\n"
        "assert False, 'asserts are on'\n"
        "G = ColoredGraph(3, ((1, 2, 1), (2, 3, 2)), 2)\n"
        f"{stub}\n"
        "try:\n"
        f"    {call}\n"
        "except InvariantError as exc:\n"
        "    print(exc)\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == message


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


def test_decide_max_says_no_above_p_without_search():
    # no cut crosses more than the p colors there are, so k > p is a no even
    # on a graph far above the search cap
    path = ColoredGraph(30, tuple((i, i + 1, i) for i in range(1, 30)), 29)
    for k in (30, 31, 100):
        assert decide_max(path, k) == (False, None)
    with pytest.raises(ValueError):
        decide_max(ColoredGraph(1, (), 0), 1)  # the n < 2 check still comes first


def test_value_kernel_answers_every_k_up_to_half_without_search():
    # a 40-vertex rainbow path: p = 39 colors, far above the search cap, and
    # every k <= ceil(39/2) = 20 is covered by the greedy cut
    path = ColoredGraph(40, tuple((v, v + 1, v) for v in range(1, 40)), 39)
    for k in (1, 2, 20):
        assert kernelize_value(path, k) == KernelOutcome(None, ())
        yes, cut = decide_max(path, k)
        assert yes and len(cut_colors(path, cut)) >= k
    assert kernelize_value(path, 21).reduced_graph is not None


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


def test_decide_max_says_no_from_the_odd_cycle_bound_above_the_cap():
    # a rainbow C_41 puts 41 vertices in the search, far above the cap; every
    # cut leaves a color of the cycle uncrossed, so k = 41 is a certified no,
    # while k = 40 is a yes from the greedy cut where the search refuses
    cycle = ColoredGraph(41, tuple((v, v % 41 + 1, v) for v in range(1, 42)), 41)
    assert decide_max(cycle, 41) == (False, None)
    yes, cut = decide_max(cycle, 40)
    assert yes and len(cut_colors(cycle, cut)) == 40


def test_decide_max_refuses_where_greedy_misses_and_no_cycle_refutes():
    # 28 vertices, p = 21 and optimum 21; the greedy cut crosses 14
    g = greedy_misses(7)
    assert len(cut_colors(g, greedy_half_colors(g))) == 14
    for k in (12, 14):  # above ceil(21/2): no early yes, but the greedy cut reaches k
        yes, cut = decide_max(g, k)
        assert yes and len(cut_colors(g, cut)) == 14
    for k in (15, 21):
        with pytest.raises(CapExceededError):
            decide_max(g, k)
    assert decide_max(g, 22) == (False, None)


def test_stage_answers_agree_with_the_search_under_a_low_cap(monkeypatch):
    # a search cap of 3 leaves the answers to the certificate stages; each is
    # checked against the optimum `brute_force_max` finds under the real cap
    rng = random.Random(42)
    corpus = [random_multigraph(rng, n_max=10, p_max=8, extra_max=6) for _ in range(400)]
    corpus += [greedy_misses(2), RAINBOW_C5, TWO_TRIANGLES]
    optima = [brute_force_max(g).value for g in corpus]
    monkeypatch.setattr("coloredcut.solve.BRUTE_FORCE_CAP", 3)
    stages = Counter()
    for g, opt in zip(corpus, optima):
        for k in range(1, g.p + 2):
            try:
                lower, witness, upper, stage = _staged(g, k)
            except CapExceededError:
                stages["refused"] += 1
                continue
            stages[stage] += 1
            assert lower <= opt <= upper
            if lower >= k:
                assert len(cut_colors(g, witness)) == lower
                assert decide_max(g, k) == (True, witness)
            else:
                assert opt < k and upper < k
                assert decide_max(g, k) == (False, None)
    assert set(stages) == {*_STAGES, "refused"}


def test_decide_max_no_from_the_bound_runs_no_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("searched")

    monkeypatch.setattr("coloredcut.solve._search", refuse)
    for g, k in ((RAINBOW_TRIANGLE, 3), (RAINBOW_C5, 5), (TWO_TRIANGLES, 5)):
        assert decide_max(g, k) == (False, None)


def test_decide_max_skips_a_packing_that_cannot_answer(monkeypatch):
    # a cycle takes three single-pair colors, so p - (their number) // 3 >= k
    # leaves the bound at k or above whatever the packing finds
    def refuse(*args):
        raise AssertionError("packed")

    monkeypatch.setattr("coloredcut.solve._odd_cycles", refuse)
    for g, k in ((RAINBOW_C5, 4), (TWO_TRIANGLES, 4), (RAINBOW_C4, 3)):
        yes, cut = decide_max(g, k)
        assert yes and len(cut_colors(g, cut)) >= k


# ------------------------------------------------------------ odd-cycle bound

def _packing(g: ColoredGraph) -> list[list[int]]:
    classes = _color_classes(g)
    return _odd_cycles(classes, [c for c, pairs in enumerate(classes, 1) if len(pairs) == 1])


def _ladder() -> ColoredGraph:
    """Vertex 1 with children 2 and 3, color 1 on (2, 3), a path of length 8
    below each of 2 and 3, and a rung joining each pair of equal-depth path
    vertices: 19 vertices and 27 single-pair colors.  The triangle takes the
    pairs (1, 2) and (1, 3); every rung closes an odd cycle through them, and
    the rungs' climbs outrun the budget of one step per pair."""
    left, right = [2, *range(4, 20, 2)], [3, *range(5, 20, 2)]
    pairs = [(2, 3), (1, 2), (1, 3)]
    pairs += [pair for path in (left, right) for pair in zip(path, path[1:])]
    pairs += zip(left[1:], right[1:])
    return ColoredGraph(19, [(u, v, c) for c, (u, v) in enumerate(pairs, 1)], len(pairs))


# C5 plus color 6 on two pairs
ODD_CYCLE_CASES = ColoredGraph(5, RAINBOW_C5.edges + ((1, 3, 6), (2, 4, 6)), 6)


@pytest.mark.parametrize(
    "g,count",
    [
        (RAINBOW_TRIANGLE, 1),
        (RAINBOW_C5, 1),
        (TWO_TRIANGLES, 2),
        (ColoredGraph(4, ((1, 2, 1), (2, 3, 2), (1, 3, 3), (1, 4, 3)), 3), 0),
        (RAINBOW_C4, 0),
        (ColoredGraph(2, ((1, 2, 1), (1, 2, 2)), 2), 0),
        (_ladder(), 1),
    ],
    ids=["triangle", "c5", "two-triangles", "two-pair-color", "c4", "one-pair-twice", "ladder"],
)
def test_odd_cycles_hand_cases(g, count):
    cycles = _packing(g)
    assert len(cycles) == count
    _check_odd_cycles(g, cycles)
    assert brute_force_max(g).value == g.p - count


@pytest.mark.parametrize(
    "cycles,message",
    [
        ([[1, 2, 3, 4, 5], [5]], "odd-cycle packing uses a color twice"),
        ([[1, 2, 6]], "odd-cycle color 6 has more than one endpoint pair"),
        ([[1, 2, 9]], "odd-cycle color 9 has no edge"),
        ([[1, 2, 3, 4]], "colors [1, 2, 3, 4] do not form an odd cycle"),
        ([[1, 2, 3]], "colors [1, 2, 3] do not form an odd cycle"),  # a path
    ],
)
def test_odd_cycle_check_names_the_fault(cycles, message):
    _check_odd_cycles(ODD_CYCLE_CASES, [[1, 2, 3, 4, 5]])
    with pytest.raises(InvariantError) as exc:
        _check_odd_cycles(ODD_CYCLE_CASES, cycles)
    assert str(exc.value) == message


@given(st.integers(min_value=2, max_value=8), st.data())
@settings(max_examples=80, deadline=None)
def test_property_odd_cycles_bound_the_optimum(n, data):
    # mostly single-pair colors, so the packing has cycles to find
    pair = st.tuples(
        st.integers(min_value=1, max_value=n), st.integers(min_value=1, max_value=n)
    ).filter(lambda uv: uv[0] != uv[1])
    pairs = data.draw(st.lists(pair, min_size=1, max_size=14))
    extra = data.draw(st.lists(st.tuples(pair, st.integers(1, len(pairs))), max_size=4))
    edges = [(u, v, c) for c, (u, v) in enumerate(pairs, 1)] + [(u, v, c) for (u, v), c in extra]
    g = ColoredGraph(n, edges, len(pairs))
    cycles = _packing(g)
    _check_odd_cycles(g, cycles)
    assert g.p - len(cycles) >= brute_force_max(g).value


def _packing_corpus() -> list[ColoredGraph]:
    """5,000 seeded `random_multigraph` draws with mostly single-pair colors,
    and 25 planted graphs like those of the max-cut benchmark: t = 14..18
    shuffled vertices, t // 5 rainbow triangles, and t - 4 free colors of 1,
    2, 3, 1, ... pairs whose first pair crosses a planted bipartition."""
    rng = random.Random(40)
    corpus = [random_multigraph(rng, n_max=10, p_max=12, extra_max=4) for _ in range(5000)]
    for t in (14, 15, 16, 17, 18):
        for _ in range(5):
            vertices = list(range(1, t + 1))
            rng.shuffle(vertices)
            s_side = set(vertices[: t // 2])
            classes = []
            for i in range(0, 3 * (t // 5), 3):
                a, b, c = vertices[i : i + 3]
                classes += [[(a, b)], [(b, c)], [(a, c)]]
            for i in range(t - 4):
                v = rng.choice(vertices)
                other = rng.choice([w for w in vertices if (w in s_side) != (v in s_side)])
                extra = [tuple(rng.sample(vertices, 2)) for _ in range(i % 3)]
                classes.append([(v, other), *extra])
            rng.shuffle(classes)
            edges = [(u, v, c) for c, pairs in enumerate(classes, 1) for u, v in pairs]
            corpus.append(ColoredGraph(t, edges, len(classes)))
    return corpus


def test_odd_cycle_packing_is_pinned():
    # sha256 prefix of every packing over a seeded corpus, so that a rewrite
    # of `_odd_cycles` shows it finds the same cycles in the same order
    packings = [_packing(g) for g in _packing_corpus()]
    assert sum(map(len, packings)) == 1724
    assert _digest(repr(cycles) for cycles in packings) == "59a6ad5f23fc17a1"


def test_odd_cycle_no_ignores_untouched_vertices_in_time_and_memory():
    # a rainbow triangle declared over 10^9 vertices, answered at k = 3 from
    # the odd-cycle bound by a child process whose address space is capped at
    # 2 GB: the packing costs O(m), not O(n)
    probe = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from coloredcut import ColoredGraph, decide_max\n"
        "print(decide_max(ColoredGraph(10**9, ((1, 2, 1), (2, 3, 2), (1, 3, 3)), 3), 3))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "(False, None)\n"


# ------------------------------------------------------------ solve_via_kernel


def test_solve_via_kernel_hand_cases():
    res = solve_via_kernel(RAINBOW_TRIANGLE)
    assert res.value == 2
    res = solve_via_kernel(RAINBOW_C5)
    assert res.value == 4


def test_solve_path_builds_no_reduced_graph(monkeypatch):
    def refuse(*args):
        raise AssertionError("reduced graph built")

    monkeypatch.setattr("coloredcut.kernel._build_reduced", refuse)
    # color 1 spans 7 pairs > 2*C(3,2) and is removed; 1 and 6 go with it
    g = ColoredGraph(
        7,
        ((1, 2, 1), (1, 3, 1), (1, 4, 1), (1, 5, 1), (1, 6, 1), (2, 3, 1), (2, 4, 1))
        + ((2, 3, 2), (4, 5, 3)),
        3,
    )
    res = solve_via_kernel(g)
    # searched: 2, 3, 4 and 5, with 2, the first vertex left, pinned to S
    assert (res.value, res.explored) == (3, 2 ** 3 - 1)
    assert len(cut_colors(g, res.witness)) == 3
    path = ColoredGraph(25, tuple((v, v + 1, v) for v in range(1, 25)), 24)
    with pytest.raises(CapExceededError):
        solve_via_kernel(path)
    # k = 4 > ceil(5/2) with no removal: no early yes, so the search answers
    yes, cut = decide_max(RAINBOW_C5, 4)
    assert yes and len(cut_colors(RAINBOW_C5, cut)) == 4
    assert decide_max(RAINBOW_C5, 5) == (False, None)


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


def test_solve_via_kernel_runs_no_certificate_stage(monkeypatch):
    # the exact value is the rule table plus the search and its repair: no
    # value kernel, odd-cycle packing or greedy cut is asked
    def refuse(*args):
        raise AssertionError("a certificate stage ran")

    for name in ("_value_kernel", "_odd_cycles", "_greedy_cut"):
        monkeypatch.setattr(f"coloredcut.solve.{name}", refuse)
    rng = random.Random(49)
    repaired = 0
    for _ in range(150):
        g = random_multigraph(rng, n_max=8, p_max=4)
        g = inflate_one_color(rng, g) or g
        repaired += bool(kernelize_colors(g).removed_colors)
        res = solve_via_kernel(g)
        assert res.value == brute_force_max(g).value == len(cut_colors(g, res.witness))
    assert repaired > 50


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
            alive = set(range(1, g.p + 1)).difference(out.removed_colors)
            kept = {x for u, v, c in g.edges if c in alive for x in (u, v)}
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
            if yes and kernelize_value(g, k).reduced_graph is not None:
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
