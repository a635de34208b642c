import random

import pytest
from hypothesis import given, settings, strategies as st

from coloredcut import (
    ColoredGraph,
    Cut,
    InvariantError,
    KernelOutcome,
    augment_cut,
    claim1_bound,
    cut_colors,
    kernelize_colors,
    kernelize_value,
)
from coloredcut.kernel import _value_kernel
from helpers import (
    distinct_pairs,
    inflate_one_color,
    oracle_augment_cut,
    oracle_max_cut_colors,
    oracle_reduced_graph,
    oracle_removal_order,
    random_multigraph,
)

RAINBOW_TRIANGLE = ColoredGraph(3, ((1, 2, 1), (2, 3, 2), (1, 3, 3)), 3)


@pytest.mark.parametrize(
    "beta,bound", [(0, 0), (1, 0), (2, 2), (3, 6), (4, 12), (7, 42)]
)
def test_removal_threshold(beta, bound):
    assert claim1_bound(beta) == bound


def test_rule_find_none_when_all_small():
    assert kernelize_colors(RAINBOW_TRIANGLE).removed_colors[:1] == ()


def test_rule_find_smallest_dense_color():
    # p=2, threshold 2: color 2 sits on three distinct pairs
    g = ColoredGraph(4, ((1, 2, 1), (1, 3, 2), (1, 4, 2), (2, 3, 2)), 2)
    assert kernelize_colors(g).removed_colors[:1] == (2,)


def test_rule_find_ignores_parallel_duplicates():
    # three edges but only one distinct pair: not dense
    g = ColoredGraph(4, ((1, 2, 1), (1, 2, 1), (2, 1, 1), (3, 4, 2)), 2)
    assert kernelize_colors(g).removed_colors[:1] == ()


def test_kernelize_colors_leaves_sparse_graph_alone():
    out = kernelize_colors(RAINBOW_TRIANGLE)
    assert out.removed_colors == ()
    assert out.reduced_graph == RAINBOW_TRIANGLE


def test_kernelize_colors_single_color_star():
    # p=1 means threshold 0: any edge at all is too much
    g = ColoredGraph(4, ((1, 2, 1), (1, 3, 1), (1, 4, 1)), 1)
    out = kernelize_colors(g)
    assert out.removed_colors == (1,)
    assert out.reduced_graph.p == 0
    assert out.reduced_graph.n == 0  # everything became isolated and was dropped


def test_kernelize_drops_only_newly_isolated_vertices():
    # vertex 7 is isolated from the start and must survive; vertices 1 and 6
    # only touch the removed color and must go.  p=3 so the two sparse colors
    # stay under the recomputed threshold and no cascade happens.
    g = ColoredGraph(
        7,
        (
            (1, 2, 1),
            (1, 3, 1),
            (1, 4, 1),
            (1, 5, 1),
            (1, 6, 1),
            (2, 3, 1),
            (2, 4, 1),
            (2, 3, 2),
            (4, 5, 3),
        ),
        3,
    )
    assert len(distinct_pairs(g, 1)) == 7 > claim1_bound(3)
    out = kernelize_colors(g)
    assert out.removed_colors == (1,)
    red = out.reduced_graph
    # 2, 3, 4, 5 are renamed 1..4 and the always-isolated 7 survives as 5;
    # the surviving colors 2 and 3 keep their order as 1 and 2
    assert red.n == 5
    assert red.edges == ((1, 2, 1), (3, 4, 2))


def test_kernelize_two_color_graph_cascades_to_empty():
    # after the dense color goes, the threshold for p=1 is zero, so the
    # remaining color is swept up too
    g = ColoredGraph(
        5, ((1, 2, 1), (1, 3, 1), (1, 4, 1), (2, 3, 1), (2, 4, 1), (2, 3, 2)), 2
    )
    out = kernelize_colors(g)
    assert out.removed_colors == (1, 2)
    assert out.reduced_graph.p == 0
    # vertex 5 never touched an edge, so it is the lone survivor
    assert out.reduced_graph == ColoredGraph(1, (), 0)


def test_kernelize_colors_cascade():
    rng = random.Random(4)
    g = random_multigraph(rng, n_max=9, p_max=3)
    g = inflate_one_color(rng, g)
    assert g is not None
    out = kernelize_colors(g)
    # soundness: optimum splits exactly into reduced optimum plus removals
    red_opt = (
        oracle_max_cut_colors(out.reduced_graph) if out.reduced_graph.n >= 2 else 0
    )
    assert oracle_max_cut_colors(g) == red_opt + len(out.removed_colors)


def test_kernel_matches_the_per_round_rule_loop():
    # 0-3 inflated colors make cascades; duplicates and never-touched
    # vertices come from the random base graph
    rng = random.Random(41)
    inflated_counts = set()
    for _ in range(320):
        g = random_multigraph(rng, n_max=10, p_max=3)
        inflated = 0
        for _ in range(rng.randint(0, 3)):
            grown = inflate_one_color(rng, g)
            if grown is not None:
                g, inflated = grown, inflated + 1
        inflated_counts.add(inflated)
        verdict, removed, _ = oracle_removal_order(g)
        out = kernelize_colors(g)
        assert ("reduced", list(out.removed_colors)) == (verdict, removed)
        assert out.reduced_graph == oracle_reduced_graph(g, removed)
        for k in range(1, g.p + 2):
            verdict, removed, k_left = oracle_removal_order(g, k)
            out = kernelize_value(g, k)
            early = "early_yes" if out.reduced_graph is None else "reduced"
            removed_now = list(out.removed_colors)
            assert (early, removed_now, k - len(removed_now)) == (verdict, removed, k_left)
            if verdict == "reduced":
                assert out.reduced_graph == oracle_reduced_graph(g, removed)
    assert inflated_counts == {0, 1, 2, 3}


def test_kernelize_value_requires_positive_k():
    with pytest.raises(ValueError):
        kernelize_value(RAINBOW_TRIANGLE, 0)


def test_kernelize_value_early_yes_at_half():
    out = kernelize_value(RAINBOW_TRIANGLE, 2)  # 2k = 4 = p + 1
    assert out == KernelOutcome(None, ())  # k' = 2 - 0 = 2


def test_kernelize_value_no_early_yes_above_half():
    out = kernelize_value(RAINBOW_TRIANGLE, 3)
    assert out.removed_colors == ()  # k' = 3 - 0 = 3
    assert out.reduced_graph == RAINBOW_TRIANGLE


def test_kernelize_value_answers_up_to_half_without_the_color_table(monkeypatch):
    # an early yes with no removal needs no pair counts, so every k up to
    # ceil(p/2) must return before the color-class table is built
    import coloredcut.kernel as kernel

    def no_table(g):
        raise AssertionError("color-class table built")

    monkeypatch.setattr(kernel, "_color_classes", no_table)
    for p in range(1, 8):
        g = ColoredGraph(p + 1, tuple((v, v + 1, v) for v in range(1, p + 1)), p)
        half = (p + 1) // 2
        for k in range(1, half + 1):
            assert kernelize_value(g, k) == KernelOutcome(None, ())
        with pytest.raises(AssertionError, match="color-class table"):
            kernelize_value(g, half + 1)


def test_kernelize_value_k_reaches_zero_mid_run():
    # two dense colors, k=4: each removal decrements k and p.  The threshold
    # 2k' <= p'+1 fails at (k', p') = (4, 5) and (3, 4) and first holds after
    # both removals, at (2, 3), so the early yes comes with k' = 2.
    rng = random.Random(9)
    base = ColoredGraph(8, ((1, 2, 1), (3, 4, 2), (5, 6, 3)), 3)
    g = inflate_one_color(rng, base)
    g = inflate_one_color(rng, g)
    assert g is not None and g.p == 5
    out = kernelize_value(g, 4)
    assert out.reduced_graph is None
    assert len(out.removed_colors) == 2  # k' = 4 - 2 = 2


def test_kernel_size_bound_holds_after_reduction():
    rng = random.Random(14)
    for _ in range(120):
        g = random_multigraph(rng, n_max=10, p_max=5)
        maybe = inflate_one_color(rng, g)
        if maybe is not None and rng.random() < 0.7:
            g = maybe
        red = kernelize_colors(g).reduced_graph
        bound = claim1_bound(red.p)
        for c in range(1, red.p + 1):
            assert len(distinct_pairs(red, c)) <= bound


def test_renamings_are_dense_and_order_preserving():
    rng = random.Random(21)
    for _ in range(60):
        g = inflate_one_color(rng, random_multigraph(rng, n_max=10, p_max=3))
        if g is None:
            continue
        out = kernelize_colors(g)
        if not out.removed_colors:
            continue
        alive = [c for c in range(1, g.p + 1) if c not in out.removed_colors]
        kept = {x for u, v, c in g.edges if c in alive for x in (u, v)}
        touched = {x for u, v, _ in g.edges for x in (u, v)}
        # a vertex survives if a kept color touches it or no edge does, and
        # the survivors keep their order: the i-th becomes vertex i
        survivors = [v for v in range(1, g.n + 1) if v in kept or v not in touched]
        assert out.reduced_graph.n == len(survivors)
        # reduced color c is the c-th surviving color: mapped back, the
        # reduced edges are the first copies of the kept edges, in edge order
        assert len(alive) == out.reduced_graph.p
        lifted = [
            (survivors[u - 1], survivors[v - 1], alive[c - 1])
            for u, v, c in out.reduced_graph.edges
        ]
        firsts = {}
        for u, v, c in g.edges:
            if c in alive:
                firsts.setdefault((min(u, v), max(u, v), c), (u, v, c))
        assert lifted == list(firsts.values())


def test_augment_cut_restores_removed_colors():
    rng = random.Random(33)
    done = 0
    while done < 40:
        g = inflate_one_color(rng, random_multigraph(rng, n_max=9, p_max=3))
        if g is None:
            continue
        out = kernelize_colors(g)
        if not out.removed_colors:
            continue
        done += 1
        # start from an arbitrary cut and demand one more color per removal
        base = Cut(g.n, frozenset({1}))
        surviving = cut_colors(g, base) - set(out.removed_colors)
        repaired = augment_cut(g, out.removed_colors, base)
        crossing = cut_colors(g, repaired)
        assert set(out.removed_colors) <= crossing
        assert surviving <= crossing
        assert len(crossing) >= len(surviving) + len(out.removed_colors)


def test_augment_cut_flips_the_first_free_endpoint():
    # removal order (1, 2); color 2 is reinstated first: its edge (2,3) lies
    # on T, so vertex 2 (u before v) moves to S, and color 1 then crosses on
    # (1,2) without another flip
    g = ColoredGraph(
        5, ((1, 2, 1), (1, 3, 1), (1, 4, 1), (2, 3, 1), (2, 4, 1), (2, 3, 2)), 2
    )
    assert kernelize_colors(g).removed_colors == (1, 2)
    assert augment_cut(g, (1, 2), Cut(5, frozenset({5}))) == Cut(5, frozenset({2, 5}))
    # color 1 crosses on (1,2) and on (3,4); its witness is the first of them,
    # so vertex 1 is kept and color 2 is restored by flipping 5, not 1
    g = ColoredGraph(
        6, ((1, 2, 1), (3, 4, 1), (1, 5, 2), (2, 4, 2), (2, 6, 2), (4, 6, 2)), 2
    )
    assert kernelize_colors(g).removed_colors == (2, 1)
    cut = Cut(6, frozenset({1, 3, 5}))
    assert augment_cut(g, (2, 1), cut) == Cut(6, frozenset({1, 3}))
    # the rule removes nothing here: on T, color 2's only edge joins the
    # endpoints of the witness edges of colors 1 and 3, so no flip is free
    g = ColoredGraph(3, ((1, 3, 1), (2, 3, 3), (1, 2, 2)), 3)
    assert kernelize_colors(g).removed_colors == ()
    with pytest.raises(InvariantError, match="color 2 cannot be restored"):
        augment_cut(g, (2,), Cut(3, frozenset({3})))


def repair_outcome(repair, g, removed, cut):
    """What `repair` makes of the cut: the repaired `Cut`, or the message of
    the `InvariantError` it raises."""
    try:
        return repair(g, removed, cut)
    except InvariantError as exc:
        return f"InvariantError: {exc}"


def assert_repairs_as_the_oracle(g, removed, cut):
    """Check `augment_cut` against the oracle and return their outcome."""
    expected = repair_outcome(oracle_augment_cut, g, removed, cut)
    assert repair_outcome(augment_cut, g, removed, cut) == expected
    return expected


def random_cut(rng, n):
    return Cut(n, rng.sample(range(1, n + 1), rng.randint(1, n - 1)))


def test_augment_cut_repairs_as_the_oracle_under_the_rule_orders():
    # the full removal order, and every prefix that `_value_kernel` answers
    # an early yes with, on random multigraphs (half with one dense color
    # added) and on graphs whose i-th edge has color i % p + 1, from a
    # random cut and from one that leaves the first restored color on T
    rng = random.Random(3)
    flipped = 0
    for draw in range(1_200):
        if draw % 2:
            n, p = rng.randint(3, 12), rng.randint(1, 6)
            edges = ((*rng.sample(range(1, n + 1), 2), i % p + 1) for i in range(rng.randint(p, 60)))
            g = ColoredGraph(n, tuple(edges), p)
        else:
            g = random_multigraph(rng, n_max=12, p_max=6, extra_max=40)
            if rng.random() < 0.5:
                g = inflate_one_color(rng, g) or g
        orders = {kernelize_colors(g).removed_colors}
        for k in range(1, g.p + 1):
            _, removed, early = _value_kernel(g, k)
            if early:
                orders.add(tuple(removed))
        for removed in orders:
            cuts = [random_cut(rng, g.n)]
            if removed:
                last = {x for u, v, c in g.edges if c == removed[-1] for x in (u, v)}
                if len(last) < g.n:
                    cuts.append(Cut(g.n, set(range(1, g.n + 1)) - last))
            for cut in cuts:
                flipped += assert_repairs_as_the_oracle(g, removed, cut) != cut
    assert flipped > 300


@pytest.mark.parametrize("p", [10, 20])
def test_augment_cut_repairs_as_the_oracle_on_dense_graphs(p):
    rng = random.Random(7)
    n = 2_000
    edges = tuple((*rng.sample(range(1, n + 1), 2), i % p + 1) for i in range(20_000))
    g = ColoredGraph(n, edges, p)
    removed = kernelize_colors(g).removed_colors
    assert len(removed) == p
    assert assert_repairs_as_the_oracle(g, removed, Cut(n, {1})) != Cut(n, {1})
    assert_repairs_as_the_oracle(g, removed, Cut(n, {n}))


class CountingEdges(tuple):
    """An edge tuple that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_augment_cut_reads_the_edges_once():
    # colors 1, 2 and 3 each span a K_5 of their own and all lie on T, so
    # each of the three restores flips a vertex
    groups = ((1, 2, 3, 4, 5), (6, 7, 8, 9, 10), (11, 12, 13, 14, 15))
    plain = tuple(
        (u, v, c) for c, group in enumerate(groups, 1) for u in group for v in group if u < v
    )
    counted = CountingEdges(plain)
    g = ColoredGraph._trusted(16, counted, 3)
    removed = kernelize_colors(ColoredGraph(16, plain, 3)).removed_colors
    assert removed == (1, 2, 3)
    assert augment_cut(g, removed, Cut(16, {16})) == Cut(16, {1, 6, 11, 16})
    assert counted.passes == 1


@st.composite
def multigraphs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    p = draw(st.integers(min_value=1, max_value=4))
    pair = st.tuples(
        st.integers(min_value=1, max_value=n), st.integers(min_value=1, max_value=n)
    ).filter(lambda uv: uv[0] != uv[1])
    base = [(u, v, c) for c, (u, v) in enumerate(draw(st.lists(pair, min_size=p, max_size=p)), 1)]
    extra = draw(st.lists(st.tuples(pair, st.integers(min_value=1, max_value=p)), max_size=14))
    return ColoredGraph(n, tuple(base + [(u, v, c) for (u, v), c in extra]), p)


@settings(max_examples=80)
@given(multigraphs())
def test_kernelize_colors_soundness_property(g):
    out = kernelize_colors(g)
    red = out.reduced_graph
    red_opt = oracle_max_cut_colors(red) if red.n >= 2 else 0
    assert oracle_max_cut_colors(g) == red_opt + len(out.removed_colors)


@settings(max_examples=80)
@given(multigraphs(), st.integers(min_value=1, max_value=4))
def test_kernelize_value_consistent_with_colors_route(g, k):
    k = min(k, g.p) if g.p else 1
    out = kernelize_value(g, k)
    if out.reduced_graph is None:
        # the early answer promises a cut with k colors exists
        assert oracle_max_cut_colors(g) >= k
    else:
        red_opt = (
            oracle_max_cut_colors(out.reduced_graph)
            if out.reduced_graph.n >= 2
            else 0
        )
        assert (oracle_max_cut_colors(g) >= k) == (red_opt >= k - len(out.removed_colors))


@settings(max_examples=200, deadline=None)
@given(multigraphs(), st.data())
def test_augment_cut_repairs_as_the_oracle_property(g, data):
    # any color sequence, repeats allowed, from any nontrivial cut
    colors = st.integers(min_value=1, max_value=g.p)
    removed = tuple(data.draw(st.lists(colors, max_size=2 * g.p)))
    s_side = data.draw(
        st.sets(st.integers(min_value=1, max_value=g.n), min_size=1, max_size=g.n - 1)
    )
    assert_repairs_as_the_oracle(g, removed, Cut(g.n, s_side))
