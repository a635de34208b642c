import hashlib
import math
import random
from collections import Counter
from itertools import combinations

import pytest

from coloredcut import (
    CnfFormula,
    ColoredGraph,
    Cut,
    FormatError,
    ReductionArtifact,
    ReductionKind,
    assignment_to_cut,
    brute_force_max,
    colorful_cut_decide,
    cut_to_assignment,
    embed_complete,
    embed_complete_artifact,
    is_colorful,
    make_k4mf_connected,
    make_oct_one,
    multigraph_to_simple,
    nae_satisfies,
    nae_to_cliques,
    parse_provenance,
    sat_to_multigraph,
    satisfies,
    serialize_graph,
    serialize_provenance,
    strip_single_polarity,
    verify_structural,
)
from coloredcut.reductions import _GENERATORS, CheckItem, _check_complete

from helpers import (
    all_3var_formulas,
    oracle_has_k4_minor,
    oracle_nae,
    oracle_sat,
    random_3cnf,
    random_multigraph,
    random_simple_graph,
    traced,
)

# three clauses, every variable in both polarities, satisfied by all-true
DEMO = CnfFormula(3, ((1, -2, -3), (-1, 2, 3), (-1, -2, 3)))

# not-all-equal demo: NAE-satisfied by u1=false, u2=u3=true
NAE_DEMO = CnfFormula(3, ((1, 2, -3), (-1, -2, -3), (-1, 2, -3)))

# all eight sign patterns over three variables: plain-unsat and NAE-unsat
UNSAT8 = CnfFormula(
    3,
    tuple(
        (s1 * 1, s2 * 2, s3 * 3) for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)
    ),
)

# complement-closed quadruple: NAE-unsatisfiable with only four clauses
NAE_UNSAT4 = CnfFormula(3, ((1, 2, 3), (-1, -2, 3), (1, -2, -3), (-1, 2, -3)))

ALL_TRUE = {1: True, 2: True, 3: True}


def surviving(formulas):
    for f in formulas:
        kept, _, _ = strip_single_polarity(f)
        if kept:
            yield f


# -------------------------------------------------------------- preprocessing


def test_strip_keeps_dual_polarity_formula():
    kept, removed, forced = strip_single_polarity(DEMO)
    assert kept == (0, 1, 2)
    assert removed == ()
    assert forced == {}


def test_strip_removes_and_forces():
    f = CnfFormula(4, ((4, 1, -2), (1, 2, -3), (-1, 2, 3), (-1, -2, 3)))
    kept, removed, forced = strip_single_polarity(f)
    assert kept == (1, 2, 3)
    assert removed == (0,)
    assert forced == {4: True}


def test_strip_cascades_to_empty():
    # removing the clause with the one-sided variable 4 strands variable 1
    # as positive-only, which then sweeps away the rest
    f = CnfFormula(4, ((4, -1, 2), (1, 2, 3), (1, -2, -3)))
    kept, removed, forced = strip_single_polarity(f)
    assert kept == ()
    assert removed == (0, 1, 2)
    assert forced[4] is True and forced[1] is True


def test_strip_forced_values_satisfy_removed_clauses():
    rng = random.Random(31)
    for _ in range(150):
        f = random_3cnf(rng, rng.randint(3, 5), rng.randint(1, 7))
        kept, removed, forced = strip_single_polarity(f)
        assert sorted(kept) + sorted(removed) != [] or not f.clauses
        assert set(kept) | set(removed) == set(range(len(f.clauses)))
        for j in removed:
            assert any(
                abs(lit) in forced and forced[abs(lit)] == (lit > 0)
                for lit in f.clauses[j]
            )


# --------------------------------------------------------- clause multigraphs


def test_multigraph_demo_shape():
    a = sat_to_multigraph(DEMO)
    g = a.graph
    assert (g.n, g.m, g.p) == (9, 12, 6)
    assert a.kind is ReductionKind.PLANAR_MULTI
    assert a.active_clauses == (0, 1, 2)
    # pair colors in ascending (variable, positive occ, negative occ) order
    assert a.color_meaning == {
        1: ("pair", 1, 1, 1),
        2: ("pair", 1, 1, 2),
        3: ("pair", 2, 1, 1),
        4: ("pair", 2, 1, 2),
        5: ("pair", 3, 1, 1),
        6: ("pair", 3, 2, 1),
    }
    assert a.vertex_meaning[1] == ("corner", 1, 1)
    assert a.vertex_meaning[9] == ("corner", 3, 3)
    report = verify_structural(a)
    assert report.all_passed
    assert [item.name for item in report.items] == ["color-class-size-2"]


def test_multigraph_demo_occurrence_profile():
    a = sat_to_multigraph(DEMO)
    # x1 has 1 positive and 2 negative occurrences, x2 likewise, x3 swapped
    keys = set(a.literal_edge_map)
    assert keys == {
        (1, 1, True), (1, 1, False), (1, 2, False),
        (2, 1, True), (2, 1, False), (2, 2, False),
        (3, 1, True), (3, 2, True), (3, 1, False),
    }
    # a positive slot carries one parallel edge per negative occurrence
    assert len(a.literal_edge_map[(1, 1, True)]) == 2
    assert len(a.literal_edge_map[(3, 1, False)]) == 2
    assert len(a.literal_edge_map[(3, 1, True)]) == 1
    # every edge is owned by exactly one literal occurrence
    owned = sorted(e for idxs in a.literal_edge_map.values() for e in idxs)
    assert owned == list(range(a.graph.m))


def test_multigraph_rejects_bad_arity():
    with pytest.raises(ValueError):
        sat_to_multigraph(CnfFormula(2, ((1, -2),)))


def test_multigraph_rejects_empty_after_preprocessing():
    with pytest.raises(ValueError):
        sat_to_multigraph(CnfFormula(3, ((1, 2, 3),)))
    with pytest.raises(ValueError):
        sat_to_multigraph(CnfFormula(4, ((4, -1, 2), (1, 2, 3), (1, -2, -3))))


def test_multigraph_repeated_variable_clause_survives():
    # (x or not-x or x) keeps itself alive through preprocessing
    a = sat_to_multigraph(CnfFormula(1, ((1, -1, 1),)))
    assert (a.graph.n, a.graph.m, a.graph.p) == (3, 4, 2)
    assert verify_structural(a).all_passed


def test_multigraph_unsat_formula_has_no_colorful_cut():
    a = sat_to_multigraph(UNSAT8)
    assert (a.graph.n, a.graph.p) == (24, 48)
    assert colorful_cut_decide(a.graph) is None


# ---------------------------------------------------------------- witnesses


def test_assignment_to_cut_demo_tie_break():
    a = sat_to_multigraph(DEMO)
    cut = assignment_to_cut(a, ALL_TRUE)
    # first true literal per clause: slot 1, slot 2, slot 3
    assert cut.s_side == frozenset({1, 2, 5, 6, 7, 9})
    assert is_colorful(a.graph, cut)


def test_cut_to_assignment_demo_roundtrip():
    a = sat_to_multigraph(DEMO)
    cut = assignment_to_cut(a, ALL_TRUE)
    assert cut_to_assignment(a, cut) == ALL_TRUE


def test_assignment_to_cut_rejects_non_satisfying():
    a = sat_to_multigraph(DEMO)
    with pytest.raises(ValueError):
        assignment_to_cut(a, {1: False, 2: True, 3: True})  # falsifies clause 1


def test_cut_to_assignment_rejects_non_colorful():
    a = sat_to_multigraph(DEMO)
    with pytest.raises(ValueError):
        cut_to_assignment(a, Cut(9, frozenset({1})))


def test_witness_translation_rejects_unsupported_kinds():
    simple = multigraph_to_simple(sat_to_multigraph(DEMO))
    with pytest.raises(ValueError):
        assignment_to_cut(simple, ALL_TRUE)
    with pytest.raises(ValueError):
        cut_to_assignment(simple, Cut(simple.graph.n, frozenset({1})))


def test_every_colorful_cut_of_demo_extracts_a_model():
    a = sat_to_multigraph(DEMO)
    g = a.graph
    found = 0
    for size in range(1, g.n):
        for s in combinations(range(1, g.n + 1), size):
            cut = Cut(g.n, frozenset(s))
            if not is_colorful(g, cut):
                continue
            found += 1
            assert satisfies(DEMO, cut_to_assignment(a, cut))
    assert found > 0


# ------------------------------------------------------------- simple graphs


def test_simple_demo_shape():
    a = sat_to_multigraph(DEMO)
    b = multigraph_to_simple(a)
    assert b.kind is ReductionKind.PLANAR_SIMPLE
    g, h = a.graph, b.graph
    assert (h.n, h.m, h.p) == (g.n + 2 * g.m, 3 * g.m, g.p + 2 * g.m)
    report = verify_structural(b)
    assert report.all_passed
    assert [item.name for item in report.items] == ["simple", "color-class-size-le-2"]


def test_simple_preserves_original_degrees():
    a = sat_to_multigraph(DEMO)
    b = multigraph_to_simple(a)

    def degrees(g):
        deg = {}
        for u, v, _ in g.edges:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        return deg

    da, db = degrees(a.graph), degrees(b.graph)
    for v in range(1, a.graph.n + 1):
        assert da.get(v, 0) == db.get(v, 0)


def test_simple_literal_map_points_at_middle_edges():
    a = sat_to_multigraph(DEMO)
    b = multigraph_to_simple(a)
    for key, old_indices in a.literal_edge_map.items():
        new_indices = b.literal_edge_map[key]
        assert len(new_indices) == len(old_indices)
        for old_e, new_e in zip(old_indices, new_indices):
            assert b.graph.edges[new_e][2] == a.graph.edges[old_e][2]


def test_simple_parallel_pair_expands_to_two_paths():
    seed = ReductionArtifact(
        ColoredGraph(2, ((1, 2, 1), (1, 2, 2)), 2),
        ReductionKind.PLANAR_MULTI,
        None,
    )
    out = multigraph_to_simple(seed)
    g = out.graph
    assert (g.n, g.m, g.p) == (6, 6, 6)
    assert verify_structural(out).all_passed
    # original colors survive on the two middle edges
    assert sorted(c for _, _, c in g.edges if c <= 2) == [1, 2]


def test_simple_rejects_wrong_kind():
    with pytest.raises(ValueError):
        multigraph_to_simple(nae_to_cliques(NAE_DEMO))


# ------------------------------------------------- degree-3 K4-minor-free form


def test_k4mf_demo_structure():
    b = multigraph_to_simple(sat_to_multigraph(DEMO))
    c = make_k4mf_connected(b)
    assert c.kind is ReductionKind.K4MF
    report = verify_structural(c)
    assert report.all_passed, [i for i in report.items if not i.passed]
    assert [item.name for item in report.items] == [
        "connected",
        "max-degree-3",
        "color-class-size-le-2",
        "simple",
        "series-parallel",
    ]
    tags = {meaning[0] for meaning in c.vertex_meaning.values()}
    assert "tree" in tags and "subdiv" in tags
    # demo instance is satisfiable, so the rebuilt graph stays colorful
    assert colorful_cut_decide(c.graph) is not None


def test_k4mf_single_clause_tree_is_one_vertex():
    a = sat_to_multigraph(CnfFormula(1, ((1, -1, 1),)))
    c = make_k4mf_connected(multigraph_to_simple(a))
    assert verify_structural(c).all_passed
    tree_nodes = [v for v, m in c.vertex_meaning.items() if m[0] == "tree"]
    assert len(tree_nodes) == 1
    assert colorful_cut_decide(c.graph) is not None


def test_k4mf_literal_map_keeps_pair_colors():
    b = multigraph_to_simple(sat_to_multigraph(DEMO))
    c = make_k4mf_connected(b)
    for key, indices in b.literal_edge_map.items():
        for old_e, new_e in zip(indices, c.literal_edge_map[key]):
            assert c.graph.edges[new_e][2] == b.graph.edges[old_e][2]


# six clauses over four variables with slot multiplicities up to three;
# an earlier repair layout produced a K4 minor on exactly this formula
K4MF_HEAVY = CnfFormula(
    4,
    (
        (3, 1, 4),
        (-4, -2, 3),
        (-1, 2, -3),
        (2, -3, 4),
        (2, -4, -3),
        (-4, -2, -1),
    ),
)

# see test_k4mf_tree_leaf_attaches_to_first_corner_of_maximum_degree
K4MF_TIE = CnfFormula(3, ((1, 2, 2), (-1, -2, -2), (3, -3, 3)))


def test_k4mf_heavy_multiplicity_regression():
    c = make_k4mf_connected(multigraph_to_simple(sat_to_multigraph(K4MF_HEAVY)))
    report = verify_structural(c)
    assert report.all_passed, [i for i in report.items if not i.passed]
    assert oracle_sat(K4MF_HEAVY) is not None
    assert colorful_cut_decide(c.graph) is not None


def test_k4mf_tree_leaf_attaches_to_first_corner_of_maximum_degree():
    # A corner's degree is the summed multiplicity of its two slots, and a
    # slot's multiplicity is the number of opposite-polarity occurrences of
    # its variable.  Clauses 1 and 2 give corner degrees 3, 3, 4; clause 3
    # gives 2, 3, 3, a tie that the lower corner wins.
    c = make_k4mf_connected(multigraph_to_simple(sat_to_multigraph(K4MF_TIE)))
    assert verify_structural(c).all_passed
    # heap order: tree nodes 3, 4, 5 are the leaves of clauses 1, 2, 3
    leaves = {
        v for v, meaning in c.vertex_meaning.items() if meaning[0] == "tree" and meaning[1] >= 3
    }
    attached = sorted(
        (c.vertex_meaning[x], c.vertex_meaning[y])
        for u, v, _ in c.graph.edges
        for x, y in ((u, v), (v, u))
        if x in leaves and c.vertex_meaning[y][0] != "tree"
    )
    # each attachment corner now has degree four, so it is split into a
    # path and the tree edge sits on the path's second vertex
    assert attached == [
        (("tree", 3), ("subdiv", "corner", 1, 3, 2)),
        (("tree", 4), ("subdiv", "corner", 2, 3, 2)),
        (("tree", 5), ("subdiv", "corner", 3, 2, 2)),
    ]


def test_k4mf_random_structure_and_sat_direction():
    rng = random.Random(47)
    done = 0
    while done < 25:
        f = random_3cnf(rng, 4, rng.randint(2, 7))
        kept, _, _ = strip_single_polarity(f)
        if not kept:
            continue
        done += 1
        c = make_k4mf_connected(multigraph_to_simple(sat_to_multigraph(f)))
        report = verify_structural(c)
        assert report.all_passed, (f, [i for i in report.items if not i.passed])
        if oracle_sat(f) is not None:
            assert colorful_cut_decide(c.graph) is not None


R16 = random_3cnf(random.Random(16), 20, 40)
R17 = random_3cnf(random.Random(17), 6, 10)


@pytest.mark.parametrize(
    "kind,f,shape,digest",
    [
        ("k4mf", DEMO, (42, 47, 41), "b6e5b4c1f8a3a1ac"),
        ("k4mf", K4MF_HEAVY, (163, 190, 170), "4be5e6dda6aaa020"),
        ("k4mf", K4MF_TIE, (48, 55, 48), "945e8df7c7aa111f"),
        ("k4mf", R16, (1058, 1227, 1111), "ecadf6cc15eb05c1"),
        ("planar-multi", DEMO, (9, 12, 6), "8fb05c166f2a6ab0"),
        ("planar-multi", R16, (93, 232, 116), "7ba41ff8171435d9"),
        ("planar-simple", DEMO, (33, 36, 30), "4f3075a705c4208c"),
        ("planar-simple", R16, (557, 696, 580), "d0f970b2a8a0b72b"),
        ("oct1", DEMO, (7, 12, 6), "5bb9f7b98a0f02d8"),
        ("oct1", R16, (63, 232, 116), "a1c9735f9b12afc3"),
        ("complete", DEMO, (34, 561, 31), "94b68375e1e7bc3a"),
        ("complete", R17, (183, 16653, 191), "e241ce9313246e2b"),
        ("nae", NAE_DEMO, (15, 20, 14), "eeca1234a00504b8"),
        ("nae", R16, (158, 257, 177), "65d481bc6b051296"),
    ],
    ids=[
        "k4mf-demo",
        "k4mf-heavy",
        "k4mf-tie",
        "k4mf-random-20-40",
        "planar-multi-demo",
        "planar-multi-random-20-40",
        "planar-simple-demo",
        "planar-simple-random-20-40",
        "oct1-demo",
        "oct1-random-20-40",
        "complete-demo",
        "complete-random-6-10",
        "nae-demo",
        "nae-random-20-40",
    ],
)
def test_construction_output_is_pinned(kind, f, shape, digest):
    # the structural tests accept many layouts; these pins hold the exact
    # vertex numbering, edge order, colors and provenance that `generate` writes
    c = _GENERATORS[ReductionKind(kind)](f)
    assert (c.graph.n, c.graph.m, c.graph.p) == shape
    text = serialize_graph(c.graph) + serialize_provenance(c)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_k4mf_rejects_wrong_kind():
    with pytest.raises(ValueError):
        make_k4mf_connected(sat_to_multigraph(DEMO))


# ------------------------------------------------------------- one-apex form


def test_oct_one_demo_shape():
    a = sat_to_multigraph(DEMO)
    o = make_oct_one(a)
    assert o.kind is ReductionKind.OCT_ONE
    assert o.graph.n == 7  # three corners merged into one apex
    assert o.graph.p == a.graph.p
    assert o.vertex_meaning[1] == ("apex",)
    assert o.graph.edges == (
        (1, 2, 1),
        (1, 2, 2),
        (2, 3, 3),
        (3, 1, 5),
        (3, 1, 6),
        (1, 4, 1),
        (4, 5, 3),
        (4, 5, 4),
        (5, 1, 5),
        (1, 6, 2),
        (6, 7, 4),
        (7, 1, 6),
    )
    report = verify_structural(o)
    assert report.all_passed
    assert [item.name for item in report.items] == [
        "color-class-size-2",
        "apex-removal-bipartite",
    ]


def test_oct_one_unsat_formula_misses_a_color():
    o = make_oct_one(sat_to_multigraph(UNSAT8))
    assert verify_structural(o).all_passed
    res = brute_force_max(o.graph)
    assert res.value == o.graph.p - 1  # one color always stays inside a part


def test_oct_one_rejects_wrong_kind():
    with pytest.raises(ValueError):
        make_oct_one(multigraph_to_simple(sat_to_multigraph(DEMO)))


# ------------------------------------------------------------- complete form


def test_embed_complete_triangle_becomes_k4():
    tri = ColoredGraph(3, ((1, 2, 1), (2, 3, 2), (1, 3, 3)), 3)
    k4 = embed_complete(tri)
    assert (k4.n, k4.m, k4.p) == (4, 6, 4)
    assert sorted(e for e in k4.edges if e[2] == 4) == [(1, 4, 4), (2, 4, 4), (3, 4, 4)]
    assert colorful_cut_decide(k4) is None  # triangle was not colorful


def test_embed_complete_c4_stays_colorful():
    c4 = ColoredGraph(4, ((1, 2, 1), (2, 3, 2), (3, 4, 3), (4, 1, 4)), 4)
    k5 = embed_complete(c4)
    assert (k5.n, k5.m, k5.p) == (5, 10, 5)
    assert colorful_cut_decide(k5) is not None


def test_embed_complete_output_is_complete():
    rng = random.Random(53)
    for _ in range(40):
        g = random_simple_graph(rng, n_max=7, p_max=4)
        k = embed_complete(g)
        assert k.m == math.comb(k.n, 2)
        assert len({frozenset((u, v)) for u, v, _ in k.edges}) == k.m


def test_embed_complete_rejections():
    with pytest.raises(ValueError):
        embed_complete(ColoredGraph(2, ((1, 2, 1), (1, 2, 2)), 2))
    with pytest.raises(ValueError, match="input has parallel edges"):
        embed_complete(ColoredGraph(2, ((1, 2, 1), (2, 1, 2)), 2))
    with pytest.raises(ValueError):
        embed_complete(ColoredGraph(1, (), 0))


def test_embed_complete_preserves_colorfulness_both_ways():
    rng = random.Random(59)
    for _ in range(60):
        g = random_simple_graph(rng, n_max=7, p_max=4)
        k = embed_complete(g)
        before = brute_force_max(g).value == g.p
        after = brute_force_max(k).value == k.p
        assert before == after


def test_embed_complete_artifact_bookkeeping():
    simple = multigraph_to_simple(sat_to_multigraph(DEMO))
    comp = embed_complete_artifact(simple)
    assert comp.kind is ReductionKind.COMPLETE
    assert comp.vertex_meaning[comp.graph.n] == ("apex",)
    assert comp.color_meaning[comp.graph.p] == ("fresh",)
    report = verify_structural(comp)
    assert report.all_passed
    assert [item.name for item in report.items] == ["complete"]
    with pytest.raises(ValueError):
        embed_complete_artifact(sat_to_multigraph(DEMO))


_ALWAYS_SHARED = ("formula", "active_clauses")


@pytest.mark.parametrize(
    "construction,from_simple,shared",
    [
        (multigraph_to_simple, False, _ALWAYS_SHARED),
        (make_k4mf_connected, True, _ALWAYS_SHARED + ("literal_edge_map",)),
        (embed_complete_artifact, True, _ALWAYS_SHARED + ("literal_edge_map",)),
        (make_oct_one, False, _ALWAYS_SHARED + ("literal_edge_map", "color_meaning")),
    ],
    ids=["multigraph_to_simple", "make_k4mf_connected", "embed_complete_artifact", "make_oct_one"],
)
def test_derived_artifacts_share_their_unchanged_fields_by_identity(construction, from_simple, shared):
    # ReductionArtifact._derived takes every field a construction does not
    # name from its source: the same objects, not copies
    multi = sat_to_multigraph(DEMO)
    a = multigraph_to_simple(multi) if from_simple else multi
    derived = construction(a)
    for name in shared:
        assert getattr(derived, name) is getattr(a, name), name
    for name in {"literal_edge_map", "color_meaning", "vertex_meaning"} - set(shared):
        assert getattr(derived, name) is not getattr(a, name), name


def test_embed_complete_equals_the_full_constructor_on_planar_simple_artifacts():
    # only the added edges are checked; the graph must be the one the full
    # constructor builds from g's edges and every missing pair in order
    rng = random.Random(61)
    built = 0
    while built < 25:
        f = random_3cnf(rng, rng.randint(3, 5), rng.randint(4, 10))
        if not strip_single_polarity(f)[0]:
            continue
        g = multigraph_to_simple(sat_to_multigraph(f)).graph
        joined = {frozenset((u, v)) for u, v, _ in g.edges}
        missing = tuple(
            (u, v, g.p + 1)
            for u, v in combinations(range(1, g.n + 2), 2)
            if {u, v} not in joined
        )
        k = embed_complete(g)
        assert k == ColoredGraph(g.n + 1, g.edges + missing, g.p + 1)
        assert k == ColoredGraph(k.n, k.edges, k.p)
        built += 1


def _outcome(build):
    try:
        return "graph", build()
    except ValueError as exc:
        return "error", str(exc)


@pytest.mark.parametrize(
    "added,n,p",
    [
        (((1, 5, 4),), 4, 4),  # endpoint above n
        (((0, 2, 4),), 4, 4),  # endpoint below 1
        (((2, 2, 4),), 4, 4),  # self-loop
        (((1, 4, 5),), 4, 4),  # color above p
        (((1, 4, 0),), 4, 4),  # color below 1
        (((1, 4, 4),), 4, 5),  # the added color 5 is dead
        (((1, 4, 4), (2, 4, 4)), 4, 4),
        ((), 3, 3),
        (((1, 2, 3),), 2, 3),  # n below the graph's: the full constructor decides
        (((1, 3, 1),), 3, 2),  # so does a smaller p
    ],
)
def test_extended_checks_the_added_edges_as_the_constructor_does(added, n, p):
    tri = ColoredGraph(3, ((1, 2, 1), (2, 3, 2), (1, 3, 3)), 3)
    expected = _outcome(lambda: ColoredGraph(n, tri.edges + added, p))
    assert _outcome(lambda: tri._extended(n, added, p)) == expected


def test_extended_matches_the_constructor_on_random_additions():
    rng = random.Random(67)
    answers = Counter()
    for _ in range(2000):
        g = random_simple_graph(rng, n_max=6, p_max=4)
        n = g.n + rng.randint(-1, 2)
        p = g.p + rng.randint(-1, 2)
        added = tuple(
            (rng.randint(0, n + 1), rng.randint(0, n + 1), rng.randint(0, p + 1))
            for _ in range(rng.randint(0, 4))
        )
        expected = _outcome(lambda: ColoredGraph(n, g.edges + added, p))
        assert _outcome(lambda: g._extended(n, added, p)) == expected
        kind = expected[0]
        if kind == "error":
            kind = next(w for w in ("endpoint", "self-loop", "has color", "declared") if w in expected[1])
        answers[kind] += 1
    # graphs, and each of the constructor's per-edge and liveness messages
    assert set(answers) == {"graph", "endpoint", "self-loop", "has color", "declared"}
    assert min(answers.values()) > 50


# ------------------------------------------------------------ not-all-equal


def test_nae_demo_shape():
    a = nae_to_cliques(NAE_DEMO)
    g = a.graph
    assert (g.n, g.m, g.p) == (15, 20, 14)
    assert a.color_meaning[1] == ("clause", 1)
    assert a.color_meaning[3] == ("clause", 3)
    assert all(a.color_meaning[c] == ("fresh",) for c in range(4, 15))
    assert a.vertex_meaning[10] == ("a", 1)
    assert a.vertex_meaning[15] == ("b", 3)
    report = verify_structural(a)
    assert report.all_passed
    assert [item.name for item in report.items] == ["color-class-clique"]


def test_nae_bridges_only_for_dual_polarity_variables():
    a = nae_to_cliques(NAE_DEMO)
    corner = set(range(1, 10))
    bridges = [
        (u, v, c)
        for u, v, c in a.graph.edges
        if c > 3 and u in corner and v in corner
    ]
    # variables 1 and 2 occur in both polarities, variable 3 never positively
    assert len(bridges) == 2


def test_nae_demo_witness_roundtrip():
    a = nae_to_cliques(NAE_DEMO)
    asg = {1: False, 2: True, 3: True}
    assert nae_satisfies(NAE_DEMO, asg)
    cut = assignment_to_cut(a, asg)
    assert cut.s_side == frozenset({2, 4, 7, 8, 10, 13, 15})
    assert is_colorful(a.graph, cut)
    assert cut_to_assignment(a, cut) == asg


def test_nae_rejects_bad_inputs():
    with pytest.raises(ValueError):
        nae_to_cliques(CnfFormula(0, ()))
    with pytest.raises(ValueError):
        nae_to_cliques(CnfFormula(2, ((1, -2),)))
    a = nae_to_cliques(NAE_DEMO)
    with pytest.raises(ValueError):
        assignment_to_cut(a, ALL_TRUE)  # makes clause 2 all-false: not NAE


def test_nae_unsat_quadruple():
    assert oracle_nae(NAE_UNSAT4) is None
    a = nae_to_cliques(NAE_UNSAT4)
    assert verify_structural(a).all_passed
    assert colorful_cut_decide(a.graph) is None


def test_nae_every_colorful_cut_extracts_for_single_clauses():
    for f in all_3var_formulas(1):
        a = nae_to_cliques(f)
        g = a.graph
        for size in range(1, g.n):
            for s in combinations(range(1, g.n + 1), size):
                cut = Cut(g.n, frozenset(s))
                if is_colorful(g, cut):
                    assert nae_satisfies(f, cut_to_assignment(a, cut))


# ----------------------------------------------------------------- sweeps


def test_equivalence_sweep_exhaustive_3var():
    checked = 0
    for f in surviving(all_3var_formulas(3)):
        sat = oracle_sat(f) is not None
        multi = sat_to_multigraph(f)
        simple = multigraph_to_simple(multi)
        assert (colorful_cut_decide(multi.graph) is not None) == sat
        assert (colorful_cut_decide(simple.graph) is not None) == sat
        oct1 = make_oct_one(multi)
        assert (brute_force_max(oct1.graph).value == oct1.graph.p) == sat
        comp = embed_complete_artifact(simple)
        assert (colorful_cut_decide(comp.graph) is not None) == sat
        if sat:
            model = oracle_sat(f)
            cut = assignment_to_cut(multi, model)
            assert satisfies(f, cut_to_assignment(multi, cut))
        checked += 1
    assert checked == 36


def test_nae_equivalence_sweep_exhaustive_3var():
    checked = 0
    for f in all_3var_formulas(2):
        nae = oracle_nae(f) is not None
        a = nae_to_cliques(f)
        assert verify_structural(a).all_passed
        assert (colorful_cut_decide(a.graph) is not None) == nae
        if nae:
            model = oracle_nae(f)
            cut = assignment_to_cut(a, model)
            assert nae_satisfies(f, cut_to_assignment(a, cut))
        checked += 1
    assert checked == 36


def test_equivalence_sweep_random_4var():
    rng = random.Random(61)
    done = 0
    while done < 30:
        f = random_3cnf(rng, 4, rng.randint(2, 6))
        kept, _, _ = strip_single_polarity(f)
        if not kept:
            continue
        done += 1
        sat = oracle_sat(f) is not None
        multi = sat_to_multigraph(f)
        assert (colorful_cut_decide(multi.graph) is not None) == sat
        simple = multigraph_to_simple(multi)
        assert (colorful_cut_decide(simple.graph) is not None) == sat


# ------------------------------------------------------------ series-parallel


def _series_parallel(g):
    """The series-parallel item of the K4-minor-free checklist for g."""
    report = verify_structural(ReductionArtifact(g, ReductionKind.K4MF, None))
    return next(item for item in report.items if item.name == "series-parallel")


def test_series_parallel_hand_cases():
    k4 = ColoredGraph(4, tuple((u, v, 1) for u, v in combinations(range(1, 5), 2)), 1)
    assert not _series_parallel(k4).passed
    # subdividing K4 does not remove the minor
    sub = ColoredGraph(
        10,
        tuple(
            e
            for i, (u, v) in enumerate(combinations(range(1, 5), 2))
            for e in ((u, 5 + i, 1), (5 + i, v, 1))
        ),
        1,
    )
    assert not _series_parallel(sub).passed
    path = ColoredGraph(5, tuple((i, i + 1, 1) for i in range(1, 5)), 1)
    assert _series_parallel(path).passed
    star = ColoredGraph(5, tuple((1, i, 1) for i in range(2, 6)), 1)
    assert _series_parallel(star).passed
    c4 = ColoredGraph(4, ((1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 1, 1)), 1)
    assert _series_parallel(c4).passed
    theta = ColoredGraph(4, ((1, 2, 1), (2, 3, 1), (1, 3, 1), (1, 4, 1), (4, 3, 1)), 1)
    assert _series_parallel(theta).passed


def test_series_parallel_rejects_parallel_edges():
    item = _series_parallel(ColoredGraph(2, ((1, 2, 1), (1, 2, 2)), 2))
    assert (item.passed, item.detail) == (False, "input has parallel edges")


def test_series_parallel_matches_minor_oracle():
    rng = random.Random(67)
    for _ in range(60):
        n = rng.randint(4, 6)
        pairs = [
            (u, v) for u, v in combinations(range(1, n + 1), 2) if rng.random() < 0.5
        ]
        g = ColoredGraph(n, tuple((u, v, 1) for u, v in pairs), 1 if pairs else 0)
        assert _series_parallel(g).passed == (not oracle_has_k4_minor(n, pairs))


# ------------------------------------------------------------------ verifiers


def test_verify_structural_reports_counterexamples():
    incomplete = ReductionArtifact(
        ColoredGraph(3, ((1, 2, 1),), 1), ReductionKind.COMPLETE, None
    )
    report = verify_structural(incomplete)
    assert not report.all_passed
    assert "missing edge" in report.items[0].detail

    lopsided = ReductionArtifact(
        ColoredGraph(3, ((1, 2, 1), (2, 3, 1), (1, 3, 2)), 2),
        ReductionKind.PLANAR_MULTI,
        None,
    )
    report = verify_structural(lopsided)
    assert not report.all_passed
    assert "color 2" in report.items[0].detail  # the single-edge class

    not_clique = ReductionArtifact(
        ColoredGraph(3, ((1, 2, 1), (2, 3, 1)), 1), ReductionKind.NAE_CLIQUES, None
    )
    report = verify_structural(not_clique)
    assert not report.all_passed

    disconnected = ReductionArtifact(
        ColoredGraph(4, ((1, 2, 1), (3, 4, 2)), 2), ReductionKind.K4MF, None
    )
    report = verify_structural(disconnected)
    failed = {item.name: item.detail for item in report.items if not item.passed}
    assert failed == {"connected": "graph is disconnected"}

    star = ReductionArtifact(
        ColoredGraph(5, ((1, 2, 1), (1, 3, 1), (1, 4, 2), (1, 5, 2)), 2),
        ReductionKind.K4MF,
        None,
    )
    report = verify_structural(star)
    failed = {item.name: item.detail for item in report.items if not item.passed}
    assert failed == {"max-degree-3": "vertex 1 has degree 4"}

    # triangle 2-3-4 survives deleting the apex, vertex 1
    odd_rest = ReductionArtifact(
        ColoredGraph(4, ((2, 3, 1), (3, 4, 1), (2, 4, 2), (1, 2, 2)), 2),
        ReductionKind.OCT_ONE,
        None,
        vertex_meaning={1: ("apex",)},
    )
    report = verify_structural(odd_rest)
    failed = {item.name: item.detail for item in report.items if not item.passed}
    assert list(failed) == ["apex-removal-bipartite"]
    assert "odd cycle" in failed["apex-removal-bipartite"]

    # every item pinned: parallel edges in both orientations, a degree-4
    # vertex, a three-edge color and a second component
    multi_fault = ColoredGraph(
        7,
        ((1, 2, 1), (1, 3, 2), (2, 1, 3), (1, 4, 2), (3, 4, 2), (5, 6, 4), (6, 7, 4)),
        4,
    )
    k4 = ColoredGraph(
        4, ((1, 2, 1), (1, 3, 1), (1, 4, 2), (2, 3, 2), (2, 4, 3), (3, 4, 3)), 3
    )
    # six edges on four vertices, one pair doubled and one pair missing
    doubled = ColoredGraph(
        4, ((1, 2, 1), (1, 3, 2), (1, 4, 3), (2, 3, 4), (2, 1, 5), (3, 4, 6)), 6
    )
    cases = [
        (
            multi_fault,
            ReductionKind.K4MF,
            [
                ("connected", False, "graph is disconnected"),
                ("max-degree-3", False, "vertex 1 has degree 4"),
                ("color-class-size-le-2", False, "color 2 has 3 edges"),
                ("simple", False, "parallel edges between 2 and 1"),
                ("series-parallel", False, "input has parallel edges"),
            ],
        ),
        (
            k4,
            ReductionKind.K4MF,
            [
                ("connected", True, ""),
                ("max-degree-3", True, ""),
                ("color-class-size-le-2", True, ""),
                ("simple", True, ""),
                ("series-parallel", False, "a K4 minor remains"),
            ],
        ),
        (
            multi_fault,
            ReductionKind.PLANAR_SIMPLE,
            [
                ("simple", False, "parallel edges between 2 and 1"),
                ("color-class-size-le-2", False, "color 2 has 3 edges"),
            ],
        ),
        (doubled, ReductionKind.COMPLETE, [("complete", False, "missing edge between 2 and 4")]),
    ]
    for g, kind, expected in cases:
        report = verify_structural(ReductionArtifact(g, kind, None))
        got = [(item.name, item.passed, item.detail) for item in report.items]
        assert got == expected, (kind, g)


def _oracle_complete(g):
    joined = {frozenset((u, v)) for u, v, _ in g.edges}
    for u, v in combinations(range(1, g.n + 1), 2):
        if {u, v} not in joined:
            return CheckItem("complete", False, f"missing edge between {u} and {v}")
    return CheckItem("complete", True)


def test_check_complete_names_the_first_missing_pair_as_an_all_pairs_scan():
    # m >= n(n-1)/2 marks the pairs in a byte matrix; fewer edges go straight
    # to naming the first missing pair.  Complete multigraphs with parallel
    # edges and one pair deleted keep m >= n(n-1)/2 but fail.
    rng = random.Random(46)
    seen = Counter()
    for i in range(600):
        if i % 2:
            g = random_multigraph(rng, n_max=7, p_max=5, extra_max=25)
        else:
            n = rng.randint(3, 8)
            pairs = list(combinations(range(1, n + 1), 2))
            if rng.random() < 0.75:
                pairs.remove(rng.choice(pairs))
            pairs += [rng.choice(pairs) for _ in range(rng.randint(1, 8))]
            rng.shuffle(pairs)
            pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
            p = rng.randint(1, len(pairs))
            g = ColoredGraph(n, [(u, v, j % p + 1) for j, (u, v) in enumerate(pairs)], p)
        item = _check_complete(g)
        assert item == _oracle_complete(g), g
        seen[g.m >= math.comb(g.n, 2), item.passed] += 1
    # both sides of the guard, and both answers above it
    assert min(seen[True, True], seen[True, False], seen[False, False]) > 50, seen


def test_check_complete_peaks_at_its_byte_matrix():
    # K_120 marks 7,140 pairs in (n+1)^2 = 14,641 bytes; a set of pair
    # tuples peaked at about 930 KB
    n = 120
    g = ColoredGraph(n, [(u, v, 1) for u, v in combinations(range(1, n + 1), 2)], 1)
    item, _, peak = traced(_check_complete, g)
    assert item == CheckItem("complete", True)
    assert peak <= (n + 1) ** 2 + 16 * 1024, peak


def test_artifact_kind_must_be_a_reduction_kind():
    # a kind's value is not the kind: verify_structural would not know it
    with pytest.raises(TypeError, match="kind must be a ReductionKind, got 'k4mf'"):
        ReductionArtifact(ColoredGraph(2, ((1, 2, 1),), 1), "k4mf", None)


def test_connected_check_counts_untouched_vertices():
    triangle = ((1, 2, 1), (2, 3, 1), (1, 3, 2))
    cases = [
        (ColoredGraph(3, triangle, 2), True),
        (ColoredGraph(4, triangle, 2), False),  # vertex 4 touches no edge
        (ColoredGraph(4, ((1, 2, 1), (3, 4, 2)), 2), False),
        (ColoredGraph(2, (), 0), False),
        (ColoredGraph(1, (), 0), True),
        (ColoredGraph(0, (), 0), False),
    ]
    for g, connected in cases:
        artifact = ReductionArtifact(g, ReductionKind.K4MF, None)
        items = {item.name: item.passed for item in verify_structural(artifact).items}
        assert items["connected"] is connected, g


def test_verify_structural_flags_missing_apex():
    o = make_oct_one(sat_to_multigraph(DEMO))
    stripped = ReductionArtifact(o.graph, ReductionKind.OCT_ONE, None)
    report = verify_structural(stripped)
    assert not report.all_passed
    assert any("apex" in item.name for item in report.items if not item.passed)


# ----------------------------------------------------------------- provenance


def test_provenance_roundtrip_all_kinds():
    multi = sat_to_multigraph(DEMO)
    simple = multigraph_to_simple(multi)
    artifacts = [
        multi,
        simple,
        make_k4mf_connected(simple),
        make_oct_one(multi),
        embed_complete_artifact(simple),
        nae_to_cliques(NAE_DEMO),
    ]
    for a in artifacts:
        colors, vertices = parse_provenance(serialize_provenance(a))
        assert colors == a.color_meaning
        assert vertices == a.vertex_meaning


def test_serialize_provenance_matches_a_line_per_meaning_of_every_arity():
    # one `%` template per arity; arities 6 to 9 are made by no construction
    meanings = {i: ("pair", *range(i + 1, 2 * i)) for i in range(1, 10)}
    assert [len(m) for m in meanings.values()] == list(range(1, 10))
    a = ReductionArtifact(
        ColoredGraph(2, ((1, 2, 1),), 1),
        ReductionKind.PLANAR_MULTI,
        None,
        color_meaning={c: meanings[10 - c] for c in range(9, 0, -1)},
        vertex_meaning={v: ("subdiv", *meanings[v][1:]) for v in range(1, 10)},
    )
    reference = "".join(
        [
            *(f"color {c} {' '.join(map(str, a.color_meaning[c]))}\n" for c in range(1, 10)),
            *(f"vertex {v} {' '.join(map(str, a.vertex_meaning[v]))}\n" for v in range(1, 10)),
        ]
    )
    assert serialize_provenance(a) == reference
    assert parse_provenance(reference) == (a.color_meaning, a.vertex_meaning)


def test_provenance_parse_errors():
    with pytest.raises(FormatError):
        parse_provenance("color 1 rainbow\n")
    with pytest.raises(FormatError):
        parse_provenance("vertex one apex x\n")
    with pytest.raises(FormatError):
        parse_provenance("edge 1 fresh\n")
    with pytest.raises(FormatError):
        parse_provenance("color 1\n")
    with pytest.raises(FormatError):
        parse_provenance("vertex 1_0 corner 3 1\n")  # `int` takes `_` separators


def test_provenance_keeps_near_integers_as_strings():
    # `--5` and `²` pass `lstrip("-").isdigit()` but `int()` rejects them;
    # `int()` reads `1_2` and the Arabic-Indic three, but they are not ASCII digits
    colors, vertices = parse_provenance(
        "color 1 pair --5 ² -7 12 1_2 -\u0663\nvertex 2 tree -0 \u0663\n"
    )
    assert colors == {1: ("pair", "--5", "²", -7, 12, "1_2", "-\u0663")}
    assert vertices == {2: ("tree", 0, "\u0663")}


def test_provenance_meaning_tokens_follow_the_integer_rule():
    # one leading sign, `+` as well as `-`, then ASCII digits, as for ids
    colors, vertices = parse_provenance("color 1 pair +4 + - +-1\nvertex +3 corner +1 2\n")
    assert colors == {1: ("pair", 4, "+", "-", "+-1")}
    assert vertices == {3: ("corner", 1, 2)}


def test_provenance_skips_blank_lines():
    colors, vertices = parse_provenance("\ncolor 2 fresh\n\nvertex 4 apex\n")
    assert colors == {2: ("fresh",)}
    assert vertices == {4: ("apex",)}


def test_provenance_ids_are_per_section():
    # a color and a vertex may share an id; only a repeat within one is an error
    colors, vertices = parse_provenance("color 1 fresh\nvertex 1 apex\n")
    assert colors == {1: ("fresh",)}
    assert vertices == {1: ("apex",)}
