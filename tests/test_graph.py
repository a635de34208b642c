import copy
import dataclasses
import inspect
import pickle

import pytest
from hypothesis import given, strategies as st

from coloredcut import (
    CnfFormula,
    ColoredGraph,
    Cut,
    FormatError,
    ReductionArtifact,
    ReductionKind,
    assignment_to_cut,
    augment_cut,
    brute_force_max,
    claim1_bound,
    color_span,
    colorful_cut_decide,
    cut_colors,
    cut_edges,
    cut_to_assignment,
    dedupe_edges,
    distinct_pairs_of_color,
    encode_colorful_to_cnf,
    is_colorful,
    kernelize_colors,
    make_k4mf_connected,
    multigraph_to_simple,
    parse_cut,
    parse_dimacs,
    parse_graph,
    parse_provenance,
    sat_to_multigraph,
    serialize_cut,
    serialize_graph,
)

RAINBOW_TRIANGLE = ColoredGraph(3, ((1, 2, 1), (2, 3, 2), (1, 3, 3)), 3)


def test_graph_basic_accessors():
    g = RAINBOW_TRIANGLE
    assert g.m == 3
    assert g.edges_of_color(2) == [1]
    with pytest.raises(ValueError):
        g.edges_of_color(4)


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError):
        ColoredGraph(2, ((1, 1, 1),), 1)


def test_graph_rejects_out_of_range_endpoint():
    with pytest.raises(ValueError):
        ColoredGraph(2, ((1, 3, 1),), 1)


def test_graph_rejects_out_of_range_color():
    with pytest.raises(ValueError):
        ColoredGraph(2, ((1, 2, 2),), 1)


def test_graph_rejects_dead_color():
    with pytest.raises(ValueError, match="appear on no edge"):
        ColoredGraph(3, ((1, 2, 1), (2, 3, 1)), 2)


def test_graph_allows_isolated_vertices_and_empty():
    g = ColoredGraph(4, ((1, 2, 1),), 1)
    assert g.n == 4
    assert ColoredGraph(0, (), 0).m == 0


def test_cut_validation():
    with pytest.raises(ValueError):
        Cut(3, frozenset())
    with pytest.raises(ValueError):
        Cut(3, frozenset({1, 2, 3}))
    with pytest.raises(ValueError):
        Cut(3, frozenset({4}))
    c = Cut(3, frozenset({1}))
    assert c.t_side == frozenset({2, 3})
    assert c.crosses(1, 2) and not c.crosses(2, 3)
    assert c.complement().s_side == frozenset({2, 3})


class _Index:
    """Integer-like but not an int: it converts only through `__index__`."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_counts_and_edge_fields_must_be_integers():
    # counts, edge fields and cut vertices go through operator.index: a
    # non-integer raises, an integer-like is stored as a plain int
    with pytest.raises(TypeError):
        ColoredGraph(3.5, ((1, 2, 1), (2, 3, 1)), 1)
    with pytest.raises(TypeError):
        ColoredGraph(3, ((1, 2, 1), (2, 3, 1)), 1.0)
    with pytest.raises(TypeError):
        ColoredGraph(3, ((1.9, 2, 1),), 1)
    with pytest.raises(TypeError):
        ColoredGraph(3, (("1", "2", "1"),), 1)
    with pytest.raises(TypeError):
        Cut(3.5, frozenset({1}))
    with pytest.raises(TypeError):
        Cut(3, frozenset({1.5}))
    g = ColoredGraph(_Index(3), ((_Index(1), 2, True),), _Index(1))
    assert g == ColoredGraph(3, ((1, 2, 1),), 1)
    assert {type(x) for x in (g.n, g.p, *g.edges[0])} == {int}
    cut = Cut(_Index(3), {_Index(1)})
    assert cut == Cut(3, {1}) and {type(x) for x in (cut.n, *cut.s_side)} == {int}


def _records(g):
    return [g, Cut(g.n, {1}), kernelize_colors(g), brute_force_max(g), encode_colorful_to_cnf(g)]


@pytest.mark.parametrize(
    "record,other,hashable",
    zip(
        _records(ColoredGraph(3, ((1, 2, 1), (2, 3, 2)), 2)),
        _records(ColoredGraph(4, ((1, 2, 1), (3, 4, 2), (2, 3, 2)), 2)),
        (True, True, False, True, False),
    ),
    ids=["ColoredGraph", "Cut", "KernelOutcome", "SolveResult", "ColorfulEncoding"],
)
def test_value_types_behave_as_frozen_dataclasses(record, other, hashable):
    # a frozen dataclass over the same fields is the reference for repr and hash
    cls = type(record)
    fields = tuple(inspect.signature(cls).parameters)
    values = tuple(getattr(record, name) for name in fields)
    reference = dataclasses.make_dataclass(cls.__name__, fields, frozen=True)(*values)
    assert repr(record) == repr(reference)
    twin = cls(*values)
    assert twin == record and not twin != record
    assert record != other and record != reference and record != values
    if hashable:
        assert hash(record) == hash(twin) == hash(reference)
    else:  # it holds dicts
        with pytest.raises(TypeError):
            hash(record)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in fields) == values
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record and repr(clone) == repr(record)


def test_cut_edges_on_path():
    g = ColoredGraph(3, ((1, 2, 1), (2, 3, 2)), 2)
    assert cut_edges(g, Cut(3, frozenset({1}))) == [0]
    assert cut_edges(g, Cut(3, frozenset({2}))) == [0, 1]


def test_cut_edges_on_triangle():
    assert cut_edges(RAINBOW_TRIANGLE, Cut(3, frozenset({1}))) == [0, 2]


def test_cut_colors_and_parallel_edges():
    assert cut_colors(RAINBOW_TRIANGLE, Cut(3, frozenset({1}))) == frozenset({1, 3})
    g = ColoredGraph(2, ((1, 2, 1), (1, 2, 2)), 2)
    assert cut_colors(g, Cut(2, frozenset({1}))) == frozenset({1, 2})


def test_cut_size_mismatch_rejected():
    with pytest.raises(ValueError):
        cut_edges(RAINBOW_TRIANGLE, Cut(4, frozenset({1})))


def test_is_colorful():
    c4 = ColoredGraph(4, ((1, 2, 1), (2, 3, 2), (3, 4, 3), (1, 4, 4)), 4)
    assert is_colorful(c4, Cut(4, frozenset({1, 3})))
    assert not is_colorful(RAINBOW_TRIANGLE, Cut(3, frozenset({1})))
    single = ColoredGraph(2, ((1, 2, 1),), 1)
    assert is_colorful(single, Cut(2, frozenset({1})))


def test_color_span():
    g = ColoredGraph(4, ((1, 2, 1), (3, 4, 1)), 1)
    assert color_span(g, 1) == 2
    g2 = ColoredGraph(3, ((1, 2, 1), (2, 3, 1)), 1)
    assert color_span(g2, 1) == 1
    g3 = ColoredGraph(2, ((1, 2, 1),), 1)
    assert color_span(g3, 1) == 1


def test_distinct_pairs_counts_pairs_not_edges():
    g = ColoredGraph(3, ((1, 2, 1), (2, 1, 1), (2, 3, 1)), 1)
    assert distinct_pairs_of_color(g, 1) == 2
    assert distinct_pairs_of_color(ColoredGraph(2, ((1, 2, 1),), 1), 1) == 1


def test_dedupe_edges():
    g = ColoredGraph(3, ((1, 2, 1), (2, 1, 1), (2, 3, 1), (1, 2, 1)), 1)
    d = dedupe_edges(g)
    assert d.edges == ((1, 2, 1), (2, 3, 1))
    clean = ColoredGraph(3, ((1, 2, 1), (2, 3, 1)), 1)
    assert dedupe_edges(clean) is clean  # untouched when nothing to do


def test_parse_graph_roundtrip():
    text = "c a comment\np ecg 3 3 3\ne 1 2 1\ne 2 3 2\ne 1 3 3\n"
    g = parse_graph(text)
    assert g == RAINBOW_TRIANGLE
    assert parse_graph(serialize_graph(g)) == g


def test_parse_graph_errors_name_lines():
    with pytest.raises(FormatError, match="line 1"):
        parse_graph("q ecg 1 0 0\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_graph("p ecg 2 1 1\nz 1 2 1\n")
    with pytest.raises(FormatError):
        parse_graph("p ecg 2 2 1\ne 1 2 1\n")  # fewer edges than declared
    with pytest.raises(FormatError):
        parse_graph("p ecg 2 1 1\ne 1 2 1\ne 1 2 1\n")  # more edges
    with pytest.raises(FormatError):
        parse_graph("p ecg 2 1 2\ne 1 2 1\n")  # declared color never used
    with pytest.raises(FormatError):
        parse_graph("p ecg 2 1 1\nc late comment\ne 1 2 1\n")


@pytest.mark.parametrize(
    "parse,text,message",
    [
        (parse_graph, "c x\np ecg 3 1\n", "line 2: malformed header"),
        (parse_graph, "p ecg 3 one 1\n", "line 1: non-integer field in header"),
        (parse_graph, "p ecg 3 -1 1\n", "line 1: negative count in header"),
        (parse_graph, "p ecg 3 1 1\ne 1 2\n", "line 2: malformed edge line"),
        (parse_graph, "p ecg 3 1 1\ne 1 x 1\n", "line 2: non-integer field in edge line"),
        (parse_graph, "p ecg 3 1 1\n\ne 2 2 1\n", "line 3: self-loop at vertex 2"),
        (parse_graph, "p ecg 3 1 1\ne 1 2 2\n", "line 2: color 2 outside 1..1"),
        (parse_graph, "p ecg 3 2 1\ne 1 2 1\n\ne 1 4 1\n", "line 4: vertex outside 1..3"),
        (parse_graph, "p ecg 3 1 1\ne 0 2 1\n", "line 2: vertex outside 1..3"),
        (parse_graph, "p ecg 3 1 1\ne 1 2 1\ne 2 3 1\n", "line 3: more than the 1 edges"),
        (
            parse_graph,
            "c x\np ecg 3 2 1\ne 1 2 1\n",
            "line 2: header declares 2 edges but file has 1",
        ),
        (
            parse_graph,
            "c x\n\np ecg 3 1 2\ne 1 2 1\n",
            "line 3: colors [2] are declared but appear on no edge",
        ),
        (
            parse_graph,
            "p ecg 2 1 2000000\ne 1 2 1\n",
            "line 1: colors [2] and 1999998 more are declared but appear on no edge",
        ),
        (parse_graph, "c only a comment\n", "line 1: missing 'p ecg' header"),
        (lambda t: parse_cut(t, 4), "s 1\ns 2\n", "line 2: cut file must contain exactly one"),
        (lambda t: parse_cut(t, 4), "", "line 1: cut file must contain exactly one"),
        (lambda t: parse_cut(t, 4), "s 1 two\n", "line 1: non-integer vertex"),
        (lambda t: parse_cut(t, 4), "s 1 5\n", "line 1: cut vertex outside 1..4"),
        (parse_dimacs, "p cnf 3 1\np cnf 3 1\n", "line 2: duplicate header"),
        (parse_dimacs, "p cnf three 1\n", "line 1: non-integer field in header"),
        (parse_dimacs, "p cnf 3 -1\n", "line 1: negative count in header"),
        (parse_dimacs, "c x\n1 2 3 0\np cnf 3 1\n", "line 2: clause data before"),
        (parse_dimacs, "p cnf 3 1\n1 b 3 0\n", "line 2: non-integer literal"),
        (parse_dimacs, "c only a comment\n", "line 1: missing 'p cnf' header"),
        (parse_provenance, "color 1 fresh\nvertex 2 hub\n", "line 2: unknown vertex tag"),
    ],
)
def test_parse_errors_name_the_line(parse, text, message):
    # the message opens with the offending line wherever one is to blame,
    # and stays short whatever the header declares
    with pytest.raises(FormatError) as exc:
        parse(text)
    assert str(exc.value).startswith(message)
    assert len(str(exc.value)) < 200


def _k4mf_with_a_colorful_cut():
    a = sat_to_multigraph(CnfFormula(1, ((1, -1, 1),)))
    c = make_k4mf_connected(multigraph_to_simple(a))
    return c, colorful_cut_decide(c.graph)


_NO_FORMULA = ReductionArtifact(RAINBOW_TRIANGLE, ReductionKind.PLANAR_MULTI, None)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: ColoredGraph(-1, (), 0), "vertex count must be nonnegative, got -1"),
        (lambda: ColoredGraph(2, (), -1), "color count must be nonnegative, got -1"),
        (
            lambda: ColoredGraph(2, ((1, 2, 1),), 2_000_000),
            "colors [2] and 1999998 more are declared but appear on no edge",
        ),
        (
            lambda: cut_colors(RAINBOW_TRIANGLE, Cut(4, {1})),
            "cut is over 1..4 but graph has 3 vertices",
        ),
        (lambda: color_span(RAINBOW_TRIANGLE, 4), "color 4 outside 1..3"),
        (lambda: distinct_pairs_of_color(RAINBOW_TRIANGLE, 0), "color 0 outside 1..3"),
        (lambda: claim1_bound(-1), "bound argument must be nonnegative, got -1"),
        (
            lambda: augment_cut(RAINBOW_TRIANGLE, [], Cut(4, {1})),
            "cut is over 1..4 but graph has 3 vertices",
        ),
        (
            lambda: augment_cut(ColoredGraph(2, ((1, 2, 1), (1, 2, 2)), 2), [3], Cut(2, {1})),
            "color 3 outside 1..2",
        ),
        (lambda: augment_cut(RAINBOW_TRIANGLE, [-1], Cut(3, {1})), "color -1 outside 1..3"),
        (lambda: assignment_to_cut(_NO_FORMULA, {}), "artifact carries no source formula"),
        (
            lambda: cut_to_assignment(_NO_FORMULA, Cut(3, {1})),
            "artifact carries no source formula",
        ),
        (
            lambda: cut_to_assignment(*_k4mf_with_a_colorful_cut()),
            "no cut-to-assignment recipe for kind k4mf",
        ),
        (lambda: CnfFormula(-1, ()), "variable count must be nonnegative, got -1"),
    ],
)
def test_bad_arguments_name_the_fault(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_parse_cut():
    assert parse_cut("s 1 3\n", 4) == Cut(4, frozenset({1, 3}))
    with pytest.raises(FormatError):
        parse_cut("s 3 1\n", 4)  # not increasing
    with pytest.raises(FormatError):
        parse_cut("s 1 2 3 4\n", 4)  # not proper
    with pytest.raises(FormatError):
        parse_cut("x 1\n", 4)


def test_serialize_cut_sorted():
    assert serialize_cut(Cut(4, frozenset({3, 1}))) == "s 1 3\n"
    assert parse_cut(serialize_cut(Cut(4, frozenset({2}))), 4) == Cut(4, frozenset({2}))


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    p = draw(st.integers(min_value=1, max_value=5))
    pair = st.tuples(
        st.integers(min_value=1, max_value=n), st.integers(min_value=1, max_value=n)
    ).filter(lambda uv: uv[0] != uv[1])
    base = [
        (u, v, c)
        for c, (u, v) in enumerate(
            draw(st.lists(pair, min_size=p, max_size=p)), start=1
        )
    ]
    extra = draw(
        st.lists(
            st.tuples(pair, st.integers(min_value=1, max_value=p)), max_size=10
        )
    )
    edges = tuple(base + [(u, v, c) for (u, v), c in extra])
    return ColoredGraph(n, edges, p)


@given(graphs())
def test_graph_serialize_parse_identity(g):
    assert parse_graph(serialize_graph(g)) == g


@given(graphs(), st.data())
def test_cut_serialize_parse_identity(g, data):
    members = data.draw(
        st.sets(
            st.integers(min_value=1, max_value=g.n), min_size=1, max_size=g.n - 1
        )
    )
    cut = Cut(g.n, frozenset(members))
    assert parse_cut(serialize_cut(cut), g.n) == cut


@given(graphs(), st.data())
def test_cut_colors_complement_invariant(g, data):
    members = data.draw(
        st.sets(
            st.integers(min_value=1, max_value=g.n), min_size=1, max_size=g.n - 1
        )
    )
    cut = Cut(g.n, frozenset(members))
    assert cut_colors(g, cut) == cut_colors(g, cut.complement())


@given(graphs())
def test_dedupe_preserves_cut_colors(g):
    d = dedupe_edges(g)
    cut = Cut(g.n, frozenset({1}))
    assert cut_colors(g, cut) == cut_colors(d, cut)
    assert d.p == g.p and d.n == g.n
