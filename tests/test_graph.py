import copy
import dataclasses
import gc
import importlib
import inspect
import pickle
import random
from itertools import accumulate

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
    colorful_cut_decide,
    cut_colors,
    cut_to_assignment,
    embed_complete,
    embed_complete_artifact,
    is_colorful,
    kernelize_colors,
    make_k4mf_connected,
    make_oct_one,
    multigraph_to_simple,
    nae_to_cliques,
    parse_cut,
    parse_dimacs,
    parse_graph,
    parse_provenance,
    sat_to_multigraph,
    serialize_cut,
    serialize_graph,
    serialize_provenance,
    solve_via_kernel,
    verify_structural,
)
from coloredcut.graph import _READ_CHUNK, _WRITE_CHUNK, _bfs_labels, _gc_paused
from coloredcut.reductions import _walk_provenance

from helpers import mutated_ecg, oracle_parse_graph, plain_int, random_multigraph, traced

RAINBOW_TRIANGLE = ColoredGraph(3, ((1, 2, 1), (2, 3, 2), (1, 3, 3)), 3)


def test_graph_basic_accessors():
    g = RAINBOW_TRIANGLE
    assert g.m == 3


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
    assert c.crosses(1, 2) and not c.crosses(2, 3)


class _Index:
    """Integer-like but not an int: it converts only through `__index__`."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_counts_and_edge_fields_must_be_integers():
    # counts, edge fields, cut vertices and literals go through
    # operator.index: a non-integer raises, an integer-like is stored as a
    # plain int
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
    with pytest.raises(TypeError):
        CnfFormula(3, ((1.9, 2, 3),))
    with pytest.raises(TypeError):
        CnfFormula(3, (("1", 2, 3),))
    with pytest.raises(TypeError):
        CnfFormula(3.5, ((1, 2, 3),))
    g = ColoredGraph(_Index(3), ((_Index(1), 2, True),), _Index(1))
    assert g == ColoredGraph(3, ((1, 2, 1),), 1)
    assert {type(x) for x in (g.n, g.p, *g.edges[0])} == {int}
    cut = Cut(_Index(3), {_Index(1)})
    assert cut == Cut(3, {1}) and {type(x) for x in (cut.n, *cut.s_side)} == {int}
    f = CnfFormula(_Index(3), ((_Index(1), -2, 3),))
    assert f == CnfFormula(3, ((1, -2, 3),))
    assert {type(x) for x in (f.var_count, *f.clauses[0])} == {int}


def _records(g):
    return [g, Cut(g.n, {1}), kernelize_colors(g), brute_force_max(g)]


def _construction_records(a):
    report = verify_structural(a)
    return [a.formula, a, report.items[-1], report]


@pytest.mark.parametrize(
    "record,other",
    zip(
        _records(ColoredGraph(3, ((1, 2, 1), (2, 3, 2)), 2))
        + _construction_records(sat_to_multigraph(CnfFormula(1, ((1, -1, 1),)))),
        _records(ColoredGraph(4, ((1, 2, 1), (3, 4, 2), (2, 3, 2)), 2))
        + _construction_records(
            make_oct_one(sat_to_multigraph(CnfFormula(2, ((1, -2, 2), (-1, 2, 1)))))
        ),
    ),
    ids=[
        "ColoredGraph",
        "Cut",
        "KernelOutcome",
        "SolveResult",
        "CnfFormula",
        "ReductionArtifact",
        "CheckItem",
        "StructureReport",
    ],
)
def test_value_types_behave_as_frozen_dataclasses(record, other):
    # a frozen dataclass over the same fields is the reference for repr and hash
    cls = type(record)
    fields = tuple(inspect.signature(cls).parameters)
    values = tuple(getattr(record, name) for name in fields)
    reference = dataclasses.make_dataclass(cls.__name__, fields, frozen=True)(*values)
    assert repr(record) == repr(reference)
    twin = cls(*values)
    assert twin == record and not twin != record
    assert record != other and record != reference and record != values
    if isinstance(record, ReductionArtifact):
        # its dicts make it unhashable, as they make the reference
        for value in (record, reference):
            with pytest.raises(TypeError):
                hash(value)
    else:
        assert hash(record) == hash(twin) == hash(reference)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in fields) == values
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record and repr(clone) == repr(record)


def test_cut_colors_and_parallel_edges():
    assert cut_colors(RAINBOW_TRIANGLE, Cut(3, frozenset({1}))) == frozenset({1, 3})
    g = ColoredGraph(2, ((1, 2, 1), (1, 2, 2)), 2)
    assert cut_colors(g, Cut(2, frozenset({1}))) == frozenset({1, 2})


def test_is_colorful():
    c4 = ColoredGraph(4, ((1, 2, 1), (2, 3, 2), (3, 4, 3), (1, 4, 4)), 4)
    assert is_colorful(c4, Cut(4, frozenset({1, 3})))
    assert not is_colorful(RAINBOW_TRIANGLE, Cut(3, frozenset({1})))
    single = ColoredGraph(2, ((1, 2, 1),), 1)
    assert is_colorful(single, Cut(2, frozenset({1})))


def test_parse_graph_roundtrip():
    text = "c a comment\np ecg 3 3 3\ne 1 2 1\ne 2 3 2\ne 1 3 3\n"
    g = parse_graph(text)
    assert g == RAINBOW_TRIANGLE
    assert parse_graph(serialize_graph(g)) == g
    # a comment may hold any text; integer fields still split on any space
    text = "c my_graph \uff12\np ecg 3 3 3\ne 1 2 1\ne 2\u00a03 2\ne 1 3 +3\n"
    assert parse_graph(text) == RAINBOW_TRIANGLE


def _parse_outcome(parse, text):
    try:
        g = parse(text)
    except FormatError as exc:
        return "error", str(exc)
    return "graph", g, {type(x) for e in g.edges for x in e}


def test_parse_graph_answers_as_the_line_walk_did():
    # the token cache must change no answer: every mutated text gives the
    # graph, or the FormatError message, of the walk that converted each
    # field on its own line.  Sparse draws read their fields with `int`,
    # dense ones (m >= 2 max(n, p)) through the cache.
    rng = random.Random(43)
    kinds = set()
    accepted = {False: 0, True: 0}  # by dense
    for i in range(3000):
        if i % 2:
            g = random_multigraph(rng, n_max=5, p_max=2, extra_max=30)
        else:
            g = random_multigraph(rng, n_max=12, p_max=6, extra_max=10)
        text = serialize_graph(g)
        if rng.random() < 0.2:
            text = "c a comment\n" + text
        text = mutated_ecg(rng, text)
        expected = _parse_outcome(oracle_parse_graph, text)
        assert _parse_outcome(parse_graph, text) == expected, text
        if expected[0] == "graph":
            g = expected[1]
            accepted[g.m >= 2 * max(g.n, g.p)] += 1
            assert expected[2] <= {int}
        else:
            kinds.add(expected[1].split(": ", 1)[1].split()[0])
    # the edits reach both answers, both readers and every kind of message
    assert min(accepted.values()) > 150
    assert kinds == {
        "expected",
        "malformed",
        "non-integer",
        "negative",
        "more",
        "vertex",
        "self-loop",
        "color",
        "colors",
        "header",
        "missing",
    }


@pytest.mark.parametrize("end", ["\r\n", "\r", "\v", "\x1c"])
def test_parse_graph_answers_as_the_line_walk_did_past_the_first_chunk(end):
    # parse_graph splits the text a chunk at a time, each cut just after the
    # first `\n` at or past _READ_CHUNK characters.  Line w and the seven
    # after it end in `end`, line w's break starting at each offset -2..1
    # from that point, and mutated_ecg edits the lines after them, past the
    # cut: every text must give the oracle's graph or message, line number
    # included.
    rng = random.Random(46)
    edges = [(*rng.sample(range(1, 91), 2), i % 60 + 1) for i in range(7000)]
    lines = ["c ", *serialize_graph(ColoredGraph(90, edges, 60)).splitlines()]
    breaks = list(accumulate(len(line) + 1 for line in lines))  # one past each `\n`
    w = max(i for i, b in enumerate(breaks) if b < _READ_CHUNK - 2)
    assert breaks[-1] > _READ_CHUNK + 1000
    past_cut = 0
    for offset in (-2, -1, 0, 1):
        # pad the comment so that line w's break starts at _READ_CHUNK + offset
        head = ["c " + "x" * (_READ_CHUNK + offset + 1 - breaks[w]), *lines[1 : w + 1]]
        text = "\n".join(head) + end + end.join(lines[w + 1 : w + 8]) + end
        assert text.startswith(end, _READ_CHUNK + offset)
        tail = "\n".join(lines[w + 8 :]) + "\n"
        for _ in range(6):
            edited = text + mutated_ecg(rng, tail)
            cut = edited.find("\n", _READ_CHUNK) + 1 or len(edited)
            first_chunk_lines = len(edited[:cut].splitlines())
            expected = _parse_outcome(oracle_parse_graph, edited)
            assert _parse_outcome(parse_graph, edited) == expected
            if expected[0] == "error":
                past_cut += int(expected[1].split(":")[0].split()[1]) > first_chunk_lines
        expected = _parse_outcome(oracle_parse_graph, text + tail)
        assert expected[0] == "graph"
        assert _parse_outcome(parse_graph, text + tail) == expected
    assert past_cut > 8


@pytest.mark.parametrize("end", ["\n", "\r\n", "\v"])
def test_parse_graph_reads_lines_longer_than_a_chunk(end):
    # a chunk runs on past _READ_CHUNK characters to the first `\n`, or to
    # the end of a text that has none; the lines after a long one keep their
    # numbers
    lines = ["c " + "x" * _READ_CHUNK, "p ecg 3 3 2", "e 1" + " " * _READ_CHUNK + "2 1", "e 2 3 2"]
    for last, outcome in [
        ("e 1 3 1", ("graph", ColoredGraph(3, ((1, 2, 1), (2, 3, 2), (1, 3, 1)), 2), {int})),
        ("e 3 3 1", ("error", "line 5: self-loop at vertex 3")),
    ]:
        text = end.join([*lines, last]) + end
        assert _parse_outcome(oracle_parse_graph, text) == outcome
        assert _parse_outcome(parse_graph, text) == outcome


def test_parse_graph_peaks_near_the_graph_it_returns():
    # with one chunk's lines alive at a time, the peak is the graph, its
    # edge list before the tuple, the token cache and a chunk; a string per
    # line of the file took it past twice the graph
    rng = random.Random(5)
    edges = [(*rng.sample(range(1, 1001), 2), i % 100 + 1) for i in range(20000)]
    text = serialize_graph(ColoredGraph(1000, edges, 100))
    g, kept, peak = traced(parse_graph, text)
    assert g.m == 20000
    assert peak <= 1.6 * kept, (peak, kept)


@pytest.mark.parametrize("copies", [1, 2])
def test_parse_graph_reads_leading_zeros_and_signs_as_ints(copies):
    # one copy of the triangle is read with `int`; with two, m = 2 max(n, p)
    # and the cache keys by token text, so `01`, `+1` and `1` are three keys
    # of one int
    lines = ["e 01 2 1", "e +2 03 +2", "e 1 3 003"] * copies
    g = parse_graph(f"p ecg 3 {3 * copies} 3\n" + "\n".join(lines))
    assert g == ColoredGraph(3, RAINBOW_TRIANGLE.edges * copies, 3)
    assert {type(x) for e in g.edges for x in e} == {int}


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
        # `int` also takes `_` separators and non-ASCII digits
        (parse_graph, "p ecg 1_0 1 1\ne 1 2 1\n", "line 1: non-integer field in header"),
        (parse_graph, "p ecg 3 1 1\ne 1 \uff12 1\n", "line 2: non-integer field in edge line"),
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
        (lambda t: parse_cut(t, 20), "s 1_0\n", "line 1: non-integer vertex"),
        (lambda t: parse_cut(t, 4), "s \u0663\n", "line 1: non-integer vertex"),
        (lambda t: parse_cut(t, 4), "s 1 5\n", "line 1: cut vertex outside 1..4"),
        (parse_dimacs, "p cnf 3 1\np cnf 3 1\n", "line 2: duplicate header"),
        (parse_dimacs, "p cnf three 1\n", "line 1: non-integer field in header"),
        (parse_dimacs, "p cnf 3 -1\n", "line 1: negative count in header"),
        (parse_dimacs, "c x\n1 2 3 0\np cnf 3 1\n", "line 2: clause data before"),
        (parse_dimacs, "p cnf 3 1\n1 b 3 0\n", "line 2: non-integer literal"),
        (parse_dimacs, "p cnf 3_0 1\n1 -2 3 0\n", "line 1: non-integer field in header"),
        (parse_dimacs, "p cnf 3 1\n1 -2 \uff13 0\n", "line 2: non-integer literal"),
        (parse_dimacs, "c only a comment\n", "line 1: missing 'p cnf' header"),
        (parse_provenance, "color 1 fresh\nvertex 2 hub\n", "line 2: unknown vertex tag"),
        (parse_provenance, "color 1 fresh\nvertex 1_0 apex\n", "line 2: non-integer id"),
        (parse_provenance, "vertex \u0663 apex\n", "line 1: non-integer id"),
        (
            parse_provenance,
            "color 1 fresh\ncolor 01 clause 1\n",
            "line 2: color 1 already defined on line 1",
        ),
        (
            parse_provenance,
            "vertex 1 apex\n\nvertex 1 corner 1 1\n",
            "line 3: vertex 1 already defined on line 1",
        ),
        # the provenance checks run over the whole file at once, and a file
        # that fails them is walked for the first faulty line
        (parse_provenance, "color 1 fresh\ncolor 2\n", "line 2: malformed provenance line"),
        (
            parse_provenance,
            "color 1 fresh\n\nedge 3 fresh\n",
            "line 3: malformed provenance line",
        ),
        pytest.param(
            parse_provenance,
            "".join(f"color {c} fresh\n" for c in range(1, 1001)) + "color 7 clause 1\n",
            "line 1001: color 7 already defined on line 7",
            id="repeat-after-1000-lines",
        ),
    ],
)
def test_parse_errors_name_the_line(parse, text, message):
    # the message opens with the offending line wherever one is to blame,
    # and stays short whatever the header declares
    with pytest.raises(FormatError) as exc:
        parse(text)
    assert str(exc.value).startswith(message)
    assert len(str(exc.value)) < 200


# A token `int` takes that is no sign and ASCII digits, one `int` rejects,
# and a plain one of each kind; the last is one digit over CPython's limit.
INT_TOKENS = ("7", "007", "+7", "-0", "1_0", "\u0667", "\uff17", "+", "-", "0x7", "7" * 4301)
# `_` takes a text off `int`'s shortcut (`_int_reader`)
TOOL = "c made_by_tool\n"
DENSE = "p ecg 8 16 1\n" + "e 1 2 1\n" * 15  # m >= 2 max(n, p): the edge token cache
PROV_TOOL = "vertex 9 subdiv made_by_tool\n"


def _outcome(parse, text):
    try:
        return parse(text)
    except FormatError as exc:
        return f"FormatError: {exc}"


@pytest.mark.parametrize("token", INT_TOKENS, ids=lambda t: repr(t)[:12])
@pytest.mark.parametrize(
    "parse,template,message",
    [
        (parse_graph, "p ecg {} 0 0\n", "line 1: non-integer field in header"),
        (parse_graph, TOOL + "p ecg {} 0 0\n", "line 2: non-integer field in header"),
        (parse_graph, "p ecg 8 1 1\ne 1 {} 1\n", "line 2: non-integer field in edge line"),
        (parse_graph, TOOL + "p ecg 8 1 1\ne 1 {} 1\n", "line 3: non-integer field in edge"),
        (parse_graph, DENSE + "e 1 {} 1\n", "line 17: non-integer field in edge line"),
        (parse_dimacs, "p cnf {} 0\n", "line 1: non-integer field in header"),
        (parse_dimacs, TOOL + "p cnf {} 0\n", "line 2: non-integer field in header"),
        (parse_dimacs, "p cnf 8 1\n{} 0\n", "line 2: non-integer literal"),
        (parse_dimacs, TOOL + "p cnf 8 1\n{} 0\n", "line 3: non-integer literal"),
        (lambda t: parse_cut(t, 8), "s {}\n", "line 1: non-integer vertex"),
        (parse_provenance, "vertex {} apex\n", "line 1: non-integer id"),
        (parse_provenance, PROV_TOOL + "vertex {} apex\n", "line 2: non-integer id"),
        (
            lambda t: _walk_provenance(t.splitlines()),
            "color 1 fresh\nvertex {} apex\n",
            "line 2: non-integer id",
        ),
    ],
)
def test_every_reader_takes_one_integer_rule(parse, template, message, token):
    # each reader takes exactly the tokens of a sign and ASCII digits that
    # `int` reads, as the int they spell, and names its line for any other
    value = plain_int(token)
    if value is None:
        with pytest.raises(FormatError) as exc:
            parse(template.format(token))
        assert str(exc.value).startswith(message)
        assert "Exceeds" not in str(exc.value)
    else:
        assert _outcome(parse, template.format(token)) == _outcome(
            parse, template.format(value)
        )


@pytest.mark.parametrize("token", INT_TOKENS, ids=lambda t: repr(t)[:12])
@pytest.mark.parametrize("prefix", ["", PROV_TOOL], ids=["plain", "tool"])
def test_a_provenance_meaning_is_an_int_by_the_same_rule_or_text(prefix, token):
    text = prefix + f"vertex 1 subdiv {token}\n"
    value = plain_int(token)
    expected = ("subdiv", token if value is None else value)
    assert parse_provenance(text)[1][1] == expected
    assert _walk_provenance(text.splitlines())[1][1] == expected


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
        (lambda: make_oct_one(_NO_FORMULA), "artifact has no active clause"),
        (
            lambda: make_k4mf_connected(multigraph_to_simple(_NO_FORMULA)),
            "artifact has no active clause",
        ),
        (
            lambda: make_oct_one(
                ReductionArtifact(RAINBOW_TRIANGLE, ReductionKind.PLANAR_MULTI, None, (0,))
            ),
            "vertex 1 is not a clause corner",
        ),
        (
            lambda: make_oct_one(
                ReductionArtifact(
                    ColoredGraph(4, RAINBOW_TRIANGLE.edges, 3),
                    ReductionKind.PLANAR_MULTI,
                    None,
                    (0,),
                    vertex_meaning={v: ("corner", 1, v) for v in (1, 2, 3)},
                )
            ),
            "graph has 4 vertices, expected 3 per active clause (3)",
        ),
        (
            lambda: make_k4mf_connected(
                ReductionArtifact(
                    ColoredGraph(5, ((1, 4, 1), (2, 4, 2), (3, 4, 3), (4, 5, 4), (1, 2, 5)), 5),
                    ReductionKind.PLANAR_SIMPLE,
                    None,
                    (0,),
                    vertex_meaning={v: ("corner", 1, v) for v in (1, 2, 3)},
                )
            ),
            "vertex 4 has degree 4 but is not a clause corner",
        ),
        (
            lambda: make_k4mf_connected(
                ReductionArtifact(
                    ColoredGraph(2, ((1, 2, 1),), 1),
                    ReductionKind.PLANAR_SIMPLE,
                    None,
                    (0,),
                    vertex_meaning={v: ("corner", 1, v) for v in (1, 2, 3)},
                )
            ),
            "graph has 2 vertices, fewer than 3 per active clause (3)",
        ),
        (lambda: CnfFormula(-1, ()), "variable count must be nonnegative, got -1"),
        (
            lambda: solve_via_kernel(ColoredGraph(1, (), 0)),
            "no nontrivial cut exists on 1 vertices",
        ),
    ],
)
def test_bad_arguments_name_the_fault(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_bfs_labels_against_a_union_find_oracle():
    # pair lists with repeats, in shuffled order: the labels cover exactly
    # the touched vertices, each root is its component's smallest vertex, and
    # each other vertex's parent shares a pair with it at the other parity
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randint(1, 14)
        pairs = [tuple(rng.sample(range(1, n + 2), 2)) for _ in range(rng.randint(0, 2 * n))]
        pairs += rng.sample(pairs, len(pairs) // 3)
        rng.shuffle(pairs)
        parent = {x: x for pair in pairs for x in pair}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for u, v in pairs:
            a, b = sorted((find(u), find(v)))
            parent[b] = a  # the smaller root stays, so roots are minima
        joined = {frozenset(pair) for pair in pairs}
        labels = _bfs_labels(pairs)
        assert labels.keys() == parent.keys()
        for v, (root, parity, up) in labels.items():
            assert root == find(v)
            if v == root:
                assert (parity, up) == (0, v)
            else:
                assert {v, up} in joined and labels[up][1] == 1 - parity


def test_parse_cut():
    assert parse_cut("s 1 3\n", 4) == Cut(4, frozenset({1, 3}))
    with pytest.raises(FormatError):
        parse_cut("s 3 1\n", 4)  # not increasing
    with pytest.raises(FormatError):
        parse_cut("s 1 2 3 4\n", 4)  # not proper
    with pytest.raises(FormatError):
        parse_cut("x 1\n", 4)
    # a sign and ASCII digits only; any whitespace splits the fields
    assert parse_cut("s +1\u00a03\n", 4) == Cut(4, frozenset({1, 3}))
    with pytest.raises(FormatError):
        parse_cut("s 1 \uff13\n", 4)  # full-width digit


def test_serialize_cut_sorted():
    assert serialize_cut(Cut(4, frozenset({3, 1}))) == "s 1 3\n"
    assert parse_cut(serialize_cut(Cut(4, frozenset({2}))), 4) == Cut(4, frozenset({2}))


@pytest.mark.parametrize(
    "m", [0, 1, _WRITE_CHUNK - 1, _WRITE_CHUNK, _WRITE_CHUNK + 1, 3 * _WRITE_CHUNK + 5]
)
def test_serialize_graph_matches_a_line_per_edge_at_chunk_boundaries(m):
    # the writer formats whole chunks of edges at once; each file must equal
    # the one written an edge at a time
    n = 2 + m
    g = ColoredGraph(n, [(e + 1, e + 3, e + 1) for e in range(m)], m)
    reference = "".join([f"p ecg {n} {m} {m}\n", *(f"e {u} {v} {c}\n" for u, v, c in g.edges)])
    assert serialize_graph(g) == reference
    assert parse_graph(reference) == g


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
    assert cut_colors(g, cut) == cut_colors(g, Cut(g.n, set(range(1, g.n + 1)) - members))


# ---------------------------------------------------------------------------
# the builders that pause the cyclic garbage collector

_GC_FORMULA = CnfFormula(3, ((1, -2, -3), (-1, 2, 3), (-1, -2, 3)))
_GC_MULTI = sat_to_multigraph(_GC_FORMULA)
_GC_SIMPLE = multigraph_to_simple(_GC_MULTI)

# name -> (a call that returns, a call that raises, what it raises)
_PAUSED_BUILDERS = {
    "graph.parse_graph": (
        lambda: parse_graph(serialize_graph(RAINBOW_TRIANGLE)),
        lambda: parse_graph("p ecg 2 1 1\ne 1 1 1\n"),
        FormatError,
    ),
    "graph.serialize_graph": (
        lambda: serialize_graph(RAINBOW_TRIANGLE),
        lambda: serialize_graph(None),
        AttributeError,
    ),
    "reductions.parse_provenance": (
        lambda: parse_provenance(serialize_provenance(_GC_SIMPLE)),
        lambda: parse_provenance("color 1 bogus\n"),
        FormatError,
    ),
    "reductions.serialize_provenance": (
        lambda: serialize_provenance(_GC_SIMPLE),
        lambda: serialize_provenance(None),
        AttributeError,
    ),
    "reductions.sat_to_multigraph": (
        lambda: sat_to_multigraph(_GC_FORMULA),
        lambda: sat_to_multigraph(CnfFormula(2, ((1, -2),))),
        ValueError,
    ),
    "reductions.multigraph_to_simple": (
        lambda: multigraph_to_simple(_GC_MULTI),
        lambda: multigraph_to_simple(_GC_SIMPLE),
        ValueError,
    ),
    "reductions.make_k4mf_connected": (
        lambda: make_k4mf_connected(_GC_SIMPLE),
        lambda: make_k4mf_connected(_GC_MULTI),
        ValueError,
    ),
    "reductions.make_oct_one": (
        lambda: make_oct_one(_GC_MULTI),
        lambda: make_oct_one(_GC_SIMPLE),
        ValueError,
    ),
    "reductions.embed_complete": (
        lambda: embed_complete(_GC_SIMPLE.graph),
        lambda: embed_complete(_GC_MULTI.graph),  # parallel edges
        ValueError,
    ),
    "reductions.embed_complete_artifact": (
        lambda: embed_complete_artifact(_GC_SIMPLE),
        lambda: embed_complete_artifact(_GC_MULTI),
        ValueError,
    ),
    "reductions.nae_to_cliques": (
        lambda: nae_to_cliques(_GC_FORMULA),
        lambda: nae_to_cliques(CnfFormula(3, ())),
        ValueError,
    ),
    "reductions.verify_structural": (
        lambda: verify_structural(_GC_SIMPLE),
        lambda: verify_structural(None),
        AttributeError,
    ),
}


def test_the_paused_builders_are_the_graph_sized_ones():
    # the solve and kernel routes are not paused; cli.main is, by the same helper
    paused = {
        f"{layer}.{name}"
        for layer in ("cli", "graph", "kernel", "reductions", "sat", "solve")
        for name, fn in vars(importlib.import_module(f"coloredcut.{layer}")).items()
        if inspect.isfunction(fn)
        and fn.__module__ == f"coloredcut.{layer}"
        and getattr(fn, "__wrapped__", None) is not None
    }
    assert paused == {*_PAUSED_BUILDERS, "cli.main"}


def test_gc_paused_turns_the_collector_off_inside_and_nests():
    seen = []

    @_gc_paused
    def inner():
        seen.append(gc.isenabled())

    @_gc_paused
    def outer(fail):
        seen.append(gc.isenabled())
        inner()
        seen.append(gc.isenabled())  # the inner call left it off
        if fail:
            raise KeyError(fail)
        return "done"

    assert gc.isenabled()
    try:
        assert outer(None) == "done"
        assert gc.isenabled()
        with pytest.raises(KeyError):
            outer("boom")
        assert gc.isenabled()
        gc.disable()
        outer(None)
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert seen == [False] * 9


@pytest.mark.parametrize("was_enabled", [True, False])
@pytest.mark.parametrize("name", sorted(_PAUSED_BUILDERS))
def test_paused_builders_restore_the_gc_state(name, was_enabled):
    returns, raises, error = _PAUSED_BUILDERS[name]
    (gc.enable if was_enabled else gc.disable)()
    try:
        returns()
        assert gc.isenabled() is was_enabled
        with pytest.raises(error):
            raises()
        assert gc.isenabled() is was_enabled
    finally:
        gc.enable()
