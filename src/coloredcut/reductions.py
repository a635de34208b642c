"""Generators and verifiers for hardness instances of colorful cut.

Each generator turns a CNF formula (or a graph) into an edge-colored graph
whose colorful cuts correspond to satisfying (or not-all-equal) assignments,
together with provenance describing what every color and vertex encodes:

* ``sat_to_multigraph``: clause triangles with one pair-color per
  (positive occurrence, negative occurrence) pair of a variable; parallel
  edges realize the pairing.
* ``multigraph_to_simple``: every edge becomes a three-edge path; the middle
  edge keeps the color, the end edges get fresh single-edge colors.
* ``make_k4mf_connected``: joins the clause gadgets through a binary tree and
  splits high-degree vertices into paths, yielding a connected graph with
  maximum degree three, no K4 minor, and at most two edges per color.
* ``make_oct_one``: merges one corner per triangle into a single apex, so
  deleting that vertex leaves a bipartite graph.
* ``embed_complete``: adds a universal vertex and paints all missing edges
  with one fresh color, producing a complete graph.
* ``nae_to_cliques``: monochromatic clause triangles plus per-variable
  connector vertices; every color class induces a K2 or a K3.

The provenance sidecar is line-oriented::

    color <id> pair <var> <j> <k>
    color <id> clause <j>
    color <id> fresh
    vertex <id> corner <clause> <t>
    vertex <id> a <var>            (or b <var>)
    vertex <id> tree <node>
    vertex <id> subdiv <args...>
    vertex <id> apex
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from enum import Enum
from operator import itemgetter

from .errors import FormatError, InvariantError
from .graph import (
    ColoredGraph,
    Cut,
    _Record,
    _bfs_labels,
    _color_classes,
    _gc_paused,
    _int_reader,
    _read_int,
    is_colorful,
)
from .sat import Assignment, CnfFormula, nae_satisfies, satisfies


class ReductionKind(Enum):
    PLANAR_MULTI = "planar-multi"
    PLANAR_SIMPLE = "planar-simple"
    K4MF = "k4mf"
    OCT_ONE = "oct1"
    COMPLETE = "complete"
    NAE_CLIQUES = "nae"


class ReductionArtifact(_Record):
    """A generated graph plus the bookkeeping tying it back to its formula.

    literal_edge_map, output data only, sends (variable, occurrence index,
    is_positive) to the 0-based edge indices realizing that literal
    occurrence.  active_clauses lists the 0-based indices of the source
    clauses that survived preprocessing (all for the not-all-equal form).
    kind must be a `ReductionKind` member (else TypeError), so
    `verify_structural` meets only the six kinds it checks.
    Each dict left out starts as a fresh empty one.  A derived artifact
    (`_derived`) shares with its source every field it does not change.
    """

    __slots__ = (
        "graph",
        "kind",
        "formula",
        "active_clauses",
        "literal_edge_map",
        "color_meaning",
        "vertex_meaning",
    )
    graph: ColoredGraph
    kind: ReductionKind
    formula: CnfFormula | None
    active_clauses: tuple[int, ...]
    literal_edge_map: dict[tuple[int, int, bool], tuple[int, ...]]
    color_meaning: dict[int, tuple]
    vertex_meaning: dict[int, tuple]

    def __init__(
        self,
        graph: ColoredGraph,
        kind: ReductionKind,
        formula: CnfFormula | None,
        active_clauses: tuple[int, ...] = (),
        literal_edge_map: dict[tuple[int, int, bool], tuple[int, ...]] | None = None,
        color_meaning: dict[int, tuple] | None = None,
        vertex_meaning: dict[int, tuple] | None = None,
    ) -> None:
        if not isinstance(kind, ReductionKind):
            raise TypeError(f"kind must be a ReductionKind, got {kind!r}")
        maps = [{} if d is None else d for d in (literal_edge_map, color_meaning, vertex_meaning)]
        super().__init__(graph, kind, formula, active_clauses, *maps)

    def _derived(self, graph: ColoredGraph, kind: ReductionKind, **changed) -> ReductionArtifact:
        """An artifact of `kind` on `graph` that shares every field of this one
        not named in `changed`: the same objects, through the constructor."""
        shared = {name: getattr(self, name) for name in self.__slots__[2:]}
        return ReductionArtifact(graph, kind, **(shared | changed))


# ---------------------------------------------------------------------------
# preprocessing


def strip_single_polarity(
    f: CnfFormula,
) -> tuple[tuple[int, ...], tuple[int, ...], dict[int, bool]]:
    """Iteratively drop clauses containing a variable of a single polarity.

    Such clauses are trivially satisfiable by pointing the one-sided variable
    at its polarity.  Returns (kept clause indices, removed clause indices,
    forced values that satisfy every removed clause).
    """
    kept = list(range(len(f.clauses)))
    forced: dict[int, bool] = {}
    while True:
        polarity: dict[int, set[bool]] = defaultdict(set)
        for j in kept:
            for lit in f.clauses[j]:
                polarity[abs(lit)].add(lit > 0)
        one_sided = {v: pols for v, pols in polarity.items() if len(pols) == 1}
        if not one_sided:
            break
        for v, pols in one_sided.items():
            forced[v] = next(iter(pols))
        kept = [
            j
            for j in kept
            if not any(abs(lit) in one_sided for lit in f.clauses[j])
        ]
    kept_set = set(kept)
    removed = tuple(j for j in range(len(f.clauses)) if j not in kept_set)
    return tuple(kept), removed, forced


def _occurrences(
    clauses: list[tuple[int, ...]]
) -> tuple[dict[int, list[tuple[int, int]]], dict[int, list[tuple[int, int]]]]:
    """Positive/negative occurrence lists: var -> [(clause index, slot 1..3)]."""
    pos: dict[int, list[tuple[int, int]]] = defaultdict(list)
    neg: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for j, clause in enumerate(clauses):
        for slot, lit in enumerate(clause, start=1):
            (pos if lit > 0 else neg)[abs(lit)].append((j, slot))
    return pos, neg


# ---------------------------------------------------------------------------
# clause triangles with pair colors

_SLOT_CORNERS = {1: (1, 2), 2: (2, 3), 3: (3, 1)}  # slot -> corner offsets


@_gc_paused
def sat_to_multigraph(f: CnfFormula) -> ReductionArtifact:
    """Clause-triangle multigraph whose colorful cuts are satisfying assignments.

    Clause j becomes a triangle on vertices 3j+1..3j+3 (0-based j); its t-th
    literal owns one triangle side.  For variable i with positive occurrences
    numbered j and negative occurrences numbered k, color (i,j,k) appears on
    exactly two parallel-edge slots: the j-th positive side (one parallel
    edge per k) and the k-th negative side (one per j).  Colors are numbered
    by ascending (variable, j, k).
    """
    if any(len(cl) != 3 for cl in f.clauses):
        raise ValueError("every clause must have exactly three literals")
    kept, _, _ = strip_single_polarity(f)
    if not kept:
        raise ValueError("no clauses left after removing single-polarity variables")
    clauses = [f.clauses[j] for j in kept]
    pos, neg = _occurrences(clauses)

    pair_color: dict[tuple[int, int, int], int] = {}
    color_meaning: dict[int, tuple] = {}
    for i in sorted(pos):
        for j in range(1, len(pos[i]) + 1):
            for k in range(1, len(neg[i]) + 1):
                color = len(pair_color) + 1
                pair_color[(i, j, k)] = color
                color_meaning[color] = ("pair", i, j, k)

    edges: list[tuple[int, int, int]] = []
    literal_edge_map: dict[tuple[int, int, bool], tuple[int, ...]] = {}
    vertex_meaning: dict[int, tuple] = {}
    seen: Counter[int] = Counter()  # occurrences of each literal numbered so far
    for j, clause in enumerate(clauses):
        for slot, lit in enumerate(clause, start=1):
            vertex_meaning[3 * j + slot] = ("corner", j + 1, slot)
            off_a, off_b = _SLOT_CORNERS[slot]
            a, b = 3 * j + off_a, 3 * j + off_b
            var, positive = abs(lit), lit > 0
            seen[lit] += 1
            number = seen[lit]
            partners = len(neg[var]) if positive else len(pos[var])
            first = len(edges)
            for other in range(1, partners + 1):
                key = (var, number, other) if positive else (var, other, number)
                edges.append((a, b, pair_color[key]))
            literal_edge_map[(var, number, positive)] = tuple(range(first, len(edges)))
    graph = ColoredGraph(3 * len(clauses), tuple(edges), len(pair_color))
    return ReductionArtifact(
        graph,
        ReductionKind.PLANAR_MULTI,
        f,
        kept,
        literal_edge_map,
        color_meaning,
        vertex_meaning,
    )


def _clause_triangles(a: ReductionArtifact) -> int:
    """The number m of clause triangles, after checking that the graph has
    vertices 1..3m and that they carry the corner meanings `sat_to_multigraph`
    writes for them."""
    m = len(a.active_clauses)
    if m == 0:
        raise ValueError("artifact has no active clause")
    if a.graph.n < 3 * m:
        raise ValueError(f"graph has {a.graph.n} vertices, fewer than 3 per active clause ({3 * m})")
    for v in range(1, 3 * m + 1):
        meaning = a.vertex_meaning.get(v, ())
        if len(meaning) != 3 or meaning[0] != "corner":
            raise ValueError(f"vertex {v} is not a clause corner")
    return m


# ---------------------------------------------------------------------------
# witness translation


def assignment_to_cut(a: ReductionArtifact, asg: Assignment) -> Cut:
    """Turn a satisfying (or NAE-satisfying) assignment into a colorful cut."""
    if a.formula is None:
        raise ValueError("artifact carries no source formula")
    if a.kind is ReductionKind.PLANAR_MULTI:
        if not satisfies(a.formula, asg):
            raise ValueError("assignment does not satisfy the source formula")
        clauses = [a.formula.clauses[j] for j in a.active_clauses]
        s_side: set[int] = set()
        for j, clause in enumerate(clauses):
            slot = next(
                t
                for t, lit in enumerate(clause, start=1)
                if asg[abs(lit)] == (lit > 0)
            )
            off_a, off_b = _SLOT_CORNERS[slot]
            # endpoints of the chosen true literal's side stay together
            s_side.update((3 * j + off_a, 3 * j + off_b))
        return Cut(a.graph.n, frozenset(s_side))
    if a.kind is ReductionKind.NAE_CLIQUES:
        if not nae_satisfies(a.formula, asg):
            raise ValueError("assignment does not NAE-satisfy the source formula")
        s_side = set()
        for v, meaning in a.vertex_meaning.items():
            if meaning[0] == "corner":
                j, t = meaning[1], meaning[2]
                lit = a.formula.clauses[j - 1][t - 1]
                if asg[abs(lit)] == (lit > 0):
                    s_side.add(v)
            elif meaning[0] == "a":
                if not asg[meaning[1]]:
                    s_side.add(v)
            elif meaning[0] == "b":
                if asg[meaning[1]]:
                    s_side.add(v)
        return Cut(a.graph.n, frozenset(s_side))
    raise ValueError(f"no assignment-to-cut recipe for kind {a.kind.value}")


def cut_to_assignment(a: ReductionArtifact, cut: Cut) -> Assignment:
    """Extract a satisfying (or NAE-satisfying) assignment from a colorful cut.

    On planar-multi a variable is true when a side its positive literal owns,
    as in `assignment_to_cut`, does not cross; one that no kept clause holds
    takes its `strip_single_polarity` value, or False."""
    if a.formula is None:
        raise ValueError("artifact carries no source formula")
    if not is_colorful(a.graph, cut):
        raise ValueError("cut is not colorful")
    f = a.formula
    if a.kind is ReductionKind.PLANAR_MULTI:
        _, _, forced = strip_single_polarity(f)
        asg: Assignment = {v: forced.get(v, False) for v in range(1, f.var_count + 1)}
        # a kept clause holds no forced variable, so its variables start False
        for j, kept in enumerate(a.active_clauses):
            for slot, lit in enumerate(f.clauses[kept], start=1):
                off_a, off_b = _SLOT_CORNERS[slot]
                if lit > 0 and not cut.crosses(3 * j + off_a, 3 * j + off_b):
                    asg[lit] = True
        if not satisfies(f, asg):
            raise InvariantError("colorful cut produced a non-satisfying assignment")
        return asg
    if a.kind is ReductionKind.NAE_CLIQUES:
        pos, neg = _occurrences(list(f.clauses))
        asg = {}
        for var in range(1, f.var_count + 1):
            if pos.get(var):
                j, slot = pos[var][0]
                asg[var] = (3 * j + slot) in cut.s_side
            elif neg.get(var):
                j, slot = neg[var][0]
                asg[var] = (3 * j + slot) not in cut.s_side
            else:
                asg[var] = False
        if not nae_satisfies(f, asg):
            raise InvariantError("colorful cut produced a non-NAE assignment")
        return asg
    raise ValueError(f"no cut-to-assignment recipe for kind {a.kind.value}")


# ---------------------------------------------------------------------------
# simple-graph form: replace every edge by a three-edge path


@_gc_paused
def multigraph_to_simple(a: ReductionArtifact) -> ReductionArtifact:
    """Replace edge e = {v,w} by v-x-y-w; the middle edge keeps e's color and
    the end edges get fresh single-edge colors, preserving colorful cuts.
    A literal occurrence moves to the middle edges of its old edges."""
    if a.kind is not ReductionKind.PLANAR_MULTI:
        raise ValueError(f"expected a {ReductionKind.PLANAR_MULTI.value} artifact")
    g = a.graph
    edges: list[tuple[int, int, int]] = []
    color_meaning = dict(a.color_meaning)
    vertex_meaning = dict(a.vertex_meaning)
    for e, (u, v, c) in enumerate(g.edges):
        x = g.n + 2 * e + 1
        y = g.n + 2 * e + 2
        f1 = g.p + 2 * e + 1
        f2 = g.p + 2 * e + 2
        edges.extend([(u, x, f1), (x, y, c), (y, v, f2)])
        color_meaning[f1] = ("fresh",)
        color_meaning[f2] = ("fresh",)
        vertex_meaning[x] = ("subdiv", "edge", e + 1, 1)
        vertex_meaning[y] = ("subdiv", "edge", e + 1, 2)
    literal_edge_map = {
        key: tuple(3 * e + 1 for e in indices)
        for key, indices in a.literal_edge_map.items()
    }
    return a._derived(
        ColoredGraph(g.n + 2 * g.m, tuple(edges), g.p + 2 * g.m),
        ReductionKind.PLANAR_SIMPLE,
        literal_edge_map=literal_edge_map,
        color_meaning=color_meaning,
        vertex_meaning=vertex_meaning,
    )


# ---------------------------------------------------------------------------
# connected, max degree 3, K4-minor-free form


@_gc_paused
def make_k4mf_connected(a: ReductionArtifact) -> ReductionArtifact:
    """Connect the clause gadgets by a binary tree and split every vertex of
    degree four or more into a path.

    The tree has one leaf per gadget (heap-ordered complete binary tree on m
    leaves; a single node when m = 1) attached to the gadget's lowest-index
    maximum-degree vertex; every added edge gets a fresh color.  Only clause
    corners may reach degree four.  Their edges split into bundles by position:
    `multigraph_to_simple` writes triangle side e as edges 3e = (a, x) and
    3e+2 = (y, b), with b the corner after a around the triangle, so the L
    edges that end at a corner come from the previous corner and the R edges
    that start there lead to the next one.  The corner becomes a path on
    2*max(1, s - 1) + 1 fresh vertices, s = max(1, L - 1) + max(1, R - 1).
    In edge order, the incoming bundle takes the first path vertex twice and
    then every second vertex inward, the outgoing bundle likewise from the
    last vertex, and a tree edge moves to the second path vertex.  Path
    edges carry fresh colors, so in any colorful cut the path alternates
    sides and all attachment points land together, which is what keeps the
    cut correspondence exact.  The disjoint attachment blocks, oriented
    around the triangle, keep every repaired triangle outerplanar, hence
    free of K4 minors.  Middle edges keep their indices and never touch a
    split vertex, so literal_edge_map is shared with `a`.
    """
    if a.kind is not ReductionKind.PLANAR_SIMPLE:
        raise ValueError(f"expected a {ReductionKind.PLANAR_SIMPLE.value} artifact")
    m = _clause_triangles(a)
    h = a.graph
    n1 = h.n + 2 * m - 1
    edges = [[u, v, c] for u, v, c in h.edges]
    color_meaning = dict(a.color_meaning)
    # incident[v]: (edge index, side of v in the edge), in edge order
    incident: list[list[tuple[int, int]]] = [[] for _ in range(n1 + 1)]
    for idx, (u, v, _) in enumerate(h.edges):
        incident[u].append((idx, 0))
        incident[v].append((idx, 1))

    # Gadget j's corners are 3j+1..3j+3, each of degree >= 2; its subdivision
    # vertices have degree 2 and higher numbers, so the gadget's lowest-index
    # maximum-degree vertex is its first corner of maximum degree.
    degree = [len(ends) for ends in incident]
    for v in range(3 * m + 1, h.n + 1):
        if degree[v] >= 4:
            raise ValueError(f"vertex {v} has degree {degree[v]} but is not a clause corner")
    attach = [max(range(3 * j + 1, 3 * j + 4), key=degree.__getitem__) for j in range(m)]

    # binary tree on m leaves, heap order: nodes 1..2m-1, leaves m..2m-1;
    # its edges follow h's, from index tree_start on
    tree_start = h.m
    tree = [(h.n + t // 2, h.n + t) for t in range(2, 2 * m)]
    tree += [(attach[j], h.n + m + j) for j in range(m)]
    for u, v in tree:
        incident[u].append((len(edges), 0))
        incident[v].append((len(edges), 1))
        color = len(color_meaning) + 1
        color_meaning[color] = ("fresh",)
        edges.append([u, v, color])

    vertex_meaning = dict(a.vertex_meaning)
    for t in range(1, 2 * m):
        vertex_meaning[h.n + t] = ("tree", t)

    split: set[int] = set()
    next_id = n1
    for v, ends in enumerate(incident):
        if len(ends) < 4:
            continue
        sides = [side for idx, side in ends if idx < tree_start]
        slots = max(1, sides.count(1) - 1) + max(1, sides.count(0) - 1)
        path = list(range(next_id + 1, next_id + 2 * max(1, slots - 1) + 2))
        next_id = path[-1]
        # side 0 leads to the next corner: right end; side 1: left end
        targets = (iter([path[-1], *path[::-2]]), iter([path[0], *path[::2]]))
        for idx, side in ends:
            edges[idx][side] = next(targets[side]) if idx < tree_start else path[1]
        for w, x in zip(path, path[1:]):
            color = len(color_meaning) + 1
            color_meaning[color] = ("fresh",)
            edges.append([w, x, color])
        split.add(v)
        _, j, t = vertex_meaning.pop(v)
        for pos, w in enumerate(path, start=1):
            vertex_meaning[w] = ("subdiv", "corner", j, t, pos)

    survivors = [v for v in range(1, next_id + 1) if v not in split]
    rename = {old: new for new, old in enumerate(survivors, start=1)}
    graph = ColoredGraph(
        len(survivors), [(rename[u], rename[v], c) for u, v, c in edges], len(color_meaning)
    )
    return a._derived(
        graph,
        ReductionKind.K4MF,
        color_meaning=color_meaning,
        vertex_meaning={rename[v]: meaning for v, meaning in vertex_meaning.items()},
    )


# ---------------------------------------------------------------------------
# odd-cycle-transversal-number-one form


@_gc_paused
def make_oct_one(a: ReductionArtifact) -> ReductionArtifact:
    """Merge the lowest-index corner of every triangle into one apex vertex.

    The apex becomes vertex 1; deleting it leaves a bipartite graph.  Edge
    order, colors, and the cut correspondence are unchanged because the merged
    corners can always be flipped onto a common side triangle by triangle,
    so only the vertex meanings change; the other dicts are shared with `a`.
    """
    if a.kind is not ReductionKind.PLANAR_MULTI:
        raise ValueError(f"expected a {ReductionKind.PLANAR_MULTI.value} artifact")
    m = _clause_triangles(a)
    g = a.graph
    if g.n != 3 * m:
        raise ValueError(f"graph has {g.n} vertices, expected 3 per active clause ({3 * m})")
    designated = {3 * j + 1 for j in range(m)}
    survivors = [v for v in range(1, g.n + 1) if v not in designated]
    rename = {old: new for new, old in enumerate(survivors, start=2)}
    rename.update({v: 1 for v in designated})
    edges = tuple((rename[u], rename[v], c) for u, v, c in g.edges)
    vertex_meaning: dict[int, tuple] = {1: ("apex",)}
    for v in survivors:
        vertex_meaning[rename[v]] = a.vertex_meaning[v]
    return a._derived(
        ColoredGraph(2 * m + 1, edges, g.p), ReductionKind.OCT_ONE, vertex_meaning=vertex_meaning
    )


# ---------------------------------------------------------------------------
# complete-graph form


@_gc_paused
def embed_complete(g: ColoredGraph) -> ColoredGraph:
    """Add a universal vertex and paint all missing edges with one fresh color.

    The input must be simple.  The new color crosses every maximum colored
    cut (the new vertex always has the whole old graph opposite it), so
    colorful cuts of the output restrict to colorful cuts of g.
    """
    if g.n < 2:
        raise ValueError(f"need at least two vertices, got {g.n}")
    adj, repeat = _adjacency(g)
    if repeat is not None:
        raise ValueError("input has parallel edges")
    fresh = g.p + 1
    new_edges = []
    for u in range(1, g.n + 2):
        near = adj.get(u, ())
        new_edges.extend((u, v, fresh) for v in range(u + 1, g.n + 2) if v not in near)
    # g's edges were checked when g was built: only the new ones are
    return g._extended(g.n + 1, tuple(new_edges), fresh)


@_gc_paused
def embed_complete_artifact(a: ReductionArtifact) -> ReductionArtifact:
    """`embed_complete` on a planar-simple artifact; old edges keep their
    indices, so literal_edge_map is shared with `a`."""
    if a.kind is not ReductionKind.PLANAR_SIMPLE:
        raise ValueError(f"expected a {ReductionKind.PLANAR_SIMPLE.value} artifact")
    g = a.graph
    return a._derived(
        embed_complete(g),
        ReductionKind.COMPLETE,
        color_meaning={**a.color_meaning, g.p + 1: ("fresh",)},
        vertex_meaning={**a.vertex_meaning, g.n + 1: ("apex",)},
    )


# ---------------------------------------------------------------------------
# not-all-equal form


@_gc_paused
def nae_to_cliques(f: CnfFormula) -> ReductionArtifact:
    """Monochromatic clause triangles plus per-variable connector vertices.

    Clause j gets a triangle in color j.  For each occurring variable, a
    fresh-colored star from a_i covers its positive occurrence vertices and
    one from b_i its negative ones; when both polarities occur, one more
    fresh edge bridges the first positive and first negative occurrence.
    Every color class induces a K2 or K3, and colorful cuts are exactly the
    not-all-equal assignments.
    """
    if not f.clauses:
        raise ValueError("formula has no clauses")
    if any(len(cl) != 3 for cl in f.clauses):
        raise ValueError("every clause must have exactly three literals")
    m = len(f.clauses)
    pos, neg = _occurrences(list(f.clauses))
    occurring = sorted(set(pos) | set(neg))

    edges: list[tuple[int, int, int]] = []
    color_meaning: dict[int, tuple] = {}
    vertex_meaning: dict[int, tuple] = {}
    for j in range(m):
        c1, c2, c3 = 3 * j + 1, 3 * j + 2, 3 * j + 3
        edges.extend([(c1, c2, j + 1), (c1, c3, j + 1), (c2, c3, j + 1)])
        color_meaning[j + 1] = ("clause", j + 1)
        for t in (1, 2, 3):
            vertex_meaning[3 * j + t] = ("corner", j + 1, t)

    literal_edge_map: dict[tuple[int, int, bool], tuple[int, ...]] = {}
    fresh = m
    for r, var in enumerate(occurring):
        for positive, hub in ((True, 3 * m + 2 * r + 1), (False, 3 * m + 2 * r + 2)):
            vertex_meaning[hub] = ("a" if positive else "b", var)
            occs = pos[var] if positive else neg[var]
            for number, (j, slot) in enumerate(occs, start=1):
                fresh += 1
                literal_edge_map[(var, number, positive)] = (len(edges),)
                edges.append((hub, 3 * j + slot, fresh))
                color_meaning[fresh] = ("fresh",)
        if pos[var] and neg[var]:
            (pj, ps), (nj, ns) = pos[var][0], neg[var][0]
            fresh += 1
            edges.append((3 * pj + ps, 3 * nj + ns, fresh))
            color_meaning[fresh] = ("fresh",)

    graph = ColoredGraph(3 * m + 2 * len(occurring), tuple(edges), fresh)
    return ReductionArtifact(
        graph,
        ReductionKind.NAE_CLIQUES,
        f,
        tuple(range(m)),
        literal_edge_map,
        color_meaning,
        vertex_meaning,
    )


# Each construction from a 3-CNF formula, as `coloredcut generate` builds it.
_GENERATORS = {
    ReductionKind.PLANAR_MULTI: lambda f: sat_to_multigraph(f),
    ReductionKind.PLANAR_SIMPLE: lambda f: multigraph_to_simple(sat_to_multigraph(f)),
    ReductionKind.K4MF: lambda f: make_k4mf_connected(
        multigraph_to_simple(sat_to_multigraph(f))
    ),
    ReductionKind.OCT_ONE: lambda f: make_oct_one(sat_to_multigraph(f)),
    ReductionKind.COMPLETE: lambda f: embed_complete_artifact(
        multigraph_to_simple(sat_to_multigraph(f))
    ),
    ReductionKind.NAE_CLIQUES: lambda f: nae_to_cliques(f),
}


# ---------------------------------------------------------------------------
# verifiers


def _adjacency(g: ColoredGraph) -> tuple[dict[int, set[int]], tuple[int, int] | None]:
    """Neighbour sets of the vertices that edges touch, and the endpoints
    (u, v), as written, of the first edge in edge order that joins a pair an
    earlier edge already joined (None when g is simple).  A vertex's set is
    made on its first edge, so no edge builds a set it throws away."""
    adj: dict[int, set[int]] = {}
    repeat = None
    for u, v, _ in g.edges:
        if u in adj:
            nbrs = adj[u]
            if repeat is None and v in nbrs:
                repeat = (u, v)
            nbrs.add(v)
        else:
            adj[u] = {v}
        if v in adj:
            adj[v].add(u)
        else:
            adj[v] = {u}
    return adj, repeat


def _reduces_away(adj: dict[int, set[int]]) -> bool:
    """True iff the simple graph `adj` has no K4 minor (Duffin), by exhaustive
    reduction: delete vertices of degree at most one, smooth degree-two
    vertices.  Adjacency sets merge the parallel edges that smoothing creates,
    so a step lowers a degree by at most one and raises none: a vertex is
    queued once, when it starts at degree two or less or when its degree
    falls from three to two, and it is still there, of degree two or less,
    when it is taken.  The reduction is linear.  Consumes `adj`."""
    work = [v for v, nbrs in adj.items() if len(nbrs) <= 2]
    while work:
        v = work.pop()
        nbrs = adj.pop(v)
        if len(nbrs) == 2:
            x, y = nbrs
            ax, ay = adj[x], adj[y]
            ax.remove(v)
            ay.remove(v)
            if y in ax:  # the new edge merges: x and y each lose a neighbour
                if len(ax) == 2:
                    work.append(x)
                if len(ay) == 2:
                    work.append(y)
            else:
                ax.add(y)
                ay.add(x)
        else:
            for x in nbrs:
                ax = adj[x]
                ax.remove(v)
                if len(ax) == 2:
                    work.append(x)
    return not adj


class CheckItem(_Record):
    __slots__ = ("name", "passed", "detail")
    name: str
    passed: bool
    detail: str

    def __init__(self, name: str, passed: bool, detail: str = "") -> None:
        super().__init__(name, passed, detail)


class StructureReport(_Record):
    __slots__ = ("items",)
    items: tuple[CheckItem, ...]

    def __init__(self, items: tuple[CheckItem, ...]) -> None:
        super().__init__(items)

    @property
    def all_passed(self) -> bool:
        return all(item.passed for item in self.items)


def _check_max_degree(g: ColoredGraph, limit: int) -> CheckItem:
    # parallel edges count, so the degree comes from the edges, not `_adjacency`
    degree = Counter(map(itemgetter(0), g.edges))
    degree.update(map(itemgetter(1), g.edges))
    if max(degree.values(), default=0) <= limit:
        return CheckItem(f"max-degree-{limit}", True)
    bad = min(v for v, d in degree.items() if d > limit)
    return CheckItem(
        f"max-degree-{limit}", False, f"vertex {bad} has degree {degree[bad]}"
    )


def _check_class_sizes(g: ColoredGraph, limit: int, exact: bool) -> CheckItem:
    # every color of a valid graph carries an edge, so sizes counts all p of them
    sizes = Counter(map(itemgetter(2), g.edges))
    if exact:
        name = f"color-class-size-{limit}"
        if set(sizes.values()) <= {limit}:
            return CheckItem(name, True)
        bad = min(c for c, size in sizes.items() if size != limit)
    else:
        name = f"color-class-size-le-{limit}"
        if max(sizes.values(), default=0) <= limit:
            return CheckItem(name, True)
        bad = min(c for c, size in sizes.items() if size > limit)
    return CheckItem(name, False, f"color {bad} has {sizes[bad]} edges")


def _check_simple(repeat: tuple[int, int] | None) -> CheckItem:
    """The simple item from `_adjacency`'s first repeated pair."""
    if repeat is None:
        return CheckItem("simple", True)
    return CheckItem("simple", False, "parallel edges between {} and {}".format(*repeat))


def _check_k4mf(g: ColoredGraph) -> list[CheckItem]:
    """The five K4-minor-free items, all read from one `_adjacency`."""
    adj, repeat = _adjacency(g)
    if g.n == 0:
        connected = CheckItem("connected", False, "graph has no vertices")
    else:
        # n = 1 is connected; with n >= 2 every vertex needs an edge, so a key in adj
        queue = [next(iter(adj))] if len(adj) == g.n else []
        reached = set(queue)
        for v in queue:
            for w in adj[v]:
                if w not in reached:
                    reached.add(w)
                    queue.append(w)
        ok = g.n == 1 or len(reached) == g.n
        connected = CheckItem("connected", ok, "" if ok else "graph is disconnected")
    if repeat is not None:  # the simple item names the pair
        series_parallel = CheckItem("series-parallel", False, "input has parallel edges")
    else:
        ok = _reduces_away(adj)  # after the BFS: it consumes adj
        series_parallel = CheckItem("series-parallel", ok, "" if ok else "a K4 minor remains")
    return [
        connected,
        _check_max_degree(g, 3),
        _check_class_sizes(g, 2, exact=False),
        _check_simple(repeat),
        series_parallel,
    ]


def _check_apex_bipartite(a: ReductionArtifact) -> CheckItem:
    apexes = [v for v, meaning in a.vertex_meaning.items() if meaning[0] == "apex"]
    if len(apexes) != 1:
        return CheckItem(
            "apex-removal-bipartite", False, f"expected one apex, found {len(apexes)}"
        )
    apex, n = apexes[0], a.graph.n
    if not 1 <= apex <= n:
        return CheckItem(
            "apex-removal-bipartite", False, f"apex {apex} is outside 1..{n}"
        )
    rest = [(u, v) for u, v, _ in a.graph.edges if apex not in (u, v)]
    labels = _bfs_labels(rest)
    ok = all(labels[u][1] != labels[v][1] for u, v in rest)
    return CheckItem(
        "apex-removal-bipartite", ok, "" if ok else "graph minus apex has an odd cycle"
    )


def _check_complete(g: ColoredGraph) -> CheckItem:
    n, need = g.n, g.n * (g.n - 1) // 2
    if g.m >= need:
        # pair u < v is byte u(n+1) + v of an upper triangle; a complete graph
        # has at least n(n-1)/2 edges, so the (n+1)^2 bytes are bounded by m
        width = n + 1
        marks = bytearray(width * width)
        for u, v, _ in g.edges:
            marks[u * width + v if u < v else v * width + u] = 1
        if marks.count(1) == need:
            return CheckItem("complete", True)
    # name the lexicographically first pair that no edge joins
    pairs = {(u, v) if u < v else (v, u) for u, v, _ in g.edges}
    u, v = next(
        (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if (u, v) not in pairs
    )
    return CheckItem("complete", False, f"missing edge between {u} and {v}")


def _check_clique_classes(g: ColoredGraph) -> CheckItem:
    for c, pairs in enumerate(_color_classes(g), start=1):
        # a class is a clique on the vertices it touches iff it has all their pairs
        touched = len({x for pair in pairs for x in pair})
        if touched not in (2, 3) or len(pairs) != math.comb(touched, 2):
            return CheckItem(
                "color-class-clique", False, f"color {c} does not induce a K2 or K3"
            )
    return CheckItem("color-class-clique", True)


@_gc_paused
def verify_structural(a: ReductionArtifact) -> StructureReport:
    """Kind-specific structural checklist for a generated graph.

    The K4-minor-free kind builds one adjacency (`_adjacency`) and reads its
    connected, simple and series-parallel items from it; the series-parallel
    item fails on parallel edges, which the simple item names.
    """
    g = a.graph
    if a.kind is ReductionKind.PLANAR_MULTI:
        items = [_check_class_sizes(g, 2, exact=True)]
    elif a.kind is ReductionKind.PLANAR_SIMPLE:
        items = [_check_simple(_adjacency(g)[1]), _check_class_sizes(g, 2, exact=False)]
    elif a.kind is ReductionKind.K4MF:
        items = _check_k4mf(g)
    elif a.kind is ReductionKind.OCT_ONE:
        items = [_check_class_sizes(g, 2, exact=True), _check_apex_bipartite(a)]
    elif a.kind is ReductionKind.COMPLETE:
        items = [_check_complete(g)]
    else:  # ReductionKind.NAE_CLIQUES, the sixth kind
        items = [_check_clique_classes(g)]
    return StructureReport(tuple(items))


# ---------------------------------------------------------------------------
# provenance sidecar

_COLOR_TAGS = {"pair", "clause", "fresh"}
_VERTEX_TAGS = {"corner", "a", "b", "tree", "subdiv", "apex"}


@_gc_paused
def serialize_provenance(a: ReductionArtifact) -> str:
    lines = []
    for section, meanings in (("color", a.color_meaning), ("vertex", a.vertex_meaning)):
        # one `%` template per meaning arity; `%s` writes what `str` writes
        template = {
            arity: f"{section} %s " + " ".join(["%s"] * arity)
            for arity in set(map(len, meanings.values()))
        }
        lines += [template[len(m)] % (i, *m) for i in sorted(meanings) for m in (meanings[i],)]
    return "\n".join(lines) + "\n"


class _Tokens(dict):
    """Token -> value: the int `_read_int` reads from t, else t itself.
    Each distinct token is converted once per parse."""

    def __missing__(self, t: str) -> int | str:
        try:
            value = self[t] = _read_int(t)
        except ValueError:
            value = self[t] = t
        return value


@_gc_paused
def parse_provenance(text: str) -> tuple[dict[int, tuple], dict[int, tuple]]:
    """Parse a provenance sidecar into (color_meaning, vertex_meaning).

    An id may appear once per section; a repeat is a FormatError.  Each
    nonblank line is split and stored under its id, read by `_int_reader`,
    the other checks run once over the built dicts, and only a file that
    fails one is walked line by line, for the message naming its first fault.
    """
    lines = text.splitlines()
    convert = _Tokens().__getitem__
    ident = _int_reader(text)
    colors: dict[int, tuple] = {}
    vertices: dict[int, tuple] = {}
    sections = {"color": colors, "vertex": vertices}
    stored = 0
    try:  # an unknown section, a one-token line or a non-integer id raises
        for stored, tokens in enumerate(filter(None, map(str.split, lines)), start=1):
            sections[tokens[0]][ident(tokens[1])] = tuple(map(convert, tokens[2:]))
    except (KeyError, IndexError, ValueError):
        return _walk_provenance(lines)
    for meanings, tags in ((colors, _COLOR_TAGS), (vertices, _VERTEX_TAGS)):
        if (
            not all(meanings.values())  # a two-token line
            or not set(map(itemgetter(0), meanings.values())) <= tags  # no tag is a number
        ):
            return _walk_provenance(lines)
    if len(colors) + len(vertices) < stored:  # a repeated id
        return _walk_provenance(lines)
    return colors, vertices


def _walk_provenance(lines: list[str]) -> tuple[dict[int, tuple], dict[int, tuple]]:
    """`parse_provenance` line by line, raising at the first faulty line."""
    sections = {
        "color": (_COLOR_TAGS, {}, {}),  # (tags, meaning, id -> line of its definition)
        "vertex": (_VERTEX_TAGS, {}, {}),
    }
    convert = _Tokens().__getitem__
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if len(tokens) < 3 or tokens[0] not in sections:
            raise FormatError(f"line {lineno}: malformed provenance line {raw!r}")
        try:
            ident = _read_int(tokens[1])
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer id in {raw!r}")
        tags, meaning, defined = sections[tokens[0]]
        if tokens[2] not in tags:
            raise FormatError(f"line {lineno}: unknown {tokens[0]} tag {tokens[2]!r}")
        first = defined.setdefault(ident, lineno)
        if first != lineno:
            raise FormatError(
                f"line {lineno}: {tokens[0]} {ident} already defined on line {first}"
            )
        meaning[ident] = tuple(map(convert, tokens[2:]))  # no tag is a number
    return sections["color"][1], sections["vertex"][1]
