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
from dataclasses import dataclass, field
from enum import Enum

from .errors import FormatError, InvariantError
from .graph import ColoredGraph, Cut, _bfs_labels, _color_classes, _span, is_colorful
from .sat import Assignment, CnfFormula, nae_satisfies, satisfies


class ReductionKind(Enum):
    PLANAR_MULTI = "planar-multi"
    PLANAR_SIMPLE = "planar-simple"
    K4MF = "k4mf"
    OCT_ONE = "oct1"
    COMPLETE = "complete"
    NAE_CLIQUES = "nae"


@dataclass(frozen=True)
class ReductionArtifact:
    """A generated graph plus the bookkeeping tying it back to its formula.

    literal_edge_map sends (variable, occurrence index, is_positive) to the
    0-based edge indices realizing that literal occurrence.  active_clauses
    lists the 0-based indices of the source clauses that survived
    preprocessing (all of them for the not-all-equal construction).
    """

    graph: ColoredGraph
    kind: ReductionKind
    formula: CnfFormula | None
    active_clauses: tuple[int, ...] = ()
    literal_edge_map: dict[tuple[int, int, bool], tuple[int, ...]] = field(
        default_factory=dict
    )
    color_meaning: dict[int, tuple] = field(default_factory=dict)
    vertex_meaning: dict[int, tuple] = field(default_factory=dict)


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
    """Extract a satisfying (or NAE-satisfying) assignment from a colorful cut."""
    if a.formula is None:
        raise ValueError("artifact carries no source formula")
    if not is_colorful(a.graph, cut):
        raise ValueError("cut is not colorful")
    f = a.formula
    if a.kind is ReductionKind.PLANAR_MULTI:
        _, _, forced = strip_single_polarity(f)
        asg: Assignment = {v: False for v in range(1, f.var_count + 1)}
        asg.update(forced)
        positive_keys = defaultdict(list)
        for (var, number, positive), edge_indices in a.literal_edge_map.items():
            if positive:
                positive_keys[var].append(edge_indices[0])
        for var, first_edges in positive_keys.items():
            asg[var] = any(
                not cut.crosses(a.graph.edges[e][0], a.graph.edges[e][1])
                for e in first_edges
            )
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


def multigraph_to_simple(a: ReductionArtifact) -> ReductionArtifact:
    """Replace edge e = {v,w} by v-x-y-w; the middle edge keeps e's color and
    the end edges get fresh single-edge colors, preserving colorful cuts."""
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
    graph = ColoredGraph(g.n + 2 * g.m, tuple(edges), g.p + 2 * g.m)
    return ReductionArtifact(
        graph,
        ReductionKind.PLANAR_SIMPLE,
        a.formula,
        a.active_clauses,
        literal_edge_map,
        color_meaning,
        vertex_meaning,
    )


# ---------------------------------------------------------------------------
# connected, max degree 3, K4-minor-free form


def make_k4mf_connected(a: ReductionArtifact) -> ReductionArtifact:
    """Connect the clause gadgets by a binary tree and split every vertex of
    degree four or more into a path.

    The tree has one leaf per gadget (heap-ordered complete binary tree on m
    leaves; a single node when m = 1) attached to the gadget's lowest-index
    maximum-degree vertex; every added edge gets a fresh color.  Only clause
    corners reach degree four.  Their edges split into bundles by position:
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
    free of K4 minors.
    """
    if a.kind is not ReductionKind.PLANAR_SIMPLE:
        raise ValueError(f"expected a {ReductionKind.PLANAR_SIMPLE.value} artifact")
    h = a.graph
    m = len(a.active_clauses)
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
    attach = [max(range(3 * j + 1, 3 * j + 4), key=degree.__getitem__) for j in range(m)]

    # binary tree on m leaves, heap order: nodes 1..2m-1, leaves m..2m-1
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
        sides = [side for idx, side in ends if idx < h.m]
        slots = max(1, sides.count(1) - 1) + max(1, sides.count(0) - 1)
        path = list(range(next_id + 1, next_id + 2 * max(1, slots - 1) + 2))
        next_id = path[-1]
        # side 0 leads to the next corner: right end; side 1: left end
        targets = (iter([path[-1], *path[::-2]]), iter([path[0], *path[::2]]))
        for idx, side in ends:
            edges[idx][side] = next(targets[side]) if idx < h.m else path[1]
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
        len(survivors),
        tuple((rename[u], rename[v], c) for u, v, c in edges),
        len(color_meaning),
    )
    return ReductionArtifact(
        graph,
        ReductionKind.K4MF,
        a.formula,
        a.active_clauses,
        dict(a.literal_edge_map),  # middle edges never touch a split vertex
        color_meaning,
        {rename[v]: meaning for v, meaning in vertex_meaning.items()},
    )


# ---------------------------------------------------------------------------
# odd-cycle-transversal-number-one form


def make_oct_one(a: ReductionArtifact) -> ReductionArtifact:
    """Merge the lowest-index corner of every triangle into one apex vertex.

    The apex becomes vertex 1; deleting it leaves a bipartite graph.  Edge
    order, colors, and the cut correspondence are unchanged because the merged
    corners can always be flipped onto a common side triangle by triangle.
    """
    if a.kind is not ReductionKind.PLANAR_MULTI:
        raise ValueError(f"expected a {ReductionKind.PLANAR_MULTI.value} artifact")
    g = a.graph
    m = g.n // 3
    designated = {3 * j + 1 for j in range(m)}
    survivors = [v for v in range(1, g.n + 1) if v not in designated]
    rename = {old: new for new, old in enumerate(survivors, start=2)}
    rename.update({v: 1 for v in designated})
    edges = tuple((rename[u], rename[v], c) for u, v, c in g.edges)
    vertex_meaning: dict[int, tuple] = {1: ("apex",)}
    for v in survivors:
        vertex_meaning[rename[v]] = a.vertex_meaning[v]
    graph = ColoredGraph(2 * m + 1, edges, g.p)
    return ReductionArtifact(
        graph,
        ReductionKind.OCT_ONE,
        a.formula,
        a.active_clauses,
        dict(a.literal_edge_map),
        dict(a.color_meaning),
        vertex_meaning,
    )


# ---------------------------------------------------------------------------
# complete-graph form


def embed_complete(g: ColoredGraph) -> ColoredGraph:
    """Add a universal vertex and paint all missing edges with one fresh color.

    The input must be simple.  The new color crosses every maximum colored
    cut (the new vertex always has the whole old graph opposite it), so
    colorful cuts of the output restrict to colorful cuts of g.
    """
    if g.n < 2:
        raise ValueError(f"need at least two vertices, got {g.n}")
    pairs = {frozenset((u, v)) for u, v, _ in g.edges}
    if len(pairs) != g.m:
        raise ValueError("input has parallel edges")
    fresh = g.p + 1
    new_edges = [
        (u, v, fresh)
        for u in range(1, g.n + 2)
        for v in range(u + 1, g.n + 2)
        if frozenset((u, v)) not in pairs
    ]
    return ColoredGraph(g.n + 1, g.edges + tuple(new_edges), fresh)


def embed_complete_artifact(a: ReductionArtifact) -> ReductionArtifact:
    if a.kind is not ReductionKind.PLANAR_SIMPLE:
        raise ValueError(f"expected a {ReductionKind.PLANAR_SIMPLE.value} artifact")
    g = a.graph
    graph = embed_complete(g)
    color_meaning = dict(a.color_meaning)
    color_meaning[g.p + 1] = ("fresh",)
    vertex_meaning = dict(a.vertex_meaning)
    vertex_meaning[g.n + 1] = ("apex",)
    return ReductionArtifact(
        graph,
        ReductionKind.COMPLETE,
        a.formula,
        a.active_clauses,
        dict(a.literal_edge_map),
        color_meaning,
        vertex_meaning,
    )


# ---------------------------------------------------------------------------
# not-all-equal form


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


def verify_series_parallel(g: ColoredGraph) -> bool:
    """True iff g has no K4 minor, by exhaustive reduction: delete vertices of
    degree at most one, smooth degree-two vertices.  Adjacency sets merge the
    parallel edges that smoothing creates, and smoothing never raises a degree,
    so a worklist of degree-two-or-less vertices makes the reduction linear."""
    adj: dict[int, set[int]] = {}
    for u, v, _ in g.edges:
        if v in adj.setdefault(u, set()):
            raise ValueError("input has parallel edges")
        adj[u].add(v)
        adj.setdefault(v, set()).add(u)
    work = [v for v, nbrs in adj.items() if len(nbrs) <= 2]
    while work:
        v = work.pop()
        if v not in adj:
            continue  # queued twice
        nbrs = adj.pop(v)
        for w in nbrs:
            adj[w].discard(v)
        if len(nbrs) == 2:
            x, y = nbrs
            adj[x].add(y)
            adj[y].add(x)
        work.extend(w for w in nbrs if len(adj[w]) <= 2)
    return not adj


@dataclass(frozen=True)
class CheckItem:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class StructureReport:
    kind: ReductionKind
    items: tuple[CheckItem, ...]

    @property
    def all_passed(self) -> bool:
        return all(item.passed for item in self.items)


def _check_connected(g: ColoredGraph) -> CheckItem:
    if g.n == 0:
        return CheckItem("connected", False, "graph has no vertices")
    pairs = [e[:2] for e in g.edges]  # with n >= 2 every vertex needs an edge
    ok = g.n == 1 or (len({x for e in pairs for x in e}) == g.n and _span(pairs) == 1)
    return CheckItem("connected", ok, "" if ok else "graph is disconnected")


def _check_max_degree(g: ColoredGraph, limit: int) -> CheckItem:
    degree = Counter()
    for u, v, _ in g.edges:
        degree[u] += 1
        degree[v] += 1
    bad = min((v for v, d in degree.items() if d > limit), default=None)
    if bad is None:
        return CheckItem(f"max-degree-{limit}", True)
    return CheckItem(
        f"max-degree-{limit}", False, f"vertex {bad} has degree {degree[bad]}"
    )


def _check_class_sizes(g: ColoredGraph, limit: int, exact: bool) -> CheckItem:
    sizes = Counter(c for _, _, c in g.edges)
    if exact:
        bad = min((c for c in range(1, g.p + 1) if sizes[c] != limit), default=None)
        name = f"color-class-size-{limit}"
    else:
        bad = min((c for c in range(1, g.p + 1) if sizes[c] > limit), default=None)
        name = f"color-class-size-le-{limit}"
    if bad is None:
        return CheckItem(name, True)
    return CheckItem(name, False, f"color {bad} has {sizes[bad]} edges")


def _check_simple(g: ColoredGraph) -> CheckItem:
    seen: set[frozenset[int]] = set()
    for u, v, _ in g.edges:
        pair = frozenset((u, v))
        if pair in seen:
            return CheckItem("simple", False, f"parallel edges between {u} and {v}")
        seen.add(pair)
    return CheckItem("simple", True)


def _check_series_parallel(g: ColoredGraph) -> CheckItem:
    try:
        ok = verify_series_parallel(g)
    except ValueError as exc:  # parallel edges: the simple check names them
        return CheckItem("series-parallel", False, str(exc))
    return CheckItem("series-parallel", ok, "" if ok else "a K4 minor remains")


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
    labels = _bfs_labels({x for pair in rest for x in pair}, rest)
    ok = all(labels[u][1] != labels[v][1] for u, v in rest)
    return CheckItem(
        "apex-removal-bipartite", ok, "" if ok else "graph minus apex has an odd cycle"
    )


def _check_complete(g: ColoredGraph) -> CheckItem:
    pairs = {frozenset((u, v)) for u, v, _ in g.edges}
    for u in range(1, g.n + 1):
        for v in range(u + 1, g.n + 1):
            if frozenset((u, v)) not in pairs:
                return CheckItem("complete", False, f"missing edge between {u} and {v}")
    return CheckItem("complete", True)


def _check_clique_classes(g: ColoredGraph) -> CheckItem:
    for c, pairs in enumerate(_color_classes(g), start=1):
        # a class is a clique on the vertices it touches iff it has all their pairs
        touched = len({x for pair in pairs for x in pair})
        if touched not in (2, 3) or len(pairs) != math.comb(touched, 2):
            return CheckItem(
                "color-class-clique", False, f"color {c} does not induce a K2 or K3"
            )
    return CheckItem("color-class-clique", True)


def verify_structural(a: ReductionArtifact) -> StructureReport:
    """Kind-specific structural checklist for a generated graph."""
    g = a.graph
    if a.kind is ReductionKind.PLANAR_MULTI:
        items = [_check_class_sizes(g, 2, exact=True)]
    elif a.kind is ReductionKind.PLANAR_SIMPLE:
        items = [_check_simple(g), _check_class_sizes(g, 2, exact=False)]
    elif a.kind is ReductionKind.K4MF:
        items = [
            _check_connected(g),
            _check_max_degree(g, 3),
            _check_class_sizes(g, 2, exact=False),
            _check_simple(g),
            _check_series_parallel(g),
        ]
    elif a.kind is ReductionKind.OCT_ONE:
        items = [_check_class_sizes(g, 2, exact=True), _check_apex_bipartite(a)]
    elif a.kind is ReductionKind.COMPLETE:
        items = [_check_complete(g)]
    elif a.kind is ReductionKind.NAE_CLIQUES:
        items = [_check_clique_classes(g)]
    else:  # pragma: no cover
        raise ValueError(f"unknown kind {a.kind}")
    return StructureReport(a.kind, tuple(items))


# ---------------------------------------------------------------------------
# provenance sidecar

_COLOR_TAGS = {"pair", "clause", "fresh"}
_VERTEX_TAGS = {"corner", "a", "b", "tree", "subdiv", "apex"}


def serialize_provenance(a: ReductionArtifact) -> str:
    lines = []
    for c in sorted(a.color_meaning):
        lines.append("color " + str(c) + " " + " ".join(str(x) for x in a.color_meaning[c]))
    for v in sorted(a.vertex_meaning):
        lines.append("vertex " + str(v) + " " + " ".join(str(x) for x in a.vertex_meaning[v]))
    return "\n".join(lines) + "\n"


def parse_provenance(text: str) -> tuple[dict[int, tuple], dict[int, tuple]]:
    """Parse a provenance sidecar into (color_meaning, vertex_meaning)."""
    color_meaning: dict[int, tuple] = {}
    vertex_meaning: dict[int, tuple] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if len(tokens) < 3 or tokens[0] not in ("color", "vertex"):
            raise FormatError(f"line {lineno}: malformed provenance line {raw!r}")
        try:
            ident = int(tokens[1])
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer id in {raw!r}")
        tag = tokens[2]
        args = tuple(int(t) if t.removeprefix("-").isdecimal() else t for t in tokens[3:])
        if tokens[0] == "color":
            if tag not in _COLOR_TAGS:
                raise FormatError(f"line {lineno}: unknown color tag {tag!r}")
            color_meaning[ident] = (tag, *args)
        else:
            if tag not in _VERTEX_TAGS:
                raise FormatError(f"line {lineno}: unknown vertex tag {tag!r}")
            vertex_meaning[ident] = (tag, *args)
    return color_meaning, vertex_meaning
