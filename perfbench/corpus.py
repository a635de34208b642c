"""Seeded instance generators and the benchmark's own answer evaluators.

Nothing here imports coloredcut: expected answers come from planted
structure and from direct enumeration, never from the library's own
`cut_colors`, `satisfies`, `brute_force_*` or `verify_*`.

Planted maximum colored cut.  A planted bipartition crosses every "free"
color (its first edge is drawn across the planted sides), and each of t
vertex-disjoint rainbow triangles owns three colors found nowhere else.
Every cut crosses 0 or 2 edges of a triangle, so each triangle loses at
least one color and opt <= p - t; the planted cut loses exactly one per
triangle, so opt == p - t.  Dense colors (more than 2*C(p,2) distinct
pairs, drawn across the planted cut at least once) keep that identity and
are exactly what the kernel's removal rule deletes.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

Edge = tuple[int, int, int]
Clause = tuple[int, ...]


# ---------------------------------------------------------------------------
# evaluators


def crossing_colors(edges, s_side) -> set[int]:
    """Colors with at least one edge whose endpoints lie on different sides."""
    return {c for u, v, c in edges if (u in s_side) != (v in s_side)}


def is_proper_side(n: int, s_side) -> bool:
    return 0 < len(s_side) < n and all(1 <= v <= n for v in s_side)


def cnf_true(clauses, asg: dict[int, bool]) -> bool:
    return all(any(asg[abs(l)] == (l > 0) for l in cl) for cl in clauses)


def nae_true(clauses, asg: dict[int, bool]) -> bool:
    for cl in clauses:
        values = {asg[abs(l)] == (l > 0) for l in cl}
        if len(values) != 2:
            return False
    return True


def assignments(var_count: int):
    for bits in itertools.product((False, True), repeat=var_count):
        yield dict(zip(range(1, var_count + 1), bits))


def satisfiable(var_count: int, clauses, nae: bool) -> bool:
    """Truth by enumerating all 2^var_count assignments."""
    test = nae_true if nae else cnf_true
    return any(test(clauses, asg) for asg in assignments(var_count))


def color_stats(n: int, edges, p: int) -> list[tuple[int, int, int]]:
    """(edge count, distinct endpoint pairs, components) for colors 1..p."""
    out = []
    for color in range(1, p + 1):
        mine = [(u, v) for u, v, c in edges if c == color]
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in mine:
            parent.setdefault(u, u)
            parent.setdefault(v, v)
            parent[find(u)] = find(v)
        roots = {find(x) for x in parent}
        out.append((len(mine), len({frozenset(e) for e in mine}), len(roots)))
    return out


def no_k4_minor(n: int, edges) -> bool:
    """Series-parallel reduction with a worklist: a simple graph has no K4
    minor iff deleting vertices of degree <= 1 and suppressing vertices of
    degree 2 (merging the parallel edge that may appear) empties it."""
    adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for u, v, _ in edges:
        adj[u].add(v)
        adj[v].add(u)
    work = [v for v in adj if len(adj[v]) <= 2]
    alive = set(adj)
    while work:
        v = work.pop()
        if v not in alive or len(adj[v]) > 2:
            continue
        nbrs = list(adj[v])
        for w in nbrs:
            adj[w].discard(v)
        if len(nbrs) == 2:
            x, y = nbrs
            adj[x].add(y)
            adj[y].add(x)
        alive.discard(v)
        adj[v] = set()
        work.extend(w for w in nbrs if len(adj[w]) <= 2)
    return not alive


def components(n: int, edges) -> int:
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen: set[int] = set()
    count = 0
    for start in adj:
        if start in seen:
            continue
        count += 1
        seen.add(start)
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return count


def bipartite_without(n: int, edges, apex: int) -> bool:
    side: dict[int, int] = {}
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1) if v != apex}
    for u, v, _ in edges:
        if apex not in (u, v):
            adj[u].append(v)
            adj[v].append(u)
    for start in adj:
        if start in side:
            continue
        side[start] = 0
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in side:
                    side[y] = 1 - side[x]
                    stack.append(y)
                elif side[y] == side[x]:
                    return False
    return True


# ---------------------------------------------------------------------------
# text formats, written here so inputs do not depend on the program


def ecg_text(n: int, edges, p: int) -> str:
    lines = [f"p ecg {n} {len(edges)} {p}"]
    lines.extend(f"e {u} {v} {c}" for u, v, c in edges)
    return "\n".join(lines) + "\n"


def dimacs_text(var_count: int, clauses) -> str:
    lines = [f"p cnf {var_count} {len(clauses)}"]
    lines.extend(" ".join(map(str, cl)) + " 0" for cl in clauses)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# planted maximum colored cut


@dataclass(frozen=True)
class MaxCutInstance:
    n: int
    edges: tuple[Edge, ...]
    p: int
    opt: int
    dense_colors: frozenset[int]


def planted_max_cut(
    rng: random.Random,
    core_n: int,
    triangles: int,
    free_colors: int,
    dense_n: int = 0,
    dense_colors: int = 0,
    dense_edges: int = 0,
    untouched: int = 0,
) -> MaxCutInstance:
    """Planted instance with opt = p - triangles; see the module docstring.

    Free color classes have 1, 2, 3, 1, 2, 3, ... edges, so the edge count
    is fixed by the arguments.  Dense edges live on their own dense_n
    vertices; about one in twenty repeats an earlier (pair, color) so that
    deduplication has work.  `untouched` more vertices are declared that no
    edge touches.  Vertex and color ids are shuffled at the end.
    """
    if 3 * triangles > core_n:
        raise ValueError("triangles need 3 distinct core vertices each")
    n = core_n + dense_n + untouched
    core = list(range(1, core_n + 1))
    side = {v: rng.random() < 0.5 for v in range(1, core_n + dense_n + 1)}
    side[1], side[2] = True, False  # both planted sides nonempty
    edges: list[Edge] = []
    color = 0
    tri_vertices = rng.sample(core, 3 * triangles)
    for t in range(triangles):
        a, b, c = tri_vertices[3 * t : 3 * t + 3]
        if side[a] == side[b] == side[c]:
            side[c] = not side[c]
        for u, v in ((a, b), (b, c), (a, c)):
            color += 1
            edges.append((u, v, color))
    s_core = [v for v in core if side[v]]
    t_core = [v for v in core if not side[v]]
    if not s_core or not t_core:
        side[core[0]] = not side[core[0]]
        s_core = [v for v in core if side[v]]
        t_core = [v for v in core if not side[v]]
    for i in range(free_colors):
        color += 1
        edges.append((rng.choice(s_core), rng.choice(t_core), color))
        for _ in range(i % 3):
            u, v = rng.sample(core, 2)
            edges.append((u, v, color))
    dense: set[int] = set()
    if dense_colors:
        dense_vertices = list(range(core_n + 1, core_n + dense_n + 1))
        s_dense = [v for v in dense_vertices if side[v]]
        t_dense = [v for v in dense_vertices if not side[v]]
        first = color + 1
        color += dense_colors
        dense = set(range(first, color + 1))
        drawn: list[Edge] = []
        for d in range(dense_colors):
            drawn.append((rng.choice(s_dense), rng.choice(t_dense), first + d))
        while len(drawn) < dense_edges:
            if drawn and rng.random() < 0.05:
                drawn.append(rng.choice(drawn))
                continue
            u, v = rng.sample(dense_vertices, 2)
            drawn.append((u, v, rng.randint(first, color)))
        edges.extend(drawn)
    p = color
    opt = p - triangles
    vertex_ids = list(range(1, n + 1))
    rng.shuffle(vertex_ids)
    vmap = dict(zip(range(1, n + 1), vertex_ids))
    color_ids = list(range(1, p + 1))
    rng.shuffle(color_ids)
    cmap = dict(zip(range(1, p + 1), color_ids))
    rng.shuffle(edges)
    out_edges = tuple(
        (vmap[u], vmap[v], cmap[c]) if rng.random() < 0.5 else (vmap[v], vmap[u], cmap[c])
        for u, v, c in edges
    )
    planted = frozenset(vmap[v] for v, s in side.items() if s)
    instance = MaxCutInstance(n, out_edges, p, opt, frozenset(cmap[c] for c in dense))
    if len(crossing_colors(out_edges, planted)) != opt:
        raise AssertionError("planted cut does not attain p - triangles")
    bound = 2 * math.comb(p, 2)
    pairs = {c: set() for c in instance.dense_colors}
    for u, v, c in out_edges:
        if c in pairs:
            pairs[c].add(frozenset((u, v)))
    if any(len(s) <= bound for s in pairs.values()):
        raise AssertionError("a dense color does not exceed 2*C(p,2) pairs")
    return instance


# ---------------------------------------------------------------------------
# 3-CNF


def random_clause(rng: random.Random, var_count: int) -> Clause:
    return tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, var_count + 1), 3))


def planted_cnf(rng: random.Random, var_count: int, clause_count: int, nae: bool) -> list[Clause]:
    """Random 3-CNF satisfied (or NAE-satisfied) by a hidden assignment."""
    hidden = {v: rng.random() < 0.5 for v in range(1, var_count + 1)}
    test = nae_true if nae else cnf_true
    clauses: list[Clause] = []
    while len(clauses) < clause_count:
        cl = random_clause(rng, var_count)
        if test([cl], hidden):
            clauses.append(cl)
    return clauses


def unsat_cnf(rng: random.Random, var_count: int, clause_count: int) -> list[Clause]:
    """All eight sign patterns over three variables, plus random clauses."""
    a, b, c = rng.sample(range(1, var_count + 1), 3)
    clauses = [(sa * a, sb * b, sc * c) for sa in (1, -1) for sb in (1, -1) for sc in (1, -1)]
    clauses = [tuple(rng.sample(cl, 3)) for cl in clauses]
    while len(clauses) < clause_count:
        clauses.append(random_clause(rng, var_count))
    rng.shuffle(clauses)
    return clauses


def balanced_cnf(
    rng: random.Random, var_count: int, clause_count: int, planted: bool
) -> tuple[list[Clause], dict[int, bool] | None]:
    """3-CNF in which every variable occurs equally often with each sign.

    With 3 * clause_count == 2 * occurrences * var_count the construction
    sizes depend on clause_count alone, and no clause is removed as single-
    polarity.  When planted, every clause has a literal that a hidden
    assignment makes true and one it makes false, so the formula is
    not-all-equal satisfiable (hence satisfiable) under it, which is
    returned with the clauses (None when not planted).
    """
    per_sign, rest = divmod(3 * clause_count, 2 * var_count)
    if rest:
        raise ValueError("3 * clause_count must be a multiple of 2 * var_count")
    hidden = {v: rng.random() < 0.5 for v in range(1, var_count + 1)}
    slots = [s * v for v in range(1, var_count + 1) for s in (1, -1) for _ in range(per_sign)]
    while True:
        if planted:
            true = [l for l in slots if hidden[abs(l)] == (l > 0)]
            false = [l for l in slots if hidden[abs(l)] != (l > 0)]
            rng.shuffle(true)
            rng.shuffle(false)
            extra = true[clause_count:] + false[clause_count:]
            rng.shuffle(extra)
            clauses = [(true[j], false[j], extra[j]) for j in range(clause_count)]
        else:
            rng.shuffle(slots)
            clauses = [tuple(slots[3 * j : 3 * j + 3]) for j in range(clause_count)]
        if all(len({abs(l) for l in cl}) == 3 for cl in clauses):
            return [tuple(rng.sample(cl, 3)) for cl in clauses], (hidden if planted else None)


def nae_unsat_cnf(rng: random.Random, var_count: int, clause_count: int) -> list[Clause]:
    """Random 3-CNF drawn until it has no not-all-equal assignment."""
    while True:
        clauses = [random_clause(rng, var_count) for _ in range(clause_count)]
        if not satisfiable(var_count, clauses, nae=True):
            return clauses
