"""Solvers for maximum colored cut and colorful cut.

Three routes:

* exhaustive bipartition search with vertex 1 pinned (exact, capped),
* a greedy placement that always crosses at least half the colors,
* a CNF encoding of "every color crosses" handed to the DPLL engine.

`decide_max` combines the value-parameterized kernel with these to answer
"is there a cut crossing at least k colors" and always returns a witness
that re-evaluates to at least k colors on the original graph.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import CapExceededError
from .graph import ColoredGraph, Cut, cut_colors, dedupe_edges, is_colorful
from .kernel import KernelVerdict, augment_cut, kernelize_colors, kernelize_value
from .sat import CnfFormula, dpll_solve

BRUTE_FORCE_CAP = 24


@dataclass(frozen=True)
class SolveResult:
    value: int
    witness: Cut
    method: str
    explored: int


@dataclass(frozen=True)
class ColorfulEncoding:
    """CNF encoding of colorful cut: x_v per vertex, z_e per edge."""

    formula: CnfFormula
    vertex_var: dict[int, int]
    aux_var: dict[int, int]


def brute_force_max(g: ColoredGraph, cap: int = BRUTE_FORCE_CAP) -> SolveResult:
    """Exact maximum colored cut by enumerating bipartitions.

    Vertex 1 is pinned to the S side (complement symmetry), so exactly
    2^(n-1) - 1 nontrivial bipartitions are scanned, in increasing order of
    the bitmask over vertices 2..n; the first optimum found wins ties.
    """
    if g.n < 2:
        raise ValueError(f"no nontrivial cut exists on {g.n} vertices")
    if g.n > cap:
        raise CapExceededError(
            f"refusing exhaustive search on {g.n} vertices (cap {cap})"
        )
    work = dedupe_edges(g)
    edges = work.edges
    best_count = -1
    best_mask = 0
    total = (1 << (g.n - 1)) - 1
    for mask in range(total):
        # bit j of mask set  <=>  vertex j+2 on the S side
        seen: set[int] = set()
        for u, v, c in edges:
            su = 1 if u == 1 else (mask >> (u - 2)) & 1
            sv = 1 if v == 1 else (mask >> (v - 2)) & 1
            if su != sv:
                seen.add(c)
        if len(seen) > best_count:
            best_count = len(seen)
            best_mask = mask
    s_side = frozenset(
        {1} | {v for v in range(2, g.n + 1) if (best_mask >> (v - 2)) & 1}
    )
    witness = Cut(g.n, s_side)
    assert len(cut_colors(g, witness)) == best_count
    return SolveResult(best_count, witness, "brute-force", total)


def _greedy_sides(n: int, gprime: list[tuple[int, int]]) -> frozenset[int]:
    """Greedy placement over a one-edge-per-color subgraph.

    Vertices are placed in increasing order on the side with fewer already
    placed neighbors (ties to S), counting parallel edges with multiplicity,
    so at least half of the subgraph's edges end up crossing.
    """
    adj: dict[int, list[int]] = defaultdict(list)
    for u, v in gprime:
        adj[u].append(v)
        adj[v].append(u)
    s_side: set[int] = set()
    placed: set[int] = set()
    for v in range(1, n + 1):
        in_s = sum(1 for w in adj[v] if w in placed and w in s_side)
        in_t = sum(1 for w in adj[v] if w in placed and w not in s_side)
        if in_s <= in_t:
            s_side.add(v)
        placed.add(v)
    if len(s_side) == n:
        # happens only when the subgraph has no edges
        s_side.discard(n)
    return frozenset(s_side)


def _first_edge_per_color(g: ColoredGraph, colors: set[int]) -> list[tuple[int, int]]:
    first: dict[int, tuple[int, int]] = {}
    for u, v, c in g.edges:
        if c in colors and c not in first:
            first[c] = (u, v)
    return [first[c] for c in sorted(first)]


def _greedy_cut(g: ColoredGraph, removed_colors: Sequence[int]) -> Cut:
    """Greedy cut over the first edge of every color the rule left, repaired
    by `augment_cut` to cross the removed colors too."""
    work = dedupe_edges(g)
    surviving = set(range(1, work.p + 1)) - set(removed_colors)
    base = Cut(g.n, _greedy_sides(g.n, _first_edge_per_color(work, surviving)))
    return augment_cut(g, removed_colors, base)


def greedy_half_colors(g: ColoredGraph) -> Cut:
    """A cut crossing at least ceil(p/2) colors, built greedily.

    Keeps the first edge of each color in file order, then places vertices
    one by one on the side with fewer already-placed neighbors in that
    subgraph (ties to S).  If everything lands on one side, which only
    happens with no colors at all, vertex n is flipped.
    """
    if g.n < 2:
        raise ValueError(f"no nontrivial cut exists on {g.n} vertices")
    cut = _greedy_cut(g, ())
    assert 2 * len(cut_colors(g, cut)) >= g.p
    return cut


def encode_colorful_to_cnf(g: ColoredGraph) -> ColorfulEncoding:
    """CNF satisfiable iff g has a colorful cut.

    Variables: x_v = v for v in 1..n (true means S side), z_e = n+1+e for
    edge index e.  Clauses: four per edge tying z_e to x_u xor x_v, one per
    color requiring some z_e of that class, and two blocking clauses that
    forbid the trivial bipartitions.
    """
    if g.n < 2:
        raise ValueError(f"no nontrivial cut exists on {g.n} vertices")
    if g.p < 1:
        raise ValueError("colorful cut encoding needs at least one color")
    n = g.n
    clauses: list[tuple[int, ...]] = []
    aux_var = {e: n + 1 + e for e in range(g.m)}
    by_color: dict[int, list[int]] = defaultdict(list)
    for e, (u, v, c) in enumerate(g.edges):
        z = aux_var[e]
        clauses.append((-z, u, v))
        clauses.append((-z, -u, -v))
        clauses.append((z, u, -v))
        clauses.append((z, -u, v))
        by_color[c].append(z)
    for c in range(1, g.p + 1):
        clauses.append(tuple(by_color[c]))
    clauses.append(tuple(range(1, n + 1)))
    clauses.append(tuple(-v for v in range(1, n + 1)))
    formula = CnfFormula(n + g.m, tuple(clauses))
    return ColorfulEncoding(formula, {v: v for v in range(1, n + 1)}, aux_var)


def colorful_cut_decide(g: ColoredGraph) -> Optional[Cut]:
    """A cut crossing all p colors, or None if no such cut exists."""
    if g.n < 2:
        return None  # there is no nontrivial bipartition at all
    if g.p == 0:
        return Cut(g.n, frozenset({1}))
    work = dedupe_edges(g)
    enc = encode_colorful_to_cnf(work)
    model = dpll_solve(enc.formula)
    if model is None:
        return None
    cut = Cut(g.n, frozenset(v for v in range(1, g.n + 1) if model[v]))
    assert is_colorful(g, cut)
    return cut


def _lift_reduced_cut(g: ColoredGraph, vertex_renaming: dict[int, int], reduced_cut: Cut) -> Cut:
    """Map a cut of the reduced graph back to original vertex ids; vertices
    dropped by the kernel land on the T side."""
    reduced_s = reduced_cut.s_side
    s_side = {old for old, new in vertex_renaming.items() if new in reduced_s}
    return Cut(g.n, frozenset(s_side))


def decide_max(g: ColoredGraph, k: int, cap: int = BRUTE_FORCE_CAP) -> tuple[bool, Optional[Cut]]:
    """Decide whether some cut crosses at least k colors; witness on yes.

    Runs the value-parameterized kernel first.  On EARLY_YES the witness is
    the greedy cut (restricted to the surviving colors when the rule removed
    any) repaired by `augment_cut`; otherwise the reduced graph is solved
    exhaustively and the witness lifted back and repaired.  Either way the
    returned cut re-evaluates to at least k colors on g.
    """
    if g.n < 2:
        raise ValueError(f"no nontrivial cut exists on {g.n} vertices")
    if k < 1:
        raise ValueError(f"target k must be at least 1, got {k}")
    outcome = kernelize_value(g, k)
    if outcome.verdict is KernelVerdict.EARLY_YES:
        base = _greedy_cut(g, outcome.removed_colors)
        assert len(cut_colors(g, base)) >= k
        return True, base
    reduced = outcome.reduced_graph
    assert reduced is not None and outcome.remaining_k is not None
    if reduced.n < 2 or reduced.p == 0:
        return False, None  # optimum of the kernel is 0 < remaining_k
    result = brute_force_max(reduced, cap=cap)
    if result.value < outcome.remaining_k:
        return False, None
    base = _lift_reduced_cut(g, outcome.vertex_renaming, result.witness)
    base = augment_cut(g, outcome.removed_colors, base)
    assert len(cut_colors(g, base)) >= k
    return True, base


def solve_via_kernel(g: ColoredGraph, cap: int = BRUTE_FORCE_CAP) -> SolveResult:
    """Exact maximum colored cut through the color-parameterized kernel.

    The optimum of g equals the optimum of the reduced graph plus the number
    of removed colors; the witness is lifted back and repaired to achieve it.
    """
    if g.n < 2:
        raise ValueError(f"no nontrivial cut exists on {g.n} vertices")
    outcome = kernelize_colors(g)
    reduced = outcome.reduced_graph
    assert reduced is not None
    removed = outcome.removed_colors
    if reduced.n < 2:
        base = Cut(g.n, frozenset({1}))
        value = 0
        explored = 0
    else:
        result = brute_force_max(reduced, cap=cap)
        base = _lift_reduced_cut(g, outcome.vertex_renaming, result.witness)
        value = result.value
        explored = result.explored
    base = augment_cut(g, removed, base)
    total = value + len(removed)
    assert len(cut_colors(g, base)) == total
    return SolveResult(total, base, "kernel+brute-force", explored)
