"""Kernelization for maximum colored cut.

The reduction rule: if some color class spans more than 2*C(p,2) distinct
endpoint pairs, that color crosses every maximum colored cut, so it can be
deleted and the color budget decremented.  Applying the rule exhaustively
shrinks every instance to one whose color classes are all small.  One
removal order serves both parameters: `kernelize_colors` applies all of it,
and `kernelize_value` answers an early yes, with no reduced graph, on the
first prefix whose remaining target k' is at most ceil(p'/2), which a greedy
cut always reaches.  After i removals k' = k - i and p' = p - i, so that
prefix has max(0, 2k - p - 1) removals.  Both read one color-class table,
`graph._color_classes`: its pair counts drive the rule, and `_survivors`
reads off it what the rule keeps.  The exact solvers in `solve.py` search
those colors in place on g; only the kernelize routes build the reduced
graph, from the first edge of each kept pair.

The same counting argument is constructive: given any cut, a deleted color
can be brought into the cut by flipping a single vertex that is not needed
as a witness for the colors already crossing.  `augment_cut` implements
that repair and is what makes the solvers' witnesses honest.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence

from .errors import InvariantError
from .graph import ColoredGraph, Cut, _color_classes, _Record


class KernelOutcome(_Record):
    """Result of rule application: `reduced_graph` is None for an early yes.

    removed_colors lists original color ids in removal order.  The reduced
    graph keeps what `_survivors` keeps: its colors, renumbered 1..p' in
    order, and its vertices, vertex v becoming v minus the number of
    dropped vertices below it.
    """

    __slots__ = ("reduced_graph", "removed_colors")
    reduced_graph: ColoredGraph | None
    removed_colors: tuple[int, ...]

    def __init__(
        self, reduced_graph: ColoredGraph | None, removed_colors: tuple[int, ...]
    ) -> None:
        super().__init__(reduced_graph, removed_colors)


def claim1_bound(beta: int) -> int:
    """Largest number of same-side distinct pairs a beta-edge bipartite witness
    permits: 2*C(beta,2), attained when the witness is a matching."""
    if beta < 0:
        raise ValueError(f"bound argument must be nonnegative, got {beta}")
    return 2 * math.comb(beta, 2)


def _removal_order(classes: list[dict[tuple[int, int], int]]) -> list[int]:
    """Original colors in the order the rule removes them, from `_color_classes`.

    Each round removes the smallest alive color with more than 2*C(p',2)
    distinct pairs, for the p' colors alive.  Removing a color never changes
    another color's count, so the pairs are counted once and only the bound
    falls.  A removal needs that many pairs, so rounds * p stays O(m + p).
    """
    alive = list(range(1, len(classes) + 1))
    removed: list[int] = []
    while True:
        bound = claim1_bound(len(alive))
        target = next((c for c in alive if len(classes[c - 1]) > bound), None)
        if target is None:
            return removed
        alive.remove(target)
        removed.append(target)


def _survivors(
    classes: list[dict[tuple[int, int], int]], removed: Sequence[int]
) -> tuple[list[int], set[int], set[int]]:
    """(kept colors, vertices they touch, dropped vertices) from the
    `_color_classes` table and the colors the rule `removed`: every other
    color is kept, in increasing order, and a vertex is dropped when only
    removed colors touch it.  A vertex that no edge touches stays."""
    skip = set(removed)
    kept = [c for c in range(1, len(classes) + 1) if c not in skip]
    touched = {x for c in kept for pair in classes[c - 1] for x in pair}
    dropped = {x for c in removed for pair in classes[c - 1] for x in pair} - touched
    return kept, touched, dropped


def _build_reduced(
    g: ColoredGraph, classes: list[dict[tuple[int, int], int]], removed: list[int]
) -> KernelOutcome:
    """The `KernelOutcome` of what `_survivors` keeps, over the first edge of each kept pair."""
    kept, touched, dropped = _survivors(classes, removed)
    first = sorted(i for c in kept for i in classes[c - 1].values())
    below = sorted(dropped)
    renaming = {v: v - bisect_left(below, v) for v in touched}
    new_color = {old: new for new, old in enumerate(kept, start=1)}
    kept_edges = (g.edges[i] for i in first)
    edges = tuple((renaming[u], renaming[v], new_color[c]) for u, v, c in kept_edges)
    return KernelOutcome(ColoredGraph._trusted(g.n - len(dropped), edges, len(kept)), tuple(removed))


def _rule_table(g: ColoredGraph) -> tuple[list[dict[tuple[int, int], int]], list[int]]:
    """The `_color_classes` table of g and the rule's full removal order."""
    classes = _color_classes(g)
    return classes, _removal_order(classes)


def kernelize_colors(g: ColoredGraph) -> KernelOutcome:
    """Apply the reduction rule exhaustively with the color count as parameter."""
    return _build_reduced(g, *_rule_table(g))


def _value_kernel(
    g: ColoredGraph,
    k: int,
    table: tuple[list[dict[tuple[int, int], int]], list[int]] | None = None,
) -> tuple[list[dict[tuple[int, int], int]] | None, list[int], bool]:
    """(color-class table, removals, early yes) of the rule with target k,
    reading g's `_rule_table` from `table` when one is given.

    An early yes carries the first max(0, 2k - p - 1) removals; with none
    the table is not read and is None.  Otherwise every removal is listed.
    """
    if k < 1:
        raise ValueError(f"target k must be at least 1, got {k}")
    need = max(0, 2 * k - g.p - 1)
    if need == 0:
        return None, [], True
    classes, removed = _rule_table(g) if table is None else table
    if need <= len(removed):
        return classes, removed[:need], True
    return classes, removed, False


def kernelize_value(g: ColoredGraph, k: int) -> KernelOutcome:
    """Apply the rule with target value k, decrementing k per removed color.

    An early yes (see the module docstring) has no reduced graph; otherwise
    the result is the color kernel's, with target k - len(removed_colors).
    """
    classes, removed, early = _value_kernel(g, k)
    if early:
        return KernelOutcome(None, tuple(removed))
    return _build_reduced(g, classes, removed)


def augment_cut(g: ColoredGraph, removed_colors: Sequence[int], cut: Cut) -> Cut:
    """Flip vertices so the cut also crosses every removed color.

    removed_colors must be the removal order produced by the rule on g.  The
    colors are reinstated in reverse order; each one either already crosses
    or, by the counting argument behind the rule, has a same-side endpoint
    pair with a vertex not used as a witness edge endpoint, which can be
    flipped without losing any crossing color.  The witness edge of a color
    is its first crossing edge; the flipped vertex is the first free
    endpoint, u before v, of the color's same-side edges in edge order.

    Cost: one pass groups g's edges by color; then each restored color reads
    its own edges, and, when it needs a flip, each active color's edges up
    to its first crossing one.
    """
    if cut.n != g.n:
        raise ValueError(f"cut is over 1..{cut.n} but graph has {g.n} vertices")
    for color in removed_colors:
        if not 1 <= color <= g.p:
            raise ValueError(f"color {color} outside 1..{g.p}")
    if not removed_colors:
        return cut
    by_color: list[list[tuple[int, int, int]]] = [[] for _ in range(g.p)]
    for edge in g.edges:
        by_color[edge[2] - 1].append(edge)
    s_side = set(cut.s_side)
    active = set(range(1, g.p + 1)) - set(removed_colors)
    for color in reversed(list(removed_colors)):
        active.add(color)
        own = by_color[color - 1]
        if any((u in s_side) != (v in s_side) for u, v, _ in own):
            continue
        witness_vertices: set[int] = set()  # endpoints of each first crossing edge
        for c in active:
            for u, v, _ in by_color[c - 1]:
                if (u in s_side) != (v in s_side):
                    witness_vertices.update((u, v))
                    break
        flip = next((x for u, v, _ in own for x in (u, v) if x not in witness_vertices), None)
        if flip is None:
            raise InvariantError(
                f"color {color} cannot be restored; was it removed by the rule on this graph?"
            )
        s_side ^= {flip}
    return Cut(g.n, frozenset(s_side))
