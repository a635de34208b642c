"""Kernelization for maximum colored cut.

The reduction rule: if some color class spans more than 2*C(p,2) distinct
endpoint pairs, that color crosses every maximum colored cut, so it can be
deleted and the color budget decremented.  Applying the rule exhaustively
shrinks every instance to one whose color classes are all small.  One
removal order serves both parameters: `kernelize_colors` applies all of it,
and `kernelize_value` stops early on the first prefix whose remaining target
k' is at most ceil(p'/2), which a greedy cut always reaches.  Both read one
color-class table, `graph._color_classes`: its pair counts drive the rule,
and the first edge of each surviving pair makes up the reduced graph.

The same counting argument is constructive: given any cut, a deleted color
can be brought into the cut by flipping a single vertex that is not needed
as a witness for the colors already crossing.  `augment_cut` implements
that repair and is what makes lifted witnesses honest.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence
from enum import Enum

from .errors import InvariantError
from .graph import ColoredGraph, Cut, _color_classes, _Record


class KernelVerdict(Enum):
    EARLY_YES = "early_yes"
    REDUCED = "reduced"


class KernelOutcome(_Record):
    """Result of exhaustive rule application.

    reduced_graph is present exactly when verdict is REDUCED.  removed_colors
    lists original color ids in removal order.  color_renaming and
    vertex_renaming map original ids to ids in the reduced graph (empty for
    EARLY_YES, where no reduced graph is produced).  vertex_renaming lists
    only the vertices a kept edge touches: vertices no edge of g touches
    survive in their order among the rest but are not listed, so it is O(m).
    """

    __slots__ = (
        "verdict",
        "reduced_graph",
        "removed_colors",
        "remaining_k",
        "color_renaming",
        "vertex_renaming",
    )
    verdict: KernelVerdict
    reduced_graph: ColoredGraph | None
    removed_colors: tuple[int, ...]
    remaining_k: int | None
    color_renaming: dict[int, int]
    vertex_renaming: dict[int, int]

    def __init__(
        self,
        verdict: KernelVerdict,
        reduced_graph: ColoredGraph | None,
        removed_colors: tuple[int, ...],
        remaining_k: int | None,
        color_renaming: dict[int, int],
        vertex_renaming: dict[int, int],
    ) -> None:
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "reduced_graph", reduced_graph)
        object.__setattr__(self, "removed_colors", removed_colors)
        object.__setattr__(self, "remaining_k", remaining_k)
        object.__setattr__(self, "color_renaming", color_renaming)
        object.__setattr__(self, "vertex_renaming", vertex_renaming)


def claim1_bound(beta: int) -> int:
    """Largest number of same-side distinct pairs a beta-edge bipartite witness
    permits: 2*C(beta,2), attained when the witness is a matching."""
    if beta < 0:
        raise ValueError(f"bound argument must be nonnegative, got {beta}")
    return 2 * math.comb(beta, 2)


def rule_star_find(g: ColoredGraph) -> int | None:
    """Smallest color whose distinct-pair count exceeds 2*C(p,2), or None:
    the first color the rule removes."""
    return next(iter(_removal_order(_color_classes(g))), None)


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


def _build_reduced(
    g: ColoredGraph,
    classes: list[dict[tuple[int, int], int]],
    removed: list[int],
    remaining_k: int | None,
) -> KernelOutcome:
    removed_set = set(removed)
    alive_colors = [c for c in range(1, g.p + 1) if c not in removed_set]
    # the first edge of each pair of a surviving color, in edge order
    first = sorted(i for c in alive_colors for i in classes[c - 1].values())
    kept = [g.edges[i] for i in first]
    # Drop only vertices isolated by the deletions; keep ones isolated all along.
    touched = {x for u, v, _ in g.edges for x in (u, v)}
    kept_touched = sorted({x for u, v, _ in kept for x in (u, v)})
    dropped = sorted(touched.difference(kept_touched))
    vertex_renaming = {v: v - bisect_left(dropped, v) for v in kept_touched}
    color_renaming = {old: new for new, old in enumerate(alive_colors, start=1)}
    reduced = ColoredGraph(
        g.n - len(dropped),
        tuple(
            (vertex_renaming[u], vertex_renaming[v], color_renaming[c])
            for u, v, c in kept
        ),
        len(alive_colors),
    )
    return KernelOutcome(
        KernelVerdict.REDUCED,
        reduced,
        tuple(removed),
        remaining_k,
        color_renaming,
        vertex_renaming,
    )


def kernelize_colors(g: ColoredGraph) -> KernelOutcome:
    """Apply the reduction rule exhaustively with the color count as parameter."""
    classes = _color_classes(g)
    return _build_reduced(g, classes, _removal_order(classes), None)


def kernelize_value(g: ColoredGraph, k: int) -> KernelOutcome:
    """Apply the rule with target value k, decrementing k per removed color.

    The removals are those of `kernelize_colors`.  Before the i-th removal,
    with k' = k - i and p' = p - i, the target is already covered when
    k' <= ceil(p'/2), that is 2k' <= p' + 1: the greedy half-colors cut over
    the p' surviving colors, repaired to cross the i removed ones, reaches
    it.  The first such i gives EARLY_YES with the first i removals, so every
    k <= ceil(p/2) is an early yes with none.  Otherwise the result is the
    color kernel's reduced graph with k' = k - len(removed).
    """
    if k < 1:
        raise ValueError(f"target k must be at least 1, got {k}")
    classes = _color_classes(g)
    removed = _removal_order(classes)
    for i in range(len(removed) + 1):
        if 2 * (k - i) <= g.p - i + 1:
            return KernelOutcome(
                KernelVerdict.EARLY_YES, None, tuple(removed[:i]), k - i, {}, {}
            )
    return _build_reduced(g, classes, removed, k - len(removed))


def augment_cut(g: ColoredGraph, removed_colors: Sequence[int], cut: Cut) -> Cut:
    """Flip vertices so the cut also crosses every removed color.

    removed_colors must be the removal order produced by the rule on g.  The
    colors are reinstated in reverse order; each one either already crosses
    or, by the counting argument behind the rule, has a same-side endpoint
    pair with a vertex not used as a witness edge endpoint, which can be
    flipped without losing any crossing color.  The witness edge of a color
    is its first crossing edge; the flipped vertex is the first free
    endpoint, u before v, of the color's same-side edges in edge order.
    """
    if cut.n != g.n:
        raise ValueError(f"cut is over 1..{cut.n} but graph has {g.n} vertices")
    for color in removed_colors:
        if not 1 <= color <= g.p:
            raise ValueError(f"color {color} outside 1..{g.p}")
    if not removed_colors:
        return cut
    # Exact duplicates follow their first copy, so they change neither the
    # crossing colors nor the first witness or flip edge found per color.
    s_side = set(cut.s_side)
    active = set(range(1, g.p + 1)) - set(removed_colors)
    for color in reversed(list(removed_colors)):
        active.add(color)
        witness: dict[int, tuple[int, int]] = {}  # first crossing edge per color
        for u, v, c in g.edges:
            if c in active and c not in witness and (u in s_side) != (v in s_side):
                witness[c] = (u, v)
        if color in witness:
            continue
        witness_vertices = {x for uv in witness.values() for x in uv}
        flip = next(
            (
                x
                for u, v, c in g.edges
                if c == color and (u in s_side) == (v in s_side)
                for x in (u, v)
                if x not in witness_vertices
            ),
            None,
        )
        if flip is None:
            raise InvariantError(
                f"color {color} cannot be restored; was it removed by the rule on this graph?"
            )
        s_side ^= {flip}
    return Cut(g.n, frozenset(s_side))
