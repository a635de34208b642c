"""Kernelization for maximum colored cut.

The reduction rule: if some color class spans more than 2*C(p,2) distinct
endpoint pairs, that color crosses every maximum colored cut, so it can be
deleted and the color budget decremented.  Applying the rule exhaustively
shrinks every instance to one whose color classes are all small.

The same counting argument is constructive: given any cut, a deleted color
can be brought into the cut by flipping a single vertex that is not needed
as a witness for the colors already crossing.  `augment_cut` implements
that repair and is what makes lifted witnesses honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

from .errors import InvariantError
from .graph import ColoredGraph, Cut, dedupe_edges


class KernelVerdict(Enum):
    EARLY_YES = "early_yes"
    REDUCED = "reduced"


@dataclass(frozen=True)
class KernelOutcome:
    """Result of exhaustive rule application.

    reduced_graph is present exactly when verdict is REDUCED.  removed_colors
    lists original color ids in removal order.  color_renaming and
    vertex_renaming map original ids to ids in the reduced graph (empty for
    EARLY_YES, where no reduced graph is produced).
    """

    verdict: KernelVerdict
    reduced_graph: Optional[ColoredGraph]
    removed_colors: tuple[int, ...]
    remaining_k: Optional[int]
    color_renaming: dict[int, int]
    vertex_renaming: dict[int, int]


def claim1_bound(beta: int) -> int:
    """Largest number of same-side distinct pairs a beta-edge bipartite witness
    permits: 2*C(beta,2), attained when the witness is a matching."""
    if beta < 0:
        raise ValueError(f"bound argument must be nonnegative, got {beta}")
    return 2 * math.comb(beta, 2)


def _dense_color(
    edges: Iterable[tuple[int, int, int]], colors: Iterable[int]
) -> Optional[int]:
    """Smallest of `colors` whose distinct-pair count exceeds 2*C(p,2), where
    p counts `colors`, or None."""
    pairs: dict[int, set[frozenset[int]]] = {}
    for u, v, c in edges:
        pairs.setdefault(c, set()).add(frozenset((u, v)))
    ordered = sorted(colors)
    bound = claim1_bound(len(ordered))
    return next((c for c in ordered if len(pairs.get(c, ())) > bound), None)


def rule_star_find(g: ColoredGraph) -> Optional[int]:
    """Smallest color whose distinct-pair count exceeds 2*C(p,2), or None."""
    return _dense_color(g.edges, range(1, g.p + 1))


def _run_rule(
    g: ColoredGraph, k: Optional[int]
) -> tuple[KernelVerdict, list[int], Optional[int], ColoredGraph]:
    """Shared removal loop on the deduped graph, working in original ids.

    Returns (verdict, removed original colors, remaining k or None, deduped
    input).  With a target k the loop stops with EARLY_YES as soon as the
    remaining k is 0 or equals ceil(p/2) for the p colors still alive.
    """
    work = dedupe_edges(g)
    alive = set(range(1, work.p + 1))
    kept_edges = list(work.edges)
    removed: list[int] = []
    while True:
        k_cur = None if k is None else k - len(removed)
        # Guaranteed-yes shortcuts: the greedy half-colors bound covers
        # k == ceil(p/2), and k exhausted means the removed colors alone
        # witness the target.
        p_cur = len(alive)
        if k_cur is not None and (k_cur == 0 or 2 * k_cur in (p_cur, p_cur + 1)):
            return KernelVerdict.EARLY_YES, removed, k_cur, work
        target = _dense_color(kept_edges, alive)
        if target is None:
            return KernelVerdict.REDUCED, removed, k_cur, work
        alive.discard(target)
        removed.append(target)
        kept_edges = [e for e in kept_edges if e[2] != target]


def _build_reduced(
    work: ColoredGraph, removed: list[int], remaining_k: Optional[int]
) -> KernelOutcome:
    removed_set = set(removed)
    kept = [e for e in work.edges if e[2] not in removed_set]
    touched_before = {v for u, v2, _ in work.edges for v in (u, v2)}
    touched_after = {v for u, v2, _ in kept for v in (u, v2)}
    # Drop only vertices isolated by the deletions; keep ones isolated all along.
    survivors = sorted(
        v
        for v in range(1, work.n + 1)
        if v in touched_after or v not in touched_before
    )
    vertex_renaming = {old: new for new, old in enumerate(survivors, start=1)}
    alive_colors = sorted(set(range(1, work.p + 1)) - removed_set)
    color_renaming = {old: new for new, old in enumerate(alive_colors, start=1)}
    reduced = ColoredGraph(
        len(survivors),
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
    _, removed, _, work = _run_rule(g, None)
    return _build_reduced(work, removed, None)


def kernelize_value(g: ColoredGraph, k: int) -> KernelOutcome:
    """Apply the rule with target value k, decrementing k per removed color.

    Returns EARLY_YES when the target is covered by the greedy half-colors
    guarantee (k == ceil(p/2)) or when removals alone reach the target
    (k decremented to 0); otherwise REDUCED with the shrunken graph.
    """
    if k < 1:
        raise ValueError(f"target k must be at least 1, got {k}")
    verdict, removed, remaining_k, work = _run_rule(g, k)
    if verdict is KernelVerdict.EARLY_YES:
        return KernelOutcome(
            KernelVerdict.EARLY_YES, None, tuple(removed), remaining_k, {}, {}
        )
    return _build_reduced(work, removed, remaining_k)


def augment_cut(g: ColoredGraph, removed_colors: Sequence[int], cut: Cut) -> Cut:
    """Flip vertices so the cut also crosses every removed color.

    removed_colors must be the removal order produced by the rule on g.  The
    colors are reinstated in reverse order; each one either already crosses
    or, by the counting argument behind the rule, has a same-side endpoint
    pair with a vertex not used as a witness edge endpoint, which can be
    flipped without losing any crossing color.
    """
    if cut.n != g.n:
        raise ValueError(f"cut is over 1..{cut.n} but graph has {g.n} vertices")
    if not removed_colors:
        return cut
    work = dedupe_edges(g)
    side = {v: (v in cut.s_side) for v in range(1, g.n + 1)}
    active = set(range(1, work.p + 1)) - set(removed_colors)
    for color in reversed(list(removed_colors)):
        active.add(color)
        crossing = {
            c for u, v, c in work.edges if c in active and side[u] != side[v]
        }
        if color in crossing:
            continue
        witness: dict[int, tuple[int, int]] = {}
        for u, v, c in work.edges:
            if c in crossing and c not in witness and side[u] != side[v]:
                witness[c] = (u, v)
        witness_vertices = {x for uv in witness.values() for x in uv}
        flipped = False
        for u, v, c in work.edges:
            if c != color or side[u] != side[v]:
                continue
            for x in (u, v):
                if x not in witness_vertices:
                    side[x] = not side[x]
                    flipped = True
                    break
            if flipped:
                break
        if not flipped:
            raise InvariantError(
                f"color {color} cannot be restored; was it removed by the rule on this graph?"
            )
    return Cut(g.n, frozenset(v for v, s in side.items() if s))
