"""Solvers for maximum colored cut and colorful cut.

Three routes:

* exhaustive bipartition search over vertex 1 (pinned to S) and the
  vertices an edge touches (exact, capped), bit-parallel over big-int truth
  tables of the masks, first optimum in increasing mask order,
* a greedy placement that always crosses at least half the colors,
* colorful cut: forced crossings contracted with a trailed parity
  union-find, then a depth-first search without recursion that branches on
  the first edge of the color with the fewest edges and contracts again at
  every node, down to the node where no color is left to cross.

The CNF encoding of colorful cut stays public as a test oracle; no route
hands it to DPLL.

`solve_via_kernel` and `decide_max` share one route after the kernel: the
exhaustive search of the reduced graph, then lift, `augment_cut` repair and
a recount on the original graph.
`decide_max` adds the value kernel's early yes, answered by the greedy cut.
Witness checks raise `InvariantError`, so they also run under ``python -O``.
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import Iterable, Sequence

from .errors import CapExceededError, InvariantError
from .graph import ColoredGraph, Cut, _color_classes, _Record, cut_colors, is_colorful
from .kernel import KernelOutcome, KernelVerdict, augment_cut, kernelize_colors, kernelize_value

BRUTE_FORCE_CAP = 24

# Masks per block of the exhaustive search, as a power of two: a truth table
# is a 2^16-bit (8 KiB) int, so memory stays bounded at the cap.  Of widths
# 12..20, 16 was the fastest at n = 16..24.
_BLOCK_BITS = 16


class SolveResult(_Record):
    __slots__ = ("value", "witness", "method", "explored")
    value: int
    witness: Cut
    method: str
    explored: int

    def __init__(self, value: int, witness: Cut, method: str, explored: int) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "explored", explored)


class ColorfulEncoding(_Record):
    """CNF encoding of colorful cut: x_v per vertex, z_e per edge."""

    __slots__ = ("formula", "vertex_var", "aux_var")
    formula: CnfFormula  # from sat.py, which no solving path loads
    vertex_var: dict[int, int]
    aux_var: dict[int, int]

    def __init__(
        self, formula: CnfFormula, vertex_var: dict[int, int], aux_var: dict[int, int]
    ) -> None:
        object.__setattr__(self, "formula", formula)
        object.__setattr__(self, "vertex_var", vertex_var)
        object.__setattr__(self, "aux_var", aux_var)


def _periodic_tables(width: int) -> list[int]:
    """Truth tables over the 2^width masks of one block: bit i of table j is
    bit j of i, so table j says on which masks vertex j+2 is on the S side."""
    size = 1 << width
    tables = []
    for j in range(width):
        half = 1 << j
        table = ((1 << half) - 1) << half  # one period: 2^j zeros, 2^j ones
        length = half << 1
        while length < size:
            table |= table << length
            length <<= 1
        tables.append(table)
    return tables


def brute_force_max(g: ColoredGraph, cap: int = BRUTE_FORCE_CAP) -> SolveResult:
    """Exact maximum colored cut by enumerating bipartitions.

    Only vertex 1 and the t vertices some edge touches are enumerated, and
    `cap` bounds t.  Vertex 1 is pinned to S (complement symmetry), so
    2^(t-1) - 1 bipartitions are scanned, in increasing order of the mask
    whose bit j is the (j+2)-th of those vertices; the first optimum wins
    ties.  Every other vertex sits on T, as in the first optimum of a scan
    over all n vertices, so value and witness are those of that scan.

    The scan is bit-parallel.  Masks run in blocks of 2^_BLOCK_BITS, and over
    one block each vertex's side is a big-int truth table (bit i set when
    vertex is on S under the block's i-th mask).  An edge crosses on
    T_u ^ T_v, a color on the OR over its edges, and a bit-sliced ripple
    counter adds the crossing colors of every mask at once.  A top-down AND
    over the counter bits leaves the masks reaching the block maximum, and
    the lowest of them is the block's first optimum.  Blocks run in
    increasing order and only a strictly larger count replaces the best, so
    the tie-break is that of a plain scan in increasing mask order.
    """
    if g.n < 2:
        raise ValueError(f"no nontrivial cut exists on {g.n} vertices")
    vertices = sorted({1}.union(*(e[:2] for e in g.edges)))
    t = len(vertices)
    if t > cap:
        raise CapExceededError(f"refusing exhaustive search on {t} vertices (cap {cap})")
    index = {v: i for i, v in enumerate(vertices, start=1)}
    classes = [[(index[u], index[v]) for u, v in pairs] for pairs in _color_classes(g)]
    width = min(_BLOCK_BITS, t - 1)
    full = (1 << (1 << width)) - 1
    # vertex 1 is on S under every mask; the next `width` vary inside a block
    low_sides = [0, full] + _periodic_tables(width)
    blocks = 1 << (t - 1 - width)
    best_count = -1
    best_mask = 0
    for block in range(blocks):
        # vertices above the block's bits keep one side over the whole block
        side = low_sides + [full if (block >> j) & 1 else 0 for j in range(t - 1 - width)]
        counter: list[int] = []  # counter[i]: masks whose count has bit i set
        for pairs in classes:
            carry = 0
            for u, v in pairs:
                carry |= side[u] ^ side[v]
            i = 0
            while carry and i < len(counter):
                counter[i], carry = counter[i] ^ carry, counter[i] & carry
                i += 1
            if carry:
                counter.append(carry)
        # The all-ones mask (every vertex on S) crosses nothing, so mask 0
        # ties or beats it and comes first: it is never the witness.
        candidates = full
        count = 0
        for i in reversed(range(len(counter))):
            reaching = candidates & counter[i]
            if reaching:
                candidates = reaching
                count |= 1 << i
        if count > best_count:
            best_count = count
            first = (candidates & -candidates).bit_length() - 1
            best_mask = (block << width) | first
    # bit j of best_mask set  <=>  vertices[j + 1] on the S side
    witness = Cut(g.n, {1} | {v for j, v in enumerate(vertices[1:]) if (best_mask >> j) & 1})
    if len(cut_colors(g, witness)) != best_count:
        raise InvariantError(
            f"brute-force witness does not cross the {best_count} colors it scored"
        )
    return SolveResult(best_count, witness, "brute-force", (1 << (t - 1)) - 1)


def _greedy_sides(g: ColoredGraph, gprime: list[tuple[int, int]]) -> frozenset[int]:
    """Greedy placement over a one-edge-per-color subgraph of g.

    The vertices some edge of g touches are placed in increasing order on the
    side with fewer already placed neighbors (ties to S), counting parallel
    edges with multiplicity, so at least half of the subgraph's edges end up
    crossing.  Untouched vertices stay on T, so the cost is O(m), not O(n).
    """
    adj: dict[int, list[int]] = defaultdict(list)
    for u, v in gprime:
        adj[u].append(v)
        adj[v].append(u)
    s_side: set[int] = set()
    for v in sorted({x for u, w, _ in g.edges for x in (u, w)}):
        # placed neighbors are the smaller ones: count S minus T among them
        if sum(1 if w in s_side else -1 for w in adj.get(v, ()) if w < v) <= 0:
            s_side.add(v)
    if not s_side:
        s_side.add(1)  # g has no edges
    elif len(s_side) == g.n:
        # every vertex is touched and the subgraph has no edges
        s_side.discard(g.n)
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
    surviving = set(range(1, g.p + 1)) - set(removed_colors)
    base = Cut(g.n, _greedy_sides(g, _first_edge_per_color(g, surviving)))
    return augment_cut(g, removed_colors, base)


def greedy_half_colors(g: ColoredGraph) -> Cut:
    """A cut crossing at least ceil(p/2) colors, built greedily.

    Keeps the first edge of each color in file order, then places the
    touched vertices one by one on the side with fewer already-placed
    neighbors in that subgraph (ties to S); untouched vertices go on T.  With
    no edges at all the S side is {1}.
    """
    if g.n < 2:
        raise ValueError(f"no nontrivial cut exists on {g.n} vertices")
    cut = _greedy_cut(g, ())
    if 2 * len(cut_colors(g, cut)) < g.p:
        raise InvariantError(f"greedy cut crosses fewer than half of {g.p} colors")
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
    from .sat import CnfFormula

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


class _Contraction:
    """Parity union-find with live colors, trailed so that unions and the
    colors and edges they drop can be undone.

    Every vertex has a root and a parity, and side(v) = side(root) ^
    parity(v).  A color's live edges (u, v, flip) cross iff side(u) ^
    side(v) ^ flip.  Unions go by weight (the color incidences on a class,
    heavier root kept), so a find climbs O(log m) links without path
    compression.  Each union, color update and dropped color is pushed on
    the trail, and `undo` pops back to a mark.
    """

    __slots__ = ("up", "touching", "live", "trail")

    def __init__(self, colors: dict[int, list[tuple[int, int, int]]]) -> None:
        self.up: dict[int, tuple[int, int]] = {}  # vertex -> (parent, parity to it)
        self.touching: dict[int, list[int]] = defaultdict(list)  # root -> colors on its class
        for c, edges in colors.items():
            for u, v, _ in edges:
                self.touching[u].append(c)
                self.touching[v].append(c)
        self.live = colors
        self.trail: list[tuple] = []  # (color, edges) or (absorbed, absorbing, count)

    def find(self, v: int) -> tuple[int, int]:
        parity = 0
        while v in self.up:
            v, step = self.up[v]
            parity ^= step
        return v, parity

    def unite(self, a: int, b: int, flip: int) -> list[int]:
        """Unite roots a and b so that the edge (a, b, flip) crosses; returns
        the colors on the absorbed class, the only ones whose edges change."""
        touching = self.touching
        if len(touching[a]) < len(touching[b]):
            a, b = b, a
        self.up[b] = (a, flip ^ 1)  # side(a) ^ side(b) ^ flip == 1
        self.trail.append((b, a, len(touching[a])))
        moved = touching.pop(b)
        touching[a] += moved
        return moved

    def propagate(self, colors: Iterable[int]) -> bool:
        """Examine `colors`, and the colors on every class a union absorbs,
        to a fixpoint; False when some color is left with no live edge.

        An edge inside one class crosses always (the color is satisfied and
        dropped) or never (the edge is dropped).  A color whose live edges
        all join the same two classes with the same relative parity must
        cross there, so those classes are united with the parity that makes
        it cross.  Otherwise the color keeps one edge (a, b, flip) per
        distinct quotient edge, with roots a < b.
        """
        live, trail = self.live, self.trail
        queue = deque(c for c in dict.fromkeys(colors) if c in live)
        queued = set(queue)
        while queue:
            c = queue.popleft()
            queued.discard(c)
            keys: dict[tuple[int, int, int], None] = {}
            for u, v, flip in live[c]:
                (a, x), (b, y) = self.find(u), self.find(v)
                if a != b:
                    keys[(a, b, x ^ y ^ flip) if a < b else (b, a, x ^ y ^ flip)] = None
                elif x ^ y ^ flip:
                    break  # always crosses: the color is satisfied
            else:
                if not keys:
                    return False
                if len(keys) > 1:
                    trail.append((c, live[c]))
                    live[c] = list(keys)
                    continue
                ((a, b, flip),) = keys
                for d in self.unite(a, b, flip):
                    if d != c and d in live and d not in queued:
                        queue.append(d)
                        queued.add(d)
            trail.append((c, live.pop(c)))
        return True

    def undo(self, mark: int) -> None:
        """Pop the trail back to `mark`, a length it had before."""
        live, touching, trail = self.live, self.touching, self.trail
        while len(trail) > mark:
            entry = trail.pop()
            if len(entry) == 2:  # (color, its edges before)
                c, edges = entry
                live[c] = edges
            else:  # (absorbed root, absorbing root, its color count before)
                b, a, count = entry
                del self.up[b]
                touching[b] = touching[a][count:]
                del touching[a][count:]


def _contract_forced(
    g: ColoredGraph,
) -> tuple[dict[int, tuple[int, int]], list[list[tuple[int, int, int]]]] | None:
    """Contract the forced crossings of g to a fixpoint (`_Contraction`),
    or None when some color can never cross.

    Returns the (root, parity) of every touched vertex, found once per
    vertex, and, for each color still live, its distinct quotient edges
    (a, b, flip) with roots a < b; such an edge crosses iff side(a) ^
    side(b) ^ flip.  Only touched vertices enter the union-find.
    `_search_classes` branches in a union-find of its own over the quotient,
    so its unions move quotient incidences, not the far longer incidence
    lists of g.
    """
    classes = _color_classes(g)
    contraction = _Contraction({c: [(u, v, 0) for u, v in pairs] for c, pairs in enumerate(classes)})
    if not contraction.propagate(range(len(classes))):
        return None
    touched = {v for pairs in classes for pair in pairs for v in pair}
    labels = {v: contraction.find(v) for v in touched}
    return labels, list(contraction.live.values())


def _search_classes(colors: list[list[tuple[int, int, int]]]) -> dict[int, int] | None:
    """Sides (1 = S) of the quotient classes under which every color in
    `colors` has a crossing edge, or None if there are none.

    A depth-first search without recursion over a `_Contraction` of the
    quotient.  It branches on the first edge of the live color with the
    fewest edges, which crosses in the first branch and not in the second,
    and propagates forced crossings after every branch.  A branch whose
    propagation leaves some color with no live edge backtracks; once no
    color is live every color crosses, whatever side each class takes, so
    the search stops and every class of its union-find sits on S.
    """
    state = _Contraction(dict(enumerate(colors)))
    live = state.live
    stack: list[tuple[int, int, int, int]] = []  # (trail mark, a, b, flip) of untried branches
    ok = True
    while live or not ok:
        if ok:  # branch: the edge crosses first
            a, b, flip = min(live.values(), key=len)[0]
            stack.append((len(state.trail), a, b, flip ^ 1))  # then: it does not cross
        elif stack:  # backtrack into the latest untried branch
            mark, a, b, flip = stack.pop()
            state.undo(mark)
        else:
            return None
        ok = state.propagate(state.unite(a, b, flip))
    roots = {x for edges in colors for edge in edges for x in edge[:2]}
    return {r: 1 ^ state.find(r)[1] for r in roots}


def colorful_cut_decide(g: ColoredGraph) -> Cut | None:
    """A cut crossing all p colors, or None if no such cut exists.

    Forced crossings are contracted first (`_contract_forced`), then the
    classes the remaining colors touch are searched (`_search_classes`),
    which branches and propagates forced crossings again after every branch
    until no color is left to cross.  The assignment found is lifted:
    side(v) = side(root) ^ parity(v), classes no remaining color touches sit
    on S, and vertices no edge touches on T.  With p >= 1 a colorful cut
    crosses an edge, so it is nontrivial.  The cut is recounted on g before
    it is returned.
    """
    if g.n < 2:
        return None  # there is no nontrivial bipartition at all
    if g.p == 0:
        return Cut(g.n, frozenset({1}))
    contracted = _contract_forced(g)
    if contracted is None:
        return None
    labels, colors = contracted
    sides = _search_classes(colors)
    if sides is None:
        return None
    s_side = frozenset(v for v, (root, parity) in labels.items() if sides.get(root, 1) ^ parity)
    cut = Cut(g.n, s_side)
    if not is_colorful(g, cut):
        raise InvariantError("the lifted quotient assignment is not a colorful cut")
    return cut


def _solve_reduced(g: ColoredGraph, outcome: KernelOutcome, cap: int) -> SolveResult:
    """Exact optimum of g from a REDUCED kernel outcome: search the reduced
    graph with `brute_force_max`, lift the witness (dropped vertices land on
    T), repair it with `augment_cut` and check that it crosses
    value + len(removed) colors.

    The search's S side holds only reduced vertex 1 and touched vertices,
    which lift through `vertex_renaming`; reduced vertex 1, when no edge
    touches it, is the first vertex of g that no edge touches.
    """
    reduced = outcome.reduced_graph
    if reduced is None:
        raise InvariantError("the kernel gave no reduced graph")
    if reduced.n < 2:
        value, explored, s_side = 0, 0, {1}  # nothing is left to lift from
    else:
        result = brute_force_max(reduced, cap=cap)
        value, explored = result.value, result.explored
        back = {new: old for old, new in outcome.vertex_renaming.items()}
        if 1 not in back:
            touched = {x for u, v, _ in g.edges for x in (u, v)}
            back[1] = next(v for v in range(1, g.n + 1) if v not in touched)
        s_side = {back[v] for v in result.witness.s_side}
    witness = augment_cut(g, outcome.removed_colors, Cut(g.n, frozenset(s_side)))
    total = value + len(outcome.removed_colors)
    if len(cut_colors(g, witness)) != total:
        raise InvariantError(f"lifted witness does not cross the {total} colors it claims")
    return SolveResult(total, witness, "kernel+brute-force", explored)


def decide_max(g: ColoredGraph, k: int, cap: int = BRUTE_FORCE_CAP) -> tuple[bool, Cut | None]:
    """Decide whether some cut crosses at least k colors; witness on yes.

    Runs the value-parameterized kernel first.  On EARLY_YES (every k up to
    ceil(p/2) gets one) the witness is the greedy cut over the surviving
    colors, repaired by `augment_cut`; else the reduced graph is solved as in
    `solve_via_kernel`.  Either way a returned cut crosses >= k colors of g.
    """
    if g.n < 2:
        raise ValueError(f"no nontrivial cut exists on {g.n} vertices")
    if k < 1:
        raise ValueError(f"target k must be at least 1, got {k}")
    outcome = kernelize_value(g, k)
    if outcome.verdict is KernelVerdict.EARLY_YES:
        base = _greedy_cut(g, outcome.removed_colors)
        if len(cut_colors(g, base)) < k:
            raise InvariantError(f"early-yes witness crosses fewer than {k} colors")
        return True, base
    result = _solve_reduced(g, outcome, cap)
    return (True, result.witness) if result.value >= k else (False, None)


def solve_via_kernel(g: ColoredGraph, cap: int = BRUTE_FORCE_CAP) -> SolveResult:
    """Exact maximum colored cut through the color-parameterized kernel.

    The optimum of g equals the optimum of the reduced graph plus the number
    of removed colors; the witness is lifted back and repaired to achieve it.
    `cap` bounds the vertices searched: reduced vertex 1 and the touched ones.
    """
    if g.n < 2:
        raise ValueError(f"no nontrivial cut exists on {g.n} vertices")
    return _solve_reduced(g, kernelize_colors(g), cap)
