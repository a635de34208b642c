"""Solvers for maximum colored cut and colorful cut.

Three routes:

* exhaustive bipartition search over the first vertex left (pinned to S)
  and the vertices a kept color touches (exact, capped), bit-parallel over
  big-int truth tables of the masks (built once per block width):
  carry-save adders sum the crossing colors of every mask into a
  bit-sliced counter, and the first optimum in increasing mask order wins,
* a greedy placement that always crosses at least half the colors,
* colorful cut: one BFS labels the colors with a single endpoint pair,
  which must cross; one trailed parity union-find, seeded with those labels
  as depth-one stars, contracts the other colors' forced crossings, is
  settled onto the quotient, and is then searched in place depth-first
  without recursion, branching on the busiest edge of a color with the
  fewest edges (the MOMS rule of DPLL solvers) and contracting again at
  every node, down to the node where no color is left to cross.

`brute_force_max`, `solve_via_kernel` and `_staged` share one exhaustive
search.  It takes the color-class table and the colors the kernel removed,
scans the surviving colors in place on g (no reduced graph is built),
repairs the witness with `augment_cut` and recounts it on g.
`solve_via_kernel` is that search over the rule's table and nothing else.
`decide_max` reads `_staged`, which answers "at least k?" in one order: the
value kernel's early yes, answered by the greedy cut, and a "no" with no
search when k exceeds the upper bound, before the search; the greedy cut
again where the search refuses.  That bound is the color count minus a
packing of color-disjoint odd cycles of colors with a single endpoint pair
(`_odd_cycles`, which climbs the parents of the `_bfs_labels` forest of
those pairs, in time linear in them whatever n is): every cut leaves a
color of each uncrossed.  These are the odd-cycle inequalities of the cut
polytope (Barahona and Mahjoub, Math. Programming 1986).
Witness checks (the greedy guarantee's in `_greedy_cut`, for every caller),
and the packing's check before it is trusted, raise `InvariantError`, so
they also run under ``python -O``.
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import Iterable, Sequence

from .errors import CapExceededError, InvariantError
from .graph import ColoredGraph, Cut, _bfs_labels, _color_classes, _Record, cut_colors, is_colorful
from .kernel import _rule_table, _survivors, _value_kernel, augment_cut

BRUTE_FORCE_CAP = 24

# Masks per block of the exhaustive search, as a power of two: a truth table
# is a 2^16-bit (8 KiB) int, so memory stays bounded at the cap.  Of widths
# 12..20, 16 was the fastest at n = 16..24.
_BLOCK_BITS = 16


class SolveResult(_Record):
    __slots__ = ("value", "witness", "explored")
    value: int
    witness: Cut
    explored: int

    def __init__(self, value: int, witness: Cut, explored: int) -> None:
        super().__init__(value, witness, explored)


# Truth tables of `_periodic_tables`, by block width, built on first use.
_TABLES: dict[int, list[int]] = {}


def _periodic_tables(width: int) -> list[int]:
    """Truth tables over the 2^width masks of one block: bit i of table j is
    bit j of i, so table j says on which masks vertex j+2 is on the S side.
    Each width is built once and kept in `_TABLES`."""
    tables = _TABLES.get(width)
    if tables is None:
        size = 1 << width
        tables = _TABLES[width] = []
        for j in range(width):
            half = 1 << j
            table = ((1 << half) - 1) << half  # one period: 2^j zeros, 2^j ones
            length = half << 1
            while length < size:
                table |= table << length
                length <<= 1
            tables.append(table)
    return tables


def _crossing(tables: list[list[tuple[int, int]]], side: list[int]) -> list[int]:
    """Each color's crossing table: the OR of side[u] ^ side[v] over its pairs."""
    out = []
    for pairs in tables:
        bits = 0
        for u, v in pairs:
            bits |= side[u] ^ side[v]
        out.append(bits)
    return out


def _add_bits(bits: list[int], counter: Sequence[int] = ()) -> list[int]:
    """The bit-sliced sum of `counter` and `bits`: entry i of a bit-sliced
    counter holds the masks whose count has bit i set, and each of `bits` adds
    1 on the masks it holds.

    Carry-save (Wallace) reduction: column i holds the bits of weight 2^i,
    starting with counter[i].  A full adder takes three of them, a, b and c,
    puts their sum a^b^c back and passes the carry (a&b)|((a^b)&c) to column
    i+1; a half adder on the last two leaves one bit, entry i of the sum.
    """
    out: list[int] = []
    column = list(bits)
    i = 0
    while column or i < len(counter):
        if i < len(counter):
            column.append(counter[i])
        carries = []
        while len(column) > 2:
            a, b, c = column.pop(), column.pop(), column.pop()
            ab = a ^ b
            column.append(ab ^ c)
            carries.append((a & b) | (ab & c))
        if len(column) == 2:
            a, b = column
            column = [a ^ b]
            carries.append(a & b)
        out.append(column[0])
        column = carries
        i += 1
    return out


def _odd_cycles(
    classes: list[dict[tuple[int, int], int]], single: Sequence[int]
) -> list[list[int]]:
    """Pairwise color-disjoint odd cycles, each as the list of its colors,
    over the colors `single`, whose `_color_classes` entries each hold a
    single endpoint pair.  Every cut crosses an even number of a cycle's
    edges, so it leaves some color of each cycle uncrossed: no cut crosses
    more than p minus the number of cycles.

    `_bfs_labels` spans the graph of those pairs, roots taken in increasing
    order; a tree pair's color is the first of `single` on it.  A non-tree
    pair joins two depths that differ by at most one; when its parities are
    equal the depths are too, it closes a fundamental odd cycle, and both
    ends climb the parents in step to the vertex where they meet.  Pairs are
    tried in the order of `single`, and a cycle is taken when none of its
    tree pairs, each named by its lower end, is taken yet.  A climb stops at
    the first taken one, and all climbs together make at most one step per
    pair, so the cost is linear in the pairs, whatever n is.
    """
    pairs = [pair for c in single for pair in classes[c - 1]]  # one pair each
    labels = _bfs_labels(pairs)
    first = dict(zip(pairs[::-1], single[::-1]))  # each pair's first color
    taken: set[int] = set()  # the lower ends of the tree pairs taken
    cycles = []
    steps = len(pairs)
    for (u, v), c in zip(pairs, single):
        if not steps:
            break
        if labels[u][1] != labels[v][1]:  # a tree pair, or an even cycle
            continue
        lower: list[int] = []
        while u != v and steps:
            steps -= 1
            lower += (u, v)
            if u in taken or v in taken:
                break
            u, v = labels[u][2], labels[v][2]
        if u == v and taken.isdisjoint(lower):
            taken.update(lower)
            cycle = [c]
            for w in lower:  # the tree pair (w, its parent)
                up = labels[w][2]
                cycle.append(first[(up, w) if up < w else (w, up)])
            cycles.append(cycle)
    return cycles


def _check_odd_cycles(g: ColoredGraph, cycles: Sequence[Sequence[int]]) -> None:
    """Raise `InvariantError` unless every cut leaves a color of each of
    `cycles` uncrossed, one color per cycle: each color has exactly one
    endpoint pair in g, no color appears twice, and each cycle has an odd
    number of edges and an even degree at every vertex, so that every cut
    crosses an even number of them."""
    colors = [c for cycle in cycles for c in cycle]
    pair_of: dict[int, tuple[int, int] | None] = dict.fromkeys(colors)
    if len(pair_of) != len(colors):
        raise InvariantError("odd-cycle packing uses a color twice")
    for u, v, c in g.edges:
        if c in pair_of:
            pair = (u, v) if u < v else (v, u)
            if pair_of[c] is None:
                pair_of[c] = pair
            elif pair_of[c] != pair:
                raise InvariantError(f"odd-cycle color {c} has more than one endpoint pair")
    for cycle in cycles:
        odd: set[int] = set()  # the vertices of odd degree so far
        for c in cycle:
            pair = pair_of[c]
            if pair is None:
                raise InvariantError(f"odd-cycle color {c} has no edge")
            odd.symmetric_difference_update(pair)
        if len(cycle) % 2 == 0 or odd:
            raise InvariantError(f"colors {list(cycle)} do not form an odd cycle")


def _search(
    g: ColoredGraph, classes: list[dict[tuple[int, int], int]], removed: Sequence[int]
) -> SolveResult:
    """Exact optimum of g from its `_color_classes` table and the colors the
    rule `removed`, in removal order: each crosses some maximum cut, so the
    optimum is that over the other colors plus len(removed).  ValueError on
    fewer than two vertices, where no nontrivial cut exists.

    The search keeps what `kernel._survivors` keeps.  The first vertex left
    (vertex 1 when nothing is dropped) is pinned to S, since swapping the
    sides crosses the same colors.  It and the t - 1 other vertices a kept
    color touches are enumerated, with BRUTE_FORCE_CAP bounding t; every
    other vertex sits on T.  The 2^(t-1) - 1 bipartitions are scanned in
    increasing order of the mask whose bit j is the (j+2)-th of those
    vertices, and the first optimum wins ties.

    The scan is bit-parallel.  Masks run in blocks of 2^_BLOCK_BITS, and over
    one block each vertex's side is a big-int truth table (bit i set when
    vertex is on S under the block's i-th mask).  An edge crosses on
    T_u ^ T_v and a color on the OR over its edges; `_add_bits` sums the
    crossing colors of every mask at once into a bit-sliced counter with
    carry-save adders.  With more than one block, the colors whose vertices
    all vary inside a block cross the same masks in every block: they are
    counted once, and each block adds only the other colors to that count.
    A top-down AND over the counter bits leaves the masks reaching the block
    maximum, and the lowest of them is the block's first optimum.  Blocks
    run in increasing order and only a strictly larger count replaces the
    best, so the tie-break is that of a plain scan in increasing mask order.
    `augment_cut` then makes the witness cross the removed colors, and the
    result is recounted on g.
    """
    if g.n < 2:
        raise ValueError(f"no nontrivial cut exists on {g.n} vertices")
    kept, touched, dropped = _survivors(classes, removed)
    # the first vertex left; with fewer than two left, none is touched and
    # the scan of vertex 1 alone gives 0 and S = {1}
    pinned = min({*range(1, len(dropped) + 2)} - dropped) if g.n - len(dropped) > 1 else 1
    vertices = sorted(touched | {pinned})  # pinned comes first
    t = len(vertices)
    if t > BRUTE_FORCE_CAP:
        raise CapExceededError(f"refusing exhaustive search on {t} vertices (cap {BRUTE_FORCE_CAP})")
    index = {v: i for i, v in enumerate(vertices, start=1)}
    tables = [[(index[u], index[v]) for u, v in classes[c - 1]] for c in kept]
    width = min(_BLOCK_BITS, t - 1)
    full = (1 << (1 << width)) - 1
    # the pinned vertex is on S under every mask; the next `width` vary inside a block
    low_sides = [0, full] + _periodic_tables(width)
    blocks = 1 << (t - 1 - width)
    base: list[int] = []  # the bit-sliced count of the colors every block shares
    if blocks > 1:
        # a pair's larger index is v: it says whether the pair leaves the block's vertices
        shared = [pairs for pairs in tables if all(v <= width + 1 for _, v in pairs)]
        tables = [pairs for pairs in tables if any(v > width + 1 for _, v in pairs)]
        base = _add_bits(_crossing(shared, low_sides))
    best_count = -1
    best_mask = 0
    for block in range(blocks):
        # vertices above the block's bits keep one side over the whole block
        side = low_sides + [full if (block >> j) & 1 else 0 for j in range(t - 1 - width)]
        # counter[i]: masks whose count has bit i set
        counter = _add_bits(_crossing(tables, side), base)
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
    s_side = {pinned} | {v for j, v in enumerate(vertices[1:]) if (best_mask >> j) & 1}
    witness = augment_cut(g, removed, Cut(g.n, frozenset(s_side)))
    total = best_count + len(removed)
    if len(cut_colors(g, witness)) != total:
        raise InvariantError(f"exhaustive-search witness does not cross the {total} colors it scored")
    return SolveResult(total, witness, (1 << (t - 1)) - 1)


def brute_force_max(g: ColoredGraph) -> SolveResult:
    """Exact maximum colored cut by enumerating bipartitions (`_search`, no
    kernel): vertex 1 and the vertices some edge touches, with vertex 1 on S.
    Every other vertex sits on T, as in the first optimum of a scan over all
    n vertices, so value and witness are those of that scan.  The search
    raises ValueError on fewer than two vertices.
    """
    return _search(g, _color_classes(g), ())


def _greedy_cut(g: ColoredGraph, removed: Sequence[int]) -> tuple[Cut, int]:
    """Greedy cut over the first edge of every color not in `removed`,
    repaired by `augment_cut` to cross the removed colors too, and the
    number of colors of g it crosses, recounted on g.  ValueError on fewer
    than two vertices, where no nontrivial cut exists.

    The vertices some edge of g touches are placed in increasing order on the
    side with fewer already placed neighbors over those first edges (ties to
    S), counting parallel edges with multiplicity, so at least half of the
    first edges cross: the cut crosses every removed color and half of the
    kept ones, else `InvariantError`.  Untouched vertices stay on T, so the
    cost is O(m), not O(n).  A first edge (u, w) with u < w puts w on T when
    every smaller neighbor of w is on S, so S never holds every vertex.  With
    no first edge S holds every touched vertex ({1} when g has no edge), so
    `removed` must keep a color of g's edges, or `Cut` may raise ValueError.
    """
    if g.n < 2:
        raise ValueError(f"no nontrivial cut exists on {g.n} vertices")
    skip = set(removed)
    adj: dict[int, list[int]] = defaultdict(list)
    for u, v, c in g.edges:
        if c not in skip:
            skip.add(c)  # later edges of c are not first edges
            adj[u].append(v)
            adj[v].append(u)
    s_side: set[int] = set()
    for v in sorted({x for u, w, _ in g.edges for x in (u, w)}):
        # placed neighbors are the smaller ones: count S minus T among them
        if sum(1 if w in s_side else -1 for w in adj.get(v, ()) if w < v) <= 0:
            s_side.add(v)
    cut = augment_cut(g, removed, Cut(g.n, s_side or {1}))
    crossed = len(cut_colors(g, cut))
    if 2 * crossed < g.p + len(removed):
        raise InvariantError(
            f"greedy witness crosses {crossed} colors, fewer than the {len(removed)} "
            f"removed and half of the {g.p - len(removed)} kept"
        )
    return cut, crossed


def greedy_half_colors(g: ColoredGraph) -> Cut:
    """A cut crossing at least ceil(p/2) colors, placed greedily over the
    first edge of each color in file order (see `_greedy_cut`)."""
    return _greedy_cut(g, ())[0]


class _Contraction:
    """Parity union-find with live colors, trailed so that unions and the
    colors and edges they drop can be undone.

    Every vertex has a root and a parity, and side(v) = side(root) ^
    parity(v).  It starts from `up`, links (parent, parity) that are already
    made, and a color's live edges (u, v, flip) between roots cross iff
    side(u) ^ side(v) ^ flip.  Unions go by weight (the color incidences on
    a class, heavier root kept), so a find climbs O(log m) links above the
    starting links without path compression.  Each union, color update and
    dropped color is pushed on the trail, and `undo` pops back to a mark.
    `settle` recounts the weights over the live edges alone and forgets the
    trail, so a search that starts after it weighs and moves quotient
    incidences only.
    """

    __slots__ = ("up", "touching", "live", "trail")

    def __init__(
        self, up: dict[int, tuple[int, int]], colors: dict[int, list[tuple[int, int, int]]]
    ) -> None:
        self.up = up  # vertex -> (parent, parity to it)
        self.live = colors
        self.settle()

    def settle(self) -> None:
        """Count each class's color incidences over the live edges alone and
        empty the trail: the state so far can no longer be undone, and later
        unions weigh and move only the incidences still live."""
        self.touching: dict[int, list[int]] = defaultdict(list)  # root -> colors on its class
        for c, edges in self.live.items():
            for u, v, _ in edges:
                self.touching[u].append(c)
                self.touching[v].append(c)
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
        distinct quotient edge, with roots a < b.  `find` and `unite` are
        written out in the loop: it is the colorful route's hot path.
        """
        live, trail, up, touching = self.live, self.trail, self.up, self.touching
        queue = deque(c for c in dict.fromkeys(colors) if c in live)
        queued = set(queue)
        while queue:
            c = queue.popleft()
            queued.discard(c)
            keys: dict[tuple[int, int, int], None] = {}
            for a, b, flip in live[c]:
                while a in up:
                    a, step = up[a]
                    flip ^= step
                while b in up:
                    b, step = up[b]
                    flip ^= step
                if a != b:
                    keys[(a, b, flip) if a < b else (b, a, flip)] = None
                elif flip:
                    break  # always crosses: the color is satisfied
            else:
                if not keys:
                    return False
                if len(keys) > 1:
                    trail.append((c, live[c]))
                    live[c] = list(keys)
                    continue
                ((a, b, flip),) = keys
                if len(touching[a]) < len(touching[b]):
                    a, b = b, a
                up[b] = (a, flip ^ 1)
                trail.append((b, a, len(touching[a])))
                moved = touching.pop(b)
                touching[a] += moved
                for d in moved:
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


def _root_contraction(g: ColoredGraph) -> _Contraction | None:
    """The settled `_Contraction` of g's forced crossings, or None when some
    color can never cross.

    A color with one distinct endpoint pair must cross on it, so one BFS
    labels the graph of those pairs, vertices taken in increasing order: a
    pair with equal parities closes an odd cycle of must-cross edges, and
    otherwise every labelled vertex links to its component's root (its
    smallest vertex) with its depth parity.  The union-find starts from
    those depth-one stars and holds only the other colors, each edge moved
    onto its endpoints' roots, and one `propagate` runs them to a fixpoint.
    """
    classes = _color_classes(g)
    forced = [next(iter(pairs)) for pairs in classes if len(pairs) == 1]
    labels = _bfs_labels(forced)
    if any(labels[u][1] == labels[v][1] for u, v in forced):
        return None
    colors: dict[int, list[tuple[int, int, int]]] = {}
    for c, pairs in enumerate(classes):
        if len(pairs) != 1:
            edges = colors[c] = []
            for u, v in pairs:
                a, x, _ = labels.get(u, (u, 0, u))
                b, y, _ = labels.get(v, (v, 0, v))
                edges.append((a, b, x ^ y))
    up = {v: (root, parity) for v, (root, parity, _) in labels.items() if root != v}
    state = _Contraction(up, colors)
    if not state.propagate(list(colors)):
        return None
    state.settle()
    return state


def colorful_cut_decide(g: ColoredGraph) -> Cut | None:
    """A cut crossing all p colors, or None if no such cut exists.

    `_root_contraction` settles the forced crossings first: one BFS labels
    the colors with a single endpoint pair, and one `_Contraction` seeded
    with those labels contracts the other colors to a fixpoint, so that
    branch unions move only quotient incidences.  A depth-first search
    without recursion then branches by MOMS, maximum occurrences in clauses
    of minimum size (Marques-Silva, EPIA 1999): over every edge of every live
    color with the fewest edges, the edge whose two classes carry the most
    color incidences, the first such in `live` order and then edge order.
    That edge crosses in the first branch and not in the second, and forced
    crossings are propagated after every branch.  A branch whose propagation
    leaves some color with no live edge backtracks; once no color is live
    every color crosses, whatever side each class takes.
    Every root sits on S, so a touched vertex is on S iff its parity to its
    root is 0, and vertices no edge touches sit on T.  With p >= 1 a
    colorful cut crosses an edge, so it is nontrivial.  The cut is recounted
    on g before it is returned.
    """
    if g.n < 2:
        return None  # there is no nontrivial bipartition at all
    if g.p == 0:
        return Cut(g.n, frozenset({1}))
    state = _root_contraction(g)
    if state is None:
        return None
    live, touching = state.live, state.touching
    stack: list[tuple[int, int, int, int]] = []  # (trail mark, a, b, flip) of untried branches
    ok = True
    while live or not ok:
        if ok:  # branch on the busiest edge of a shortest color; it crosses first
            # After `propagate` both ends of a live edge are current roots
            # carrying that color, so `touching[x]` adds no defaultdict entry.
            shortest = min(map(len, live.values()))
            busiest = -1
            for edges in live.values():
                if len(edges) == shortest:
                    for edge in edges:
                        weight = len(touching[edge[0]]) + len(touching[edge[1]])
                        if weight > busiest:
                            busiest = weight
                            a, b, flip = edge
            stack.append((len(state.trail), a, b, flip ^ 1))  # then: it does not cross
        elif stack:  # backtrack into the latest untried branch
            mark, a, b, flip = stack.pop()
            state.undo(mark)
        else:
            return None
        ok = state.propagate(state.unite(a, b, flip))
    touched = {x for u, v, _ in g.edges for x in (u, v)}
    cut = Cut(g.n, frozenset(v for v in touched if not state.find(v)[1]))
    if not is_colorful(g, cut):
        raise InvariantError("the lifted quotient assignment is not a colorful cut")
    return cut


# The stages of `_staged`, in the order they run.
_STAGES = ("color-count", "early-yes", "odd-cycle", "search", "greedy")


def _staged(
    g: ColoredGraph,
    k: int,
    table: tuple[list[dict[tuple[int, int], int]], list[int]] | None = None,
) -> tuple[int, Cut | None, int, str]:
    """The one staged answer to "does some cut cross at least k colors?".

    Stages run in the order of `_STAGES`, and the first that settles the
    question answers:

    * color-count: k > p is a no, since no cut crosses more than p colors.
    * early-yes: the value kernel's early yes (every k up to ceil(p/2) gets
      one), with `_greedy_cut` over the surviving colors as witness.
    * odd-cycle: when p minus an `_odd_cycles` packing of the single-pair
      colors is below k, the packing is checked and the answer is no.  It
      is skipped when a third of those colors is at most p - k, since it
      could not bring the bound below k then.
    * search: `_search` over the rule's full removal order, when it
      enumerates at most `BRUTE_FORCE_CAP` vertices.
    * greedy, only where the search refuses: `_greedy_cut` over the colors
      the rule keeps is a yes when it crosses at least k colors.

    Returns (lower, witness, upper, stage): `witness` crosses `lower` colors
    of g (0 and None when a stage answers no without a cut), no cut crosses
    more than `upper`, and `stage` answered.  A no has a certified `upper`
    below k.  Where no stage settles the question, the search's
    `CapExceededError` propagates.  A `table` from `kernel._rule_table(g)`
    is read in place of building it again.
    """
    if g.n < 2:
        raise ValueError(f"no nontrivial cut exists on {g.n} vertices")
    if k > g.p:
        return 0, None, g.p, "color-count"
    classes, removed, early = _value_kernel(g, k, table)
    if early:
        # _greedy_cut checks 2 * lower >= p + len(removed) >= 2k - 1, so lower >= k
        base, lower = _greedy_cut(g, removed)
        return lower, base, g.p, "early-yes"
    # each odd cycle takes three single-pair colors or more, so the packing
    # can only answer when a third of them is more than p - k
    single = [c for c, pairs in enumerate(classes, 1) if len(pairs) == 1]
    if g.p - len(single) // 3 < k:
        cycles = _odd_cycles(classes, single)
        if g.p - len(cycles) < k:
            _check_odd_cycles(g, cycles)
            return 0, None, g.p - len(cycles), "odd-cycle"
    try:
        result = _search(g, classes, removed)
    except CapExceededError:
        cut, lower = _greedy_cut(g, removed)
        if lower < k:
            raise
        return lower, cut, g.p, "greedy"
    return result.value, result.witness, result.value, "search"


def decide_max(g: ColoredGraph, k: int) -> tuple[bool, Cut | None]:
    """Decide whether some cut crosses at least k colors; witness on yes.

    `_staged` answers, by the stage order its docstring names.  A returned
    cut crosses >= k colors of g.
    """
    lower, witness, *_ = _staged(g, k)
    return (True, witness) if lower >= k else (False, None)


def solve_via_kernel(g: ColoredGraph) -> SolveResult:
    """Exact maximum colored cut through the color-parameterized kernel:
    `_search` over the colors the rule keeps, with no reduced graph built,
    and no certificate stage of `_staged`.  Value and witness are those of
    `brute_force_max` on the reduced graph of `kernelize_colors`, lifted
    back and repaired by `augment_cut`.
    """
    return _search(g, *_rule_table(g))
