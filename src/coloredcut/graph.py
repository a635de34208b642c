"""Edge-colored multigraph model, cut evaluation, and the ECG text format.

An edge-colored graph is an undirected multigraph on vertices 1..n whose
edges each carry one color from 1..p.  Every color must be "live" (appear
on at least one edge), so p == 0 exactly when there are no edges.  Parallel
edges are allowed, self-loops are not.

ECG text format::

    c optional comment lines before the header
    p ecg <n> <m> <p>
    e <u> <v> <color>     (exactly m such lines)

A cut file is a single line ``s <v1> <v2> ... <vk>`` listing the S-side
vertices in increasing order; both sides must be nonempty.
"""

from __future__ import annotations

from operator import index
from collections.abc import Collection, Iterable

from .errors import FormatError

Edge = tuple[int, int, int]  # (u, v, color)


class _Record:
    """Immutable value type over the fields named in `__slots__`, in order.

    Equality, hash and repr are those of a frozen dataclass with the same
    fields, without importing `dataclasses` (and `inspect`) at start-up.
    Each subclass sets its fields in `__init__` through `object.__setattr__`.
    Copy, deepcopy and pickle rebuild through the public constructor, since
    slots assigned one by one on restore would hit `__setattr__`.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


class ColoredGraph(_Record):
    """Undirected edge-colored multigraph on vertices 1..n with colors 1..p.

    n, p and the edge fields must be integers (`operator.index`); they are
    stored as plain ints, the edges as a tuple of (u, v, color) triples.
    """

    __slots__ = ("n", "edges", "p")
    n: int
    edges: tuple[Edge, ...]
    p: int

    def __init__(self, n: int, edges: Iterable[Edge], p: int) -> None:
        n, p = index(n), index(p)
        edges = tuple((index(u), index(v), index(c)) for u, v, c in edges)
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        if p < 0:
            raise ValueError(f"color count must be nonnegative, got {p}")
        seen_colors: set[int] = set()
        for u, v, c in edges:
            if not (1 <= u <= n) or not (1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) has an endpoint outside 1..{n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= c <= p):
                raise ValueError(f"edge ({u},{v}) has color {c} outside 1..{p}")
            seen_colors.add(c)
        if len(seen_colors) != p:
            dead = sorted(set(range(1, p + 1)) - seen_colors)
            raise ValueError(f"colors {dead} are declared but appear on no edge")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "p", p)

    @classmethod
    def _trusted(cls, n: int, edges: tuple[Edge, ...], p: int) -> ColoredGraph:
        """Build without checks, from ints that already pass every check of
        the constructor (as `parse_graph` makes sure, line by line)."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edges)
        object.__setattr__(g, "p", p)
        return g

    @property
    def m(self) -> int:
        return len(self.edges)

    def edges_of_color(self, color: int) -> list[int]:
        """Indices (0-based, file order) of the edges carrying `color`."""
        if not (1 <= color <= self.p):
            raise ValueError(f"color {color} outside 1..{self.p}")
        return [i for i, (_, _, c) in enumerate(self.edges) if c == color]


class Cut(_Record):
    """A nontrivial bipartition of 1..n, stored as the S side.

    n and the vertices must be integers (`operator.index`); they are stored
    as plain ints.
    """

    __slots__ = ("n", "s_side")
    n: int
    s_side: frozenset[int]

    def __init__(self, n: int, s_side: Iterable[int]) -> None:
        n = index(n)
        s_side = frozenset(map(index, s_side))
        if not s_side:
            raise ValueError("cut is trivial: S side is empty")
        if min(s_side) < 1 or max(s_side) > n:
            raise ValueError(f"cut contains vertices outside 1..{n}")
        if len(s_side) == n:
            raise ValueError("cut is trivial: T side is empty")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "s_side", s_side)

    @property
    def t_side(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1)) - self.s_side

    def crosses(self, u: int, v: int) -> bool:
        return (u in self.s_side) != (v in self.s_side)

    def complement(self) -> "Cut":
        return Cut(self.n, self.t_side)


# ---------------------------------------------------------------------------
# cut evaluation


def cut_edges(g: ColoredGraph, cut: Cut) -> list[int]:
    """Indices (0-based, file order) of the edges crossing the cut."""
    if cut.n != g.n:
        raise ValueError(f"cut is over 1..{cut.n} but graph has {g.n} vertices")
    s = cut.s_side
    return [i for i, (u, v, _) in enumerate(g.edges) if (u in s) != (v in s)]


def cut_colors(g: ColoredGraph, cut: Cut) -> frozenset[int]:
    """The set of colors appearing on at least one crossing edge."""
    if cut.n != g.n:
        raise ValueError(f"cut is over 1..{cut.n} but graph has {g.n} vertices")
    s = cut.s_side  # inlined `cut.crosses`: this runs once per edge
    return frozenset(c for u, v, c in g.edges if (u in s) != (v in s))


def is_colorful(g: ColoredGraph, cut: Cut) -> bool:
    """True iff every one of the p colors crosses the cut."""
    return len(cut_colors(g, cut)) == g.p


def _bfs_labels(
    vertices: Iterable[int], pairs: Iterable[tuple[int, int]]
) -> dict[int, tuple[int, int]]:
    """Label every vertex with (component root, BFS depth parity).

    Each pair must join two of `vertices`.  Roots are taken in the order of
    `vertices`, so a root is its component's first vertex in that order.  An
    edge joins two equal parities exactly when its component has an odd cycle.
    """
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    labels: dict[int, tuple[int, int]] = {}
    for root in adj:
        if root in labels:
            continue
        labels[root] = (root, 0)
        queue = [root]
        for v in queue:
            parity = 1 - labels[v][1]
            for w in adj[v]:
                if w not in labels:
                    labels[w] = (root, parity)
                    queue.append(w)
    return labels


def _span(pairs: Collection[tuple[int, int]]) -> int:
    """Number of connected components among the vertices `pairs` touch."""
    labels = _bfs_labels({x for pair in pairs for x in pair}, pairs)
    return len({root for root, _ in labels.values()})


def _color_classes(g: ColoredGraph) -> list[dict[tuple[int, int], int]]:
    """Each color's distinct endpoint pairs, for colors 1..p in order.

    Entry c-1 maps every pair (smaller endpoint first) carrying color c to
    the index of its first edge, in order of first appearance.
    """
    classes: list[dict[tuple[int, int], int]] = [{} for _ in range(g.p)]
    for i, (u, v, c) in enumerate(g.edges):
        classes[c - 1].setdefault((u, v) if u < v else (v, u), i)
    return classes


def _color_class(g: ColoredGraph, color: int) -> dict[tuple[int, int], int]:
    if not (1 <= color <= g.p):
        raise ValueError(f"color {color} outside 1..{g.p}")
    return _color_classes(g)[color - 1]


def color_span(g: ColoredGraph, color: int) -> int:
    """Number of connected components of the subgraph formed by one color class.

    Only vertices touched by edges of that color count; isolated vertices of
    the host graph are ignored.
    """
    return _span(_color_class(g, color))


def distinct_pairs_of_color(g: ColoredGraph, color: int) -> int:
    """Number of distinct endpoint pairs {u,v} carrying an edge of `color`."""
    return len(_color_class(g, color))


def dedupe_edges(g: ColoredGraph) -> ColoredGraph:
    """Drop exact duplicates: later edges with the same endpoints and color.

    Endpoint order is ignored, so (u,v,c) and (v,u,c) are duplicates.  Edge
    order of the survivors is preserved.
    """
    first = sorted(i for pairs in _color_classes(g) for i in pairs.values())
    if len(first) == g.m:
        return g
    return ColoredGraph(g.n, tuple(g.edges[i] for i in first), g.p)


# ---------------------------------------------------------------------------
# ECG text format


def parse_graph(text: str) -> ColoredGraph:
    """Parse the ECG format.  Raises FormatError naming the offending line.

    Every check of the `ColoredGraph` constructor is made here, once per
    line, so the graph is built without a second pass over the edges.
    """
    lines = text.splitlines()
    header: list[str] | None = None
    header_lineno = 0
    edges: list[Edge] = []
    n = m = p = 0
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if header is None:
            if tokens[0] == "c":
                continue
            if tokens[0] != "p":
                raise FormatError(f"line {lineno}: expected comment or header, got {raw!r}")
            if len(tokens) != 5 or tokens[1] != "ecg":
                raise FormatError(f"line {lineno}: malformed header {raw!r}")
            try:
                n, m, p = int(tokens[2]), int(tokens[3]), int(tokens[4])
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer field in header {raw!r}")
            if n < 0 or m < 0 or p < 0:
                raise FormatError(f"line {lineno}: negative count in header {raw!r}")
            header = tokens
            header_lineno = lineno
            continue
        if tokens[0] != "e":
            raise FormatError(f"line {lineno}: expected edge line, got {raw!r}")
        if len(edges) >= m:
            raise FormatError(f"line {lineno}: more than the {m} edges declared in the header")
        if len(tokens) != 4:
            raise FormatError(f"line {lineno}: malformed edge line {raw!r}")
        try:
            u, v, c = int(tokens[1]), int(tokens[2]), int(tokens[3])
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer field in edge line {raw!r}")
        if not (1 <= u <= n) or not (1 <= v <= n):
            raise FormatError(f"line {lineno}: vertex outside 1..{n}")
        if u == v:
            raise FormatError(f"line {lineno}: self-loop at vertex {u}")
        if not (1 <= c <= p):
            raise FormatError(f"line {lineno}: color {c} outside 1..{p}")
        edges.append((u, v, c))
    if header is None:
        raise FormatError("line 1: missing 'p ecg' header")
    if len(edges) != m:
        raise FormatError(
            f"line {header_lineno}: header declares {m} edges but file has {len(edges)}"
        )
    present = {c for _, _, c in edges}
    if len(present) != p:
        dead = sorted(set(range(1, p + 1)) - present)
        raise FormatError(
            f"line {header_lineno}: colors {dead} are declared but appear on no edge"
        )
    return ColoredGraph._trusted(n, tuple(edges), p)


def serialize_graph(g: ColoredGraph) -> str:
    out = [f"p ecg {g.n} {g.m} {g.p}"]
    out.extend(f"e {u} {v} {c}" for u, v, c in g.edges)
    return "\n".join(out) + "\n"


def parse_cut(text: str, n: int) -> Cut:
    """Parse a cut file ('s <v1> ... <vk>', increasing) for a graph on n vertices."""
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.split()]
    if len(lines) != 1:
        lineno = lines[1][0] if lines else 1
        raise FormatError(
            f"line {lineno}: cut file must contain exactly one 's' line, got {len(lines)}"
        )
    lineno, line = lines[0]
    tokens = line.split()
    if tokens[0] != "s" or len(tokens) < 2:
        raise FormatError(f"line {lineno}: malformed cut line {line!r}")
    try:
        verts = [int(t) for t in tokens[1:]]
    except ValueError:
        raise FormatError(f"line {lineno}: non-integer vertex in cut line {line!r}")
    if any(a >= b for a, b in zip(verts, verts[1:])):
        raise FormatError(f"line {lineno}: cut vertices must be strictly increasing")
    if any(not (1 <= v <= n) for v in verts):
        raise FormatError(f"line {lineno}: cut vertex outside 1..{n}")
    if len(verts) >= n:
        raise FormatError(f"line {lineno}: cut lists every vertex, T side would be empty")
    return Cut(n, frozenset(verts))


def serialize_cut(cut: Cut) -> str:
    return "s " + " ".join(str(v) for v in sorted(cut.s_side)) + "\n"
