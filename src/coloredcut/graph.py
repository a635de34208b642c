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

import gc
from collections import defaultdict
from collections.abc import Callable, Collection, Iterable, Iterator
from functools import wraps
from itertools import chain
from operator import index

from .errors import FormatError

Edge = tuple[int, int, int]  # (u, v, color)


def _gc_paused(func: Callable) -> Callable:
    """Run `func` with the cyclic garbage collector off.

    The graph-sized builders allocate tuples, lists and dicts that form no
    reference cycle, so a collector pass over them frees nothing.  A
    collector that was on is turned back on when `func` returns or raises;
    one that was off stays off, so paused builders nest.
    """

    @wraps(func)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return func(*args, **kwargs)
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            gc.enable()

    return paused


class _Record:
    """Immutable value type over the fields named in `__slots__`, in order;
    all eight value types of the package are `_Record`s.

    Equality, hash and repr are those of a frozen dataclass with the same
    fields, without importing `dataclasses` (and `inspect`).
    Each subclass checks its arguments in `__init__` and hands the values to
    `_Record.__init__`, the one place that sets fields.  Copy, deepcopy and
    pickle rebuild through the public constructor, since slots assigned one
    by one on restore would hit `__setattr__`.
    """

    __slots__ = ()

    def __init__(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

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
        seen_colors = _edge_colors(n, edges, p)
        if len(seen_colors) != p:
            raise ValueError(_dead_colors(seen_colors, p, len(edges)))
        super().__init__(n, edges, p)

    @classmethod
    def _trusted(cls, n: int, edges: tuple[Edge, ...], p: int) -> ColoredGraph:
        """Build without checks, from ints that pass every check of the
        constructor: `parse_graph` makes each one line by line, and
        `kernel._build_reduced` renames a valid graph's kept edges in order
        onto 1..n' and onto colors 1..p', each of which keeps an edge."""
        g = object.__new__(cls)
        _Record.__init__(g, n, edges, p)
        return g

    def _extended(self, n: int, added: tuple[Edge, ...], p: int) -> ColoredGraph:
        """The graph on 1..n with colors 1..p whose edges are this graph's
        followed by `added`, int triples, as the constructor would build it.

        This graph's edges passed the constructor's checks over 1..self.n
        and 1..self.p, so with n and p no smaller only the added edges are
        checked, and the added colors above self.p for liveness; a smaller n
        or p goes through the constructor.
        """
        if n < self.n or p < self.p:
            return ColoredGraph(n, self.edges + added, p)
        seen_colors = _edge_colors(n, added, p)
        edges = self.edges + added
        if not seen_colors.issuperset(range(self.p + 1, p + 1)):
            present = seen_colors.union(c for _, _, c in self.edges)
            raise ValueError(_dead_colors(present, p, len(edges)))
        return ColoredGraph._trusted(n, edges, p)

    @property
    def m(self) -> int:
        return len(self.edges)


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
        super().__init__(n, s_side)

    def crosses(self, u: int, v: int) -> bool:
        return (u in self.s_side) != (v in self.s_side)


def _edge_colors(n: int, edges: Iterable[Edge], p: int) -> set[int]:
    """The colors of `edges`, after the constructor's per-edge checks: both
    endpoints in 1..n and apart, the color in 1..p."""
    seen_colors: set[int] = set()
    for u, v, c in edges:
        if not (1 <= u <= n) or not (1 <= v <= n):
            raise ValueError(f"edge ({u},{v}) has an endpoint outside 1..{n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (1 <= c <= p):
            raise ValueError(f"edge ({u},{v}) has color {c} outside 1..{p}")
        seen_colors.add(c)
    return seen_colors


# ---------------------------------------------------------------------------
# cut evaluation


def cut_colors(g: ColoredGraph, cut: Cut) -> frozenset[int]:
    """The set of colors appearing on at least one crossing edge."""
    if cut.n != g.n:
        raise ValueError(f"cut is over 1..{cut.n} but graph has {g.n} vertices")
    s = cut.s_side  # inlined `cut.crosses`: this runs once per edge
    return frozenset(c for u, v, c in g.edges if (u in s) != (v in s))


def is_colorful(g: ColoredGraph, cut: Cut) -> bool:
    """True iff every one of the p colors crosses the cut."""
    return len(cut_colors(g, cut)) == g.p


def _bfs_labels(pairs: Iterable[tuple[int, int]]) -> dict[int, tuple[int, int, int]]:
    """Label every vertex the pairs touch with (component root, BFS depth
    parity, BFS parent), a root being its own parent.

    Roots are taken in increasing vertex order, and each vertex's neighbours
    in the order of `pairs`, so a root is its component's smallest vertex.
    An edge joins two equal parities exactly when its component has an odd
    cycle.
    """
    adj: dict[int, list[int]] = defaultdict(list)
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    labels: dict[int, tuple[int, int, int]] = {}
    for root in sorted(adj):
        if root in labels:
            continue
        labels[root] = (root, 0, root)
        queue = [root]
        for v in queue:
            parity = 1 - labels[v][1]
            for w in adj[v]:
                if w not in labels:
                    labels[w] = (root, parity, v)
                    queue.append(w)
    return labels


def _span(pairs: Iterable[tuple[int, int]]) -> int:
    """Number of connected components among the vertices `pairs` touch."""
    return len({root for root, _, _ in _bfs_labels(pairs).values()})


def _color_classes(g: ColoredGraph) -> list[dict[tuple[int, int], int]]:
    """Each color's distinct endpoint pairs, for colors 1..p in order.

    Entry c-1 maps every pair (smaller endpoint first) carrying color c to
    the index of its first edge, in order of first appearance.
    """
    classes: list[dict[tuple[int, int], int]] = [{} for _ in range(g.p)]
    for i, (u, v, c) in enumerate(g.edges):
        classes[c - 1].setdefault((u, v) if u < v else (v, u), i)
    return classes


# ---------------------------------------------------------------------------
# ECG text format


def _read_int(t: str) -> int:
    """Read an integer token: a sign and ASCII digits, with no space around
    them, that `int` reads.  Any other token raises ValueError, also one with
    the `_` separators, non-ASCII digits or spaces that `int` would take."""
    if "_" in t or not t.isascii() or t != t.strip():
        raise ValueError(f"not a plain integer: {t!r}")
    return int(t)


def _int_reader(text: str) -> Callable[[str], int]:
    """`int` for a text that is ASCII and holds no `_`, which reads each
    whitespace-free token of it exactly as `_read_int` does, else `_read_int`."""
    return int if text.isascii() and "_" not in text else _read_int


class _IntTokens(dict):
    """Token -> int(token), converted on the first lookup of each token;
    a token `int` rejects raises its ValueError from the lookup."""

    def __missing__(self, t: str) -> int:
        value = self[t] = int(t)
        return value


# Characters per chunk that `parse_graph` splits into lines at a time.
_READ_CHUNK = 1 << 16


def _chunks(text: str) -> Iterator[str]:
    """`text` in consecutive pieces of about `_READ_CHUNK` characters, each
    ending just after a line feed, or at the end of the text.  A line feed
    always ends a line break, a CR LF pair included, so the pieces' lines
    (`str.splitlines`) are exactly the text's."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _READ_CHUNK) + 1 or len(text)
        yield text[start:end]
        start = end


@_gc_paused
def parse_graph(text: str) -> ColoredGraph:
    """Parse the ECG format.  Raises FormatError naming the offending line.

    Every check of the `ColoredGraph` constructor is made here, once per
    line, so the graph is built without a second pass over the edges.
    The lines are split a chunk at a time (`_chunks`), so the peak holds
    the text and the graph but not a string per line of the file.
    """
    lines = chain.from_iterable(map(str.splitlines, _chunks(text)))
    field = _int_reader(text)  # the header may swap in a token cache for the edges
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
                n, m, p = field(tokens[2]), field(tokens[3]), field(tokens[4])
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer field in header {raw!r}")
            if n < 0 or m < 0 or p < 0:
                raise FormatError(f"line {lineno}: negative count in header {raw!r}")
            header = tokens
            header_lineno = lineno
            # The 3m edge fields hold at most max(n, p) distinct in-range
            # integers.  A cache miss costs about three `int` calls and a hit
            # under half of one, so the cache converts each token once where
            # at most one field in six can be a token's first appearance.
            if field is int and m >= 2 * max(n, p):
                field = _IntTokens().__getitem__
            continue
        if tokens[0] != "e":
            raise FormatError(f"line {lineno}: expected edge line, got {raw!r}")
        if len(edges) >= m:
            raise FormatError(f"line {lineno}: more than the {m} edges declared in the header")
        if len(tokens) != 4:
            raise FormatError(f"line {lineno}: malformed edge line {raw!r}")
        try:
            u, v, c = field(tokens[1]), field(tokens[2]), field(tokens[3])
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
        raise FormatError(f"line {header_lineno}: {_dead_colors(present, p, m)}")
    return ColoredGraph._trusted(n, tuple(edges), p)


def _dead_colors(present: Collection[int], p: int, m: int) -> str:
    """Name the colors of 1..p that no edge of m carries.

    Only colors up to m + 1 are listed, one or more of which is dead, and
    the rest are counted, so a huge declared p costs O(m) time and text.
    """
    dead = [c for c in range(1, min(p, m + 1) + 1) if c not in present]
    more = p - len(present) - len(dead)
    listed = f"{dead} and {more} more" if more else f"{dead}"
    return f"colors {listed} are declared but appear on no edge"


# Edges written per `%` in `serialize_graph`: one format of a chunk's fields
# costs less than a format and a string per edge.
_WRITE_CHUNK = 64
_CHUNK_FORMAT = "e %s %s %s\n" * _WRITE_CHUNK


@_gc_paused
def serialize_graph(g: ColoredGraph) -> str:
    edges = g.edges
    full = len(edges) - len(edges) % _WRITE_CHUNK
    out = [f"p ecg {g.n} {g.m} {g.p}\n"]
    out += [
        _CHUNK_FORMAT % tuple(chain.from_iterable(edges[i : i + _WRITE_CHUNK]))
        for i in range(0, full, _WRITE_CHUNK)
    ]
    out.append("e %s %s %s\n" * (len(edges) - full) % tuple(chain.from_iterable(edges[full:])))
    return "".join(out)


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
        verts = list(map(_int_reader(line), tokens[1:]))
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
