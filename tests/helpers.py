"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's own enumeration code so
that agreement between the two actually means something.
"""

from __future__ import annotations

import itertools
import math
import random
import re
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

from coloredcut import CnfFormula, ColoredGraph, FormatError
from coloredcut.graph import _dead_colors

# the settled contraction that `colorful_cut_decide` searches from, or None
# when some color can never cross
from coloredcut.solve import _root_contraction as root_contraction


def oracle_parse_graph(text: str) -> ColoredGraph:
    """`parse_graph`'s line walk as it was before the edge fields went
    through a token cache: every field converted by `int` on its own line,
    and the graph built by the full constructor."""

    def check_int_fields(tokens: list[str]) -> None:
        for t in tokens:
            if "_" in t or not t.isascii():
                raise ValueError(f"not a plain integer: {t!r}")

    lines = text.splitlines()
    plain = text.isascii() and "_" not in text
    header: list[str] | None = None
    header_lineno = 0
    edges: list[tuple[int, int, int]] = []
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
                if not plain:
                    check_int_fields(tokens[2:])
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
            if not plain:
                check_int_fields(tokens[1:])
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
        raise FormatError(f"line {header_lineno}: {_dead_colors(present, p, m)}")
    return ColoredGraph(n, tuple(edges), p)


def traced(func, *args):
    """(func(*args), bytes its result still holds, bytes at its peak): the
    memory that tracemalloc sees allocated during the call, counted from the
    call's start."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = func(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, kept - start, peak - start


def plain_int(t: str) -> int | None:
    """The int of a token that matches [+-]?[0-9]+ and that `int` reads, else
    None: the one integer rule of the text formats and the CLI's flags."""
    if re.fullmatch("[+-]?[0-9]+", t) is None:
        return None
    try:
        return int(t)
    except ValueError:  # more digits than `int` converts
        return None


def mutated_ecg(rng: random.Random, text: str) -> str:
    """`text`, an ECG file, with one to three random edits: a field
    rewritten (leading zeros, a `+` sign, `_`, non-ASCII digits, zero, a
    negative, a value one past its range, a self-loop or a huge value), a
    token dropped or repeated, a line dropped, repeated or inserted, the
    declared p raised (a dead color) or a separator made non-ASCII."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        tokens = lines[i].split()
        kind = rng.randrange(8)
        if kind == 0 and len(tokens) > 1:
            j = rng.randrange(1, len(tokens))
            t = tokens[j]
            tokens[j] = rng.choice(
                [
                    "0" * rng.randint(1, 3) + t,
                    "+" + t,
                    "+0" + t,
                    "-" + t,
                    t[:1] + "_" + t[1:],
                    t.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
                    t.translate(str.maketrans("0123456789", "０１２３４５６７８９")),
                    "0",
                    "-0",
                    str(int(t) + 1) if t.isdecimal() else t,
                    tokens[1] if j == 2 else t,  # u == v
                    "9" * 25,
                    "x" + t,
                ]
            )
            lines[i] = " ".join(tokens)
        elif kind == 1 and tokens:
            del tokens[rng.randrange(len(tokens))]
            lines[i] = " ".join(tokens)
        elif kind == 2 and tokens:
            j = rng.randrange(len(tokens))
            tokens.insert(j, tokens[j])
            lines[i] = " ".join(tokens)
        elif kind == 3:
            del lines[i]
        elif kind == 4:
            lines.insert(i, lines[i])
        elif kind == 5:
            lines.insert(i, rng.choice(["", "   ", "c note", "e 1 2 1", "p ecg 3 1 1"]))
        elif kind == 6 and len(tokens) == 5 and tokens[0] == "p" and tokens[4].isdecimal():
            tokens[4] = str(int(tokens[4]) + rng.randint(1, 3))
            lines[i] = " ".join(tokens)
        else:
            lines[i] = rng.choice(["\u2003", "\t", "  "]).join(tokens)
        if not lines:
            break
    return "\n".join(lines) + rng.choice(["", "\n"])


def oracle_max_cut_colors(g: ColoredGraph) -> int:
    """Maximum number of crossing colors over all bipartitions, by direct
    subset enumeration (vertex 1 fixed on the S side)."""
    best = -1
    rest = list(range(2, g.n + 1))
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            s = {1, *extra}
            if len(s) == g.n:
                continue
            crossing = {c for u, v, c in g.edges if (u in s) != (v in s)}
            best = max(best, len(crossing))
    return best


def oracle_first_max_mask(g: ColoredGraph) -> tuple[int, int, int]:
    """(maximum, first mask reaching it, masks scanned) by a plain per-mask
    scan: bit j of a mask puts vertex j+2 on the S side, vertex 1 is pinned
    there, masks run in increasing order and the all-ones mask is skipped."""
    best, best_mask = -1, 0
    total = 2 ** (g.n - 1) - 1
    for mask in range(total):
        s = {1} | {v for v in range(2, g.n + 1) if mask >> (v - 2) & 1}
        count = len({c for u, v, c in g.edges if (u in s) != (v in s)})
        if count > best:
            best, best_mask = count, mask
    return best, best_mask, total


def oracle_removal_order(g: ColoredGraph, k: int | None = None):
    """The rule loop written round by round: every round re-counts the
    distinct pairs of each alive color over the edges still kept and removes
    the smallest color above 2*C(p',2).  With a target k it first stops with
    "early_yes" when k' = k - (removals so far) is at most ceil(p'/2).

    Returns (verdict, removed colors, k' or None)."""
    alive = set(range(1, g.p + 1))
    kept = list(g.edges)
    removed: list[int] = []
    while True:
        k_cur = None if k is None else k - len(removed)
        if k_cur is not None and k_cur <= math.ceil(len(alive) / 2):
            return "early_yes", removed, k_cur
        pairs: dict[int, set] = {}
        for u, v, c in kept:
            pairs.setdefault(c, set()).add(frozenset((u, v)))
        bound = 2 * math.comb(len(alive), 2)
        dense = [c for c in sorted(alive) if len(pairs.get(c, ())) > bound]
        if not dense:
            return "reduced", removed, k_cur
        alive.discard(dense[0])
        removed.append(dense[0])
        kept = [e for e in kept if e[2] != dense[0]]


def oracle_reduced_graph(g: ColoredGraph, removed: list[int]) -> ColoredGraph:
    """g without the `removed` colors and without exact duplicates (the
    first copy stays); vertices that only removed colors touched are dropped,
    and vertices and colors are renumbered densely in increasing order."""
    kept: list[tuple[int, int, int]] = []
    for u, v, c in g.edges:
        if c not in removed and not any(
            {u, v} == {x, y} and c == d for x, y, d in kept
        ):
            kept.append((u, v, c))

    def touched(v, edges):
        return any(v in e[:2] for e in edges)

    survivors = [
        v
        for v in range(1, g.n + 1)
        if touched(v, kept) or not touched(v, g.edges)
    ]
    colors = [c for c in range(1, g.p + 1) if c not in removed]
    return ColoredGraph(
        len(survivors),
        tuple(
            (survivors.index(u) + 1, survivors.index(v) + 1, colors.index(c) + 1)
            for u, v, c in kept
        ),
        len(colors),
    )


def oracle_colorful_cut(g: ColoredGraph):
    """Some S side crossing all colors, or None; independent enumeration."""
    rest = list(range(2, g.n + 1))
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            s = {1, *extra}
            if len(s) == g.n:
                continue
            crossing = {c for u, v, c in g.edges if (u in s) != (v in s)}
            if len(crossing) == g.p:
                return frozenset(s)
    return None


def distinct_pairs(g: ColoredGraph, color: int) -> set[frozenset[int]]:
    """The unordered endpoint pairs carrying an edge of `color`."""
    return {frozenset((u, v)) for u, v, c in g.edges if c == color}


def span(g: ColoredGraph, color: int) -> int:
    """Components among the vertices that edges of `color` touch, by a
    union-find over those edges (no BFS, unlike the library)."""
    parent: dict[int, int] = {}

    def root(v: int) -> int:
        while parent.setdefault(v, v) != v:
            v = parent[v]
        return v

    for u, v, c in g.edges:
        if c == color:
            parent[root(u)] = root(v)
    return sum(1 for v in parent if parent[v] == v)


def oracle_has_k4_minor(n: int, pairs: list[tuple[int, int]]) -> bool:
    """Brute-force K4 minor search: try every assignment of vertices to four
    branch sets (or none); feasible up to n ~ 7."""
    adj = {v: set() for v in range(1, n + 1)}
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)

    def connected(vs: set[int]) -> bool:
        start = min(vs)
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x] & vs:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == len(vs)

    for assign in itertools.product(range(5), repeat=n):
        sets = [set(), set(), set(), set()]
        for v, a in enumerate(assign, start=1):
            if a:
                sets[a - 1].add(v)
        if any(not s for s in sets):
            continue
        if not all(connected(s) for s in sets):
            continue
        if all(
            any(y in adj[x] for x in sets[i] for y in sets[j])
            for i in range(4)
            for j in range(i + 1, 4)
        ):
            return True
    return False


def random_multigraph(
    rng: random.Random, n_max: int = 8, p_max: int = 5, extra_max: int = 12
) -> ColoredGraph:
    """Random edge-colored multigraph; every color in 1..p gets at least one
    edge so the instance is always valid."""
    n = rng.randint(2, n_max)
    p = rng.randint(1, p_max)
    edges = []
    for c in range(1, p + 1):
        u, v = rng.sample(range(1, n + 1), 2)
        edges.append((u, v, c))
    for _ in range(rng.randint(0, extra_max)):
        u, v = rng.sample(range(1, n + 1), 2)
        edges.append((u, v, rng.randint(1, p)))
    return ColoredGraph(n, tuple(edges), p)


def greedy_misses(blocks: int) -> ColoredGraph:
    """Rainbow paths a-c-d-b on blocks of four vertices a < b < c < d: the
    greedy cut puts a and b on S, c on T and then d on S, so it misses the
    color of (b, d), while the paths are bipartite and no odd cycle bounds
    the optimum (p) below p."""
    pairs = []
    for o in range(0, 4 * blocks, 4):
        pairs += [(o + 1, o + 3), (o + 3, o + 4), (o + 2, o + 4)]
    return ColoredGraph(4 * blocks, [(u, v, c) for c, (u, v) in enumerate(pairs, 1)], len(pairs))


def random_simple_graph(
    rng: random.Random, n_max: int = 8, p_max: int = 4
) -> ColoredGraph:
    n = rng.randint(2, n_max)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    rng.shuffle(pairs)
    take = rng.randint(1, len(pairs))
    p = rng.randint(1, min(p_max, take))
    edges = tuple((u, v, i % p + 1) for i, (u, v) in enumerate(pairs[:take]))
    return ColoredGraph(n, edges, p)


def inflate_one_color(rng: random.Random, g: ColoredGraph) -> ColoredGraph | None:
    """Append a fresh color class with more distinct pairs than the removal
    threshold of the grown graph allows; None when n is too small."""
    p = g.p + 1
    need = 2 * math.comb(p, 2) + 1
    pairs = list(itertools.combinations(range(1, g.n + 1), 2))
    if len(pairs) < need:
        return None
    rng.shuffle(pairs)
    extra = tuple((u, v, p) for u, v in pairs[:need])
    return ColoredGraph(g.n, g.edges + extra, p)


def random_3cnf(
    rng: random.Random, var_count: int, clause_count: int
) -> CnfFormula:
    """Random 3-CNF with three distinct variables per clause."""
    clauses = []
    for _ in range(clause_count):
        vs = rng.sample(range(1, var_count + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return CnfFormula(var_count, tuple(clauses))


def unsat_3cnf_draws(clause_count: int, count: int = 3) -> list[CnfFormula]:
    """The first `count` unsatisfiable draws of
    `random_3cnf(random.Random(3), 4, clause_count)`.  At 16 and 18 clauses
    their planar graphs contract to 48-54 classes, where a colorful search
    that propagates only at the root takes seconds per graph."""
    rng = random.Random(3)
    draws: list[CnfFormula] = []
    while len(draws) < count:
        f = random_3cnf(rng, 4, clause_count)
        if oracle_sat(f) is None:
            draws.append(f)
    return draws


def all_3var_formulas(max_clauses: int):
    """Every 3-CNF over variables 1,2,3 (slot order fixed, clauses distinct)
    with 1..max_clauses clauses."""
    sign_patterns = list(itertools.product((1, -1), repeat=3))
    clauses = [tuple(s * v for s, v in zip(signs, (1, 2, 3))) for signs in sign_patterns]
    for m in range(1, max_clauses + 1):
        for combo in itertools.combinations(clauses, m):
            yield CnfFormula(3, combo)


def oracle_sat(f: CnfFormula):
    """Independent satisfiability check by direct product enumeration."""
    for bits in itertools.product((False, True), repeat=f.var_count):
        asg = {v: bits[v - 1] for v in range(1, f.var_count + 1)}
        if all(any(asg[abs(l)] == (l > 0) for l in cl) for cl in f.clauses):
            return asg
    return None


def oracle_nae(f: CnfFormula):
    for bits in itertools.product((False, True), repeat=f.var_count):
        asg = {v: bits[v - 1] for v in range(1, f.var_count + 1)}
        if all(
            any(asg[abs(l)] == (l > 0) for l in cl)
            and any(asg[abs(l)] != (l > 0) for l in cl)
            for cl in f.clauses
        ):
            return asg
    return None


@dataclass(frozen=True)
class ColorfulEncoding:
    """CNF encoding of colorful cut: x_v per vertex, z_e per edge."""

    formula: CnfFormula
    vertex_var: dict[int, int]
    aux_var: dict[int, int]


def encode_colorful_to_cnf(g: ColoredGraph) -> ColorfulEncoding:
    """CNF satisfiable iff g has a colorful cut: with DPLL, an oracle for
    `colorful_cut_decide`, which does not go through CNF.

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
        clauses += ((-z, u, v), (-z, -u, -v), (z, u, -v), (z, -u, v))
        by_color[c].append(z)
    for c in range(1, g.p + 1):
        clauses.append(tuple(by_color[c]))
    clauses.append(tuple(range(1, n + 1)))
    clauses.append(tuple(-v for v in range(1, n + 1)))
    formula = CnfFormula(n + g.m, tuple(clauses))
    return ColorfulEncoding(formula, {v: v for v in range(1, n + 1)}, aux_var)
