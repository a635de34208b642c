"""CNF formulas, the CNF encoding of colorful cut, DIMACS parsing,
brute-force oracles, and a small DPLL solver.

Literals use DIMACS conventions: variable i is the positive literal ``i``,
its negation ``-i``.  Assignments are dicts mapping every variable 1..n to a
bool.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass
from operator import index

from .errors import CapExceededError, FormatError, InvariantError
from .graph import ColoredGraph, _check_int_fields

Assignment = dict[int, bool]

BRUTE_SAT_CAP = 20


@dataclass(frozen=True)
class CnfFormula:
    var_count: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "var_count", index(self.var_count))
        object.__setattr__(self, "clauses", tuple(tuple(map(index, cl)) for cl in self.clauses))
        if self.var_count < 0:
            raise ValueError(f"variable count must be nonnegative, got {self.var_count}")
        for i, cl in enumerate(self.clauses):
            if not cl:
                raise ValueError(f"clause {i + 1} is empty")
            for lit in cl:
                if lit == 0 or abs(lit) > self.var_count:
                    raise ValueError(f"clause {i + 1}: literal {lit} outside range")


@dataclass(frozen=True)
class ColorfulEncoding:
    """CNF encoding of colorful cut: x_v per vertex, z_e per edge."""

    formula: CnfFormula
    vertex_var: dict[int, int]
    aux_var: dict[int, int]


def literal_true(lit: int, asg: Assignment) -> bool:
    return asg[abs(lit)] == (lit > 0)


def satisfies(f: CnfFormula, asg: Assignment) -> bool:
    """True iff every clause has at least one true literal."""
    return all(any(literal_true(l, asg) for l in cl) for cl in f.clauses)


def nae_satisfies(f: CnfFormula, asg: Assignment) -> bool:
    """True iff every clause has at least one true and at least one false literal."""
    for cl in f.clauses:
        values = [literal_true(l, asg) for l in cl]
        if all(values) or not any(values):
            return False
    return True


def encode_colorful_to_cnf(g: ColoredGraph) -> ColorfulEncoding:
    """CNF satisfiable iff g has a colorful cut: a test oracle for
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


# ---------------------------------------------------------------------------
# DIMACS text format


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF.  Raises FormatError on malformed input."""
    header: tuple[int, int] | None = None
    body: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        if tokens[0] == "p":
            if header is not None:
                raise FormatError(f"line {lineno}: duplicate header")
            if len(tokens) != 4 or tokens[1] != "cnf":
                raise FormatError(f"line {lineno}: malformed header {raw!r}")
            try:
                _check_int_fields(tokens[2:])
                header = (int(tokens[2]), int(tokens[3]))
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer field in header {raw!r}")
            if header[0] < 0 or header[1] < 0:
                raise FormatError(f"line {lineno}: negative count in header")
            continue
        if header is None:
            raise FormatError(f"line {lineno}: clause data before 'p cnf' header")
        try:
            _check_int_fields(tokens)
            body.extend(int(t) for t in tokens)
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer literal in {raw!r}")
    if header is None:
        raise FormatError("line 1: missing 'p cnf' header")
    var_count, clause_count = header
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for lit in body:
        if lit == 0:
            if not current:
                raise FormatError(f"clause {len(clauses) + 1} is empty")
            clauses.append(tuple(current))
            current = []
        else:
            if abs(lit) > var_count:
                raise FormatError(
                    f"clause {len(clauses) + 1}: literal {lit} outside 1..{var_count}"
                )
            current.append(lit)
    if current:
        raise FormatError(f"clause {len(clauses) + 1} is missing its terminating 0")
    if len(clauses) != clause_count:
        raise FormatError(f"header declares {clause_count} clauses but file has {len(clauses)}")
    return CnfFormula(var_count, tuple(clauses))


def serialize_dimacs(f: CnfFormula) -> str:
    out = [f"p cnf {f.var_count} {len(f.clauses)}"]
    out.extend(" ".join(str(l) for l in cl) + " 0" for cl in f.clauses)
    return "\n".join(out) + "\n"


def serialize_assignment(asg: Assignment) -> str:
    """Render an assignment as ``v <±1> <±2> ... 0``."""
    lits = [(v if asg[v] else -v) for v in sorted(asg)]
    return "v " + " ".join(str(l) for l in lits) + " 0\n"


# ---------------------------------------------------------------------------
# brute-force oracles

def _assignment_from_index(index: int, var_count: int) -> Assignment:
    # Variable 1 is the most significant bit; index 0 is all-false.
    return {
        v: bool((index >> (var_count - v)) & 1) for v in range(1, var_count + 1)
    }


def _first_assignment(
    f: CnfFormula, cap: int, name: str, accepts: Callable[[CnfFormula, Assignment], bool]
) -> Assignment | None:
    """First assignment in lexicographic order (false < true) that `accepts`, or None."""
    if f.var_count > cap:
        raise CapExceededError(
            f"refusing brute-force {name} on {f.var_count} variables (cap {cap})"
        )
    for index in range(1 << f.var_count):
        asg = _assignment_from_index(index, f.var_count)
        if accepts(f, asg):
            return asg
    return None


def brute_force_sat(f: CnfFormula, cap: int = BRUTE_SAT_CAP) -> Assignment | None:
    """First satisfying assignment in lexicographic order (false < true), or None."""
    return _first_assignment(f, cap, "SAT", satisfies)


def brute_force_nae(f: CnfFormula, cap: int = BRUTE_SAT_CAP) -> Assignment | None:
    """First assignment (same order as brute_force_sat) where every clause is
    not-all-equal, or None."""
    # the cap refusal comes first, so short clauses are only checked under it
    if f.var_count <= cap and any(len(cl) < 2 for cl in f.clauses):
        raise ValueError("not-all-equal needs at least two literals per clause")
    return _first_assignment(f, cap, "NAE", nae_satisfies)


# ---------------------------------------------------------------------------
# DPLL


def _propagate(active: list[list[int]], asg: Assignment) -> list[list[int]] | None:
    """Unit-propagate, strip assigned literals, drop satisfied clauses.

    Mutates asg with the forced values; returns the simplified clause list,
    or None on conflict.
    """
    while True:
        next_active: list[list[int]] = []
        unit: int | None = None
        for cl in active:
            satisfied = False
            remaining: list[int] = []
            for lit in cl:
                var = abs(lit)
                if var in asg:
                    if literal_true(lit, asg):
                        satisfied = True
                        break
                else:
                    remaining.append(lit)
            if satisfied:
                continue
            if not remaining:
                return None
            if len(remaining) == 1 and unit is None:
                unit = remaining[0]
            next_active.append(remaining)
        if unit is None:
            return next_active
        asg[abs(unit)] = unit > 0
        active = next_active


def _search(active: list[list[int]], asg: Assignment) -> Assignment | None:
    while True:
        if not active:
            return asg
        # pure-literal elimination (all literals here are unassigned)
        polarity: dict[int, int] = {}  # var -> +1, -1, or 0 for mixed
        for cl in active:
            for lit in cl:
                var = abs(lit)
                sign = 1 if lit > 0 else -1
                if polarity.setdefault(var, sign) != sign:
                    polarity[var] = 0
        pure_vars = {v for v, s in polarity.items() if s != 0}
        if pure_vars:
            for v in pure_vars:
                asg[v] = polarity[v] > 0
            active = [cl for cl in active if not any(abs(l) in pure_vars for l in cl)]
            continue
        branch_var = min(abs(l) for cl in active for l in cl)
        for value in (True, False):
            trial = dict(asg)
            trial[branch_var] = value
            simplified = _propagate(active, trial)
            if simplified is None:
                continue
            result = _search(simplified, trial)
            if result is not None:
                return result
        return None


def dpll_solve(f: CnfFormula) -> Assignment | None:
    """Deterministic DPLL: unit propagation, pure-literal elimination, and
    branching on the smallest-index unassigned variable, true branch first.

    Returns a total assignment (unconstrained variables default to false) or
    None when unsatisfiable.
    """
    asg: Assignment = {}
    active = _propagate([list(cl) for cl in f.clauses], asg)
    if active is None:
        return None
    result = _search(active, asg)
    if result is None:
        return None
    for v in range(1, f.var_count + 1):
        result.setdefault(v, False)
    if not satisfies(f, result):
        raise InvariantError("DPLL returned an assignment that falsifies a clause")
    return result
