"""CNF formulas, their SAT and not-all-equal truth checks, DIMACS text, and
a small DPLL solver.

Literals use DIMACS conventions: variable i is the positive literal ``i``,
its negation ``-i``.  Assignments are dicts mapping every variable 1..n to a
bool.
"""

from __future__ import annotations

from operator import index

from .errors import FormatError, InvariantError
from .graph import _int_reader, _Record

Assignment = dict[int, bool]


class CnfFormula(_Record):
    __slots__ = ("var_count", "clauses")
    var_count: int
    clauses: tuple[tuple[int, ...], ...]

    def __init__(self, var_count: int, clauses: tuple[tuple[int, ...], ...]) -> None:
        var_count = index(var_count)
        clauses = tuple(tuple(map(index, cl)) for cl in clauses)
        if var_count < 0:
            raise ValueError(f"variable count must be nonnegative, got {var_count}")
        for i, cl in enumerate(clauses):
            if not cl:
                raise ValueError(f"clause {i + 1} is empty")
            for lit in cl:
                if lit == 0 or abs(lit) > var_count:
                    raise ValueError(f"clause {i + 1}: literal {lit} outside range")
        super().__init__(var_count, clauses)


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


# ---------------------------------------------------------------------------
# DIMACS text format


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF.  Raises FormatError on malformed input."""
    read = _int_reader(text)
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
                header = (read(tokens[2]), read(tokens[3]))
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer field in header {raw!r}")
            if header[0] < 0 or header[1] < 0:
                raise FormatError(f"line {lineno}: negative count in header")
            continue
        if header is None:
            raise FormatError(f"line {lineno}: clause data before 'p cnf' header")
        try:
            body.extend(map(read, tokens))
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
