"""The four workloads: seeded corpora, one op per closed-loop request, and
the check that decides whether each op's answer is right.

Every op has a `run` that calls the program and a `check` that judges the
raw result with the evaluators in `corpus`; only `run` is timed.  Library
functions are looked up on the `coloredcut` package at call time, so the
tracer's rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import coloredcut as cc
import coloredcut.cli as cc_cli
import coloredcut.sat as cc_sat

import corpus

WORKLOADS = ("maxcut_search", "colorful_sat", "reductions_pipeline", "cli_kernel")

# Per-op deadlines.  colorful_sat has an extreme tail (refuting an
# unsatisfiable multigraph, simple or k4mf instance takes seconds to minutes
# today), so its ops are cut, and a cut op counts as failed.  They are cut by
# a work budget, not by the clock, so that a seed fails the same ops on every
# run: with a 0.3 s wall deadline, ops that take about that long passed it on
# one run and not on the next.  The budget counts clause visits in DPLL unit
# propagation (see `propagation_budget`); about 2.2e6 visits take one second
# on a 2-vCPU x86-64 VM, so 600k stands for roughly 0.27 s.  The wall-clock
# deadline stays as a backstop far above that.
COLORFUL_BUDGET = 600_000
COLORFUL_DEADLINE_S = 3.0
DEADLINE_S = 30.0


class DeadlineExceeded(Exception):
    """Raised when an in-process op passes its deadline or its work budget."""


class Wrong(Exception):
    """An op returned an answer that the benchmark's evaluators reject."""


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]  # raises Wrong, or returns on a right answer
    deadline: float = DEADLINE_S
    subprocess: bool = False


@dataclass
class Workload:
    name: str
    ops: list[Op]


@dataclass
class Outcome:
    label: str
    latency: float
    status: str  # "ok", "wrong", "timeout", "refused", "error"
    detail: str = ""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def execute(op: Op) -> Outcome:
    """Run one op under its deadline, then check its answer untimed."""
    t0 = time.perf_counter()
    try:
        if op.subprocess:
            result = op.run()
            t1 = time.perf_counter()
        else:
            previous = signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, op.deadline)
            try:
                result = op.run()
            finally:
                t1 = time.perf_counter()
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
    except (DeadlineExceeded, subprocess.TimeoutExpired):
        return Outcome(op.label, time.perf_counter() - t0, "timeout")
    except cc.CapExceededError as exc:
        return Outcome(op.label, time.perf_counter() - t0, "refused", str(exc))
    except Exception as exc:  # any crash of the program is a failed op
        return Outcome(op.label, time.perf_counter() - t0, "error", repr(exc))
    try:
        op.check(result)
    except _Refused as exc:
        return Outcome(op.label, t1 - t0, "refused", str(exc))
    except _Crashed as exc:
        return Outcome(op.label, t1 - t0, "error", str(exc))
    except Exception as exc:  # Wrong, or an answer too malformed to read
        return Outcome(op.label, t1 - t0, "wrong", str(exc) or repr(exc))
    return Outcome(op.label, t1 - t0, "ok")


@contextlib.contextmanager
def propagation_budget(limit: int):
    """Raise DeadlineExceeded once DPLL unit propagation has visited more
    than `limit` clauses.

    A call of `coloredcut.sat._propagate` scans the active clauses once per
    round, and every round but the last assigns one unit.  The call is
    charged len(active) visits up front for the last round, and again each
    time it assigns a unit, which the wrapper sees through a dict subclass;
    so a long call is cut between rounds.  The count depends only on the
    input, never on the machine.  Without `_propagate` (renamed or rewritten)
    only the wall-clock deadline applies.
    """
    original = getattr(cc_sat, "_propagate", None)
    if original is None:
        yield
        return
    spent = width = 0

    def charge():
        nonlocal spent
        spent += width
        if spent > limit:
            raise DeadlineExceeded()

    class Charged(dict):
        def __setitem__(self, var, value):
            charge()
            dict.__setitem__(self, var, value)

    def propagate(active, asg):
        nonlocal width
        width = len(active)
        charge()
        charged = Charged(asg)
        result = original(active, charged)
        asg.update(charged)
        return result

    cc_sat._propagate = propagate
    try:
        yield
    finally:
        cc_sat._propagate = original


class _Refused(Exception):
    """The CLI refused the instance (exit 3)."""


class _Crashed(Exception):
    """The CLI failed without giving an answer."""


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise Wrong(message)


def _check_side(n: int, s_side, edges, at_least: int, exactly: bool = False) -> None:
    _expect(corpus.is_proper_side(n, s_side), "witness is not a proper bipartition")
    got = len(corpus.crossing_colors(edges, s_side))
    if exactly:
        _expect(got == at_least, f"witness crosses {got} colors, expected {at_least}")
    else:
        _expect(got >= at_least, f"witness crosses {got} colors, fewer than {at_least}")


# ---------------------------------------------------------------------------
# maxcut_search


def _maxcut_ops(rng: random.Random, sizes: dict) -> list[Op]:
    ops = []
    for n in sizes["n"]:
        for _ in range(sizes["per_n"]):
            inst = corpus.planted_max_cut(
                rng, core_n=n, triangles=n // 5, free_colors=n - 4
            )
            g = cc.ColoredGraph(inst.n, inst.edges, inst.p)
            ops.extend(_maxcut_instance_ops(g, inst, f"n{n}"))
    return ops


def _maxcut_instance_ops(g, inst: corpus.MaxCutInstance, tag: str) -> list[Op]:
    edges, n, opt = inst.edges, inst.n, inst.opt
    half = math.ceil(inst.p / 2)

    def check_solve(res):
        _expect(res.value == opt, f"value {res.value}, planted optimum {opt}")
        _check_side(n, res.witness.s_side, edges, opt, exactly=True)

    def check_yes(k):
        def check(res):
            yes, cut = res
            _expect(yes, f"decide_max said no at k={k} <= opt={opt}")
            _check_side(n, cut.s_side, edges, k)
        return check

    def check_no(res):
        yes, cut = res
        _expect(not yes and cut is None, f"decide_max said yes at k={opt + 1} > opt")

    return [
        Op(f"solve_via_kernel/{tag}", lambda: cc.solve_via_kernel(g), check_solve),
        Op(f"decide_half/{tag}", lambda: cc.decide_max(g, half), check_yes(half)),
        Op(f"decide_opt/{tag}", lambda: cc.decide_max(g, opt), check_yes(opt)),
        Op(f"decide_over/{tag}", lambda: cc.decide_max(g, opt + 1), check_no),
    ]


# ---------------------------------------------------------------------------
# shared: the six constructions


def _generators():
    return {
        "planar-multi": lambda f: cc.sat_to_multigraph(f),
        "planar-simple": lambda f: cc.multigraph_to_simple(cc.sat_to_multigraph(f)),
        "k4mf": lambda f: cc.make_k4mf_connected(
            cc.multigraph_to_simple(cc.sat_to_multigraph(f))
        ),
        "oct1": lambda f: cc.make_oct_one(cc.sat_to_multigraph(f)),
        "complete": lambda f: cc.embed_complete_artifact(
            cc.multigraph_to_simple(cc.sat_to_multigraph(f))
        ),
        "nae": lambda f: cc.nae_to_cliques(f),
    }


def _generate(kind: str, var_count: int, clauses) -> Optional[Any]:
    """The artifact, or None when the construction rejects the formula
    (every clause removed as single-polarity)."""
    try:
        return _generators()[kind](cc.CnfFormula(var_count, tuple(clauses)))
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# colorful_sat


def _colorful_ops(rng: random.Random, sizes: dict) -> list[Op]:
    ops = []
    lo, hi = sizes["vars"]
    for kind in sizes["kinds"]:
        nae = kind == "nae"
        plan = [(True, nc) for nc in sizes["sat_clauses"] * sizes["sat_rounds"][kind]]
        plan += [(False, nc) for nc in sizes["unsat_clauses"][kind]]
        for want_sat, nc in plan:
            while True:
                nv = rng.randint(lo, hi)
                if want_sat:
                    clauses = corpus.planted_cnf(rng, nv, nc, nae)
                elif nae:
                    clauses = corpus.nae_unsat_cnf(rng, nv, nc)
                else:
                    clauses = corpus.unsat_cnf(rng, nv, nc)
                artifact = _generate(kind, nv, clauses)
                if artifact is not None:
                    break
            truth = corpus.satisfiable(nv, clauses, nae)
            ops.append(_colorful_op(kind, artifact, nv, clauses, truth, nc))
    return ops


def _colorful_op(kind, artifact, nv, clauses, truth, nc) -> Op:
    g = artifact.graph
    nae = kind == "nae"
    translate = kind in ("planar-multi", "nae")

    def run():
        with propagation_budget(COLORFUL_BUDGET):
            cut = cc.colorful_cut_decide(g)
        asg = cc.cut_to_assignment(artifact, cut) if (cut is not None and translate) else None
        return cut, asg

    def check(res):
        cut, asg = res
        _expect((cut is not None) == truth, f"verdict {cut is not None}, truth {truth}")
        if cut is None:
            return
        _check_side(g.n, cut.s_side, g.edges, g.p, exactly=True)
        if translate:
            test = corpus.nae_true if nae else corpus.cnf_true
            _expect(test(clauses, asg), "translated assignment does not satisfy the formula")

    label = f"colorful/{kind}/{'sat' if truth else 'unsat'}/c{nc}"
    return Op(label, run, check, deadline=COLORFUL_DEADLINE_S)


# ---------------------------------------------------------------------------
# reductions_pipeline


def _reduction_ops(rng: random.Random, sizes: dict) -> list[Op]:
    ops = []
    for i, nc in enumerate(sizes["clauses"]):
        nv = nc // 2
        clauses, hidden = corpus.balanced_cnf(rng, nv, nc, planted=i % 2 == 0)
        text = corpus.dimacs_text(nv, clauses)
        for kind in _generators():
            if kind == "complete" and nc > sizes["complete_max_clauses"]:
                continue
            ops.append(_reduction_op(kind, text, nv, clauses, hidden, nc))
    return ops


def _reduction_op(kind, text, nv, clauses, asg, nc) -> Op:
    kind_enum = cc.ReductionKind(kind)
    witness = asg is not None and kind in ("planar-multi", "nae")

    def run():
        f = cc.parse_dimacs(text)
        artifact = _generators()[kind](f)
        graph_text = cc.serialize_graph(artifact.graph)
        prov_text = cc.serialize_provenance(artifact)
        g2 = cc.parse_graph(graph_text)
        colors, vertices = cc.parse_provenance(prov_text)
        report = cc.verify_structural(
            cc.ReductionArtifact(g2, kind_enum, None, (), {}, colors, vertices)
        )
        cut = cc.assignment_to_cut(artifact, asg) if witness else None
        return f, artifact, g2, colors, vertices, report, cut

    def check(res):
        f, artifact, g2, colors, vertices, report, cut = res
        _expect(
            f.var_count == nv and list(f.clauses) == list(clauses), "DIMACS read back differs"
        )
        g = artifact.graph
        _expect((g2.n, g2.p, g2.edges) == (g.n, g.p, g.edges), "graph read back differs")
        _expect(
            (colors, vertices) == (artifact.color_meaning, artifact.vertex_meaning),
            "provenance read back differs",
        )
        _expect(report.all_passed, f"structural check failed: {report.items}")
        for name, ok in _structure_checks(kind, g, vertices):
            _expect(ok, f"benchmark's own check {name} failed")
        if witness:
            _check_side(g.n, cut.s_side, g.edges, g.p, exactly=True)

    return Op(f"pipeline/{kind}/c{nc}", run, check)


def _structure_checks(kind: str, g, vertices) -> list[tuple[str, bool]]:
    stats = corpus.color_stats(g.n, g.edges, g.p) if kind != "complete" else []
    pairs = {frozenset((u, v)) for u, v, _ in g.edges}
    simple = len(pairs) == g.m
    if kind == "planar-multi":
        return [("class-size-2", all(s[0] == 2 for s in stats))]
    if kind == "planar-simple":
        return [("simple", simple), ("class-size-le-2", all(s[0] <= 2 for s in stats))]
    if kind == "k4mf":
        degree = [0] * (g.n + 1)
        for u, v, _ in g.edges:
            degree[u] += 1
            degree[v] += 1
        return [
            ("connected", corpus.components(g.n, g.edges) == 1),
            ("max-degree-3", max(degree) <= 3),
            ("class-size-le-2", all(s[0] <= 2 for s in stats)),
            ("simple", simple),
            ("no-k4-minor", corpus.no_k4_minor(g.n, g.edges)),
        ]
    if kind == "oct1":
        apex = [v for v, meaning in vertices.items() if meaning[0] == "apex"]
        return [
            ("class-size-2", all(s[0] == 2 for s in stats)),
            ("apex-bipartite", len(apex) == 1 and corpus.bipartite_without(g.n, g.edges, apex[0])),
        ]
    if kind == "complete":
        return [("complete", simple and g.m == g.n * (g.n - 1) // 2)]
    if kind == "nae":
        return [("clique-classes", all(s[1] == s[0] and s[0] in (1, 3) and s[2] == 1 for s in stats))]
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# cli_kernel

SUBCOMMANDS = ("solve", "solve_k", "solve_greedy", "kernelize", "kernelize_k", "stats")


def _cli_ops(rng: random.Random, sizes: dict, workdir: Path, inprocess: bool) -> list[Op]:
    ops = []
    files = sizes["files"]
    for i, (dense_edges, untouched) in enumerate(files):
        core_n = sizes["core_n"][i % len(sizes["core_n"])]
        inst = corpus.planted_max_cut(
            rng,
            core_n=core_n,
            triangles=core_n // 5,
            free_colors=core_n - 4,
            dense_n=dense_edges // sizes["edges_per_dense_vertex"],
            dense_colors=sizes["dense_colors"],
            dense_edges=dense_edges,
            untouched=untouched,
        )
        path = workdir / f"g{i:02d}.ecg"
        path.write_text(corpus.ecg_text(inst.n, inst.edges, inst.p))
        k_over = i % 2 == 1  # alternate a yes and a no target for solve -k
        expect = _cli_expectations(inst)
        for sub in SUBCOMMANDS:
            ops.append(
                _cli_op(sub, str(path), inst, expect, k_over, inprocess, f"m{len(inst.edges)}")
            )
    return ops


def _cli_argv(sub: str, path: str, inst: corpus.MaxCutInstance, k_over: bool) -> list[str]:
    if sub == "solve":
        return ["solve", path]
    if sub == "solve_k":
        return ["solve", path, "-k", str(inst.opt + 1 if k_over else inst.opt)]
    if sub == "solve_greedy":
        return ["solve", path, "--algo", "greedy"]
    if sub == "kernelize":
        return ["kernelize", path]
    if sub == "kernelize_k":
        return ["kernelize", path, "--param", "k", "-k", str(inst.opt)]
    return ["stats", path]


def child_env() -> dict[str, str]:
    """Environment for a fresh interpreter that imports this coloredcut."""
    env = dict(os.environ)
    src = str(Path(cc.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_cli_child(argv: list[str]) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "coloredcut.cli", *argv],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=DEADLINE_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _run_cli_inprocess(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cc_cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_expectations(inst: corpus.MaxCutInstance) -> dict:
    """Reduced vertex count and `stats` lines, from the benchmark's own count.

    The kernel keeps vertices touched by a surviving color and vertices no
    edge touched at all; it drops the ones only dense colors touched."""
    touched = {x for u, v, _ in inst.edges for x in (u, v)}
    sparse = {x for u, v, c in inst.edges if c not in inst.dense_colors for x in (u, v)}
    stats = [f"n {inst.n} m {len(inst.edges)} p {inst.p}"] + [
        f"color {c} edges {e} pairs {d} span {s}"
        for c, (e, d, s) in enumerate(corpus.color_stats(inst.n, inst.edges, inst.p), start=1)
    ]
    return {"kept_n": len(sparse) + inst.n - len(touched), "stats": stats}


def _cli_op(sub, path, inst, expect, k_over, inprocess, tag) -> Op:
    argv = _cli_argv(sub, path, inst, k_over)
    runner = _run_cli_inprocess if inprocess else _run_cli_child

    def check(res):
        code, out, err = res
        _cli_check(sub, inst, expect, k_over, code, out.splitlines(), err)

    return Op(
        f"cli/{sub}/{tag}",
        lambda: runner(argv),
        check,
        subprocess=not inprocess,
    )


def _cli_check(sub, inst: corpus.MaxCutInstance, expect: dict, k_over, code, lines, err) -> None:
    if code == 3:
        raise _Refused(err.strip())
    if code not in (0, 1) or (code == 1 and not (lines and lines[0].startswith("value "))):
        raise _Crashed(f"exit {code}: {err.strip()[-200:]}")
    n, edges, opt, p = inst.n, inst.edges, inst.opt, inst.p
    removed = len(inst.dense_colors)
    if sub in ("solve", "solve_k", "solve_greedy"):
        _expect(len(lines) == 2 and lines[0].startswith("value "), f"unexpected output {lines[:2]}")
        value = int(lines[0].split()[1])
        side = {int(x) for x in lines[1].split()[1:]}
        _check_side(n, side, edges, value, exactly=True)
        if sub == "solve_greedy":
            _expect(2 * value >= p, f"greedy value {value} below ceil(p/2) of p={p}")
            _expect(code == 0, f"exit {code} for greedy")
            return
        _expect(value == opt, f"value {value}, planted optimum {opt}")
        want = 1 if (sub == "solve_k" and k_over) else 0
        _expect(code == want, f"exit {code}, expected {want}")
        return
    _expect(code == 0, f"exit {code}, expected 0")
    if sub == "kernelize":
        head = f"removed {removed} colors, p' {p - removed}"
        _expect(lines[0] == head, f"{lines[0]!r} != {head!r}")
        header = lines[1].split()
        _expect(
            header[:3] == ["p", "ecg", str(expect["kept_n"])] and header[4] == str(p - removed),
            f"reduced header {lines[1]!r}",
        )
        _expect(len(lines) == 2 + int(header[3]), "reduced graph edge count mismatch")
        return
    if sub == "kernelize_k":
        head = f"removed {removed} colors, p' {p - removed}, k' {opt - removed}"
        _expect(lines[0] == head, f"{lines[0]!r} != {head!r}")
        _expect(lines[1].split()[2] == str(expect["kept_n"]), f"reduced header {lines[1]!r}")
        return
    _expect(lines == expect["stats"], "stats output differs from the benchmark's own count")


# ---------------------------------------------------------------------------
# sizes and set-up

SIZES = {
    # one planted graph per n; exhaustive search scans 2^(n-1) masks
    "maxcut_search": {"n": [14, 15, 16, 17, 18], "per_n": 1},
    "colorful_sat": {
        "kinds": ["planar-multi", "planar-simple", "k4mf", "oct1", "nae"],
        "vars": (4, 6),
        # Satisfiable formulas stop at 8 clauses: from 9 clauses on, planar-
        # simple and k4mf instances pass the deadline at random (30-60% at
        # 10-12 clauses), which spread ops_per_s by 17% between seeds.  The
        # unsatisfiable ones (8-12 clauses) pass it on every seed for the
        # multigraph, simple and k4mf constructions: that refutation cost is
        # what the workload shows, and at a fixed count per pass it also
        # steadies ops_per_s.  Per-op times spread from 1 ms to the deadline;
        # the nae stratum is the largest and narrowest (3-6 ms), and the oct1
        # one (1-3 ms) balances the slower ops above it, so that the median
        # lands in the middle of the nae stratum instead of between strata.
        "sat_clauses": [6, 7, 8],
        "sat_rounds": {"planar-multi": 8, "planar-simple": 4, "k4mf": 4, "oct1": 24, "nae": 32},
        "unsat_clauses": {
            "planar-multi": [8, 9, 10, 11, 12, 8, 10, 12] * 2,
            "planar-simple": [8, 9, 10, 11, 12, 8, 10, 12] * 2,
            "k4mf": [8, 9, 10, 11, 12, 8, 10, 12] * 2,
            "oct1": [8, 9, 10, 11, 12, 8, 10, 12],
            "nae": [8, 9, 10, 11, 12, 8, 10, 12],
        },
    },
    "reductions_pipeline": {
        # every variable occurs three times with each sign, so construction
        # sizes (and the quadratic k4mf verify) depend on the clause count only
        "clauses": [8, 12, 16, 20, 24, 28],
        "complete_max_clauses": 8,
    },
    "cli_kernel": {
        # (dense edges, untouched vertices); one file in four declares
        # vertices that no edge touches.  Up to 9k edges, not 30k, so that a
        # 24 s run holds two passes: interpreter start and import alone cost
        # about 0.2 s per CLI child.
        "files": [(3000, 0), (4500, 16), (6000, 0), (9000, 0)],
        "core_n": [12, 13, 14],
        "dense_colors": 4,
        "edges_per_dense_vertex": 6,
    },
}

_SALT = {name: i + 1 for i, name in enumerate(WORKLOADS)}


def prepare(name: str, seed: int, workdir: Path, inprocess_cli: bool = False) -> Workload:
    """Build the seeded corpus for one workload (this is set-up, untimed)."""
    rng = random.Random(seed * 1000003 + _SALT[name])
    sizes = SIZES[name]
    if name == "maxcut_search":
        ops = _maxcut_ops(rng, sizes)
    elif name == "colorful_sat":
        ops = _colorful_ops(rng, sizes)
    elif name == "reductions_pipeline":
        ops = _reduction_ops(rng, sizes)
    elif name == "cli_kernel":
        workdir.mkdir(parents=True, exist_ok=True)
        ops = _cli_ops(rng, sizes, workdir, inprocess_cli)
    else:
        raise ValueError(f"unknown workload {name!r}")
    # Interleave the kinds of op, so that each latency quantile samples the
    # whole run rather than the second or two in which one kind runs: the
    # host's speed drifts by up to a fifth over tens of seconds.
    rng.shuffle(ops)
    return Workload(name, ops)
