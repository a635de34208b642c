"""Tests of the benchmark itself, at toy sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.load_program()
import coloredcut as cc  # noqa: E402

import corpus  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TOY = {
    "maxcut_search": {"n": [8, 9], "per_n": 1},
    "colorful_sat": {
        **workloads.SIZES["colorful_sat"],
        "sat_clauses": [6, 7],
        "sat_rounds": {kind: 1 for kind in workloads.SIZES["colorful_sat"]["kinds"]},
        "unsat_clauses": {
            "planar-multi": [],
            "planar-simple": [],
            "k4mf": [],
            "oct1": [8],
            "nae": [8],
        },
    },
    "reductions_pipeline": {"clauses": [8, 10], "complete_max_clauses": 8},
    "cli_kernel": {
        **workloads.SIZES["cli_kernel"],
        "files": [(2400, 0), (2400, 16)],
    },
}


@pytest.fixture
def toy_sizes(monkeypatch):
    monkeypatch.setattr(workloads, "SIZES", TOY)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_each_workload_runs_at_toy_size(name, toy_sizes, tmp_path):
    wl = workloads.prepare(name, 3, tmp_path, inprocess_cli=True)
    outcomes = run.run_pass(wl)
    assert outcomes
    bad = [o for o in outcomes if o.status != "ok"]
    if name == "cli_kernel":
        # the file declaring untouched vertices is refused by solve and solve -k
        assert sorted(o.label.split("/")[1] for o in bad) == ["solve", "solve_k"]
        assert {o.status for o in bad} == {"refused"}
    else:
        assert bad == []


def test_cli_children_agree_with_in_process(toy_sizes, tmp_path):
    child = run.run_pass(workloads.prepare("cli_kernel", 5, tmp_path / "a"))
    inproc = run.run_pass(workloads.prepare("cli_kernel", 5, tmp_path / "b", inprocess_cli=True))
    assert [(o.label, o.status) for o in child] == [(o.label, o.status) for o in inproc]


def _metrics(wl, outcomes):
    metrics, status, attempted, failed = run.end_to_end(wl, [outcomes], [0.5], 1.0, SPEC)
    return metrics, status, failed


def test_wrong_expected_value_counts_as_failed(toy_sizes, tmp_path):
    rng = random.Random(1)
    inst = corpus.planted_max_cut(rng, core_n=8, triangles=1, free_colors=4)
    g = cc.ColoredGraph(inst.n, inst.edges, inst.p)
    wrong = dataclasses.replace(inst, opt=inst.opt + 1)
    ops = workloads._maxcut_instance_ops(g, inst, "t") + workloads._maxcut_instance_ops(
        g, wrong, "t"
    )
    wl = workloads.Workload("maxcut_search", ops)
    outcomes = [workloads.execute(op) for op in ops]
    metrics, status, failed = _metrics(wl, outcomes)
    # against the false optimum, solve and decide at "opt" are wrong; decide
    # at ceil(p/2) and at "opt" + 1 still get the right verdict
    assert status["wrong"] == 2 and failed == 2
    assert metrics["ok_frac"]["value"] == pytest.approx(6 / 8)


def test_wrong_expected_exit_code_counts_as_failed(toy_sizes, tmp_path):
    wl = workloads.prepare("cli_kernel", 2, tmp_path, inprocess_cli=True)
    # a solve -k op on a file without untouched vertices (those exit 3)
    right, code = next(
        (op, code)
        for op in wl.ops
        if op.label.startswith("cli/solve_k/") and (code := op.run()[0]) != 3
    )
    # the same run, judged by a check that expects the other exit code
    flipped = workloads.Op(
        right.label,
        right.run,
        lambda res: workloads._expect(res[0] == 1 - code, "exit code differs"),
    )
    outcomes = [workloads.execute(right), workloads.execute(flipped)]
    metrics, status, failed = _metrics(wl, outcomes)
    assert [o.status for o in outcomes] == ["ok", "wrong"]
    assert metrics["ok_frac"]["value"] == 0.5


def test_timeout_counts_as_failed():
    def spin():
        while True:
            pass

    op = workloads.Op("spin", spin, lambda res: None, deadline=0.05)
    outcome = workloads.execute(op)
    assert outcome.status == "timeout" and outcome.latency >= 0.05


def test_propagation_budget_cuts_dpll_the_same_way_every_time():
    clauses = corpus.unsat_cnf(random.Random(3), 5, 10)
    f = cc.CnfFormula(5, tuple(clauses))
    original = workloads.cc_sat._propagate

    def solve(limit):
        with workloads.propagation_budget(limit):
            return cc.dpll_solve(f)

    def op(limit):
        return workloads.Op("dpll", lambda: solve(limit), lambda res: None)

    assert solve(10**9) is None
    assert [workloads.execute(op(5)).status for _ in range(3)] == ["timeout"] * 3
    assert workloads.execute(op(10**9)).status == "ok"
    assert workloads.cc_sat._propagate is original


def test_same_seed_gives_identical_corpus_files(toy_sizes, tmp_path):
    for d, seed in (("a", 7), ("b", 7), ("c", 8)):
        workloads.prepare("cli_kernel", seed, tmp_path / d)
    a = sorted((tmp_path / "a").iterdir())
    assert [p.name for p in a] == [p.name for p in sorted((tmp_path / "b").iterdir())]
    assert all(p.read_bytes() == (tmp_path / "b" / p.name).read_bytes() for p in a)
    assert any(p.read_bytes() != (tmp_path / "c" / p.name).read_bytes() for p in a)


def test_same_seed_gives_identical_formulas_and_graphs():
    def draw(seed):
        rng = random.Random(seed)
        inst = corpus.planted_max_cut(rng, core_n=10, triangles=2, free_colors=6)
        return (
            corpus.ecg_text(inst.n, inst.edges, inst.p)
            + corpus.dimacs_text(5, corpus.planted_cnf(rng, 5, 9, nae=False))
            + corpus.dimacs_text(5, corpus.unsat_cnf(rng, 5, 10))
        )

    assert draw(4) == draw(4)
    assert draw(4) != draw(5)


def test_planted_optimum_matches_enumeration():
    rng = random.Random(0)
    for _ in range(5):
        inst = corpus.planted_max_cut(rng, core_n=9, triangles=1, free_colors=5)
        best = max(
            len(corpus.crossing_colors(inst.edges, {1, *extra}))
            for r in range(inst.n - 1)
            for extra in itertools.combinations(range(2, inst.n + 1), r)
        )
        assert best == inst.opt


def test_tracer_wraps_and_restores(toy_sizes, tmp_path):
    import coloredcut.solve as solve_mod

    original = solve_mod.augment_cut
    wl = workloads.prepare("cli_kernel", 1, tmp_path, inprocess_cli=True)
    tracer = Tracer()
    tracer.install()
    try:
        assert solve_mod.augment_cut is not original
        run.run_pass(wl, tracer)
    finally:
        tracer.uninstall()
    assert solve_mod.augment_cut is original and cc.augment_cut is original
    st = tracer.self_times()
    assert st["kernel.kernelize_colors"] > 0 and st["cli.main"] > 0
    total = sum(end - start for name, start, end, parent, _ in tracer.spans if parent < 0)
    assert sum(st.values()) == pytest.approx(total)


def test_no_program_means_nonzero_exit(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit) as exc:
        run.load_program()
    assert exc.value.code == 2
