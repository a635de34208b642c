#!/usr/bin/env python3
"""Walk one formula through every construction, verifier, and solver.

Usage:
    python3 scripts/demo_pipeline.py [--cnf FILE.cnf]

Without --cnf a built-in three-clause formula is used.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coloredcut import (
    CnfFormula,
    assignment_to_cut,
    brute_force_max,
    colorful_cut_decide,
    cut_to_assignment,
    embed_complete_artifact,
    greedy_half_colors,
    cut_colors,
    kernelize_colors,
    make_k4mf_connected,
    make_oct_one,
    multigraph_to_simple,
    nae_to_cliques,
    parse_dimacs,
    sat_to_multigraph,
    solve_via_kernel,
    strip_single_polarity,
    verify_structural,
)

DEMO = CnfFormula(3, ((1, -2, -3), (-1, 2, 3), (-1, -2, 3)))
NAE_DEMO = CnfFormula(3, ((1, 2, -3), (-1, -2, -3), (-1, 2, -3)))


def banner(text):
    print(f"\n=== {text} " + "=" * max(0, 60 - len(text)))


def show(artifact, label):
    g = artifact.graph
    report = verify_structural(artifact)
    status = "ok" if report.all_passed else "FAILED"
    names = ", ".join(item.name for item in report.items)
    print(f"{label}: n={g.n} m={g.m} p={g.p}  checks[{names}] -> {status}")
    return g


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cnf", default=None, help="DIMACS CNF file to use instead")
    args = parser.parse_args()

    f = parse_dimacs(Path(args.cnf).read_text()) if args.cnf else DEMO
    banner("formula")
    print(f"{len(f.clauses)} clauses over {f.var_count} variables: {f.clauses}")
    kept, removed, forced = strip_single_polarity(f)
    print(f"preprocessing keeps {len(kept)} clauses, removes {list(removed)},"
          f" forces {forced}")

    banner("clause-triangle multigraph")
    multi = sat_to_multigraph(f)
    g = show(multi, "multigraph")
    # the formula is satisfiable iff this graph has a colorful cut
    cut = colorful_cut_decide(g)
    print(f"colorful cut: {'yes, S=' + str(sorted(cut.s_side)) if cut else 'no'}")
    model = None if cut is None else cut_to_assignment(multi, cut)
    print(f"satisfiable: {model is not None}"
          + (f"  model from the cut {model}" if model is not None else ""))
    if model is not None:
        forward = assignment_to_cut(multi, model)
        print(f"cut built from the model: S={sorted(forward.s_side)}")

    banner("simple form (edges become 3-edge paths)")
    simple = multigraph_to_simple(multi)
    g = show(simple, "simple")
    print(f"colorful: {colorful_cut_decide(g) is not None}")

    banner("connected, max degree 3, no K4 minor")
    show(make_k4mf_connected(simple), "k4mf")

    banner("single odd-cycle apex")
    oct1 = make_oct_one(multi)
    g = show(oct1, "oct1")
    best = brute_force_max(g)
    print(f"maximum colored cut value {best.value} of {g.p}")

    banner("complete-graph embedding")
    comp = embed_complete_artifact(simple)
    g = show(comp, "complete")
    print(f"colorful: {colorful_cut_decide(g) is not None}")

    banner("not-all-equal cliques")
    a = nae_to_cliques(NAE_DEMO)
    g = show(a, "nae")
    cut = colorful_cut_decide(g)
    print(f"built-in NAE formula {NAE_DEMO.clauses}, NAE-satisfiable:"
          f" {cut is not None}")
    if cut is not None:
        print(f"NAE assignment from the colorful cut: {cut_to_assignment(a, cut)}")

    banner("kernelization on the multigraph")
    g = multi.graph
    out = kernelize_colors(g)
    print(f"removed colors {list(out.removed_colors)};"
          f" reduced to n={out.reduced_graph.n} p={out.reduced_graph.p}")
    exact = solve_via_kernel(g)
    greedy = greedy_half_colors(g)
    print(f"exact maximum {exact.value};"
          f" greedy crosses {len(cut_colors(g, greedy))} (guarantee {(g.p + 1) // 2})")


if __name__ == "__main__":
    main()
