"""Command-line interface.

Subcommands::

    solve      maximum colored cut (exact via the kernel, or greedy)
    colorful   decide whether some cut crosses every color
    kernelize  apply the dense-color removal rule, print the reduced graph
    generate   build a hardness instance from a 3-CNF formula
    verify     structural checks for generated graphs (and cut checks)
    stats      per-color edge counts, distinct endpoint pairs, span

Exit codes: 0 yes / success, 1 no, 2 bad input or unwritable output,
3 solve refused its search (more than ``--cap`` vertices to enumerate),
4 internal error.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from .errors import CapExceededError, FormatError
from .graph import (
    ColoredGraph,
    _color_classes,
    _span,
    cut_colors,
    is_colorful,
    parse_cut,
    parse_graph,
    serialize_cut,
    serialize_graph,
)
from .kernel import KernelVerdict, kernelize_colors, kernelize_value
from .solve import BRUTE_FORCE_CAP, colorful_cut_decide, greedy_half_colors, solve_via_kernel

# The `ReductionKind` values, spelled out so that building the parser does not
# load reductions.py: only `generate` and `verify --kind <construction>` use it.
_KINDS = ("planar-multi", "planar-simple", "k4mf", "oct1", "complete", "nae")


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from exc


def _answer(line: str, body: str, output: str | None) -> None:
    """Print the answer line and then body, or write body to output first so
    that a failed write prints no answer."""
    if output is None:
        sys.stdout.write(line + "\n" + body)
    else:
        _write(output, body)
        print(line)


def _cmd_solve(args: argparse.Namespace) -> int:
    g = parse_graph(_read(args.graph))
    if args.algo == "kernel":
        witness = solve_via_kernel(g, cap=args.cap).witness
    else:
        witness = greedy_half_colors(g)
    value = len(cut_colors(g, witness))
    _answer(f"value {value}", serialize_cut(witness), args.output)
    if args.k is not None:
        return 0 if value >= args.k else 1
    return 0


def _cmd_colorful(args: argparse.Namespace) -> int:
    cut = colorful_cut_decide(parse_graph(_read(args.graph)))
    if cut is None:
        print("colorful no")
        return 1
    _answer("colorful yes", serialize_cut(cut), args.output)
    return 0


def _cmd_kernelize(args: argparse.Namespace) -> int:
    g = parse_graph(_read(args.graph))
    if args.param == "colors":
        if args.k is not None:
            raise ValueError("-k requires --param k")
        outcome = kernelize_colors(g)
        line = f"removed {len(outcome.removed_colors)} colors, p' {outcome.reduced_graph.p}"
        _answer(line, serialize_graph(outcome.reduced_graph), args.output)
        return 0
    if args.k is None:
        raise ValueError("--param k requires -k")
    outcome = kernelize_value(g, args.k)
    if outcome.verdict is KernelVerdict.EARLY_YES:
        print("early yes")
        print(f"removed {len(outcome.removed_colors)} colors, k' {outcome.remaining_k}")
        return 0
    line = (
        f"removed {len(outcome.removed_colors)} colors,"
        f" p' {outcome.reduced_graph.p}, k' {outcome.remaining_k}"
    )
    _answer(line, serialize_graph(outcome.reduced_graph), args.output)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from .reductions import _GENERATORS, ReductionKind, serialize_provenance
    from .sat import parse_dimacs

    formula = parse_dimacs(_read(args.cnf))
    kind = ReductionKind(args.reduction)
    artifact = _GENERATORS[kind](formula)
    g = artifact.graph
    _write(args.output + ".ecg", serialize_graph(g))
    _write(args.output + ".prov", serialize_provenance(artifact))
    print(f"generated {kind.value}: n {g.n} m {g.m} p {g.p}")
    print(f"wrote {args.output}.ecg and {args.output}.prov")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    g = parse_graph(_read(args.graph))
    results: list[tuple[str, bool, str]] = [("graph-valid", True, "")]
    if args.kind != "graph":
        from .reductions import (
            ReductionArtifact,
            ReductionKind,
            parse_provenance,
            verify_structural,
        )

        kind = ReductionKind(args.kind)
        color_meaning: dict[int, tuple] = {}
        vertex_meaning: dict[int, tuple] = {}
        if args.provenance is not None:
            color_meaning, vertex_meaning = parse_provenance(_read(args.provenance))
        elif kind is ReductionKind.OCT_ONE:
            vertex_meaning = {1: ("apex",)}  # the construction pins the apex there
        artifact = ReductionArtifact(
            g, kind, None, (), {}, color_meaning, vertex_meaning
        )
        report = verify_structural(artifact)
        results.extend((item.name, item.passed, item.detail) for item in report.items)
    if args.expect_colors is not None:
        ok = g.p == args.expect_colors
        results.append(
            ("color-count", ok, "" if ok else f"graph has {g.p} colors")
        )
    if args.cut is not None:
        cut = parse_cut(_read(args.cut), g.n)
        crossed = len(cut_colors(g, cut))
        results.append(("cut-valid", True, f"crosses {crossed} colors"))
        ok = is_colorful(g, cut)
        results.append(
            ("cut-colorful", ok, "" if ok else f"only {crossed} of {g.p} colors cross")
        )
    for name, passed, detail in results:
        suffix = f" ({detail})" if detail else ""
        print(f"check {name}: {'pass' if passed else 'fail'}{suffix}")
    return 0 if all(passed for _, passed, _ in results) else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    g = parse_graph(_read(args.graph))
    print(f"n {g.n} m {g.m} p {g.p}")
    sizes = Counter(c for _, _, c in g.edges)
    for c, pairs in enumerate(_color_classes(g), start=1):
        print(f"color {c} edges {sizes[c]} pairs {len(pairs)} span {_span(pairs)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coloredcut",
        description="maximum colored cut and colorful cut on edge-colored multigraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="maximize the number of cut colors")
    p_solve.add_argument("graph", help="edge-colored graph file")
    p_solve.add_argument("-k", type=int, default=None, help="exit 0 iff value >= k")
    p_solve.add_argument("--algo", choices=("kernel", "greedy"), default="kernel")
    p_solve.add_argument("--cap", type=int, default=BRUTE_FORCE_CAP, help="most vertices searched")
    p_solve.add_argument("--output", default=None, help="write the cut here")
    p_solve.set_defaults(func=_cmd_solve)

    p_col = sub.add_parser("colorful", help="decide if some cut crosses every color")
    p_col.add_argument("graph")
    p_col.add_argument("--output", default=None, help="write the cut here")
    p_col.set_defaults(func=_cmd_colorful)

    p_ker = sub.add_parser("kernelize", help="remove colors that always cross")
    p_ker.add_argument("graph")
    p_ker.add_argument("--param", choices=("colors", "k"), default="colors")
    p_ker.add_argument("-k", type=int, default=None)
    p_ker.add_argument("--output", default=None, help="write the reduced graph here")
    p_ker.set_defaults(func=_cmd_kernelize)

    p_gen = sub.add_parser("generate", help="build a hardness instance from 3-CNF")
    p_gen.add_argument(
        "--reduction",
        required=True,
        choices=_KINDS,
    )
    p_gen.add_argument("--cnf", required=True, help="DIMACS CNF input")
    p_gen.add_argument(
        "--output", required=True, help="basename for the .ecg/.prov outputs"
    )
    p_gen.set_defaults(func=_cmd_generate)

    p_ver = sub.add_parser("verify", help="check structural guarantees")
    p_ver.add_argument(
        "--kind",
        required=True,
        choices=(*_KINDS, "graph"),
    )
    p_ver.add_argument("--graph", required=True)
    p_ver.add_argument("--cut", default=None)
    p_ver.add_argument("--provenance", default=None)
    p_ver.add_argument("--expect-colors", type=int, default=None)
    p_ver.set_defaults(func=_cmd_verify)

    p_stat = sub.add_parser("stats", help="per-color summary")
    p_stat.add_argument("graph")
    p_stat.set_defaults(func=_cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # FormatError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # InvariantError or a bug: must not read as "no" (1)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
