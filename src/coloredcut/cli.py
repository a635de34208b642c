"""Command-line interface.

Subcommands::

    solve      maximum colored cut (exact via the kernel, or greedy)
    colorful   decide whether some cut crosses every color
    kernelize  apply the dense-color removal rule, print the reduced graph
    generate   build a hardness instance from a 3-CNF formula
    verify     structural checks for generated graphs (and cut checks)
    stats      per-color edge counts, distinct endpoint pairs, span

Each command returns its exit code and stdout text; ``main`` alone writes it.
The cyclic garbage collector is off while a command runs.

Exit codes: 0 yes / success, 1 no, 2 bad input or unwritable output
(an ``--output`` path, or a stdout that is closed, a closed pipe or a full
device such as ``> /dev/full``), 3 no stage of solve could answer (its
search has more than ``BRUTE_FORCE_CAP``, 24, vertices to enumerate, and
no certificate settles K with ``-k``, or without it no cut was certified to
cross all p colors), 4 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from pathlib import Path

from .errors import CapExceededError, FormatError
from .graph import (
    _color_classes,
    _gc_paused,
    _read_int,
    _span,
    cut_colors,
    parse_cut,
    parse_graph,
    serialize_cut,
    serialize_graph,
)
from .kernel import _rule_table, kernelize_colors, kernelize_value
from .solve import _greedy_cut, _search, _staged, colorful_cut_decide

# The `ReductionKind` values, spelled out so that building the parser does not
# load reductions.py: only `generate` and `verify --kind <construction>` use it.
_KINDS = ("planar-multi", "planar-simple", "k4mf", "oct1", "complete", "nae")


def _int_arg(text: str) -> int:
    """Read an integer flag by the rule of the files' integer fields."""
    try:
        return _read_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


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


def _answer(line: str, body: str, output: str | None) -> str:
    """Return the stdout text of an answer: the line and then body, or only the
    line once body is written to output, so that a failed write prints none."""
    if output is None:
        return line + "\n" + body
    _write(output, body)
    return line + "\n"


def _cmd_solve(args: argparse.Namespace) -> tuple[int, str]:
    g = parse_graph(_read(args.graph))
    if args.algo == "greedy":
        witness, value = _greedy_cut(g, ())  # the greedy cut, recounted on g
    else:
        # the search and, where it refuses, the staged answer read one table
        table = _rule_table(g)
        try:
            result = _search(g, *table)  # its witness is recounted on g
            value, witness = result.value, result.witness
        except CapExceededError:
            # without -k only a cut crossing all p colors settles the value;
            # every cut crosses at least 0 colors, so K < 1 asks what K = 1 does
            k = g.p if args.k is None else max(args.k, 1)
            value, witness, upper, _ = _staged(g, k, table)
            if value < k:
                if args.k is None:
                    raise  # the search's refusal stands
                return 1, f"at most {upper}\n"
            if args.k is not None:
                return 0, _answer(f"at least {value}", serialize_cut(witness), args.output)
    text = _answer(f"value {value}", serialize_cut(witness), args.output)
    return (0 if args.k is None or value >= args.k else 1), text


def _cmd_colorful(args: argparse.Namespace) -> tuple[int, str]:
    cut = colorful_cut_decide(parse_graph(_read(args.graph)))
    if cut is None:
        return 1, "colorful no\n"
    return 0, _answer("colorful yes", serialize_cut(cut), args.output)


def _cmd_kernelize(args: argparse.Namespace) -> tuple[int, str]:
    g = parse_graph(_read(args.graph))
    if (args.param == "k") != (args.k is not None):
        raise ValueError("--param k requires -k" if args.k is None else "-k requires --param k")
    outcome = kernelize_colors(g) if args.k is None else kernelize_value(g, args.k)
    removed, reduced = len(outcome.removed_colors), outcome.reduced_graph
    p_part = "" if reduced is None else f", p' {reduced.p}"
    k_part = "" if args.k is None else f", k' {args.k - removed}"
    line = f"removed {removed} colors{p_part}{k_part}"
    if reduced is None:
        return 0, f"early yes\n{line}\n"
    return 0, _answer(line, serialize_graph(reduced), args.output)


def _cmd_generate(args: argparse.Namespace) -> tuple[int, str]:
    from .reductions import _GENERATORS, ReductionKind, serialize_provenance
    from .sat import parse_dimacs

    formula = parse_dimacs(_read(args.cnf))
    kind = ReductionKind(args.reduction)
    artifact = _GENERATORS[kind](formula)
    g = artifact.graph
    _write(args.output + ".ecg", serialize_graph(g))
    try:
        _write(args.output + ".prov", serialize_provenance(artifact))
    except FormatError:
        Path(args.output + ".ecg").unlink()  # write both files or neither
        raise
    return 0, (
        f"generated {kind.value}: n {g.n} m {g.m} p {g.p}\n"
        f"wrote {args.output}.ecg and {args.output}.prov\n"
    )


def _cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
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
            g, kind, None, color_meaning=color_meaning, vertex_meaning=vertex_meaning
        )
        report = verify_structural(artifact)
        results.extend((item.name, item.passed, item.detail) for item in report.items)
    if args.cut is not None:
        cut = parse_cut(_read(args.cut), g.n)
        crossed = len(cut_colors(g, cut))
        results.append(("cut-valid", True, f"crosses {crossed} colors"))
        ok = crossed == g.p
        results.append(
            ("cut-colorful", ok, "" if ok else f"only {crossed} of {g.p} colors cross")
        )
    lines = []
    for name, passed, detail in results:
        suffix = f" ({detail})" if detail else ""
        lines.append(f"check {name}: {'pass' if passed else 'fail'}{suffix}\n")
    return (0 if all(passed for _, passed, _ in results) else 1), "".join(lines)


def _cmd_stats(args: argparse.Namespace) -> tuple[int, str]:
    g = parse_graph(_read(args.graph))
    sizes = Counter(c for _, _, c in g.edges)
    lines = [f"n {g.n} m {g.m} p {g.p}\n"]
    for c, pairs in enumerate(_color_classes(g), start=1):
        lines.append(f"color {c} edges {sizes[c]} pairs {len(pairs)} span {_span(pairs)}\n")
    return 0, "".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coloredcut",
        description="maximum colored cut and colorful cut on edge-colored multigraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="maximize the number of cut colors")
    p_solve.add_argument("graph", help="edge-colored graph file")
    p_solve.add_argument("-k", type=_int_arg, default=None, help="exit 0 iff value >= k")
    p_solve.add_argument("--algo", choices=("kernel", "greedy"), default="kernel")
    p_solve.add_argument("--output", default=None, help="write the cut here")
    p_solve.set_defaults(func=_cmd_solve)

    p_col = sub.add_parser("colorful", help="decide if some cut crosses every color")
    p_col.add_argument("graph")
    p_col.add_argument("--output", default=None, help="write the cut here")
    p_col.set_defaults(func=_cmd_colorful)

    p_ker = sub.add_parser("kernelize", help="remove colors that always cross")
    p_ker.add_argument("graph")
    p_ker.add_argument("--param", choices=("colors", "k"), default="colors")
    p_ker.add_argument("-k", type=_int_arg, default=None)
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
    p_ver.set_defaults(func=_cmd_verify)

    p_stat = sub.add_parser("stats", help="per-color summary")
    p_stat.add_argument("graph")
    p_stat.set_defaults(func=_cmd_stats)

    return parser


# A command builds its objects once and exits, so the cyclic GC would only
# rescan them: it is off while the command runs, and its prior state comes
# back afterwards for callers that run `main` in-process.
@_gc_paused
def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if sys.stdout is None:  # fd 1 was closed when the interpreter started
            raise FormatError("cannot write stdout: it is closed")
        code, text = args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # FormatError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # InvariantError or a bug: must not read as "no" (1)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    try:
        sys.stdout.write(text)
        sys.stdout.flush()  # a closed pipe or a full device fails here, not at exit
    except (OSError, UnicodeEncodeError) as exc:  # or a path stdout cannot encode
        # point fd 1 at devnull, so that the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
