"""Per-layer tracing from outside the program.

`Tracer.install` wraps every public function defined in the traced
coloredcut modules and rebinds the wrapper wherever the original is bound
in any coloredcut module namespace (for example `augment_cut` inside
`coloredcut.solve`, bound there by `from .kernel import`).  `uninstall`
puts the originals back.  Spans (name, start, end, parent, op) stay in
memory; a layer's self time is its spans' durations minus the time their
child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("graph", "kernel", "solve", "sat", "reductions", "cli")

# Left unwrapped: `literal_true` runs once per literal inside DPLL's unit
# propagation, and a span per call made the traced colorful_sat pass four
# times slower.  Its time counts as its caller's self time.
UNWRAPPED = {"sat.literal_true"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter[str] = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, label: str):
        """Root span for one benchmark op (the harness's own time, checks
        included); library spans nest under it."""
        self.op_id += 1
        index = self.begin("bench." + label.split("/")[0])
        try:
            yield
        finally:
            self.end(index)

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("coloredcut")
        namespaces = [package] + [
            importlib.import_module(f"coloredcut.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"coloredcut.{layer}")
            for name, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not name.startswith("_")
                    and f"{layer}.{name}" not in UNWRAPPED
                ):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((ns, attr, value))
                    setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._restore):
            setattr(ns, attr, value)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                tracer.end(index)
            tracer.counts[f"{name}.calls"] += 1
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return wrapper

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[i]
        return dict(totals)

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    **extra,
                    "self_s": self.self_times(),
                    "counts": dict(self.counts),
                    "spans": self.spans,
                },
                fh,
            )


# Counts recorded where the work happens: (counts, call args, result).


def _count_brute(counts, args, result):
    counts["solve.brute_force_max.masks"] += result.explored


def _count_kernel(counts, args, result):
    counts["kernel.colors_removed"] += len(result.removed_colors)
    if result.reduced_graph is None:
        counts["kernel.early_yes"] += 1
    else:
        counts["kernel.input_n"] += args[0].n
        counts["kernel.reduced_n"] += result.reduced_graph.n


def _count_encode(counts, args, result):
    counts["solve.encode_colorful_to_cnf.clauses"] += len(result.formula.clauses)


def _count_dpll(counts, args, result):
    counts["sat.dpll_solve.unsat"] += result is None


def _count_generated(counts, args, result):
    counts["reductions.generated_edges"] += result.graph.m


def _count_dedupe(counts, args, result):
    counts["graph.dedupe_edges.in"] += args[0].m
    counts["graph.dedupe_edges.kept"] += result.m


_COUNTERS = {
    "solve.brute_force_max": _count_brute,
    "kernel.kernelize_colors": _count_kernel,
    "kernel.kernelize_value": _count_kernel,
    "solve.encode_colorful_to_cnf": _count_encode,
    "sat.dpll_solve": _count_dpll,
    "graph.dedupe_edges": _count_dedupe,
    **{
        f"reductions.{name}": _count_generated
        for name in (
            "sat_to_multigraph",
            "multigraph_to_simple",
            "make_k4mf_connected",
            "make_oct_one",
            "embed_complete_artifact",
            "nae_to_cliques",
        )
    },
}
