"""Benchmark for coloredcut: four seeded closed-loop workloads.

Run from the repository root (the package need not be installed):

    python3 perfbench/run.py --workload maxcut_search --seed 1 --seconds 24 --trace 0

With --trace 0 it runs a fixed number of whole passes over the seeded
corpus, as many as fill --seconds at reference speed, checks every answer
with the benchmark's own evaluators, and prints the end-to-end metrics
named in BENCHMARK.json.  With --trace 1 it runs one untraced and one
traced pass (the CLI called in-process) and prints the per-layer metrics.
The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
CHILD_REPEATS = 3
# Seconds one untraced pass over a workload's corpus takes on a 2-vCPU
# x86-64 VM (Python 3.11); `pass_count` sizes a run with them.
REFERENCE_PASS_S = {
    "maxcut_search": 5.7,
    "colorful_sat": 23.0,
    "reductions_pipeline": 2.75,
    "cli_kernel": 9.5,
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load_program():
    """Import coloredcut from this checkout's src/, or exit 2 if it is absent."""
    if not (SRC / "coloredcut" / "__init__.py").is_file():
        print(f"error: no coloredcut package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import coloredcut

    if Path(coloredcut.__file__).resolve().parent != (SRC / "coloredcut").resolve():
        print(f"error: imported coloredcut from {coloredcut.__file__}", file=sys.stderr)
        raise SystemExit(2)


def run_pass(workload, tracer=None):
    from workloads import execute

    outcomes = []
    for op in workload.ops:
        gc.collect()  # each op starts from a collected heap, untimed
        if tracer is None:
            outcomes.append(execute(op))
        else:
            with tracer.op(op.label):
                outcomes.append(execute(op))
    return outcomes


def pass_count(workload: str, seconds: float) -> int:
    """Whole passes that fill --seconds at the reference pass times.

    The count depends only on the workload and --seconds, never on how fast
    this run goes, so every run of a seed attempts the same ops and fails
    the same ones."""
    return max(1, int(seconds // REFERENCE_PASS_S[workload]))


def run_timed(workload, seconds: float):
    return [run_pass(workload) for _ in range(pass_count(workload.name, seconds))]


def time_ready(cmd) -> float:
    """Wall time from starting a fresh interpreter to its first output line."""
    from workloads import child_env

    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or not line.strip():
        raise RuntimeError(f"{cmd} exited {code} before it was ready")
    return elapsed


def measure_setup(args, workdir: Path) -> list[float]:
    times = []
    for i in range(SETUP_REPEATS):
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed),
            "--workdir", str(workdir / f"setup{i}"),
        ]
        times.append(time_ready(cmd))
    return times


def measure_interpreter_and_import() -> tuple[float, float]:
    from workloads import child_env

    interp = [time_ready([sys.executable, "-c", "print(1)"]) for _ in range(CHILD_REPEATS)]
    code = (
        "import time; t = time.perf_counter(); import coloredcut; "
        "print(time.perf_counter() - t)"
    )
    imports = []
    for _ in range(CHILD_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=child_env(), cwd=ROOT, check=True,
        )
        imports.append(float(out.stdout.strip()))
    return statistics.median(interp), statistics.median(imports)


def summarize(outcomes):
    status = Counter(o.status for o in outcomes)
    attempted = len(outcomes)
    failed = attempted - status["ok"]
    return status, attempted, failed


def end_to_end(workload, passes, setup_times, rss_mb, spec):
    """Every metric pools all passes, which averages machine noise over the run."""
    outcomes = [o for one in passes for o in one]
    status, attempted, failed = summarize(outcomes)
    latencies = [o.latency for o in outcomes]
    busy = sum(latencies)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    values = {
        "ops_per_s": status["ok"] / busy,
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p90_ms": 1000 * p90,
        "ok_frac": status["ok"] / attempted,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_mb,
    }
    notes = {
        "ops_per_s": f"{status['ok']} ok ops in {busy:.3f} s of op time, {len(passes)} passes",
        "latency_p50_ms": f"{attempted} samples",
        "latency_p90_ms": f"{attempted} samples, {sum(l > p90 for l in latencies)} beyond",
        "ok_frac": f"{status['ok']} ok of {attempted} attempted; " + ", ".join(
            f"{k} {v}" for k, v in sorted(status.items()) if k != "ok"
        ),
        "setup_s": "median of " + ", ".join(f"{t:.4f}" for t in setup_times),
        "peak_rss_mb": "CLI children (RUSAGE_CHILDREN)" if workload.name == "cli_kernel"
        else "benchmark process (RUSAGE_SELF)",
    }
    return _select(spec["end_to_end"], values, notes), status, attempted, failed


def per_layer(tracer, untraced, traced, walls, interp, imports, spec):
    st = tracer.self_times()
    counts = tracer.counts
    spans = Counter(s[0] for s in tracer.spans)

    def ratio(a, b):
        return a / b if b else 0.0

    brute = st.get("solve.brute_force_max", 0.0)
    dpll_done = counts["sat.dpll_solve.calls"]
    values = {
        "solve.brute_force_max.masks": counts["solve.brute_force_max.masks"],
        "solve.brute_force_max.masks_per_s": ratio(counts["solve.brute_force_max.masks"], brute),
        "solve.refused": counts["solve.brute_force_max.raised.CapExceededError"],
        "kernel.augment_cut.calls": spans["kernel.augment_cut"],
        "kernel.colors_removed": counts["kernel.colors_removed"],
        "kernel.vertex_ratio": ratio(counts["kernel.reduced_n"], counts["kernel.input_n"]),
        "kernel.early_yes": counts["kernel.early_yes"],
        "solve.encode_colorful_to_cnf.clauses": counts["solve.encode_colorful_to_cnf.clauses"],
        "sat.dpll_solve.calls": spans["sat.dpll_solve"],
        "sat.dpll_solve.unsat_ratio": ratio(counts["sat.dpll_solve.unsat"], dpll_done),
        "reductions.generated_edges": counts["reductions.generated_edges"],
        "graph.dedupe_edges.kept_ratio": ratio(
            counts["graph.dedupe_edges.kept"], counts["graph.dedupe_edges.in"]
        ),
        "cli.interpreter_s": interp,
        "cli.import_s": imports,
        "trace.overhead_frac": ratio(traced, untraced) - 1.0,
    }
    for sub, wall in walls.items():
        values[f"cli.{sub}.wall_s"] = wall
    for m in spec["per_layer"]:
        name = m["name"]
        if name.endswith(".self_s"):
            values[name] = st.get(name[: -len(".self_s")], 0.0)
        values.setdefault(name, 0.0)
    return _select(spec["per_layer"], values, {})


def _select(wanted, values, notes):
    metrics = {}
    for m in wanted:
        name = m["name"]
        metrics[name] = {"value": values[name], "unit": m["unit"]}
        note = notes.get(name, "")
        print(f"{name:45s} {values[name]:>14.6g} {m['unit']:8s} {note}")
    return metrics


def traced_run(args, workload, spec):
    """One untraced and one traced pass over the same corpus."""
    from tracer import Tracer

    t0 = time.perf_counter()
    untraced_outcomes = run_pass(workload)
    untraced = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        outcomes = run_pass(workload, tracer)
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    walls = Counter()
    if args.workload == "cli_kernel":
        for o in untraced_outcomes:
            walls[o.label.split("/")[1]] += o.latency
    interp, imports = measure_interpreter_and_import()
    metrics = per_layer(tracer, untraced, traced, walls, interp, imports, spec)
    status, attempted, failed = summarize(outcomes)
    tracer.write(
        OUT / f"trace-{args.workload}-{args.seed}.json",
        {"workload": args.workload, "seed": args.seed, "untraced_s": untraced,
         "traced_s": traced, "status": dict(status)},
    )
    return metrics, status, attempted, failed, outcomes


def timed_run(args, workload, spec, workdir: Path):
    passes = run_timed(workload, args.seconds)
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli_kernel" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    setup_times = measure_setup(args, workdir)  # after the read, so its children do not count
    metrics, status, attempted, failed = end_to_end(workload, passes, setup_times, rss_mb, spec)
    return metrics, status, attempted, failed, passes[-1]


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_only:
        workloads.prepare(args.workload, args.seed, Path(args.workdir))
        print("ready", flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = workloads.prepare(
            args.workload, args.seed, workdir / "corpus", inprocess_cli=bool(args.trace)
        )
        print(f"# workload {args.workload} seed {args.seed}: {len(workload.ops)} ops per pass")
        if args.trace:
            metrics, status, attempted, failed, shown = traced_run(args, workload, spec)
        else:
            metrics, status, attempted, failed, shown = timed_run(args, workload, spec, workdir)
        for o in shown:
            if o.status != "ok":
                print(f"# {o.status}: {o.label} {o.detail[:160]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": status["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
