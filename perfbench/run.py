"""Benchmark of the helsinki package: four workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

With `--trace 0` the op list of the workload is run in whole passes until
`--seconds` have elapsed, with tracing off, and the end-to-end metrics of
BENCHMARK.json are reported. With `--trace 1` two untraced and two traced
passes alternate instead; the per-layer metrics come from the first traced
pass, and the tracing overhead is the traced time minus the untraced one.
`--seconds` does not apply there. Every op's output is checked against the
references in `reference.py`; a wrong answer makes the command exit with
code 1. An exception, a traceback or an undocumented exit code counts as a
failed op and is listed by op name and exception type.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Spans and a run record go
to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import reference as ref
import workloads
from speed import SpeedProbe, pin_to_one_cpu
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
MODULES = ("model", "structure", "solver", "analysis", "prob", "loops", "render", "cli")
SETUP_PROBES = 9
MIN_PASSES = 2
START_PROBES = 7

# Non-time per-layer values that must repeat exactly between traced passes
# and between runs of the same source and seed.
EXACT_SUFFIXES = (".calls", ".failed", ".explored", ".solutions", ".solutions_per_explored",
                  ".solver_calls", ".solver_distinct_ratio", ".bytes_out")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail(f"no BENCHMARK.json at {ROOT}")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def load_package():
    """Import helsinki from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "helsinki", "__init__.py")):
        fail(f"no package source at {SRC}/helsinki")
    sys.path.insert(0, SRC)
    pkg = argparse.Namespace(**{m: importlib.import_module(f"helsinki.{m}") for m in MODULES})
    if not os.path.abspath(pkg.cli.__file__).startswith(SRC + os.sep):
        fail(f"helsinki was imported from {pkg.cli.__file__}, not from {SRC}")
    return pkg


def source_digest(directory: str = os.path.join(SRC, "helsinki")) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), "rb") as handle:
                digest.update(name.encode() + handle.read())
    return digest.hexdigest()[:16]


def commit() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}  # never a parent directory's repo
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def child_numbers(argv: list, env=None) -> list[float]:
    """Run one child to completion and return the numbers on its last line."""
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        fail(f"child {argv[1:]} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return [float(x) for x in proc.stdout.splitlines()[-1].split()]


def setup_probe_runner(workload: str, seed: int):
    """A callable that times one set-up in a fresh process: import, build and
    serialize the inputs, warm-up. Interpreter start is not included. It
    returns the set-up's start and end on the perf_counter clock, which is
    the same in every process, so the parent's speed probe can scale it."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    return lambda: tuple(child_numbers(argv))


def setup_probe(workload: str, seed: int) -> None:
    start = time.perf_counter()
    pkg = load_package()
    workloads.SETUP[workload](seed, pkg, OUT)
    print(f"{start:.9f} {time.perf_counter():.9f}")


def run_pass(ops, record, tracer=None) -> list:
    """Run every op once; return each op's (start, end) on perf_counter."""
    gc.collect()
    spans = []
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        start = time.perf_counter()
        try:
            result = op.run()
        except workloads.CliFailure as exc:
            end = time.perf_counter()
            record["failed"][(op.name, exc.kind)] += 1
        except Exception as exc:  # an op that raises is a failed op, never a crash
            end = time.perf_counter()
            record["failed"][(op.name, type(exc).__name__)] += 1
        else:
            end = time.perf_counter()
            try:
                problem = op.check(result)
            except Exception as exc:  # output the check cannot even read is a wrong answer
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                record["wrong"].append(f"{op.name}: {problem}")
        result = None
        record["attempted"] += 1
        spans.append((start, end))
    return spans


def percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(ops, seconds: float, record, probe, rss) -> dict:
    """Whole passes until `seconds` have elapsed (at least MIN_PASSES), with
    one set-up probe after each pass.

    Every op time is scaled to the reference machine speed by the speed
    probe (see speed.py). `wall_s` is the sum over the ops of each op's
    median over the passes; the latency percentiles are taken over every op
    run of every pass. Peak memory is read after the first pass, before any
    set-up probe has run.
    """
    passes = []
    setups = []
    with SpeedProbe() as speed:
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            passes.append(run_pass(ops, record))
            if len(passes) == 1:
                peak = rss()
            setups.append(probe())
        while len(setups) < SETUP_PROBES:
            setups.append(probe())
        passes = [[speed.scaled(t0, t1) for t0, t1 in spans] for spans in passes]
        setups = [speed.scaled(t0, t1) for t0, t1 in setups]
    record["passes"] = [sum(p) for p in passes]
    wall = sum(statistics.median(times) for times in zip(*passes))
    run_ms = [t * 1000 for p in passes for t in p]
    record["latency_samples"] = len(run_ms)
    return {
        "wall_s": wall,
        "throughput_per_s": sum(op.items for op in ops) / wall,
        "latency_p50_ms": statistics.median(run_ms),
        "latency_p90_ms": percentile(run_ms, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak,
    }


def peak_rss_mb(workload: str) -> float:
    # the cli workload's program runs in child processes; the others in this one
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def traced_run(workload, ops, record, seed) -> tuple[dict, list]:
    """Untraced and traced passes, alternated twice. Per-layer metrics come
    from the first traced pass, in raw seconds. The overhead compares the
    sums of per-op medians, scaled to the reference speed as in timed_run."""
    problems = []
    untraced, traced, tracers = [], [], []
    with SpeedProbe() as speed:
        for _ in range(2):
            untraced.append(run_pass(ops, record))
            tracer = Tracer(workloads.CLI_COMMANDS)
            with tracer.patched():
                traced.append(run_pass(ops, record, tracer))
            tracers.append(tracer)
        untraced = [[speed.scaled(t0, t1) for t0, t1 in spans] for spans in untraced]
        traced = [[speed.scaled(t0, t1) for t0, t1 in spans] for spans in traced]
    metrics = tracers[0].layer_metrics()
    os.makedirs(OUT, exist_ok=True)
    tracers[0].write(os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl"))

    exact = {k: v for k, v in metrics.items() if k.endswith(EXACT_SUFFIXES)}
    second = {k: v for k, v in tracers[1].layer_metrics().items() if k.endswith(EXACT_SUFFIXES)}
    for name in sorted(set(exact) | set(second)):
        if exact.get(name) != second.get(name):
            problems.append(f"count drift between traced passes: {name} {exact.get(name)} != {second.get(name)}")
    counts_path = os.path.join(OUT, f"counts-{workload}-seed{seed}.json")
    digest = source_digest() + source_digest(HERE)  # the program's source and the benchmark's own
    if os.path.isfile(counts_path):
        with open(counts_path, encoding="utf-8") as handle:
            earlier = json.load(handle)
        if earlier["source"] == digest and earlier["counts"] != exact:
            drift = sorted(k for k in set(exact) | set(earlier["counts"]) if exact.get(k) != earlier["counts"].get(k))
            problems.append(f"count drift from an earlier run of the same sources and seed: {', '.join(drift)}")
    with open(counts_path, "w", encoding="utf-8") as handle:
        json.dump({"source": digest, "counts": exact}, handle, indent=1, sort_keys=True)

    plain = sum(statistics.median(t) for t in zip(*untraced))
    with_spans = sum(statistics.median(t) for t in zip(*traced))
    metrics["trace.overhead_s"] = with_spans - plain
    metrics["trace.overhead_ratio"] = with_spans / plain - 1
    if workload == "cli":
        env = workloads.cli_env(ROOT)
        timer = "import time; t = time.perf_counter(); {}; print(time.perf_counter() - t)"
        bare = [sys.executable, "-c", "pass"]
        starts = []
        for _ in range(START_PROBES):
            begin = time.perf_counter()
            subprocess.run(bare, cwd=ROOT, env=env, check=True, timeout=60)
            starts.append(time.perf_counter() - begin)
        metrics["cli.interpreter_start_ms"] = statistics.median(starts) * 1000
        imports = [child_numbers([sys.executable, "-c", timer.format("import helsinki.cli")], env)[0]
                   for _ in range(START_PROBES)]
        metrics["cli.import_ms"] = statistics.median(imports) * 1000
    return metrics, problems


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    spec = load_spec()
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        fail(f"unknown workload {args.workload!r}; expected one of {', '.join(whys)}")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return

    pin_to_one_cpu()
    pkg = load_package()
    inputs = workloads.SETUP[args.workload](args.seed, pkg, OUT)
    ref.self_check(pkg.solver.brute_force_complete, pkg.structure.build_chain)
    if args.workload == "cli":
        ops = workloads.ops_cli(inputs, pkg, in_process=bool(args.trace))
    else:
        ops = workloads.OPS[args.workload](inputs, pkg)

    # The inputs and reference answers live as long as the run; keep the
    # collector from walking them, so ops pay only for their own garbage.
    gc.collect()
    gc.freeze()
    record = {"attempted": 0, "failed": Counter(), "wrong": []}
    if args.trace:
        values, problems = traced_run(args.workload, ops, record, args.seed)
        record["wrong"] += problems
        wanted = spec["per_layer"]
    else:
        values = timed_run(ops, args.seconds, record, setup_probe_runner(args.workload, args.seed),
                           lambda: peak_rss_mb(args.workload))
        wanted = spec["end_to_end"]

    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    failed = sum(record["failed"].values())
    provenance = {
        "workload": args.workload, "why": whys[args.workload], "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": commit(), "source": source_digest(),
    }
    summary = {
        **provenance,
        "ops_per_pass": len(ops),
        "passes": record.get("passes"),
        "latency_samples": record.get("latency_samples"),
        "attempted": record["attempted"],
        "failed": failed,
        "failed_ratio": failed / record["attempted"],
        "failed_ops": [{"op": op, "error": kind, "times": n} for (op, kind), n in sorted(record["failed"].items())],
        "wrong": record["wrong"],
        "metrics": {m["name"]: {**metrics[m["name"]], "better": m["better"]} for m in wanted},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)

    print(f"# {args.workload}: {whys[args.workload]}")
    print("# " + " ".join(f"{k}={provenance[k]}" for k in ("seed", "python", "nproc", "commit", "source")))
    for name, m in summary["metrics"].items():
        print(f"{name:48s} {m['value']:>16.6f} {m['unit']:8s} {m['better']} is better")
    if not args.trace:
        alias, items = workloads.THROUGHPUT[args.workload]
        print(f"{alias:48s} {values['throughput_per_s']:>16.6f} {'1/s':8s} higher is better"
              f"  (= throughput_per_s: {items}, per second)")
        print(f"# latency percentiles over {record['latency_samples']} op runs ({len(record['passes'])} passes)")
    print(f"{'failed_ratio':48s} {summary['failed_ratio']:>16.6f} {'ratio':8s} lower is better"
          f"  ({failed} of {record['attempted']} ops)")
    for f in summary["failed_ops"]:
        print(f"failed op: {f['op']}: {f['error']} x{f['times']}")
    for w in record["wrong"][:20]:
        print(f"WRONG: {w}")
    correct = not record["wrong"]
    print(json.dumps({"correct": correct, "attempted": record["attempted"], "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
