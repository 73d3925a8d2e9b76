"""Benchmark for the `necs` command line: one workload per run.

    python3 necsbench/run.py --workload tables --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
./src, nothing needs installing.  One process, one client, closed loop:
the workload's commands go through `necs.cli.run(argv)` one at a time, each
after the previous one returned.  A pass is the workload's whole command
sequence; passes repeat until --seconds is used up (at least two, so a
median exists).  Every output is checked after its pass, outside the timed
region, against an independent reference.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics: self time of the spans
that tracing.py puts around the public functions of each library module,
counts, and the tracing overhead.  The last line of standard output is the
result as one JSON object.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_ROUNDS = 9
MIN_PASSES = 2

NOISE_NOTE = (
    "host noise: at the seed commit the same enumerate_necs(10) took 1.26-2.05 s of CPU "
    "time in different processes on this kind of shared 2-core host, with CPU time moving "
    "together with wall time; the spread comes from the host, not from GC, so compare "
    "medians of several runs against the bounds in BENCHMARK.json"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

#: per-layer time metric -> span name (tracing.py); the value is self time
LAYER_TIMES = {
    "series.revert_s": "series.revert",
    "series.compose_s": "series.compose",
    "counting.size_gcd_s": "counting.size_gcd",
    "counting.size_gcd_lcm_s": "counting.size_gcd_lcm",
    "counting.cache_hit_s": "counting.cache_hit",
    "asymptotics.roots_s": "asymptotics.roots",
    "asymptotics.identities_s": "asymptotics.identities",
    "asymptotics.ratio_s": "asymptotics.ratio",
    "polybasis.diffs_s": "polybasis.diffs",
    "enumeration.necs_s": "enumeration.necs",
    "enumeration.shift_s": "enumeration.shift",
    "enumeration.ecs_s": "enumeration.ecs",
    "congruence.system_build_s": "congruence.system_build",
    "congruence.is_exact_s": "congruence.is_exact",
    "congruence.witness_s": "congruence.witness",
    "congruence.parse_s": "congruence.parse",
    "congruence.format_s": "congruence.format",
    "trees.enumerate_s": "trees.enumerate",
    "trees.format_s": "trees.format",
    "cli.self_s": "cli",
}


class Result:
    """One command's exit code, standard output and latency; `error` names
    the exception it raised, if any (the exception itself is not kept: its
    traceback would pin every frame of a deep recursion in memory)."""

    __slots__ = ("rc", "out", "error", "seconds")

    def __init__(self, rc, out, error, seconds):
        self.rc, self.out, self.error, self.seconds = rc, out, error, seconds


def percentile(values: list[float], q: float) -> float:
    """Nearest rank: the smallest sample with at least q% of the samples at
    or below it.  It is always one measured value, which matters when a
    workload has only a handful of commands."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q / 100 * len(xs)) - 1)]


def fresh_import():
    """Import `necs.cli` from ./src as a new process would."""
    for name in [m for m in sys.modules if m == "necs" or m.startswith("necs.")]:
        del sys.modules[name]
    return importlib.import_module("necs.cli")


def run_pass(cli, ops, tracer=None) -> tuple[float, list[Result]]:
    results = []
    t_pass = time.perf_counter()
    for op in ops:
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                if tracer is None:
                    rc = cli.run(op.argv)
                else:
                    rc = tracer.span("cli", cli.run, op.argv)
            error = None
        except Exception as exc:  # a crash is a failed op, not the end of the run
            rc, error = None, f"{type(exc).__name__}: {str(exc)[:120]}"
        results.append(Result(rc, out.getvalue(), error, time.perf_counter() - t0))
    return time.perf_counter() - t_pass, results


def check_pass(ops, results, verified: dict) -> list[tuple[str, str | None]]:
    """(status, reason) per op: ok, failed (raised) or wrong (bad exit code
    or output).  Passes with byte-identical outputs are checked once."""
    key = tuple(
        (r.rc, r.error, hashlib.sha1(r.out.encode()).digest())
        for r in results
    )
    if key in verified:
        return verified[key]
    outs = {op.name: r.out for op, r in zip(ops, results)}
    verdicts = []
    for op, r in zip(ops, results):
        if r.error is not None:
            verdicts.append(("failed", r.error))
        elif r.rc != op.expect_rc:
            verdicts.append(("wrong", f"exit code {r.rc}, want {op.expect_rc}"))
        else:
            try:
                why = op.check(r.out, outs)
            except Exception as e:  # a malformed output can trip a parser
                why = f"check raised {type(e).__name__}: {e}"
            verdicts.append(("ok", None) if why is None else ("wrong", why))
    verified[key] = verdicts
    return verdicts


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    commit = "unknown (not a git checkout)"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "loadavg": " ".join(f"{x:.2f}" for x in os.getloadavg()),
    }


def layer_metrics(tracer) -> dict[str, float]:
    m = {name: tracer.self_s.get(span, 0.0) for name, span in LAYER_TIMES.items()}
    m["series.mul_calls"] = tracer.calls.get("series.mul", 0)
    m["enumeration.necs_systems"] = tracer.items.get("enumeration.necs", 0)
    m["enumeration.ecs_solutions"] = tracer.items.get("enumeration.ecs", 0)
    m["congruence.systems_built"] = tracer.calls.get("congruence.system_build", 0)
    return m


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "count"


class Tally:
    """What the passes of one run measured, and how their ops fared."""

    def __init__(self, n_ops: int):
        self.walls = {False: [], True: []}  # pass wall times, by traced
        self.op_seconds = [[] for _ in range(n_ops)]  # per command, untraced passes
        self.layers = []  # layer_metrics() of each traced pass
        self.is_exact_calls = []  # per-call seconds, pooled over traced passes
        self.statuses = {"ok": 0, "failed": 0, "wrong": 0}
        self.reasons: dict[str, int] = {}


def measure(cli, workload, ops, work, seconds, trace, tracing) -> Tally:
    """Run passes until `seconds` are used up; with `trace`, each unit is
    an untraced pass followed by a traced one."""
    tally = Tally(len(ops))
    tracer = tracing.Tracer() if trace else None
    verified: dict = {}
    unit_times = []
    start = time.perf_counter()
    while True:
        t_unit = time.perf_counter()
        for traced in (False, True) if trace else (False,):
            workload.before_pass(work)
            installed = None
            if traced:
                tracer.reset()
                installed = tracing.Installed(tracer)
            try:
                wall, results = run_pass(cli, ops, tracer if traced else None)
            finally:
                if installed:
                    installed.remove()
            tally.walls[traced].append(wall)
            if traced:
                tally.layers.append(layer_metrics(tracer))
                tally.is_exact_calls.extend(tracer.durations["congruence.is_exact"])
            else:
                for samples, r in zip(tally.op_seconds, results):
                    samples.append(r.seconds)
            for op, (status, why) in zip(ops, check_pass(ops, results, verified)):
                tally.statuses[status] += 1
                if why:
                    label = f"{status} {op.name}: {why}"
                    tally.reasons[label] = tally.reasons.get(label, 0) + 1
        unit_times.append(time.perf_counter() - t_unit)
        enough = len(unit_times) >= (1 if trace else MIN_PASSES)
        if enough and time.perf_counter() - start + statistics.median(unit_times) > seconds:
            return tally


def end_to_end_metrics(tally: Tally, setup_times: list[float]) -> dict[str, float]:
    op_latency = [statistics.median(samples) for samples in tally.op_seconds]
    print(f"op latency: each command's median over {len(tally.walls[False])} passes, "
          f"nearest-rank percentiles over {len(op_latency)} commands; pass walls: "
          + " ".join(f"{w:.3f}" for w in tally.walls[False]))
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(tally.walls[False]),
        "op_p50_ms": 1e3 * percentile(op_latency, 50),
        "op_p99_ms": 1e3 * percentile(op_latency, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(tally: Tally) -> dict[str, float]:
    metrics = {name: statistics.median(s[name] for s in tally.layers) for name in tally.layers[0]}
    calls = tally.is_exact_calls
    for q in (50, 99):
        metrics[f"congruence.is_exact_p{q}_ms"] = 1e3 * percentile(calls, q) if calls else 0.0
    traced, untraced = statistics.median(tally.walls[True]), statistics.median(tally.walls[False])
    metrics["trace.overhead_s"] = traced - untraced
    print(f"is_exact calls sampled: {len(calls)}; wall_s traced {traced:.4f}, "
          f"untraced {untraced:.4f}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "necs", "cli.py")):
        print(f"necsbench: no necs sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"necsbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    os.environ.pop("NECS_CACHE_DIR", None)  # keep runs hermetic
    # a terminated run still removes its scratch files (the finally below)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = os.path.join(ROOT, ".bench_work", f"{workload.name}-{os.getpid()}")
    env_start = environment()
    try:
        setup_times = []
        for _ in range(SETUP_ROUNDS):
            t0 = time.perf_counter()
            cli = fresh_import()
            # later rounds overwrite the same files: creating and deleting
            # thousands of files per round made set-up times drift with the
            # state of the file system
            ops = workload.prepare(work, args.seed)
            setup_times.append(time.perf_counter() - t0)
        tally = measure(cli, workload, ops, work, args.seconds, args.trace, tracing)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))

    env_end = environment()
    st = tally.statuses
    attempted = sum(st.values())
    failed = st["failed"] + st["wrong"]
    print(f"necsbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {workload.why}")
    print(f"environment: python {env_start['python']}, nproc {env_start['nproc']}, "
          f"cpu {env_start['cpu']}, commit {env_start['commit']}, "
          f"loadavg {env_start['loadavg']} (start) / {env_end['loadavg']} (end)")
    print(NOISE_NOTE)
    print(f"closed loop, 1 client, {len(ops)} commands per pass; passes untraced "
          f"{len(tally.walls[False])}, traced {len(tally.walls[True])}; set-ups {len(setup_times)}")
    print(f"ops: attempted {attempted}, ok {st['ok']}, failed {st['failed']} (raised), "
          f"wrong {st['wrong']}; fail_ratio {failed / attempted:.6f} = {failed}/{attempted}")
    for label, n in sorted(tally.reasons.items()):
        print(f"  {n} x {label}")
    if args.trace:
        metrics = per_layer_metrics(tally)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end_metrics(tally, setup_times)
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"  {name:<30} {value:>14.6f} {units[name]}")
    print(json.dumps({
        "correct": st["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
