"""harmonia benchmark: one workload per process, closed loop, one call at a time.

    python3 bench/run.py --workload rhombus|nbody|cc_search --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; harmonia is imported from
``src/``. A set-up generates the inputs and runs a warm-up round that
calls each operation once; ``setup_s`` is the import plus the median of
SETUP_REPEATS set-ups. Then rounds of the workload's three operations
run for ``--seconds``; every operation's output is checked, and a failed
check counts as a failed attempt.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported.
With ``--trace 1`` the round runs untraced and traced in turn for
``--seconds`` (at least TRACE_KEPT times each), and the per-layer metrics
of BENCHMARK.json come from the traced rounds; their spans are written to
``.bench_results/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_results"
SETUP_REPEATS = 3
# Spans of the first TRACE_KEPT traced rounds stay in memory (about 600k
# per cc_search round) and are written out; later traced rounds within
# --seconds add only to the counts check, the medians and the overhead.
TRACE_KEPT = 2
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("rhombus", "nbody", "cc_search")


def _seed(text: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return value


def _seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"seconds must be a positive number, got {text!r}")
    return value


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=_seed)
    parser.add_argument("--seconds", required=True, type=_seconds)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "absent"
    return {"python": platform.python_version(), **versions,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "threads": {v: os.environ[v] for v in THREAD_VARIABLES}}


def tail(values: list) -> tuple:
    """Highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return None, None
    percentile = math.floor(100.0 * (n - 10) / n)
    rank = max(1, math.ceil(percentile / 100.0 * n))
    return percentile, ordered[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Attempts and failures over every checked operation of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, results) -> None:
        for _, _, attempts, failures in results:
            self.attempted += attempts
            self.failed += failures


def set_up(workload, tally: Tally) -> float:
    """Generate the inputs and run one warm-up round; return the seconds taken."""
    t0 = time.perf_counter()
    tally.add(workload.run_round(repeat=False))
    return time.perf_counter() - t0


def timed_rounds(workload, seconds: float, tally: Tally) -> list:
    """Run rounds until their time adds up to ``seconds``."""
    rounds = []
    timed = 0.0
    while timed < seconds:
        t0 = time.perf_counter()
        results = workload.run_round()
        timed += time.perf_counter() - t0
        tally.add(results)
        rounds.append(results)
    return rounds


def fastest(calls: list) -> float:
    """Sum over an operation's calls of each call's fastest time in the run.

    Other tenants of a shared host only ever add time, so the fastest of
    repeated identical calls is the steadiest estimate of their cost.
    """
    return sum(min(column) for column in zip(*calls))


def end_to_end(workload, rounds: list, setup_s: float, spec: dict) -> tuple:
    """End-to-end metric values plus the text lines that describe them."""
    lines = []
    values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}
    by_name = {}
    for slot, op_name in enumerate(workload.op_names, start=1):
        calls = [r[slot - 1][1] for r in rounds if not any(map(math.isnan, r[slot - 1][1]))]
        totals = [sum(c) for c in calls]
        best = fastest(calls) if calls else math.nan
        value = workload.op_value(op_name, best)
        values[f"op{slot}_s"] = by_name[op_name] = value
        percentile, tail_value = tail(totals)
        tail_text = f"p{percentile}={tail_value:.6f}" if percentile else "tail=n/a"
        median = statistics.median(totals) if totals else math.nan
        lines.append(f"{op_name} (op{slot}_s) = {value:.6f} s; calls per round: "
                     f"fastest={best:.6f} s median={median:.6f} s {tail_text} n={len(totals)}")
    lines.extend(workload.summary_lines(by_name))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    return metrics, lines


def per_layer(summaries: list, untraced: list, traced: list, spec: dict) -> dict:
    """Per-layer metric values from the traced rounds' summaries."""
    def value_of(summary, name):
        functions, counters = summary["functions"], summary["counters"]
        if name == "trace.spans":
            return summary["spans"]
        if name in counters:
            return counters[name]
        if name.startswith("central_config.refine."):
            refine = functions.get("central_config.refine_cc", {"calls": 0, "errors": 0})
            converged = refine["calls"] - refine["errors"]
            return {"attempts": refine["calls"], "converged": converged,
                    "converged_ratio": converged / refine["calls"] if refine["calls"] else 0.0
                    }[name.rsplit(".", 1)[1]]
        if name == "dynamics.integrate.us_per_step":
            steps = counters["dynamics.steps"]
            integrate = functions.get("dynamics.integrate", {"s": 0.0})
            return 1e6 * integrate["s"] / steps if steps else 0.0
        function, field = name.rsplit(".", 1)
        entry = functions.get(function, {"calls": 0, "s": 0.0, "self_s": 0.0})
        return {"calls": entry["calls"], "ms": 1e3 * entry["s"],
                "self_ms": 1e3 * entry["self_s"]}[field]

    metrics = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_pct":
            value = 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
        elif m["unit"] == "ms" or name.endswith("us_per_step") or name.endswith("_ratio"):
            value = statistics.median(value_of(s, name) for s in summaries)
        else:
            value = value_of(summaries[0], name)
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics


def traced_rounds(workload, seconds: float, tally: Tally, tracer) -> tuple:
    """Alternate untraced and traced rounds.

    Returns the untraced and traced round times, one summary per traced
    round, and the first traced round's calls per function for each
    operation.
    """
    untraced, traced, summaries = [], [], []
    start = time.perf_counter()
    while len(traced) < TRACE_KEPT or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        tally.add(workload.run_round(repeat=False))
        untraced.append(time.perf_counter() - t0)
        tracer.install()
        try:
            mark = tracer.mark()
            first_op = tracer.op_id + 1
            t0 = time.perf_counter()
            tally.add(workload.run_round(tracer, repeat=False))
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary(mark))
        if len(traced) == 1:
            names = ("generate",) + workload.op_names
            by_op = {names[op - first_op]: calls
                     for op, calls in tracer.calls_by_operation(mark).items()}
        if len(traced) > TRACE_KEPT:
            tracer.truncate(mark)
    return untraced, traced, summaries, by_op


def counts_of(summary: dict) -> dict:
    calls = {name: entry["calls"] for name, entry in summary["functions"].items()}
    return {"calls": calls, "counters": summary["counters"], "spans": summary["spans"]}


def main(argv=None) -> int:
    run_start = time.perf_counter()
    args = parse_args(argv)
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    src = ROOT / "src"
    if not (src / "harmonia" / "__init__.py").is_file():
        return fail(f"no harmonia sources under {src}; run from the root of a checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    try:
        import numpy  # noqa: F401  (timed as part of set-up)
        import harmonia.cli  # noqa: F401
    except ImportError as exc:
        return fail(f"cannot import harmonia from {src}: {exc}")
    import_s = time.perf_counter() - t0
    if Path(harmonia.__file__).resolve().parent != (src / "harmonia").resolve():
        return fail(f"imported harmonia from {harmonia.__file__}, not from {src}")

    import tracer as tracing
    import workloads

    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, workdir, args.seed)
        tally = Tally()
        setups = [set_up(workload, tally) for _ in range(SETUP_REPEATS)]

        env = environment()
        print("env " + json.dumps(env, sort_keys=True))
        print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}")
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": env, "setup_runs_s": setups,
                  "import_s": import_s}
        if args.trace == 0:
            rounds = timed_rounds(workload, args.seconds, tally)
            setup_s = import_s + statistics.median(setups)
            metrics, lines = end_to_end(workload, rounds, setup_s, spec)
            record["rounds"] = [[list(op) for op in r] for r in rounds]
        else:
            tracer = tracing.Tracer()
            untraced, traced, summaries, by_op = traced_rounds(workload, args.seconds, tally,
                                                               tracer)
            reference = counts_of(summaries[0])
            for summary in summaries[1:]:
                tally.attempted += 1
                if counts_of(summary) != reference:
                    tally.failed += 1
                    print("check failed: call counts differ between traced rounds")
            metrics = per_layer(summaries, untraced, traced, spec)
            lines = [f"traced rounds={len(traced)} untraced median="
                     f"{statistics.median(untraced):.6f} s traced median="
                     f"{statistics.median(traced):.6f} s"]
            record["summaries"] = summaries
            record["calls_by_operation"] = by_op
            spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.npz"
            tracer.write(spans_path, origin=run_start)
            lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
        error_ratio = tally.failed / tally.attempted
        lines.append(f"error_ratio = {error_ratio:.6g} ({tally.failed}/{tally.attempted})")
        for line in lines:
            print(line)
        for name, metric in metrics.items():
            print(f"{name} = {metric['value']:.9g} {metric['unit']}")
        record.update(metrics=metrics, lines=lines, attempted=tally.attempted,
                      failed=tally.failed)
        out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
