"""Benchmark of the heisenrep library: one workload per invocation.

    python3 benchmarks/run.py --workload construct|verify|query \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ``src/`` next to
this directory, never from an installed copy; without it the run exits with
code 2 before measuring anything.

With ``--trace 0`` the end-to-end metrics are measured with the host-speed
probe of ``speed.py`` running, and every time is scaled by it to a host of
fixed speed: set-up is repeated ``SETUP_REPEATS`` times (median reported),
then whole passes over the workload's operations run for ``--seconds``.
Every pass runs the same operations in the same order.  ``wall_s`` is the
median over passes of a pass's time; ``op_p50_ms`` and ``op_p99_ms`` are
percentiles over the operations of each one's median time over passes, so
that a pause which hits one execution of an operation does not count as
that operation's latency.

With ``--trace 1`` the probe is off and times are raw: untraced passes fill
the first half of the time and traced passes the second; the per-layer
metrics come from the traced passes and the span file is written under
``benchmarks/out/``.  Everything runs in this one process and its main
thread.

The last line of standard output is the result object; the line before it
records the environment and the operation counts.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import threading
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3
MIN_PASSES = 2    # so that no run's figures rest on a single pass

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("ok_ratio", "ratio"),
]


def _no_span(_label):
    return nullcontext()


def import_library():
    """Import heisenrep from SRC, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import heisenrep

    where = Path(heisenrep.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError("heisenrep was found at %s, not under %s" % (where, SRC))
    return heisenrep


def git_sha():
    """HEAD of the enclosing git checkout, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args):
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def timed_passes(wl, seconds, tracer=None, min_passes=1):
    """Run whole passes while the next one, taking as long as the last,
    ends within ``seconds``, and at least ``min_passes``.

    Returns (spans, failures, per-layer metrics or None) per pass, where
    spans holds the ``speed.now()`` readings around each operation.
    """
    passes = []
    start = last = perf_counter()
    while len(passes) < min_passes or 2 * perf_counter() - last - start <= seconds:
        last = perf_counter()
        gc.collect()
        if tracer is None:
            spans, failed = wl.run_pass(_no_span)
            passes.append((spans, failed, None))
        else:
            tracer.begin_pass()
            spans, failed = wl.run_pass(tracer.op)
            passes.append((spans, failed, tracer.pass_metrics(len(spans))))
    return passes


def raw_wall(spans):
    return sum(t1 - t0 for (t0, t1) in spans)


def op_percentiles(times):
    """(median, 99th percentile) over operations of each operation's median
    time over passes; ``times`` holds one list of operation times per pass.

    The inclusive method never puts the percentile beyond the slowest
    operation, which the default does for passes of a few operations.
    """
    per_op = [statistics.median(column) for column in zip(*times)]
    p99 = statistics.quantiles(per_op, n=100, method="inclusive")[98]
    return statistics.median(per_op), p99


def run_untraced(cls, args):
    setups = []
    wl = None
    for _ in range(SETUP_REPEATS):
        wl = None
        gc.collect()
        t0 = speed.now()
        wl = cls(args.seed)
        wl.setup()
        setups.append(speed.nominal(t0, speed.now()))
    passes = timed_passes(wl, args.seconds, min_passes=MIN_PASSES)
    times = [[speed.nominal(t0, t1) for (t0, t1) in spans]
             for (spans, _f, _m) in passes]
    walls = [sum(pass_times) for pass_times in times]
    p50, p99 = op_percentiles(times)
    ops = sum(len(spans) for (spans, _f, _m) in passes)
    op_failed = sum(f for (_s, f, _m) in passes)
    chk_attempted, chk_failed = wl.final_checks()
    attempted = ops + chk_attempted
    failed = op_failed + chk_failed
    import_s = speed.nominal(*args.import_span)
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_p50_ms": 1e3 * p50,
        "op_p99_ms": 1e3 * p99,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": 1.0 - failed / attempted,
    }
    record = {
        "passes": len(passes),
        "ops_per_pass": [len(spans) for (spans, _f, _m) in passes],
        "ops": ops,
        "op_failures": op_failed,
        "final_checks": chk_attempted,
        "final_check_failures": chk_failed,
        "import_s": import_s,
        "setup_runs_s": setups,
        "pass_walls_s": walls,
        "raw_pass_walls_s": [raw_wall(spans) for (spans, _f, _m) in passes],
    }
    units = dict(END_TO_END)
    result = {name: {"value": metrics[name], "unit": units[name]}
              for (name, _u) in END_TO_END}
    return (wl, attempted, failed, result, record)


def run_traced(cls, args):
    from tracer import COUNT_METRICS, PER_LAYER, Tracer

    wl = cls(args.seed)
    wl.setup()
    base = timed_passes(wl, args.seconds / 2.0)
    tracer = Tracer()
    tracer.install()
    try:
        traced = timed_passes(wl, args.seconds / 2.0, tracer=tracer)
    finally:
        tracer.uninstall()
    base_wall = statistics.median(raw_wall(spans) for (spans, _f, _m) in base)
    traced_wall = statistics.median(raw_wall(spans) for (spans, _f, _m) in traced)
    layers = [m for (_s, _f, m) in traced]
    metrics = {}
    for (name, unit) in PER_LAYER:
        if unit == "s":
            metrics[name] = statistics.median(m[name] for m in layers)
        else:
            metrics[name] = layers[0][name]
    metrics["trace.overhead_s"] = traced_wall - base_wall
    ops = sum(len(spans) for (spans, _f, _m) in base + traced)
    op_failed = sum(f for (_s, f, _m) in base + traced)
    chk_attempted, chk_failed = wl.final_checks()
    OUT.mkdir(exist_ok=True)
    spans = tracer.write_spans(OUT / ("spans-%s-seed%d.jsonl.gz"
                                      % (args.workload, args.seed)))
    record = {
        "untraced_passes": len(base),
        "traced_passes": len(traced),
        "ops": ops,
        "op_failures": op_failed,
        "final_checks": chk_attempted,
        "final_check_failures": chk_failed,
        "untraced_pass_walls_s": [raw_wall(spans) for (spans, _f, _m) in base],
        "traced_pass_walls_s": [raw_wall(spans) for (spans, _f, _m) in traced],
        "spans": spans,
        "counts_repeat_across_traced_passes": all(
            m[name] == layers[0][name] for m in layers for name in COUNT_METRICS),
    }
    result = {name: {"value": metrics[name], "unit": unit}
              for (name, unit) in PER_LAYER}
    return (wl, ops + chk_attempted, op_failed + chk_failed, result, record)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not args.trace:
        speed.start()
    try:
        t0 = speed.now()
        try:
            import_library()
            from workloads import WORKLOADS
        except ImportError as exc:
            sys.stderr.write("error: cannot import the library: %s\n" % exc)
            return 2
        args.import_span = (t0, speed.now())
        cls = WORKLOADS.get(args.workload)
        if cls is None:
            sys.stderr.write("error: unknown workload %r; choose from %s\n"
                             % (args.workload, ", ".join(sorted(WORKLOADS))))
            return 2
        runner = run_traced if args.trace else run_untraced
        wl, attempted, failed, metrics, record = runner(cls, args)
    finally:
        speed.stop()
    record.update(environment(args))
    record["threads"] = threading.active_count()
    record["errors"] = wl.errors
    for err in wl.errors:
        sys.stderr.write("failure: %s\n" % err)
    OUT.mkdir(exist_ok=True)
    with open(OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                                  args.trace)), "w") as fh:
        json.dump({"record": record, "metrics": metrics}, fh, indent=1,
                  sort_keys=True)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and record["threads"] == 1,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
