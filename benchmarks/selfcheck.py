"""Self-check of the benchmark.

    python3 benchmarks/selfcheck.py

Run from the repository root.  Checks that BENCHMARK.json names exactly the
metrics the benchmark prints, then runs the traced run twice per workload
on seed ``SEED`` for ``SECONDS`` each, one run after the other, and asserts:

* every output check passed in both runs;
* every count metric (``*.calls``, ``*.madds``, ``symplectic.lagrangians``
  and the other per-layer metrics in unit ``count``) is identical across the
  two runs and across the traced passes within each run;
* the solver does no work in the timed phases of ``verify`` and ``query``;
* warm ``query`` passes make dense matrix products for at most a small
  fraction of the queries.

Exits 0 when every assertion holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SEED = 1
SECONDS = 30
# warm query passes: dense products per query, at most
QUERY_MAT_MUL_FRACTION = 0.05


def traced_run(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError("%s run exited %d:\n%s" % (workload, proc.returncode,
                                                      proc.stderr))
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    return record, result, {k: v["value"] for k, v in result["metrics"].items()}


def main():
    sys.path.insert(0, str(HERE))
    from run import END_TO_END
    from tracer import COUNT_METRICS, PER_LAYER

    problems = []

    def expect(ok, what):
        print("%s %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            problems.append(what)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, printed in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        expect(declared == list(printed),
               "BENCHMARK.json %s matches the printed metrics" % key)

    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [traced_run(workload) for _ in range(2)]
        for i, (record, result, _m) in enumerate(runs):
            expect(result["correct"] and result["failed"] == 0,
                   "%s run %d: all %d outputs checked correct"
                   % (workload, i + 1, result["attempted"]))
            expect(record["counts_repeat_across_traced_passes"],
                   "%s run %d: counts repeat across its %d traced passes"
                   % (workload, i + 1, record["traced_passes"]))
        (_r1, _res1, m1), (_r2, _res2, m2) = runs
        differ = [k for k in COUNT_METRICS if m1[k] != m2[k]]
        expect(not differ, "%s: count metrics identical across two runs%s"
               % (workload, "" if not differ else " (differ: %s)" % differ))
        print("     %s: trace overhead %.3f s per pass"
              % (workload, m1["trace.overhead_s"]))
        if workload in ("verify", "query"):
            expect(m1["intertwine.solve_canonical_system.calls"] == 0,
                   "%s: no solver calls in the timed phase" % workload)
        if workload == "query":
            expect(m1["kmat.mat_mul.calls"]
                   <= QUERY_MAT_MUL_FRACTION * m1["bench.ops"],
                   "query: %d dense products for %d queries"
                   % (m1["kmat.mat_mul.calls"], m1["bench.ops"]))

    print("self-check %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
