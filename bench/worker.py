"""One timed repetition of a workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N [--trace-out PATH]

Imports wittmod and builds every job's inputs (timed as set-up), then runs
each job once in this process, one at a time, and prints one JSON object on
stdout.  With --trace-out the per-layer tracer is installed before set-up,
and its spans and counters are written to PATH.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

# polynomial pairs for the reference kernel, and its rounds per chunk
_REF_F = {(("x", i), ("y", j)): i - 2 * j + 1 for i in range(1, 7)
          for j in range(1, 7)}
_REF_G = {(("x", i), ("y", j)): 3 * i + j - 4 for i in range(1, 6)
          for j in range(1, 6)}
REFERENCE_ROUNDS = 80
# seconds one chunk takes on an idle host of the kind described in run.py
REFERENCE_NOMINAL_S = 0.075


def reference_chunk() -> Tuple[float, float]:
    """Wall and CPU seconds for a fixed sparse-polynomial product.

    It does the kind of work wittmod's scalar layer does (tuple monomials,
    dict accumulation) in plain Python but shares no code with wittmod, so
    its times track only how fast this host runs Python at the moment.
    """
    t0, c0 = time.perf_counter(), time.process_time()
    for _ in range(REFERENCE_ROUNDS):
        out: Dict = {}
        for m1, c1 in _REF_F.items():
            for m2, c2 in _REF_G.items():
                d = dict(m1)
                for name, e in m2:
                    d[name] = d.get(name, 0) + e
                k = tuple(sorted(d.items()))
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
    return time.perf_counter() - t0, time.process_time() - c0


def run_pass(jobs, tracer=None) -> Dict:
    """Run every job once; a mismatch or exception is recorded, not raised.

    Each job is recorded as [id, wall s, CPU s, mismatch note or ""].  A
    reference chunk runs before each job and after the last, outside the
    jobs' timings, to sample the host's speed throughout the pass.  Traced,
    the seconds the tracer booked to its own work during each job are
    recorded too: a job's wall time minus them is the time of the wittmod
    layers in it.
    """
    results: List[list] = []
    reference: List[Tuple[float, float]] = []
    booked: List[float] = []
    for job in jobs:
        reference.append(reference_chunk())
        if tracer is not None:
            tracer.start_job(job.id)
            booked0 = tracer.overhead[0]
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                result = job.run()
            else:
                with tracer.span("bench.job"):
                    result = job.run()
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            note = job.check(result)
        except Exception as exc:  # a failing job must not stop the pass
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            note = "raised %s: %s" % (type(exc).__name__,
                                      traceback.format_exc(limit=-1).strip())
        results.append([job.id, wall, cpu, note])
        if tracer is not None:
            booked.append(tracer.overhead[0] - booked0)
    reference.append(reference_chunk())
    out = {"wall_s": sum(r[1] for r in results),
           "cpu_s": sum(r[2] for r in results), "jobs": results,
           "reference_s": [r[0] for r in reference],
           "reference_cpu_s": [r[1] for r in reference]}
    if tracer is not None:
        tracer.finish()
        out["job_trace_s"] = booked
    return out


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import workloads
    tracer = None
    if args.trace_out is not None:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        with tracer.span("bench.setup"):
            jobs = workloads.build(args.workload, args.seed)
    else:
        jobs = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - t0

    if tracer is None:
        out = run_pass(jobs)
    else:
        with tracer.span("bench.pass"):
            out = run_pass(jobs, tracer)
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        out["self_s"] = {layer: rec[2] for layer, rec
                         in sorted(tracer.layer_totals().items())}
        out["spans"] = len(tracer.spans)
        write_trace(tracer, Path(args.trace_out))
    out["setup_s"] = setup_s
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


def write_trace(tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump({"fields": ["id", "parent", "job", "name", "start", "end",
                              "self_s", "extra", "trace_s"],
                   "spans": tracer.spans,
                   "counters": [[layer, parent] + rec for (layer, parent), rec
                                in sorted(tracer.counters.items())]}, fh)


if __name__ == "__main__":
    sys.exit(main())
