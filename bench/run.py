"""Layered benchmark for wittmod certificate jobs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (defined, with the reason each
exists, in bench/workloads.py):

    identities   action-axiom, chain-map, Shen and torsion identities
    saturation   `irreducible` on the saturation branch
    subspaces    transporter vs kernel, witness branches, homology tables

Each repetition is one pass over the workload's jobs in a fresh interpreter
(bench/worker.py), one job at a time with no threads: that is the cold
cost a CLI user pays on every call.  Repetitions run back to back, a closed
loop with one client, until the next one would end after S seconds (at
least three).  Every job's output is checked against a seed-independent
expectation; a mismatch or exception is counted, not raised.

--trace 0 reports the end-to-end metrics, medians over repetitions:
    wall_s       wall time of one pass over the jobs
    cpu_s        process CPU time of that pass
    max_job_s    time of the slowest job in the pass
    peak_rss_mb  peak resident set size of the worker process
    setup_s      import of wittmod plus building every job's inputs
and prints fail_ratio (failed jobs / attempted jobs) beside them.

The four times are reported at a fixed host speed.  On a shared machine
the speed at which this host runs Python drifts by up to 1.8x within tens
of seconds (other tenants), which would swamp any change to wittmod.  So
between jobs the worker times a fixed plain-Python reference kernel
(bench/worker.py, no wittmod code), and each job's times are multiplied by
REFERENCE_NOMINAL_S / (mean of the chunks just before and after it): what
the job would take on a host that runs the kernel in REFERENCE_NOMINAL_S
(about an idle 2-vCPU Xeon KVM guest).  Wall times are scaled by the
chunks' wall times and CPU time by their CPU times, so time stolen by the
hypervisor, which slows the wall clock but not the process's CPU clock,
does not shrink cpu_s.  The measured medians are printed beside the
reported values and kept, per repetition, in the results file.

--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of bench/tracer.py (medians over traced repetitions),
trace_overhead_ratio (traced over untraced wall time) and
trace_accounted_ratio: traced wall time minus the time the tracer booked
to its own work, over untraced wall time (median over the pairs of
repetitions, host-scaled).  The numerator is the time the traced run gives
the wittmod layers; the run fails when the ratio is off 1 by more than
ACCOUNTING_SLACK, that is when tracer cost leaks into the layer self
times.  The self-time share of each wittmod layer is printed too.  The
spans and counters of the last traced repetition are written to
.bench_out/trace-<workload>-seed<N>.json.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  Every result, with the machine description and the load average
at start and end, is also written to .bench_out/.  The exit code is 0 only
when every job passed.  To print every metric for every workload:

    for w in identities saturation subspaces; do
        python3 bench/run.py --workload $w --seed 1 --seconds 40 --trace 0
    done
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from worker import REFERENCE_NOMINAL_S

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"
MIN_REPS = 3
# traced runs make at least this many (untraced, traced) pairs
MIN_PAIRS = 3
# stop starting repetitions past this many seconds, whatever --seconds says,
# so that a run ends well within its 180 s limit
HARD_LIMIT_S = 140.0
# how far trace_accounted_ratio may be from 1 before a traced run fails.
# On a shared 2-vCPU KVM guest it measured 1.0-1.15 per run (single pairs
# 0.7-1.5): host noise between repetitions, plus tracer cost that the
# no-op calibration misses (caches, interpreter paths).  Booking none of
# the tracer's time would give 1.4-2.0.
ACCOUNTING_SLACK = 0.3


# ---------------------------------------------------------------------------
# machine and run description
# ---------------------------------------------------------------------------

def _read(path: Path) -> Optional[str]:
    try:
        return path.read_text()
    except OSError:
        return None


def loadavg() -> str:
    text = _read(Path("/proc/loadavg"))
    return " ".join(text.split()[:3]) if text else "unknown"


def cpu_model() -> str:
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    head = (_read(git / "HEAD") or "").strip()
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    loose = _read(git / ref)
    if loose:
        return loose.strip()
    for line in (_read(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine() -> Dict[str, object]:
    return {"nproc": os.cpu_count(), "cpu": cpu_model(),
            "python": "%s %s" % (platform.python_implementation(),
                                 platform.python_version()),
            "commit": git_commit()}


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------

def run_worker(workload: str, seed: int, timeout: float,
               trace_out: Optional[Path] = None) -> Dict:
    """One repetition in a fresh interpreter; {"error": ...} on failure."""
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    # a fixed hash seed keeps set and dict orders, and so the work done,
    # identical across repetitions
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=str(ROOT), env=env, timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        return {"error": "worker timed out after %.0f s" % timeout}
    if proc.returncode != 0:
        return {"error": "worker exited %d: %s" % (
            proc.returncode, proc.stderr.strip()[-2000:])}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return {"error": "unreadable worker output: %r" % proc.stdout[-500:]}


def repeat(workload: str, seed: int, seconds: float, traced: bool):
    """Repetitions until the next would end past `seconds`.

    Untraced runs make at least MIN_REPS repetitions; traced runs alternate
    an untraced and a traced repetition, at least MIN_PAIRS pairs.  Both
    stop early at HARD_LIMIT_S.
    """
    start = time.monotonic()
    plain: List[Dict] = []
    tracing: List[Dict] = []
    rounds: List[float] = []
    trace_out = OUT / ("trace-%s-seed%d.json" % (workload, seed))
    while True:
        r0 = time.monotonic()
        for trace in ((False, True) if traced else (False,)):
            left = HARD_LIMIT_S + 30 - (time.monotonic() - start)
            rep = run_worker(workload, seed, max(left, 1.0),
                             trace_out if trace else None)
            (tracing if trace else plain).append(rep)
            if "error" in rep:
                return plain, tracing
        rounds.append(time.monotonic() - r0)
        next_end = time.monotonic() - start + statistics.median(rounds)
        enough = len(plain) >= (MIN_PAIRS if traced else MIN_REPS)
        if next_end > HARD_LIMIT_S or (enough and next_end > seconds):
            return plain, tracing


# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------

def spread(values: List[float]) -> str:
    if len(values) < 2:
        return "n=%d" % len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return "q1 %.6g  q3 %.6g  n=%d" % (q1, q3, len(values))


def end_to_end(rep: Dict) -> Dict[str, float]:
    """Host-scaled end-to-end metrics of one repetition.

    Each job's times are scaled by the mean of the reference chunks timed
    just before and just after it (wall by wall, CPU by CPU), and set-up by
    the first chunk, the nearest one in time.
    """
    walls = [j[1] * k for j, k in zip(rep["jobs"], scales(rep["reference_s"]))]
    cpus = [j[2] * k for j, k
            in zip(rep["jobs"], scales(rep["reference_cpu_s"]))]
    return {"wall_s": sum(walls), "cpu_s": sum(cpus),
            "max_job_s": max(walls),
            "peak_rss_mb": rep["peak_rss_mb"],
            "setup_s": rep["setup_s"] * REFERENCE_NOMINAL_S
            / rep["reference_s"][0]}


def scales(ref: List[float]) -> List[float]:
    """Per job, nominal over the mean of the chunks around it."""
    return [2 * REFERENCE_NOMINAL_S / (a + b) for a, b in zip(ref, ref[1:])]


def accounted_wall(rep: Dict) -> float:
    """Host-scaled wall time of a traced pass minus the tracer's own time."""
    return sum((j[1] - t) * k for j, t, k in zip(
        rep["jobs"], rep["job_trace_s"], scales(rep["reference_s"])))


def measured(rep: Dict) -> Dict[str, float]:
    return {"wall_s": rep["wall_s"], "cpu_s": rep["cpu_s"],
            "max_job_s": max(j[1] for j in rep["jobs"]),
            "peak_rss_mb": rep["peak_rss_mb"], "setup_s": rep["setup_s"]}


def shares(tracing: List[Dict]) -> str:
    """Median self time of each wittmod layer as a share of their sum.

    The bench.* frames (set-up and pass glue, reference chunks, output
    checks, the tracer's own work) are left out.
    """
    layers = [layer for layer in tracing[0]["self_s"]
              if not layer.startswith("bench.")]
    med = {layer: statistics.median(r["self_s"][layer] for r in tracing)
           for layer in layers}
    total = sum(med.values())
    return ", ".join("%s %.1f%%" % (layer, 100 * v / total) for layer, v
                     in sorted(med.items(), key=lambda kv: -kv[1])
                     if v >= 0.0005 * total)


def tally(reps: List[Dict]):
    """(attempted, failed, problems) over every job of every repetition.

    A repetition that crashed counts as one failed attempt.
    """
    attempted = failed = 0
    problems: List[str] = []
    for rep in reps:
        if "error" in rep:
            attempted += 1
            failed += 1
            problems.append(rep["error"])
            continue
        for job_id, _, _, note in rep["jobs"]:
            attempted += 1
            if note:
                failed += 1
                problems.append("%s: %s" % (job_id, note))
    return attempted, failed, problems


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads(SPEC.read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "wittmod" / "__init__.py").is_file():
        print("error: wittmod sources not found under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    declared = [m["name"] for m in
                spec["per_layer" if args.trace else "end_to_end"]]

    run_info = dict(machine(), loadavg_start=loadavg(),
                    workload=args.workload, seed=args.seed,
                    seconds=args.seconds, trace=args.trace)
    plain, tracing = repeat(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    run_info["loadavg_end"] = loadavg()
    attempted, failed, problems = tally(plain + tracing)
    plain = [r for r in plain if "error" not in r]
    tracing = [r for r in tracing if "error" not in r]

    lines = ["workload %s, seed %d, trace %d: %d untraced and %d traced "
             "repetitions, one fresh interpreter each"
             % (args.workload, args.seed, args.trace, len(plain),
                len(tracing)),
             "machine: nproc=%(nproc)s cpu=%(cpu)r python=%(python)s "
             "commit=%(commit)s loadavg start=%(loadavg_start)s "
             "end=%(loadavg_end)s" % run_info]
    values: Dict[str, float] = {}
    if plain:
        chunks = [c for r in plain for c in r["reference_s"]]
        lines.append("host speed: reference chunk median %.6g s (quartiles "
                     "%s), nominal %.6g s" % (statistics.median(chunks),
                                              spread(chunks),
                                              REFERENCE_NOMINAL_S))
        lines.append("%-12s %12s %-5s  %s" % ("metric", "reported", "unit",
                                              "measured median, quartiles"))
        scaled = [end_to_end(r) for r in plain]
        raw = [measured(r) for r in plain]
        for name in scaled[0]:
            values[name] = statistics.median(r[name] for r in scaled)
            vals = [r[name] for r in raw]
            lines.append("%-12s %12.6g %-5s  %.6g (%s)" % (
                name, values[name], units[name], statistics.median(vals),
                spread(vals)))
        lines.append("%-12s %12.6g %-5s  %d failed of %d jobs attempted"
                     % ("fail_ratio", failed / max(attempted, 1), "ratio",
                        failed, attempted))
        if args.trace and tracing:
            values = {}
            for name in tracing[0]["layers"]:
                values[name] = statistics.median(
                    r["layers"][name] for r in tracing)
            untraced = statistics.median(r["wall_s"] for r in scaled)
            values["trace_overhead_ratio"] = statistics.median(
                end_to_end(r)["wall_s"] for r in tracing) / untraced
            values["trace_accounted_ratio"] = statistics.median(
                accounted_wall(t) / end_to_end(u)["wall_s"]
                for u, t in zip(plain, tracing))
            if abs(values["trace_accounted_ratio"] - 1) > ACCOUNTING_SLACK:
                problems.append(
                    "traced wall time minus the tracer's own time is %.3f "
                    "of the untraced wall time, beyond 1 +- %g" % (
                        values["trace_accounted_ratio"], ACCOUNTING_SLACK))
            lines.extend("%-28s %14.6g %s" % (name, v, units[name])
                         for name, v in values.items())
            lines.append("self-time shares of the wittmod layers in the "
                         "traced run: " + shares(tracing))
    if values and set(values) != set(declared):
        problems.append("reported metrics differ from %s: %s" % (
            SPEC.name, sorted(set(values) ^ set(declared))))
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in declared if name in values}
    correct = not problems and bool(metrics)
    lines.extend("FAILED %s" % p for p in problems)

    OUT.mkdir(exist_ok=True)
    (OUT / ("result-%s-seed%d-trace%d.json"
            % (args.workload, args.seed, args.trace))).write_text(json.dumps(
                {"run": run_info, "metrics": metrics, "problems": problems,
                 "untraced": plain, "traced": tracing}, indent=1))
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
