#!/usr/bin/env python3
"""Benchmark of the unchained library: three workloads behind one command.

Run from the root of the repository (the package is imported from ``src``):

    python3 perfbench/run.py --workload families --seed 0 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends the first
half of ``--seconds`` on untraced passes and the second half on traced ones,
and prints the per-layer metrics with ``trace.overhead_s``.  A run repeats
its workload's timed pass while another pass still fits in ``--seconds``
(always at least one pass) and reports medians over passes.

The end-to-end times (set-up, pass wall and CPU time, query latency) are
rescaled to one host speed by the probe of ``speed.py``, which runs every
50 ms inside the measuring process; the raw times are printed beside them
and kept in the results file.  The per-layer times of ``--trace 1`` are raw
program time (probe time left out), and its ``trace.overhead_s`` is the
difference of rescaled pass times.

The last line of standard output is one JSON object; the exit code is 1
when a correctness check failed and 2 when the package cannot be found.
Inputs, results and the environment stamp are written under
``perfbench/out``.
See ``perfbench/README.md`` for the workloads and what each metric means.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# one BLAS thread: the matrices are tiny, and a single thread keeps the
# process at one core of the two the runs are sized for.  Set before numpy
# is first imported, here or in the set-up interpreters.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

from speed import NOMINAL_S, Speed  # noqa: E402  (imports numpy)
from tracer import COUNTS, PER_LAYER, Tracer  # noqa: E402

# a fresh interpreter imports the CLI, then times the probe on its own CPU
IMPORT = ("import sys; sys.path[:0] = sys.argv[1:3]; import unchained.cli; "
          "import json, statistics, speed; s = speed.Speed(); s.burst(10); "
          "print(json.dumps([statistics.median(s.durations), "
          "sum(s.durations)]))")

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"), ("query_ms.p50", "ms"), ("query_ms.p99", "ms"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("families", "orbits", "catalog"))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0; validate on 17)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time of one run (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb():
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def _source_hash():
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("unchained/*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_commit():
    """HEAD of the checkout, read from .git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(load_start):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "git_commit": _git_commit(),
        "source_sha256": _source_hash(),
    }


def _setup(workload, seed, workdir, speed):
    """One set-up: (raw seconds, rescaled seconds, inputs, state).

    The probes of the interpreter that imports the CLI rescale its time, and
    this process's probes the rest.
    """
    began = time.perf_counter()
    with speed.paused():
        child = subprocess.run([sys.executable, "-c", IMPORT, str(SRC),
                                str(HERE)],
                               check=True, capture_output=True, text=True)
        child_end = time.perf_counter()
    inputs = workload.inputs(seed)
    state = workload.setup(inputs, workdir)
    ended = time.perf_counter()
    probe, probe_total = json.loads(child.stdout)
    child_raw = child_end - began - probe_total
    raw, ref = speed.rescale(child_end, ended)
    return (child_raw + raw, child_raw * NOMINAL_S / probe + ref,
            inputs, state)


def _measure(workload, state, seconds, speed, traced=False):
    """Repeat the timed pass while another one fits in `seconds`.

    Probe time is taken out of each pass's raw wall, CPU and query times,
    and the times rescaled by the probes go under the ``*_ref`` keys.
    """
    passes = []
    start = time.perf_counter()
    while True:
        tracer = Tracer(speed.clock) if traced else None
        cpu = _cpu_seconds()
        began = time.perf_counter()
        if tracer:
            tracer.install()
        try:
            spans, ops = workload.run_pass(state)
        finally:
            if tracer:
                tracer.uninstall()
        ended = time.perf_counter()
        cpu = _cpu_seconds() - cpu - speed.probes_in(began, ended)
        wall, wall_ref = speed.rescale(began, ended)
        record = {"wall_s": wall, "cpu_s": cpu, "wall_ref_s": wall_ref,
                  "cpu_ref_s": cpu * wall_ref / wall,
                  "latencies": [speed.rescale(a, b)[0] for a, b in spans],
                  "latencies_ref": [speed.rescale(a, b)[1] for a, b in spans],
                  "ops": ops, "tracer": tracer}
        workload.check(state, ops)
        passes.append(record)
        if time.perf_counter() - start + (ended - began) > seconds:
            return passes


def _end_to_end(setup_times, passes, ref=""):
    """End-to-end metrics; query percentiles are medians of per-pass ones.

    ``ref="_ref"`` gives them from the rescaled times, ``ref=""`` from the
    raw ones.
    """
    import numpy

    def per_pass(q):
        return statistics.median(
            1e3 * float(numpy.percentile(p["latencies" + ref], q))
            for p in passes)

    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(p[f"wall{ref}_s"] for p in passes),
        "cpu_s": statistics.median(p[f"cpu{ref}_s"] for p in passes),
        "peak_rss_mb": _peak_rss_mb(),
        "query_ms.p50": per_pass(50),
        "query_ms.p99": per_pass(99),
    }


def _per_layer(workload, seed, plain, traced, notes):
    """Per-layer metrics of the traced passes, with the exact-count checks.

    Counts come from the first traced pass and must repeat in every other
    traced pass and in earlier traced runs of the same code and seed; times
    are medians over the traced passes.
    """
    snaps = [p["tracer"].snapshot() for p in traced]
    metrics = {name: statistics.median(s[name] for s in snaps)
               for name, _, _ in PER_LAYER if name != "trace.overhead_s"}
    counts = {name: snaps[0][name] for name in COUNTS}
    metrics.update(counts)
    metrics["trace.overhead_s"] = (
        statistics.median(p["wall_ref_s"] for p in traced)
        - statistics.median(p["wall_ref_s"] for p in plain))
    for i, snap in enumerate(snaps[1:], start=2):
        moved = [n for n in COUNTS if snap[n] != counts[n]]
        if moved:
            notes["count_mismatch"].append(f"traced pass {i} differs from "
                                           f"pass 1 in {moved}")
    stored = (OUT / "counts"
              / f"{workload.name}-seed{seed}-{_source_hash()[:16]}.json")
    if stored.is_file():
        before = json.loads(stored.read_text())
        moved = [n for n in COUNTS if before.get(n) != counts[n]]
        if moved:
            notes["count_mismatch"].append(
                f"counts differ from the earlier traced run in {stored.name}: "
                + ", ".join(f"{n} {before.get(n)} -> {counts[n]}"
                            for n in moved))
    else:
        stored.parent.mkdir(parents=True, exist_ok=True)
        stored.write_text(json.dumps(counts, indent=1) + "\n")
    notes["unmeasured"] = [n for n in workload.predicted if not metrics[n]]
    return metrics


def _check_names(metrics, trace):
    """The metric names must be exactly those BENCHMARK.json declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    names = {m["name"] for m in declared[key]}
    if names != set(metrics):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ names)} "
                         f"disagree with BENCHMARK.json {key}")


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "unchained" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'unchained'}; run the benchmark "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    load_start = list(os.getloadavg())
    sys.path.insert(0, str(SRC))
    import unchained
    if Path(unchained.__file__).resolve().parent != SRC / "unchained":
        print(f"error: imported {unchained.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    speed = Speed()
    raw = {}
    try:
        speed.start()
        setup_times, setup_ref = [], []
        for _ in range(1 if args.trace else workload.setup_repeats):
            seconds, seconds_ref, inputs, state = _setup(
                workload, args.seed, workdir, speed)
            setup_times.append(seconds)
            setup_ref.append(seconds_ref)
        notes = {"count_mismatch": [], "unmeasured": []}
        if args.trace:
            plain = _measure(workload, state, args.seconds / 2, speed)
            traced = _measure(workload, state, args.seconds / 2, speed,
                              traced=True)
            passes = plain + traced
            metrics = _per_layer(workload, args.seed, plain, traced, notes)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            passes = _measure(workload, state, args.seconds, speed)
            metrics = _end_to_end(setup_ref, passes, ref="_ref")
            raw = _end_to_end(setup_times, passes)
            units = dict(END_TO_END)
    finally:
        speed.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if op["error"] or op["failures"]]
    if not args.trace:
        metrics["success_ratio"] = 1.0 - len(failed) / len(ops)
    _check_names(metrics, args.trace)
    correct = not failed and not notes["count_mismatch"]

    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    base = f"{args.workload}-seed{args.seed}"
    (results / f"{base}-inputs.json").write_text(
        json.dumps(inputs, indent=1) + "\n")
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": _environment(load_start),
        "setup_s": setup_times,
        "setup_ref_s": setup_ref,
        "probes": {"count": len(speed.durations),
                   "median_s": statistics.median(speed.durations)},
        "passes": [{"wall_s": p["wall_s"], "cpu_s": p["cpu_s"],
                    "wall_ref_s": p["wall_ref_s"],
                    "cpu_ref_s": p["cpu_ref_s"],
                    "queries": len(p["latencies"]),
                    "traced": p["tracer"] is not None,
                    "spans": p["tracer"] and p["tracer"].all_spans()}
                   for p in passes],
        "failures": [{"op": op["op"], "error": op["error"],
                      "failures": op["failures"]} for op in failed],
        **notes,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
        "raw_metrics": raw,
    }
    out_path = results / f"{base}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    out_path.write_text(json.dumps(report, indent=1, default=str) + "\n")

    for name, value in metrics.items():
        line = f"{args.workload} {name} = {value:.6g} {units[name]}"
        if name in raw and name != "peak_rss_mb":
            line += f" (raw {raw[name]:.6g})"
        print(line)
    if not args.trace:
        print(f"{args.workload} queries per pass = "
              f"{len(passes[0]['latencies'])}, passes = {len(passes)}")
    for name in notes["unmeasured"]:
        print(f"UNMEASURED: {name} recorded no work on {args.workload}, "
              f"where it is predicted to run", file=sys.stderr)
        print(f"UNMEASURED: {name}")
    for line in notes["count_mismatch"]:
        print(f"COUNT MISMATCH: {line}", file=sys.stderr)
    for op in failed[:10]:
        print(f"FAILED: {op['op']}: {op['error'] or op['failures']}",
              file=sys.stderr)
    if len(failed) > 10:
        print(f"FAILED: {len(failed) - 10} more, listed in the results file",
              file=sys.stderr)
    print(f"results: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": len(failed),
                      "metrics": {n: {"value": v, "unit": units[n]}
                                  for n, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
