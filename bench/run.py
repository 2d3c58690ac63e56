"""surfimpute benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload turned|chirp|fill --seed N --seconds S --trace 0|1

Run from the root of a source tree; the library is imported from its
``src`` directory.  Set-up (import in a fresh interpreter, input
generation, warm-up) runs three times and ``setup_s`` is the median.
The timed loop then runs the batch's profiles one after another,
cycling, until ``--seconds`` have passed and the whole batch has run
once.  Quality comes from that first pass; ``profile_s`` is the median
over every profile run.  Each filled profile is checked; a failed check
or a failed fit counts in ``failed`` and makes the exit code 1.

With ``--trace 1`` each profile of the batch runs once untraced and
once with the library's public functions wrapped (see ``tracing.py``);
the difference of the two medians is the tracing overhead.
The spans go to ``.bench_work/trace-<workload>-seed<N>.json``.

The last line of standard output is the result as one JSON object; the
line before it records the machine.  BLAS runs on one thread, so that
timings of these small factorizations do not depend on what else
shares the machine's cores.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "library default"),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def set_up(workload, seed: int, workdir: str):
    """Import in a fresh interpreter, generate the batch, warm up."""
    from workloads import warm_up

    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import surfimpute"], check=True,
                   env={**os.environ, "PYTHONPATH": str(SRC)})
    cases = workload.generate(seed, workdir)
    warm_up(cases[0])
    return time.perf_counter() - start, cases


def run_profile(workload, case, workdir, log):
    """Time one profile; returns (seconds, outcome or None, problems)."""
    from workloads import check

    start = time.perf_counter()
    try:
        outcome = workload.process(case, workdir)
    except Exception:  # a failed profile is counted, and the run goes on
        seconds = time.perf_counter() - start
        log(f"profile {case.seed} failed:\n{traceback.format_exc()}")
        return seconds, None, ["fit or imputation raised"]
    seconds = time.perf_counter() - start
    problems = check(case, outcome)
    for p in problems:
        log(f"profile {case.seed}: {p}")
    return seconds, outcome, problems


def timed_run(workload, seed, seconds, workdir, log):
    from workloads import quality, score

    setups = []
    for _ in range(SETUP_REPEATS):
        s, cases = set_up(workload, seed, workdir)
        setups.append(s)
    times, scores, failed = [], [], 0
    start = time.perf_counter()
    i = 0
    while i < len(cases) or time.perf_counter() - start < seconds:
        case = cases[i % len(cases)]
        dt, outcome, problems = run_profile(workload, case, workdir, log)
        times.append(dt)
        failed += bool(problems)
        if i < len(cases) and not problems:
            scores.append(score(case, outcome))
        i += 1
    metrics = quality(scores) if scores else {}
    metrics.update(setup_s=statistics.median(setups), profile_s=statistics.median(times),
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    log(f"{len(times)} profiles timed, {len(cases)} in the batch")
    return len(times), failed, metrics


def traced_run(workload, seed, workdir, log):
    from tracing import Tracer, layer_metrics
    from workloads import quality, score, warm_up

    tracer = Tracer()
    with tracer.active():
        cases = workload.generate(seed, workdir)
    warm_up(cases[0])
    # each profile runs untraced, then traced: the pairs give the overhead
    untraced, traced, scores, failed = [], [], [], 0
    for i, case in enumerate(cases):
        dt, _, problems = run_profile(workload, case, workdir, log)
        untraced.append(dt)
        failed += bool(problems)
        with tracer.active(i):
            dt, outcome, problems = run_profile(workload, case, workdir, log)
        traced.append(dt)
        failed += bool(problems)
        if not problems:
            scores.append(score(case, outcome))
    tracer.write(str(ROOT / ".bench_work" / f"trace-{workload.name}-seed{seed}.json"))

    layers = layer_metrics(tracer.spans)
    q = quality(scores) if scores else {}
    layers.update({
        "trace.profile_s": statistics.median(traced),
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
        "evaluate.coverage_gap": q.get("coverage_gap", 0.0),
        "evaluate.rsm_rel_err": q.get("rsm_rel_err", 0.0),
        "evaluate.rmse_vs_best_baseline": q.get("rmse_vs_best_baseline", 0.0),
        "gsm.freq_miss_frac": q.get("freq_miss_frac", 0.0),
    })
    # a layer that did no work on this workload reads zero
    for name in declared_units("per_layer"):
        layers.setdefault(name, 0.0)
    return len(traced) + len(untraced), failed, layers


def declared_units(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    if not (SRC / "surfimpute").is_dir():
        log(f"no surfimpute sources under {SRC}")
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2
    workload = WORKLOADS[args.workload]

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            attempted, failed, metrics = traced_run(workload, args.seed, str(workdir), log)
        else:
            attempted, failed, metrics = timed_run(workload, args.seed, args.seconds,
                                                   str(workdir), log)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"machine": machine_facts(), "workload": workload.name,
                      "seed": args.seed, "trace": args.trace}))
    units = declared_units("per_layer" if args.trace else "end_to_end")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    # numpy is first imported inside main(), after this
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
