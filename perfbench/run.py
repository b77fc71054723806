#!/usr/bin/env python3
"""spinread benchmark: time the library as a physicist runs it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hmm_readout --seed 1 --seconds 55 --trace 0

One workload per process: the process is the single closed-loop client
and runs the workload's batch job (``perfbench/workloads.py``) again and
again for ``--seconds``, every CLI step in-process through
``spinread.cli.main``. Before that it times fresh interpreters importing
the package (``setup_s``). The bounded job times (``wall_ref``,
``analysis_ref``) are ratios to the workload's reference kernel, timed
around each job, so that a shift in the host's speed cancels. With ``--trace 0`` the last stdout line
carries the end-to-end metrics; with ``--trace 1`` the first half of the
time runs untraced and the second half with every wrapper of
``perfbench/tracing.py`` installed, and the last line carries the
per-layer metrics. The line before it describes the run (revision,
versions, cores, BLAS threads, seed, input sizes, peak RSS).
"""

from __future__ import annotations

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

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

from tracing import Tracer, busy_times, installed  # noqa: E402
from workloads import SIZES, WORKLOADS, Job, Ledger  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "analysis_ref": "ref",
    "peak_rss_mb": "MB",
}

CLI_COMMANDS = ("simulate", "preprocess", "sweep", "classify", "fit-hmm", "fit-physics", "snr", "emit")
# spans whose busy time (".s") is reported; "self" adds busy minus children
SPAN_METRICS = {
    "markov.simulate_batch": (),
    "markov.start_posterior_batch": (),
    "markov.em_fit": (),
    "readout.fidelity_sweep": ("self",),
    "readout.hmm_classify_batch": (),
    "readout.optimal_threshold_empirical": (),
    "readout.confusion_metrics": (),
    "analytic.analytic_fidelity": ("self",),
    "analytic.quad": (),
    "fitting.least_squares_damped": ("self",),
    "fitting.fit_model": (),
    "physics.optimal_tunnel_rate": (),
    "pipeline.save": (),
    "pipeline.load": (),
    "pipeline.drift_correct": (),
    "pipeline.build_histogram": (),
    "pipeline.iq_project": (),
    "pipeline.noise_scaling": (),
    **{f"cli.{c}": () for c in CLI_COMMANDS},
}
COUNT_METRICS = {
    "markov.simulate_batch.samples": "count",
    "markov.start_posterior_batch.calls": "count",
    "markov.start_posterior_batch.sample_steps": "count",
    "markov.em_fit.iterations": "count",
    "readout.optimal_threshold_empirical.calls": "count",
    "readout.confusion_metrics.labels": "count",
    "analytic.analytic_fidelity.calls": "count",
    "analytic.quad_calls": "count",
    "fitting.least_squares_damped.calls": "count",
    "fitting.least_squares_damped.iterations": "count",
    "fitting.least_squares_damped.residual_evals": "count",
    "physics.delta_c_drt.calls": "count",
    "pipeline.save.bytes": "bytes",
    "pipeline.load.bytes": "bytes",
}
# measured untraced, in the first half of a traced run
STAGES = ("simulate_s", "sweep_s", "classify_s", "fit_hmm_s", "analytic_s", "fit_s")


def per_layer_units() -> dict:
    units = {}
    for name, extra in SPAN_METRICS.items():
        units[name + ".s"] = "s"
        if "self" in extra:
            units[name + ".self_s"] = "s"
    units.update(COUNT_METRICS)
    units.update({
        "markov.start_posterior_batch.ns_per_step": "ns",
        "markov.em_fit.ns_per_step": "ns",
        "markov.em_iter_s": "s",
        "cli.self_s": "s",
        "process.cpu_s": "s",
        "trace.overhead_s": "s",
        "trace.spans": "count",
        "fail_ratio": "ratio",
    })
    units.update({stage: "s" for stage in STAGES})
    units.update({"wall_s": "s", "analysis_s": "s", "reference_s": "s"})
    return units


PER_LAYER = per_layer_units()


def setup_times(n: int) -> list[float]:
    """Wall time of ``n`` fresh interpreters importing spinread and its CLI,
    after one discarded run that writes the bytecode caches."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, "-c", "import spinread, spinread.cli"]
    times = []
    for i in range(n + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=60)
        if i:
            times.append(time.perf_counter() - t0)
    return times


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_time(workload) -> float:
    """Median time of three runs of the workload's reference kernel."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        workload.reference()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_jobs(workload, ledger: Ledger, seconds: float, tracer=None) -> list[Job]:
    """Closed loop: the next job starts when the previous one has finished,
    unless the last job's duration says it would end past the deadline.
    Job ``i`` gets the same inputs in a traced as in an untraced loop.

    Job ``i`` runs its main thread on core ``i mod n`` of the cores the
    process may use. Cores of a shared host run at different speeds for
    minutes at a time, so a run that stayed on whichever core the
    scheduler picked would measure that core's luck.

    The workload's reference kernel runs on the job's core just before
    and just after the job; ``job.ref`` is the mean of the two."""
    cores = sorted(os.sched_getaffinity(0))
    jobs = []
    deadline = time.perf_counter() + seconds
    try:
        while not jobs or time.perf_counter() + jobs[-1].wall <= deadline:
            job = Job(len(jobs), ledger, tracer)
            job.core = cores[job.index % len(cores)]
            os.sched_setaffinity(0, {job.core})
            ref_before = reference_time(workload)
            cpu0 = cpu_seconds()
            t0 = time.perf_counter()
            if tracer is None:
                workload.chain(job)
            else:
                tracer.run_id = f"{workload.name}-{workload.seed}-job{job.index}"
                with installed(tracer):
                    workload.chain(job)
            job.wall = time.perf_counter() - t0
            job.cpu = cpu_seconds() - cpu0
            job.ref = (ref_before + reference_time(workload)) / 2
            workload.check(job)
            jobs.append(job)
    finally:
        os.sched_setaffinity(0, cores)
    return jobs


def core_median(jobs: list[Job], value) -> float:
    """Median over each core's jobs, averaged over the cores."""
    by_core = {}
    for job in jobs:
        by_core.setdefault(job.core, []).append(value(job))
    return statistics.fmean(statistics.median(v) for v in by_core.values())


def trimmed_mean(values: list[float]) -> float:
    """Mean of ``values`` without the lowest and the highest, once there
    are four or more: one slow job does not carry the run, and every
    other job counts."""
    values = sorted(values)
    return statistics.fmean(values[1:-1] if len(values) >= 4 else values)


def median_of(jobs: list[Job], stage: str) -> float:
    return core_median(jobs, lambda job: job.stages.get(stage, 0.0))


def layer_metrics(untraced: list[Job], traced: list[Job], tracer: Tracer, ledger: Ledger) -> dict:
    """Per-layer values, each a mean per traced job unless noted."""
    n = len(traced)
    busy, own = busy_times(tracer.spans)
    values = {}
    for name, extra in SPAN_METRICS.items():
        values[name + ".s"] = busy[name] / n
        if "self" in extra:
            values[name + ".self_s"] = own[name] / n
    for name in COUNT_METRICS:
        values[name] = tracer.counts[name] / n

    def ns_per(seconds, steps):
        return seconds * 1e9 / steps if steps else 0.0

    em_iterations = tracer.counts["markov.em_fit.iterations"]
    values["markov.start_posterior_batch.ns_per_step"] = ns_per(
        busy["markov.start_posterior_batch"], tracer.counts["markov.start_posterior_batch.sample_steps"])
    values["markov.em_fit.ns_per_step"] = ns_per(busy["markov.em_fit"], tracer.counts["markov.em_fit.sample_steps"])
    values["markov.em_iter_s"] = busy["markov.em_fit"] / em_iterations if em_iterations else 0.0
    values["cli.self_s"] = sum(own[f"cli.{c}"] for c in CLI_COMMANDS) / n
    values["process.cpu_s"] = core_median(untraced, lambda job: job.cpu)
    # job i has the same inputs in both halves
    values["trace.overhead_s"] = statistics.median(t.wall - u.wall for t, u in zip(traced, untraced))
    values["trace.spans"] = len(tracer.spans) / n
    values["fail_ratio"] = ledger.failed / ledger.attempted
    for stage in STAGES:
        values[stage] = median_of(untraced, stage)
    values["wall_s"] = core_median(untraced, lambda job: job.wall)
    values["analysis_s"] = median_of(untraced, "analysis_s")
    values["reference_s"] = core_median(untraced, lambda job: job.ref)
    return values


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "spinread").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return out.stdout.strip() if out.returncode == 0 else None


def blas_builds() -> dict:
    import numpy
    import scipy

    builds = {}
    for mod in (numpy, scipy):
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            builds[mod.__name__] = f"{blas.get('name')} {blas.get('version')}"
        except (KeyError, TypeError, ValueError):
            builds[mod.__name__] = None
    return builds


def run_info(args, workload, jobs: list[Job]) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "inputs": workload.inputs(),
        "jobs": len(jobs),
        "job_wall_s": [job.wall for job in jobs],
        "job_analysis_s": [job.stages.get("analysis_s", 0.0) for job in jobs],
        "job_reference_s": [job.ref for job in jobs],
        "job_core": [job.core for job in jobs],
        "peak_rss_mb": peak_rss_mb(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_builds(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input size; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spinread" / "__init__.py").is_file():
        print(f"perfbench: no spinread package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup = setup_times(3 if args.size == "full" else 1)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.size, str(work))
        workload.prepare()
        ledger = Ledger()
        if args.trace:
            untraced = run_jobs(workload, ledger, args.seconds / 2)
            tracer = Tracer()
            traced = run_jobs(workload, ledger, args.seconds / 2, tracer)
        else:
            untraced = run_jobs(workload, ledger, args.seconds)
            traced = []
        workload.finish(untraced + traced, ledger)
    finally:
        shutil.rmtree(work)

    if args.trace:
        values = layer_metrics(untraced, traced, tracer, ledger)
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_ref": trimmed_mean([job.wall / job.ref for job in untraced]),
            "analysis_ref": trimmed_mean([job.stages.get("analysis_s", 0.0) / job.ref for job in untraced]),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
    info = run_info(args, workload, untraced + traced)
    if args.trace:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        with open(out / f"trace-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump({"run_info": info, "counts": dict(tracer.counts), "spans": tracer.to_json()}, fh)
    print(json.dumps({"run_info": info}))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
