"""varpois benchmark: time to a checked verdict on three workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload lenard --seed 1 --seconds 25 --trace 0

A workload is a closed loop with one client: jobs run one after another in
this process, with no threads.  A run does round(seconds / ROUND_SECONDS)
rounds of the workload's job mix (at least one); round r's inputs come from
the seed and r.  Every verdict is checked against a known answer after its
round, outside the timed region.

--trace 0 reports the end-to-end metrics.  Times are scaled to a reference
host speed (see speed.py): each job's times are multiplied by the speed
factor measured around that job, and each set-up sample by the factor
measured around its set-up.
  setup_s      median of SETUP_SAMPLES fresh processes, spread over the
               run, each the CPU seconds its process used from its start
               until its first round of inputs is built;
  wall_s       wall time of the jobs, summed over the rounds (inputs are
               built, verdicts checked and reference samples taken outside
               it);
  cpu_s        process CPU time of the jobs, summed the same way;
  job_ms_p50   median job latency over all rounds;
  job_ms_p90   90th percentile job latency (with >= 10 jobs beyond it);
  peak_rss_mb  peak resident memory of this process (not scaled).
--trace 1 wraps the program's layers (see layers.py) and reports the
per-layer metrics per round, plus fail_frac and trace.wall_s (unscaled);
the spans of the last traced run of each workload are written to
.bench_out/trace-<name>.*.

The last line of standard output is the result as one JSON object.  The
program is loaded from src/ of the same checkout; without it the run exits
with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import NAMES

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DEFAULT_SEED = 1  # recorded, so a claim can be re-checked on other seeds
SETUP_SAMPLES = 5
READY = "bench-setup-ready"


def load_program():
    """Import varpois from this checkout's src/; exits with status 2 when
    the source is missing."""
    init = os.path.join(SRC, "varpois", "__init__.py")
    if not os.path.isfile(init):
        print(f"bench: program source not found: {init}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import varpois
    if os.path.abspath(varpois.__file__) != init:
        print(f"bench: imported varpois from {varpois.__file__}, "
              f"not {init}", file=sys.stderr)
        sys.exit(2)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: one round with one job of each cheap kind")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup_probe(args):
    """Child process: load, build round 0, then report readiness with the
    CPU seconds used so far and the speed factor measured around that."""
    import speed
    meter = speed.Meter()
    c0 = time.process_time()
    meter.begin()
    sampling = time.process_time() - c0
    load_program()
    from workloads import module_for
    workdir = tempfile.mkdtemp(prefix="probe-", dir=OUT_DIR)
    try:
        module_for(args.workload).build_round(args.seed, 0, workdir)
        cpu = time.process_time() - sampling
        meter.end()
        print(READY, cpu, meter.factor(), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(args) -> tuple:
    """One fresh interpreter's set-up: (CPU seconds from its start until
    its first round of inputs is built, its speed factor)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline().split()
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if len(line) != 3 or line[0] != READY or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code})")
    return float(line[1]), float(line[2])


def select_smoke(jobs, kinds):
    """The first job (by label) of each listed kind."""
    chosen = {}
    for job in sorted(jobs, key=lambda j: j.label):
        if job.kind in kinds and job.kind not in chosen:
            chosen[job.kind] = job
    return [chosen[k] for k in kinds if k in chosen]


def run_round(jobs, meter=None):
    """Run the jobs back to back; returns per-job (wall seconds, CPU
    seconds, speed factor) and the results.  An exception a job raises is
    its result.  With a meter, reference samples are taken between jobs and
    each job gets the factor measured around it; without one the factor
    is 1."""
    gc.collect()
    times, marks, results = [], [], []
    if meter is not None:
        meter.begin()
    for job in jobs:
        if meter is not None:
            marks.append(len(meter.samples))
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            res = job.run()
        except Exception as err:  # noqa: BLE001 - a wrong verdict, counted
            res = err
        wall = time.perf_counter() - t0
        times.append((wall, time.process_time() - c0))
        results.append(res)
        if meter is not None:
            meter.after_job(wall)
    if meter is None:
        factors = [1.0] * len(jobs)
    else:
        meter.end()
        factors = [meter.factor_at(k) for k in marks]
    return [(w, c, f) for (w, c), f in zip(times, factors)], results


def check_round(jobs, results) -> list:
    """(label, verdict, ok) per job; a check that raises is a wrong verdict."""
    out = []
    for job, res in zip(jobs, results):
        if isinstance(res, Exception):
            out.append((job.label, f"raised {type(res).__name__}: {res}",
                        False))
            continue
        try:
            verdict, ok = job.check(res)
        except Exception as err:  # noqa: BLE001 - a wrong verdict, counted
            verdict, ok = f"check raised {type(err).__name__}: {err}", False
        out.append((job.label, verdict, bool(ok)))
    return out


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def main(argv=None) -> int:
    args = parse_args(argv)
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.setup_probe:
        setup_probe(args)
        return 0
    load_program()
    import layers
    import speed
    from tracer import Tracer
    from workloads import module_for

    module = module_for(args.workload)
    rounds = 1 if args.size == "smoke" else max(
        1, round(args.seconds / module.ROUND_SECONDS))
    # Set-up samples go before evenly spaced rounds, so that their median
    # spans the run rather than one moment of the host.
    probes = ([] if args.trace or args.size == "smoke" else
              [i * rounds // SETUP_SAMPLES for i in range(SETUP_SAMPLES)])
    meter = None if args.trace else speed.Meter()
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    tracer = Tracer() if args.trace else None
    setup, jobs_times, verdicts = [], [], []
    try:
        if tracer is not None:
            tracer.enabled = False
            layers.install(tracer)
        for r in range(rounds):
            for _ in range(probes.count(r)):
                setup.append(measure_setup(args))
            jobs = module.build_round(args.seed, r, workdir)
            if args.size == "smoke":
                jobs = select_smoke(jobs, module.SMOKE_KINDS)
            if tracer is not None:
                tracer.enabled = True
            times, results = run_round(jobs, meter)
            if tracer is not None:
                tracer.enabled = False
            jobs_times.extend(times)
            verdicts.extend(check_round(jobs, results))
        if tracer is not None:
            tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}"))
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(verdicts)
    failed = sum(1 for _, _, ok in verdicts if not ok)
    digest = hashlib.sha256("\n".join(
        f"{label}\t{verdict}" for label, verdict, _ in verdicts
    ).encode()).hexdigest()
    fail_frac = failed / attempted
    for label, verdict, ok in verdicts:
        if not ok:
            print(f"WRONG {label}: {verdict}")
    print(f"workload {args.workload} seed {args.seed} rounds {rounds} "
          f"jobs {attempted} failed {failed} fail_frac {fail_frac}")
    print(f"verdicts {digest}")

    if args.trace:
        metrics = layers.per_layer_values(tracer, rounds)
        metrics["fail_frac"] = {"value": fail_frac, "unit": "ratio"}
        metrics["trace.wall_s"] = {"value": sum(w for w, _, _ in jobs_times),
                                   "unit": "s"}
        print(f"spans {tracer.span_count()}")
    else:
        ms = [w * f * 1000 for w, _, f in jobs_times]
        values = (
            ("setup_s", "s",
             statistics.median(c * f for c, f in setup) if setup else 0.0),
            ("wall_s", "s", sum(ms) / 1000),
            ("cpu_s", "s", sum(c * f for _, c, f in jobs_times)),
            ("job_ms_p50", "ms", statistics.median(ms)),
            ("job_ms_p90", "ms", p90(ms)),
            ("peak_rss_mb", "MB",
             resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
        )
        metrics = {k: {"value": v, "unit": u} for k, u, v in values}
        beyond = sum(1 for t in ms if t > metrics["job_ms_p90"]["value"])
        print(f"job_ms_p90 over {len(ms)} jobs, {beyond} beyond it")
        print(f"unscaled wall_s {sum(w for w, _, _ in jobs_times):.3f} "
              f"cpu_s {sum(c for _, c, _ in jobs_times):.3f} "
              f"setup CPU s {[round(c, 3) for c, _ in setup]}")
        factors = sorted(f for _, _, f in jobs_times)
        print(f"speed factors: jobs min {factors[0]:.3f} median "
              f"{statistics.median(factors):.3f} max {factors[-1]:.3f}; "
              f"setup {[round(f, 3) for _, f in setup]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
