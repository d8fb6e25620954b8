"""Determinism check and workload record.

For each workload, runs the benchmark twice traced and once untraced on one
seed, each in its own process, and checks that

- the two traced runs give identical per-layer counts;
- all three runs give identical verdicts (same digest) and no wrong ones.

It then writes bench/recorded.json: per workload the seed, rounds and job
count, the field operand-kind shares, `field.cancel.useful_frac`, the
tracing overhead (traced `trace.wall_s` minus the untraced run's unscaled
wall time), and the map from layer metrics to the end-to-end metric and
workload they should move.  Exit status 1 when a check fails.

    python3 bench/check.py [--seed N] [--seconds S] [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from run import DEFAULT_SEED  # noqa: E402
from workloads import NAMES  # noqa: E402

# Which end-to-end metric, on which workload, each layer's metrics should
# move.  Written before measuring; a later change that claims a gain cites
# its row.
LAYER_TO_END_TO_END = {
    "field": "wall_s on lenard and jacobi-cohomology; predicted flat on "
             "difflinalg",
    "diffalg": "wall_s on lenard",
    "lambdapoly": "wall_s on jacobi-cohomology",
    "pva": "wall_s on jacobi-cohomology; pva.poisson_bracket on lenard",
    "lenard": "wall_s and job_ms_p90 on lenard",
    "diffop": "wall_s on difflinalg; solve_rational also on "
              "jacobi-cohomology",
    "linsolve": "wall_s on jacobi-cohomology and difflinalg; near zero on "
                "lenard",
    "polydiff": "wall_s on jacobi-cohomology",
    "complexes": "wall_s on jacobi-cohomology",
    "parser": "job_ms_p50 on lenard",
    "cli": "job_ms_p50 on lenard",
}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         check=True).stdout.strip().splitlines()
    digest = next(l.split()[1] for l in out if l.startswith("verdicts "))
    result = json.loads(out[-1])
    if not trace:
        # the untraced wall_s is scaled to the reference speed; the traced
        # one is not, so the overhead is taken against the unscaled time
        line = next(l for l in out if l.startswith("unscaled wall_s "))
        result["unscaled_wall_s"] = float(line.split()[2])
    return result, digest


def counts(result) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] == "count"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--workload", nargs="*", default=list(NAMES))
    args = ap.parse_args(argv)
    record = {"default_seed": DEFAULT_SEED, "seed": args.seed,
              "seconds": args.seconds, "workloads": {},
              "layer_to_end_to_end": LAYER_TO_END_TO_END}
    ok = True
    for name in args.workload:
        t1, d1 = run_once(name, args.seed, args.seconds, 1)
        t2, d2 = run_once(name, args.seed, args.seconds, 1)
        u, du = run_once(name, args.seed, args.seconds, 0)
        same_counts = counts(t1) == counts(t2)
        same_verdicts = d1 == d2 == du
        no_wrong = all(r["failed"] == 0 for r in (t1, t2, u))
        ok = ok and same_counts and same_verdicts and no_wrong
        m = t1["metrics"]
        ops = m["field.ops"]["value"]
        record["workloads"][name] = {
            "jobs_per_run": u["attempted"],
            "field.ops_per_round": ops,
            "field_operand_shares": {
                k: round(m[f"field.ops.{k}"]["value"] / ops, 4)
                for k in ("rat", "const", "poly", "frac")},
            "field.cancel.useful_frac": round(
                m["field.cancel.useful_frac"]["value"], 4),
            "untraced": {k: v["value"] for k, v in u["metrics"].items()},
            "traced_wall_s": m["trace.wall_s"]["value"],
            "unscaled_wall_s": u["unscaled_wall_s"],
            "tracing_overhead_s": m["trace.wall_s"]["value"] -
            u["unscaled_wall_s"],
            "traced_counts_identical": same_counts,
            "verdicts_identical": same_verdicts,
            "verdict_digest": du,
        }
        print(f"{name}: counts identical {same_counts}, verdicts identical "
              f"{same_verdicts}, no wrong verdict {no_wrong}", flush=True)
    with open(os.path.join(BENCH_DIR, "recorded.json"), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
