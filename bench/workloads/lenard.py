"""`lenard`: the README `lenard` command, in process, on generated sessions.

Three pairs: KdV (Magri bracket with symbolic c over GFZ), the same pair with
c a rational, and a constant two-component pair; plus H = d, K = d^3, whose
Lenard step has no preimage (known exit 1).  Each pair is scaled by seeded
positive rationals p, q, a (H -> p-scaled pencil, K -> q d, seed a u^2),
which changes coefficients but not the work's shape.

Known answers: exit 0, an all-True involution matrix of size steps + 1,
every step certified, and h1 equal in V/dV to the closed form
(a/q)(p u^3 + c u u'') for KdV and (2ah/k)(-u1'^2/2 + u1'u2' - u2'^2) for the
two-component pair; exit 1 with a failed `hierarchy` result for H = d,
K = d^3.
"""

from __future__ import annotations

import hashlib
import json
import os

from varpois import LocalFunctional, functional_eq, parse_session
from varpois.cli import run as cli_run

from . import Job, fmt_q, positive_rational, round_rng

# (kind, steps, count per round).  The 4-step KdV run (10-15 s, a third of
# a run on its own) is left out so that no single job sets a run's time;
# the deepest run, DEEP, is a 3-step KdV run made in round 0 only.  Sorted by
# latency, a round is the obstruction jobs (36%), the 1-step KdV jobs (27%),
# the two-component jobs (14%) and the 2-step KdV jobs (23%), so the median
# falls inside the block of 1-step KdV jobs and the 90th percentile inside
# the block of 2-step ones, away from the edges where a quantile would jump
# between job kinds.
MIX = (
    ("kdv_c", 2, 5), ("kdv_q", 2, 5),
    ("pair2", 1, 6),
    ("kdv_c", 1, 6), ("kdv_q", 1, 6),
    ("obstruction", 1, 16),
)
DEEP = ("kdv_c", 3, 1)
ROUND_SECONDS = 8
SMOKE_KINDS = ("kdv_c-1", "kdv_q-1", "kdv_c-2", "pair2-1", "obstruction-1")


def _kdv_session(rng, symbolic_c: bool):
    p, q, a = (positive_rational(rng) for _ in range(3))
    c = "c" if symbolic_c else str(positive_rational(rng))
    text = ("vars 1\n" + ("params c\n" if symbolic_c else "") +
            f"H = {p}*u' + {2 * p}*u*d + {c}*d^3\n"
            f"K = {q}*d\n")
    seed = f"{a}*u^2"
    h1 = f"{a / q * p}*u^3 + {a / q}*{c}*u*u''"
    return text, seed, h1


def _pair2_session(rng):
    k, h, a = (positive_rational(rng) for _ in range(3))
    text = ("vars 2\n"
            f"K = [[{2 * k}*d, {k}*d],[{k}*d, {k}*d]]\n"
            f"H = [[{h}*d^3, 0],[0, {h}*d^3]]\n")
    seed = f"{a}*u1^2 + {a}*u2^2"
    s = 2 * a * h / k
    h1 = f"{fmt_q(-s / 2)}*u1'^2 + {s}*u1'*u2' + {fmt_q(-s)}*u2'^2"
    return text, seed, h1


def _obstruction_session(rng):
    k, h, a = (positive_rational(rng) for _ in range(3))
    text = f"vars 1\nH = {h}*d\nK = {k}*d^3\n"
    return text, f"{a}*u^2", None


def _make_job(kind, label, path, text, seed, steps, h1):
    argv = ["--session", path, "--format", "json", "lenard", "--H", "H",
            "--K", "K", "--seed", seed, "--steps", str(steps)]

    def run():
        report, code = cli_run(argv)
        return code, report.to_json()

    def check(result):
        code, out = result
        doc = json.loads(out)
        del doc["timing_ms"]
        body = hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:16]
        statuses = [(r["name"], r["status"]) for r in doc["results"]]
        verdict = f"exit={code} {statuses} report={body}"
        if h1 is None:
            return verdict, (code == 1 and statuses == [("hierarchy", "fail")])
        if code != 0 or any(s != "ok" for _, s in statuses):
            return verdict, False
        res = {r["name"]: r["value"] for r in doc["results"]}
        inv = res["involution"]
        dens = res["densities"]
        certs = res["certificates"]
        session = parse_session(text)
        h1_ok = functional_eq(LocalFunctional(session.evaluate(dens[1])),
                              LocalFunctional(session.evaluate(h1)))
        ok = (len(dens) == steps + 1 and len(inv) == steps + 1 and
              all(all(row) and len(row) == steps + 1 for row in inv) and
              all(c["recursion_exact"] for c in certs) and h1_ok)
        verdict += f" n={len(dens)} inv_all={all(map(all, inv))} h1={h1_ok}"
        return verdict, ok

    return Job(kind, label, run, check)


def build_round(seed: int, r: int, workdir: str) -> list:
    rng = round_rng(seed, r)
    jobs = []
    for kind, steps, count in MIX + ((DEEP,) if r == 0 else ()):
        for i in range(count):
            if kind == "kdv_c":
                text, s, h1 = _kdv_session(rng, True)
            elif kind == "kdv_q":
                text, s, h1 = _kdv_session(rng, False)
            elif kind == "pair2":
                text, s, h1 = _pair2_session(rng)
            else:
                text, s, h1 = _obstruction_session(rng)
            label = f"{kind}-{steps}-{r}-{i}"
            path = os.path.join(workdir, f"{label}.vp")
            with open(path, "w") as fh:
                fh.write(text)
            jobs.append(_make_job(f"{kind}-{steps}", label, path, text, s,
                                  steps, h1))
    rng.shuffle(jobs)
    return jobs
