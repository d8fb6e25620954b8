"""The benchmark's workloads: seeded job lists with known answers.

A workload module has ``build_round(seed, r, workdir) -> list of Job``,
``ROUND_SECONDS`` (the share of the run length that buys one round: a run
does round(seconds / ROUND_SECONDS) rounds, at least one, so the work per
run is fixed by the run length and not by the machine's speed) and ``SMOKE_KINDS`` (the job
kinds a smoke run keeps, one job each).  Every input
is made in ``build_round`` from the seed; a job only calls the program.
Round ``r`` draws from ``random.Random(seed * 1000 + r)``, so rounds of one
run differ in their coefficients while keeping the same job kinds and sizes
(``lenard`` adds its deepest run to round 0 only).

Only names exported from ``varpois/__init__.py`` (and the CLI's ``run``)
are called.
"""

from __future__ import annotations

import random
from fractions import Fraction


class Job:
    """One closed-loop request.

    ``run()`` is the timed call into the program.  ``check(result)`` runs
    untimed and untraced; it returns the verdict as a short string and
    whether that verdict equals the known answer.
    """

    __slots__ = ("kind", "label", "run", "check")

    def __init__(self, kind: str, label: str, run, check):
        self.kind = kind
        self.label = label
        self.run = run
        self.check = check


def round_rng(seed: int, r: int) -> random.Random:
    return random.Random(seed * 1000 + r)


def nonzero_rational(rng: random.Random) -> Fraction:
    """p/q with 0 < |p| <= 4 and q in {1, 2, 3}."""
    p = 0
    while p == 0:
        p = rng.randint(-4, 4)
    return Fraction(p, rng.choice((1, 2, 3)))


def positive_rational(rng: random.Random) -> Fraction:
    """p/q with 1 <= p <= 5 and q in {1, 2, 3, 4}."""
    return Fraction(rng.randint(1, 5), rng.choice((1, 2, 3, 4)))


def fmt_q(q: Fraction) -> str:
    """A rational in the session DSL (parenthesized when negative)."""
    s = str(q)
    return f"({s})" if q < 0 else s


def det_fraction(m: list) -> Fraction:
    """Determinant of a small matrix of rationals (Laplace expansion)."""
    if len(m) == 1:
        return Fraction(m[0][0])
    total = Fraction(0)
    for j, v in enumerate(m[0]):
        if v:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * Fraction(v) * det_fraction(minor)
    return total


def module_for(name: str):
    import importlib
    return importlib.import_module(f"{__name__}.{name.replace('-', '_')}")


NAMES = ("lenard", "jacobi-cohomology", "difflinalg")
