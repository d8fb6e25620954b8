"""Tests of the benchmark itself.

Run with ``python3 -m pytest bench/selftest.py`` from the root of the
repository (the file name keeps it out of the program's own test suite).
"""

import json
import os
import sys
import types

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import speed  # noqa: E402
from tracer import TraceTargetMissing, Tracer  # noqa: E402


@pytest.fixture
def fake_module():
    """A module with a nested call, an alias binding and a class alias,
    driven by a fake clock."""
    now = [0.0]
    mod = types.ModuleType("benchfake")

    def inner():
        now[0] += 2.0

    def outer():
        now[0] += 1.0
        mod.inner()
        now[0] += 3.0
        mod.inner()

    class Num:
        def __add__(self, other):
            now[0] += 5.0
            return self

        __radd__ = __add__

    mod.inner, mod.outer, mod.Num = inner, outer, Num
    other = types.ModuleType("benchfake.other")
    other.inner_copy = inner
    sys.modules["benchfake"] = mod
    sys.modules["benchfake.other"] = other
    yield mod, other, (lambda: now[0])
    del sys.modules["benchfake"], sys.modules["benchfake.other"]


def test_self_time_of_nested_calls(fake_module):
    mod, other, clock = fake_module
    tr = Tracer(clock=clock)
    tr.install("benchfake:outer", "outer", "A", groups=("g",))
    tr.install("benchfake:inner", "inner", "B", groups=("g", "h"))
    mod.outer()
    # outer spans 1 + 2 + 3 + 2 = 8, of which its two inner calls take 4
    assert tr.layer_self_s() == {"A": 4.0, "B": 4.0}
    # group g counts every call; its time is that of its outermost span
    assert tr.group_stats() == {"g": (3, 8.0), "h": (2, 4.0)}
    # the stored spans: outer [0, 8] with children [1, 3] and [6, 8]
    assert list(tr.start) == [0.0, 1.0, 6.0]
    assert list(tr.end) == [8.0, 3.0, 8.0]
    assert list(tr.parent) == [-1, 0, 0]
    tr.uninstall()


def test_every_binding_is_wrapped(fake_module):
    mod, other, clock = fake_module
    original = mod.inner
    tr = Tracer(clock=clock)
    assert tr.install("benchfake:inner", "inner", "B") == 2
    assert tr.install("benchfake:Num.__add__", "add", "C") == 2
    other.inner_copy()
    n = mod.Num()
    n + 1
    1 + n
    assert tr.span_count() == 3
    assert tr.layer_self_s() == {"B": 2.0, "C": 10.0}
    tr.uninstall()
    assert mod.inner is original and other.inner_copy is original
    assert mod.Num.__radd__ is mod.Num.__add__


@pytest.mark.parametrize("target", ["benchfake:missing",
                                    "benchfake:Num.missing",
                                    "benchfake:Missing.__add__",
                                    "benchfake_absent:f"])
def test_missing_name_fails_loudly(fake_module, target):
    with pytest.raises(TraceTargetMissing):
        Tracer().install(target, "x", "L")


def test_every_listed_layer_target_resolves():
    run.load_program()
    import layers
    tr = Tracer()
    try:
        layers.install(tr)
    finally:
        tr.uninstall()
    assert tr.span_count() == 0


def test_speed_factors_follow_the_reference():
    """A reference that takes 1 ms, then 4 ms: jobs are scaled by
    REF_S / (the reference time around them)."""
    now = [0.0]
    cost = [0.001]

    def ref():
        now[0] += cost[0]

    m = speed.Meter(clock=lambda: now[0], ref=ref)
    m.begin()
    assert len(m.samples) == speed.BRACKET
    m.after_job(speed.SAMPLE_EVERY / 2)
    assert len(m.samples) == speed.BRACKET
    m.after_job(speed.SAMPLE_EVERY * 3)
    assert len(m.samples) == speed.BRACKET + 3
    first = len(m.samples)
    cost[0] = 0.004
    m.after_job(speed.SAMPLE_EVERY * 100)
    assert len(m.samples) == first + speed.MAX_BURST
    m.end()
    assert m.factor_at(2) == pytest.approx(speed.REF_S / 0.001)
    assert m.factor_at(len(m.samples)) == pytest.approx(speed.REF_S / 0.004)
    # 8 fast and 25 slow samples; the trimmed mean drops 3 at each end
    assert m.factor() == pytest.approx(
        (5 * speed.REF_S / 0.001 + 22 * speed.REF_S / 0.004) / 27)


def _result(capsys, argv):
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload",
                         ["lenard", "jacobi-cohomology", "difflinalg"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_has_no_wrong_verdicts(capsys, workload, trace):
    res = _result(capsys, ["--workload", workload, "--size", "smoke",
                           "--trace", trace])
    assert res["attempted"] >= 5
    assert res["failed"] == 0 and res["correct"]
    with open(os.path.join(os.path.dirname(BENCH_DIR),
                           "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = spec["per_layer" if trace == "1" else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in listed}
    assert all(res["metrics"][m["name"]]["unit"] == m["unit"] for m in listed)
    if trace == "1":
        assert res["metrics"]["fail_frac"]["value"] == 0
