"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import io
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402


def small_ops(name, count):
    """The cheapest ``count`` ops of a workload's seed-0 list."""
    ops, _ = WORKLOADS[name].generate(0)
    if name == "numbers":
        ops = sorted(ops, key=lambda op: op.args[-1].denominator)
    elif name == "decide":
        ops = [op for op in ops if op.kind == "random"]
    else:
        ops = sorted(ops, key=WORKLOADS[name]._steps)
    return ops[:count]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    def key(ops):
        return [(op.kind, repr(op.args), op.verify) for op in ops]

    first, record = WORKLOADS[name].generate(7)
    again, record_again = WORKLOADS[name].generate(7)
    other, _ = WORKLOADS[name].generate(8)
    assert key(first) == key(again) and record == record_again
    assert key(first) != key(other)
    assert len(first) >= 100


class Sabotaged:
    """Delegates to a workload but corrupts one result and raises on one op."""

    def __init__(self, inner, wrong, raising):
        self.inner, self.wrong, self.raising = inner, wrong, raising
        self.calls = 0

    def setup(self, lx, ops):
        return self.inner.setup(lx, ops)

    def run(self, lx, ctx, op):
        k, self.calls = self.calls, self.calls + 1
        if k == self.raising:
            raise RuntimeError("deliberate failure")
        result = self.inner.run(lx, ctx, op)
        return corrupt(result) if k == self.wrong else result

    def check(self, lx, ctx, op, result):
        return self.inner.check(lx, ctx, op, result)

    def finish_pass(self, lx, ctx, ops, results):
        return self.inner.finish_pass(lx, ctx, ops, results)


def corrupt(result):
    if isinstance(result, Fraction):
        return result + 1
    if isinstance(result, bool):
        return not result
    if isinstance(result, str):
        return result.replace("1", "0", 1) if "1" in result else result + "1"
    if isinstance(result, tuple) and len(result) == 2:  # cli: (exit code, stdout)
        return result[0] + 1, result[1]
    if isinstance(result, list):
        return result + [0]
    if isinstance(result, dict):
        return {k: v + 1 for k, v in result.items()}
    # decider verdicts and reports: drop a field the checks rely on
    return None


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrong_result_is_a_failed_op_and_the_run_goes_on(name):
    ops = small_ops(name, 6)
    for op in ops:
        op.verify = True
    inner = WORKLOADS[name]
    out = run.run_pass(Sabotaged(inner, wrong=1, raising=3), ops)
    assert len(out["latencies"]) == len(ops)
    assert out["failed"] == 2
    clean = run.run_pass(inner, ops)
    assert clean["failed"] == 0


def test_wrong_orbit_rows_fail_the_oracle_check():
    orbits = WORKLOADS["orbits"]
    parts = (0, [0], [1], [0])
    op = Op("render", ("eca:30", parts, 8, -8, 8), verify=True)
    lx, ctx, _ = run.set_up(orbits, [op])
    good = orbits.run(lx, ctx, op)
    assert orbits.check(lx, ctx, op, good)
    rows = good.split("\n")
    rows[5] = rows[5][::-1] if rows[5] != rows[5][::-1] else rows[5].replace("0", "1", 1)
    assert not orbits.check(lx, ctx, op, "\n".join(rows))


def test_false_verdict_replays_and_a_forged_one_does_not():
    decide = WORKLOADS["decide"]
    op = Op("random", (2, 1, 1, bytes(8), (0, 1, 2)))  # rule 0 is not expansive
    lx, ctx, _ = run.set_up(decide, [op])
    verdict = decide.run(lx, ctx, op)
    assert verdict.status.value == "False"
    assert decide.check(lx, ctx, op, verdict)
    cex = verdict.counterexample
    forged = type(verdict)(**{**vars(verdict),
                              "counterexample": type(cex)(**{**vars(cex), "seed_b": cex.seed_a})})
    assert not decide.check(lx, ctx, op, forged)


def test_atlas_census_failure_is_counted():
    decide = WORKLOADS["decide"]
    ops = [Op("atlas", (n,)) for n in range(256)]
    results = [(False, False, None, None)] * 256
    assert decide.finish_pass(None, None, ops, results) == [255]


def test_oracle_tables_match_the_library():
    lx, _, _ = run.set_up(WORKLOADS["orbits"], [])
    for p, q in ((3, 2), (5, 2), (5, 3), (7, 4)):
        rule = lx.numeric.fractional_multiplication_rule(lx.numeric.MulSpec(p, q)).rule
        assert (rule.memory, rule.anticipation) == (1, 1)
        assert rule.table == oracle.mul_table(p, q).tobytes()
    for n in (30, 110, 54, 90):
        assert lx.rules.eca(n).rule.table == oracle.eca_table(n).tobytes()


def test_rational_parts_are_exact():
    for xi in (Fraction(1, 7), Fraction(25, 6), Fraction(3, 8), Fraction(1000, 1), Fraction(7, 5)):
        for base in (2, 6, 10):
            anchor, lp, head, rp = oracle.rational_parts(xi, base)
            pre = len(head) + anchor  # digits of the head right of the units digit

            def value(digits):
                v = 0
                for d in digits:
                    v = v * base + d
                return v

            got = Fraction(value(head), base**pre) + \
                Fraction(value(rp), (base ** len(rp) - 1) * base**pre)
            assert lp == [0] and got == xi


def test_traced_pass_self_time_fits_in_the_pass():
    ops = small_ops("orbits", 20)
    tracer = spans.Tracer()
    out = run.run_pass(WORKLOADS["orbits"], ops, tracer)
    assert out["failed"] == 0
    self_sum = sum(t["self_s"] for t in tracer.totals.values())
    assert 0 < self_sum <= out["setup_s"] + out["wall_s"]
    assert tracer.totals["rules.apply"]["calls"] > 0
    assert tracer.totals["rules.compose"]["calls"] > 0  # mul rules are built in set-up
    assert all(s[0] == "setup" or isinstance(s[0], int) for s in tracer.spans)
    parents = {s[1] for s in tracer.spans}
    assert all(s[2] is None or s[2] in parents for s in tracer.spans)
    buf = io.StringIO()
    tracer.write_to(buf)
    assert buf.getvalue().count("\n") == len(tracer.spans) + len(tracer.rollup)


def test_repeat_ratio_counts_answered_queries():
    decide = WORKLOADS["decide"]
    op = Op("random", (2, 1, 1, bytes(8), (0, 1, 2)))
    tracer = spans.Tracer()
    run.run_pass(decide, [op, op, op], tracer)
    assert (tracer.queries, tracer.repeats) == (3, 2)
    tracer.reset_pass()
    run.run_pass(decide, [op], tracer)
    assert (tracer.queries, tracer.repeats) == (4, 2)


def test_times_are_scaled_by_the_reference_times():
    ref = run.REFERENCE_S
    assert run.scale(3.0, [ref, ref]) == pytest.approx(3.0)
    assert run.scale(3.0, [2 * ref, 2 * ref, 2 * ref]) == pytest.approx(1.5)  # half as fast


def test_sampler_samples_a_long_op_and_keeps_its_own_time_out():
    with run.Sampler(interval=0.02) as sampler:
        sampler.start()
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            pass
        elapsed = time.perf_counter() - start
        refs, paused = sampler.stop()
    assert len(refs) >= 3 and all(r > 0 for r in refs)
    assert 0 < paused < elapsed
    with run.Sampler(enabled=False) as idle:
        idle.start()
        time.sleep(0.05)
        assert idle.stop() == ([], 0.0)


def test_exits_nonzero_without_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "numbers", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
