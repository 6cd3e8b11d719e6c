"""The orbit generator, and how many applications each orbit walk spends.

Every walk along an orbit goes through rules.orbit, which calls rules.apply;
counting those calls pins each consumer to the number of images it needs, so
none of them computes one image too many.
"""

import contextlib
import io

import pytest

import leftex.rules
from leftex import (
    Alphabet,
    Configuration,
    MulSpec,
    RenderSpec,
    apply,
    eca,
    estimate_spreading_speed,
    left_spreading_witnesses,
    limit_point_census,
    orbit,
    recurrence_scan,
    render_to,
    trace,
    verify_mul,
)
from leftex.cli import main

A2 = Alphabet(2)
ONE = Configuration.single(A2, 1)
TRIPLE = Configuration(A2, 0, b"\x00", b"\x01\x01\x01", b"\x00")


@pytest.fixture
def applied(monkeypatch):
    """A list that grows by one entry per rules.apply call."""
    calls = []
    real = leftex.rules.apply

    def counting(automaton, x):
        calls.append(x)
        return real(automaton, x)

    monkeypatch.setattr(leftex.rules, "apply", counting)
    return calls


def test_orbit_is_lazy(applied):
    images = orbit(eca(30), ONE)
    assert next(images) is ONE and not applied
    assert next(images) == apply(eca(30), ONE) and len(applied) == 1
    assert next(images) == apply(eca(30), apply(eca(30), ONE)) and len(applied) == 2


def test_trace_and_render_step_counts(applied):
    trace(eca(30), ONE, -3, 3, 7)
    assert len(applied) == 6
    applied.clear()
    trace(eca(30), ONE, 0, 0, 1)
    assert not applied
    render_to(io.StringIO(), eca(30), ONE, RenderSpec(5, -4, 4, "pbm"))
    assert len(applied) == 4


def test_scan_step_counts(applied):
    recurrence_scan(eca(90), ONE, 0, 9)
    assert len(applied) == 9
    applied.clear()
    limit_point_census(eca(30), ONE, 0, 9, [1, 2])
    assert len(applied) == 9
    applied.clear()
    limit_point_census(eca(30), ONE, 0, 0, [1, 2])
    assert not applied


def test_verify_mul_step_count(applied):
    assert verify_mul(MulSpec(3, 2), "7/4", 3)
    assert len(applied) == 6


@pytest.mark.parametrize("rule, sample, horizon, steps", [
    (30, ONE, 6, 1),      # the edge moves left at t = 1
    (0, ONE, 6, 1),       # zero at t = 1
    (128, TRIPLE, 6, 2),  # zero at t = 2
    (240, ONE, 6, 6),     # the edge only moves right
])
def test_spreading_witness_step_counts(applied, rule, sample, horizon, steps):
    left_spreading_witnesses(eca(rule), [sample], horizon)
    assert len(applied) == steps


@pytest.mark.parametrize("rule, sample, horizon, steps", [
    (30, ONE, 6, 6),
    (0, ONE, 6, 1),
    (128, TRIPLE, 6, 2),
])
def test_spreading_speed_step_counts(applied, rule, sample, horizon, steps):
    estimate_spreading_speed(eca(rule), [sample], horizon)
    assert len(applied) == steps


@pytest.mark.parametrize("steps", [0, 4])
def test_simulate_step_count(applied, steps):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["simulate", "eca:30", "[L:0] 1 [R:0] @0", str(steps)]) == 0
    assert len(applied) == steps
    assert len(out.getvalue().splitlines()) == steps + 1
