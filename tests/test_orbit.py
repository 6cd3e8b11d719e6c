"""The orbit walker and its readers, and how many steps each walk spends.

Every walk that reads less than a whole configuration reads the raw states
of one walker, rules._states: rules.columns reads a window off each, and
the spreading and recurrence scans read a left edge or a tail off each.
rules.orbit steps canonical configurations with rules.apply.  Every step of
either is one rules._step call, so counting those calls pins each consumer
to the number of images it needs, and none of them computes one image too
many.
"""

import contextlib
import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import leftex.rules
from leftex import (
    Alphabet,
    Automaton,
    Configuration,
    LocalRule,
    MulSpec,
    RenderSpec,
    apply,
    columns,
    default_palette,
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

from oracles import edge_trajectory_oracle, recurrence_oracle, trace_oracle

A2 = Alphabet(2)
ONE = Configuration.single(A2, 1)
TRIPLE = Configuration(A2, 0, b"\x00", b"\x01\x01\x01", b"\x00")


@pytest.fixture
def applied(monkeypatch):
    """A list that grows by one entry per rules._step call, the step that
    rules.apply and the orbit walker take."""
    calls = []
    real = leftex.rules._step

    def counting(rule, *state):
        calls.append(state)
        return real(rule, *state)

    monkeypatch.setattr(leftex.rules, "_step", counting)
    return calls


def test_orbit_is_lazy(applied):
    first = apply(eca(30), ONE)
    second = apply(eca(30), first)
    applied.clear()
    images = orbit(eca(30), ONE)
    assert next(images) is ONE and not applied
    assert next(images) == first and len(applied) == 1
    assert next(images) == second and len(applied) == 2


def test_columns_are_lazy(applied):
    rows = columns(eca(30), ONE, -2, 2)
    assert next(rows) == b"\x00\x00\x01\x00\x00" and not applied
    assert next(rows) == b"\x00\x01\x01\x01\x00" and len(applied) == 1
    assert next(rows) == b"\x01\x01\x00\x00\x01" and len(applied) == 2


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


# -- columns against the canonical orbit ------------------------------------


@st.composite
def column_cases(draw):
    """A random rule, a raw configuration, an interval left of, inside, right
    of or straddling its head, and a horizon long enough for several
    re-canonicalizations of the stepped state."""
    size = draw(st.integers(2, 4))
    m, n = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    rng = random.Random(draw(st.integers(0, 2**32)))
    table = bytes(rng.randrange(size) for _ in range(size ** (m + n + 1)))
    automaton = Automaton(LocalRule(Alphabet(size), m, n, table))
    sym = st.integers(0, size - 1)
    lp = draw(st.lists(sym, min_size=1, max_size=5))
    head = draw(st.lists(sym, max_size=20))
    rp = draw(st.lists(sym, min_size=1, max_size=5))
    x = Configuration(Alphabet(size), draw(st.integers(-10, 10)), lp, head, rp)
    start, end = x.anchor, x.anchor + len(x.head)
    place = draw(st.sampled_from(["left", "inside", "right", "straddle"]))
    if place == "left":
        j = start - 1 - draw(st.integers(0, 6))
        i = j - draw(st.integers(0, 8))
    elif place == "inside" and x.head:
        i = start + draw(st.integers(0, len(x.head) - 1))
        j = draw(st.integers(i, end - 1))
    elif place == "right":
        i = end + draw(st.integers(0, 6))
        j = i + draw(st.integers(0, 8))
    else:
        i, j = start - draw(st.integers(1, 6)), end + draw(st.integers(0, 6))
    return automaton, x, i, j, draw(st.integers(1, 400))


@given(column_cases(), st.data())
@settings(max_examples=80, deadline=None)
def test_column_consumers_match_the_canonical_orbit(case, data):
    automaton, x, i, j, horizon = case
    rows = trace_oracle(automaton, x, i, j, horizon)
    assert trace(automaton, x, i, j, horizon) == rows

    lengths = data.draw(st.sets(st.integers(1, j - i + 1), min_size=1))
    want = {n: len({row[:n] for t, row in enumerate(rows) if 2 * t >= horizon - 1})
            for n in lengths}
    assert limit_point_census(automaton, x, i, horizon - 1, lengths) == want

    levels = default_palette(x.alphabet.size)
    raster = "".join(" ".join(str(levels[s]) for s in row) + "\n" for row in rows)
    out = io.StringIO()
    render_to(out, automaton, x, RenderSpec(horizon, i, j, "pgm"))
    assert out.getvalue() == f"P2\n{j - i + 1} {horizon}\n255\n" + raster


def test_columns_work_is_linear_in_the_steps(monkeypatch):
    # eca:204 keeps a one-symbol head, but the stepped state's head grows by
    # two symbols a step until it is canonicalized again
    mapped = []
    real = leftex.rules.map_windows

    def counting(rule, samples):
        mapped.append(len(samples))
        return real(rule, samples)

    monkeypatch.setattr(leftex.rules, "map_windows", counting)
    horizon = 2 * 10**4
    trace(eca(204), ONE, -3, 3, horizon)
    assert len(mapped) == horizon - 1
    assert sum(mapped) <= 100 * (horizon - 1)


# -- raw-state readers against the canonical orbit ---------------------------


@st.composite
def number_like_cases(draw):
    """A random quiescent rule, a number-like configuration with a random
    nonzero right period, and a horizon long enough for the walker to
    canonicalize mid-walk."""
    size = draw(st.integers(2, 4))
    m, n = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    rng = random.Random(draw(st.integers(0, 2**32)))
    table = bytes([0] + [rng.randrange(size) for _ in range(size ** (m + n + 1) - 1)])
    automaton = Automaton(LocalRule(Alphabet(size), m, n, table))
    sym = st.integers(0, size - 1)
    head = draw(st.lists(sym, max_size=12))
    rp = draw(st.lists(sym, min_size=1, max_size=6))
    rp[draw(st.integers(0, len(rp) - 1))] = draw(st.integers(1, size - 1))
    x = Configuration(Alphabet(size), draw(st.integers(-10, 10)), b"\x00", head, rp)
    return automaton, x, draw(st.integers(1, 400))


@given(number_like_cases(), st.data())
@settings(max_examples=60, deadline=None)
def test_orbit_consumers_match_the_canonical_orbit(case, data):
    automaton, x, horizon = case
    base = x.anchor
    edges = edge_trajectory_oracle(automaton, x, horizon)
    witness = next((t for t, edge in edges if edge < base), None)
    assert left_spreading_witnesses(automaton, [x], horizon) == [witness]
    rate = max((Fraction(base - edge, t) for t, edge in edges if 2 * t >= horizon), default=None)
    speed = estimate_spreading_speed(automaton, [x], horizon)
    assert speed.per_sample == (rate,)
    assert speed.estimate == (Fraction(0) if rate is None else rate)

    c = data.draw(st.integers(x.anchor - 4, x.anchor + len(x.head) + 4))
    assert recurrence_scan(automaton, x, c, horizon) == recurrence_oracle(automaton, x, c, horizon)


@st.composite
def recurring_cases(draw):
    """A symbol permutation after a one-cell shift to the right, and a
    spatially periodic configuration: its tails recur often, each step reads
    the left period into them, and the horizon passes the walker's first
    re-canonicalization."""
    size = draw(st.integers(2, 4))
    perm = draw(st.permutations(range(size)))
    table = bytes(perm[a] for a in range(size) for _ in range(size))  # f(a, b) = perm[a]
    automaton = Automaton(LocalRule(Alphabet(size), 1, 0, table))
    period = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=4))
    period[0] = draw(st.integers(1, size - 1))
    x = Configuration(Alphabet(size), draw(st.integers(-5, 5)), period, b"", period)
    return automaton, x, draw(st.integers(70, 300))


@given(recurring_cases(), st.integers(-6, 6))
@settings(max_examples=60, deadline=None)
def test_recurrences_past_recanonicalization_match_the_canonical_orbit(case, c):
    automaton, x, horizon = case
    assert recurrence_scan(automaton, x, c, horizon) == recurrence_oracle(automaton, x, c, horizon)
