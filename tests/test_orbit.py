"""The orbit walker and its readers, and how many steps each walk spends.

Every walk that reads less than a whole configuration reads the raw states
of one walker, rules._states: rules.columns reads a window off each, or
walks the light cone of its window once that is narrower, and the spreading
and recurrence scans read a left edge or a tail off each.  rules.orbit
steps canonical configurations with rules.apply.  Every step of any of them
is one rules.map_windows call (a rules._step call maps one word, and so does
each row of a cone), so counting those calls pins each consumer to the
number of images it needs, and none of them computes one image too many.
"""

import contextlib
import copy
import io
import itertools
import pickle
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
    verify_mul,
)
from leftex.cli import main
from leftex.configuration import _window
from leftex.errors import OutOfRange
from leftex.rules import _states

from oracles import edge_trajectory_oracle, recurrence_oracle, trace_oracle

A2 = Alphabet(2)
ONE = Configuration.single(A2, 1)
TRIPLE = Configuration(A2, 0, b"\x00", b"\x01\x01\x01", b"\x00")


@contextlib.contextmanager
def counting_steps():
    """Yield a list that grows by the length of each word mapped by
    rules.map_windows, the one call behind every step: rules._step (so
    rules.apply and the orbit walker) and each row of a column cone."""
    mapped = []
    real = leftex.rules.map_windows

    def counting(rule, samples):
        mapped.append(len(samples))
        return real(rule, samples)

    leftex.rules.map_windows = counting
    try:
        yield mapped
    finally:
        leftex.rules.map_windows = real


@pytest.fixture
def applied():
    with counting_steps() as mapped:
        yield mapped


def test_orbit_is_lazy(applied):
    first = apply(eca(30), ONE)
    second = apply(eca(30), first)
    applied.clear()
    images = orbit(eca(30), ONE)
    assert next(images) is ONE and not applied
    assert next(images) == first and len(applied) == 1
    assert next(images) == second and len(applied) == 2


def test_columns_are_lazy(applied):
    rows = columns(eca(30), ONE, -2, 2, 10)
    assert next(rows) == b"\x00\x00\x01\x00\x00" and not applied
    assert next(rows) == b"\x00\x01\x01\x01\x00" and len(applied) == 1
    assert next(rows) == b"\x01\x01\x00\x00\x01" and len(applied) == 2


def test_trace_and_render_step_counts(applied):
    list(columns(eca(30), ONE, -3, 3, 7))
    assert len(applied) == 6
    applied.clear()
    list(columns(eca(30), ONE, 0, 0, 1))
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
    assert list(columns(automaton, x, i, j, horizon)) == rows

    lengths = data.draw(st.sets(st.integers(1, j - i + 1), min_size=1))
    want = {n: len({row[:n] for t, row in enumerate(rows) if 2 * t >= horizon - 1})
            for n in lengths}
    assert limit_point_census(automaton, x, i, horizon - 1, lengths) == want

    levels = default_palette(x.alphabet.size)
    raster = "".join(" ".join(str(levels[s]) for s in row) + "\n" for row in rows)
    out = io.StringIO()
    render_to(out, automaton, x, RenderSpec(horizon, i, j, "pgm"))
    assert out.getvalue() == f"P2\n{j - i + 1} {horizon}\n255\n" + raster


def test_columns_work_is_linear_in_the_steps(applied):
    # eca:204 keeps a one-symbol head, but the stepped state's head grows by
    # two symbols a step until it is canonicalized again
    horizon = 2 * 10**4
    list(columns(eca(204), ONE, -3, 3, horizon))
    assert len(applied) == horizon - 1
    assert sum(applied) <= 100 * (horizon - 1)


# -- bounded column walks against the canonical orbit ----------------------


@st.composite
def cone_cases(draw):
    """A random rule, m+n = 0 included, a raw configuration, a window that
    may be far from the head or wider than the whole state, and a row count
    from 0 up to past the walker's re-canonicalizations."""
    size = draw(st.integers(2, 3))
    m, n = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    rng = random.Random(draw(st.integers(0, 2**32)))
    table = bytes(rng.randrange(size) for _ in range(size ** (m + n + 1)))
    automaton = Automaton(LocalRule(Alphabet(size), m, n, table))
    sym = st.integers(0, size - 1)
    lp = draw(st.lists(sym, min_size=1, max_size=4))
    head = draw(st.lists(sym, max_size=12))
    rp = draw(st.lists(sym, min_size=1, max_size=4))
    x = Configuration(Alphabet(size), draw(st.integers(-10, 10)), lp, head, rp)
    i = x.anchor + draw(st.integers(-400, 400))
    j = i + draw(st.sampled_from([0, 1, 5, 40, 300]))
    rows = draw(st.sampled_from([0, 1, 2, 3, 50, 150, 400]))
    return automaton, x, i, j, rows


@given(cone_cases())
@settings(max_examples=120, deadline=None)
def test_bounded_columns_match_the_canonical_orbit(case):
    automaton, x, i, j, rows = case
    with counting_steps() as mapped:
        # one more than the rows asked for: a walk that overruns fails, not hangs
        got = list(itertools.islice(columns(automaton, x, i, j, rows), rows + 1))
    assert len(got) == rows
    assert len(mapped) == max(rows - 1, 0)
    assert got == trace_oracle(automaton, x, i, j, rows)


@pytest.mark.parametrize("rule, i, j, rows", [
    (30, -2, 2, 40),       # the cone is narrower than the state from t = 19
    (30, -300, 300, 40),   # a window wider than the state for every row
    (30, 500, 520, 3),     # far right of the head
    (204, -3, 3, 300),     # a head that re-canonicalizes before the switch
    (0, -1, 1, 1),         # one row, no step
])
def test_bounded_columns_take_exactly_their_rows(applied, rule, i, j, rows):
    want = trace_oracle(eca(rule), ONE, i, j, rows)
    applied.clear()
    assert list(itertools.islice(columns(eca(rule), ONE, i, j, rows), rows + 1)) == want
    assert len(applied) == rows - 1


def test_bounded_columns_switch_to_the_cone(applied):
    # 400 rows over one column from a single 1: from t = 198 on, the cone of
    # the remaining rows is no wider than the word the stepped state maps,
    # so the column walk maps about half the symbols of 400 walker states
    rows = [_window(*state, 0, 0) for _, state in zip(range(400), _states(eca(30), ONE))]
    stepped = sum(applied)
    applied.clear()
    assert list(columns(eca(30), ONE, 0, 0, 400)) == rows
    assert len(applied) == 399
    assert sum(applied) < stepped * 0.55


def test_negative_row_count_is_out_of_range():
    with pytest.raises(OutOfRange):
        columns(eca(30), ONE, 0, 0, -1)
    assert list(columns(eca(30), ONE, 0, 0, 0)) == []


def test_rule_equality_hash_and_pickle_ignore_the_kernel_arrays():
    rule = eca(30).rule
    twin = LocalRule(A2, 1, 1, bytes(rule.table))
    assert twin == rule and hash(twin) == hash(rule)
    assert "_table_array" not in repr(rule)
    blob = pickle.dumps(rule)
    assert b"numpy" not in blob
    back = pickle.loads(blob)
    assert back == rule and hash(back) == hash(rule)
    assert back._table_array.tobytes() == rule.table
    assert back._index_dtype == rule._index_dtype
    assert copy.deepcopy(rule) == rule
    assert list(columns(Automaton(back), ONE, -3, 3, 5)) == \
        list(columns(eca(30), ONE, -3, 3, 5))


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
