"""The orbit walker and its readers, and how many rows each walk maps.

Every walk that reads less than a whole configuration reads the raw states
of one walker, rules._walk, told how many rows it will read: rules.columns
reads a window off each, or walks the light cone of its window once that
is narrower, and the spreading and recurrence scans read a left edge or a
tail off each state of rules._states.  rules.orbit steps canonical
configurations with rules.apply.  Every row any of them maps comes from
one rules._map_rows call: a rules._step call maps one row, or, for a
bit-sliced rule, k rows in a column walk (64) or in a state walk (1, 2,
4, ... up to 64 rows), and a cone maps k rows per call and its last rows
in one more call (bit-sliced) or one per call.  Counting the rows of
those calls pins each consumer to the number of images it needs: a walk
that reads its whole row count maps no row past it, and one that stops
early maps at most one lookup ahead, no longer than the rows it read.
The bit-sliced state walk is compared with the one-row walker it replaced
(oracles.one_row_states_oracle) state by state, as configurations, since
the two re-canonicalize at different rows.
Narrow column windows of mul:p/q over standard number-like x map no row
at all: they are read off xi * (p/q)**t by numeric's arithmetic kernel,
and compared with the walker on a twin rule built without the kernel.
"""

import collections
import contextlib
import copy
import io
import itertools
import pickle
import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

import leftex.numeric
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
    fractional_multiplication_rule,
    left_spreading_witnesses,
    limit_point_census,
    orbit,
    rational_to_config,
    recurrence_scan,
    render_to,
    verify_mul,
)
from leftex.cli import main
from leftex.configuration import _window, parse_configuration
from leftex.errors import AlphabetMismatch, OutOfRange
from leftex.numeric import _pack_width
from leftex.rules import _BIT_ROWS, _MAX_PREFIX, _UNPACK_CELLS, _states

from oracles import (
    census_oracle,
    edge_trajectory_oracle,
    one_row_states_oracle,
    raw_configurations,
    recurrence_oracle,
    simulate_zero_padded,
    trace_oracle,
)

A2 = Alphabet(2)
ONE = Configuration.single(A2, 1)
TRIPLE = Configuration(A2, 0, b"\x00", b"\x01\x01\x01", b"\x00")


@contextlib.contextmanager
def counting_steps():
    """Yield a list that grows by (rows, symbols) for each word mapped by
    rules._map_rows, the one call behind every row: rules._step (so
    rules.apply and the orbit walker, one row or k rows) and each
    lookup of a column cone."""
    mapped = []
    real = leftex.rules._map_rows

    def counting(rule, symbols, k=1, lo=0, width=0):
        mapped.append((k, len(symbols)))
        return real(rule, symbols, k, lo, width)

    leftex.rules._map_rows = counting
    try:
        yield mapped
    finally:
        leftex.rules._map_rows = real


def rows_of(mapped):
    return sum(k for k, _ in mapped)


def symbols_of(mapped):
    return sum(count for _, count in mapped)


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


def test_orbit_checks_the_alphabet_at_its_first_step():
    x = Configuration.single(Alphabet(3), 2)
    images = orbit(eca(30), x)
    assert next(images) is x
    with pytest.raises(AlphabetMismatch):
        next(images)


def test_columns_are_lazy(applied):
    # rule 30 maps its rows _BIT_ROWS per bit-sliced lookup, so a walk is
    # lazy to within one lookup: k-1 rows past the words taken
    k = _BIT_ROWS
    for rows in (10, 3000):
        want = trace_oracle(eca(30), ONE, -2, 2, rows)
        applied.clear()
        walk = columns(eca(30), ONE, -2, 2, rows)
        assert next(walk) == want[0] and not applied
        for taken, row in enumerate(walk, 2):
            assert row == want[taken - 1]
            assert taken - 1 <= rows_of(applied) <= taken - 1 + k - 1
        assert rows_of(applied) == rows - 1
    assert any(step == k for step, _ in applied)


def test_trace_and_render_step_counts(applied):
    list(columns(eca(30), ONE, -3, 3, 7))
    assert rows_of(applied) == 6
    applied.clear()
    list(columns(eca(30), ONE, 0, 0, 1))
    assert not applied
    render_to(io.StringIO(), eca(30), ONE, RenderSpec(5, -4, 4, "pbm"))
    assert rows_of(applied) == 4


def test_scan_step_counts(applied):
    recurrence_scan(eca(90), ONE, 0, 9)
    assert rows_of(applied) == 9
    applied.clear()
    limit_point_census(eca(30), ONE, 0, 9, [1, 2])
    assert rows_of(applied) == 9
    applied.clear()
    limit_point_census(eca(30), ONE, 0, 0, [1, 2])
    assert not applied


def test_verify_mul_step_count(applied):
    assert verify_mul(MulSpec(3, 2), "7/4", 3)
    assert len(applied) == 6


def assert_state_walk_rows(applied, horizon, steps):
    """A state walk that reads ``steps`` rows maps exactly its horizon when
    it reads all of it, and else at most one lookup ahead, which ramps
    1, 2, 4, ... rows, so no more rows than it read."""
    if steps == horizon:
        assert rows_of(applied) == steps
    else:
        assert steps <= rows_of(applied) <= 2 * steps - 1


@pytest.mark.parametrize("rule, sample, horizon, steps", [
    (30, ONE, 6, 1),      # the edge moves left at t = 1
    (0, ONE, 6, 1),       # zero at t = 1
    (128, TRIPLE, 6, 2),  # zero at t = 2
    (240, ONE, 6, 6),     # the edge only moves right
])
def test_spreading_witness_step_counts(applied, rule, sample, horizon, steps):
    left_spreading_witnesses(eca(rule), [sample], horizon)
    assert_state_walk_rows(applied, horizon, steps)


@pytest.mark.parametrize("rule, sample, horizon, steps", [
    (30, ONE, 6, 6),
    (0, ONE, 6, 1),
    (128, TRIPLE, 6, 2),
])
def test_spreading_speed_step_counts(applied, rule, sample, horizon, steps):
    estimate_spreading_speed(eca(rule), [sample], horizon)
    assert_state_walk_rows(applied, horizon, steps)


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
    assert limit_point_census(automaton, x, i, horizon - 1, lengths) == census_oracle(
        rows, horizon - 1, lengths)

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
    assert rows_of(applied) == horizon - 1
    assert symbols_of(applied) <= 100 * (horizon - 1)


# -- the walker against the canonical orbit --------------------------------


@st.composite
def walker_cases(draw):
    """A random rule, or the identity eca:204 or the shift eca:170, whose
    canonical heads stay short while the walker's raw head grows, and a
    configuration with periodic tails, over enough steps to cross the
    walker's re-canonicalization threshold several times."""
    kind = draw(st.sampled_from(["random", "eca:204", "eca:170"]))
    if kind == "random":
        size = draw(st.integers(2, 4))
        m, n = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        rng = random.Random(draw(st.integers(0, 2**32)))
        table = bytes(rng.randrange(size) for _ in range(size ** (m + n + 1)))
        automaton = Automaton(LocalRule(Alphabet(size), m, n, table))
    else:
        automaton, size = eca(int(kind[4:])), 2
    sym = st.integers(0, size - 1)
    x = Configuration(Alphabet(size), draw(st.integers(-10, 10)),
                      draw(st.lists(sym, min_size=1, max_size=5)),
                      draw(st.lists(sym, max_size=12)),
                      draw(st.lists(sym, min_size=1, max_size=5)))
    return automaton, x, draw(st.integers(200, 320))


@given(walker_cases())
@settings(max_examples=40, deadline=None)
def test_walker_states_match_the_canonical_orbit(case):
    automaton, x, steps = case
    states = _states(automaton, x, steps)
    assert [Configuration(x.alphabet, *state) for state in states] == \
        list(itertools.islice(orbit(automaton, x), steps))


# -- bit-sliced state walks against the one-row walker ----------------------


@st.composite
def bit_sliced_walks(draw):
    """A binary rule of at most 8 entries at any (m, n) with m+n <= 2, a
    configuration with periodic tails on both sides, a head of 0 to 16
    cells, and 1 to 400 rows: enough for the lookups to ramp up to
    _BIT_ROWS rows and the walker to re-canonicalize; and how many of the
    rows to take."""
    m, n = draw(st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]))
    table = bytes(draw(st.lists(st.integers(0, 1), min_size=2 ** (m + n + 1),
                                max_size=2 ** (m + n + 1))))
    bit = st.integers(0, 1)
    x = Configuration(A2, draw(st.integers(-10, 10)), draw(st.lists(bit, min_size=1, max_size=5)),
                      draw(st.lists(bit, max_size=16)), draw(st.lists(bit, min_size=1, max_size=5)))
    rows = draw(st.integers(1, 400))
    return Automaton(LocalRule(A2, m, n, table)), x, rows, draw(st.integers(1, rows))


@given(bit_sliced_walks())
@settings(max_examples=150, deadline=None)
# eca:170 shifts left, so the walk reads the left period 011 into every state
@example((eca(170), Configuration(A2, 0, b"\x00\x01\x01", b"", b"\x00\x01\x01"), 300, 150))
def test_bit_sliced_state_walks_match_the_one_row_walker(case):
    """The k-row walk re-canonicalizes at other rows than the one-row
    walker, so its raw layouts differ; its states are compared as the
    configurations they spell.  Told its row count, it maps exactly the
    rows below the first; a walk that stops early maps at most one lookup
    ahead, which is no longer than the rows it read."""
    automaton, x, rows, taken = case
    want = [Configuration(A2, *state) for state in one_row_states_oracle(automaton, x, rows)]
    with counting_steps() as mapped:
        # one more than the rows asked for: a walk that overruns fails, not hangs
        got = list(itertools.islice(_states(automaton, x, rows), rows + 1))
    assert [Configuration(A2, *state) for state in got] == want
    assert rows_of(mapped) == rows - 1
    with counting_steps() as mapped:
        got = list(itertools.islice(_states(automaton, x, rows), taken))
    assert [Configuration(A2, *state) for state in got] == want[:taken]
    assert taken - 1 <= rows_of(mapped) <= max(2 * (taken - 1) - 1, 0)


def test_a_long_walk_of_a_non_binary_rule_holds_no_table():
    """The traced peak of an 8 001-row, 8-column walk of mul:5/2's twin
    without the arithmetic kernel, from 37, stays under 256 KB: the walk
    maps one row per lookup through the rule's own table, where a table
    over every neighborhood of two rows (10^5 words) would alone take
    about 200 KB."""
    twin = walking_twin(fractional_multiplication_rule(MulSpec(5, 2)))
    x = parse_configuration("[L:0] 37 [R:0] @0", twin.alphabet)
    tracemalloc.start()
    try:
        last = collections.deque(columns(twin, x, 0, 7, 8001), maxlen=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert last and peak < 256 * 2**10


def test_state_walk_memory_holds_one_lookup_of_packed_rows():
    """The traced peak of a 20 000-row eca:90 recurrence scan, whose last
    state spans about 40 000 cells, holds the packed rows of one lookup
    (_BIT_ROWS rows at a bit a cell), a few states and one unpacked group
    of rows, where unpacking all the rows of a lookup at once would hold
    _BIT_ROWS states."""
    tracemalloc.start()
    try:
        recurrence_scan(eca(90), ONE, 0, 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cells = 2 * 20000 + 3
    assert peak < (_BIT_ROWS // 8 + 8) * cells + 2 * _UNPACK_CELLS


# -- bounded column walks against the canonical orbit ----------------------


@st.composite
def cone_cases(draw):
    """A random rule, m+n = 0 included, over 2 or 3 symbols, or a (1,1)
    rule over 10 symbols like mul:5/2, a raw configuration, a window that
    may be far from the head or wider than the whole state, and a row count
    from 0 up to past the walker's re-canonicalizations, up to enough rows
    that a bit-sliced rule maps whole 64-row lookups, and single rows where
    the window leaves the stepped state and in the cone's tail."""
    size = draw(st.sampled_from([2, 3, 10]))
    if size == 10:
        m, n = 1, 1
    else:
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
    rows = draw(st.sampled_from([0, 1, 2, 3, 50, 150, 400, 2503]))
    return automaton, x, i, j, rows


@given(cone_cases())
@settings(max_examples=120, deadline=None)
def test_bounded_columns_match_the_canonical_orbit(case):
    automaton, x, i, j, rows = case
    with counting_steps() as mapped:
        # one more than the rows asked for: a walk that overruns fails, not hangs
        got = list(itertools.islice(columns(automaton, x, i, j, rows), rows + 1))
    assert len(got) == rows
    assert rows_of(mapped) == max(rows - 1, 0)
    assert got == trace_oracle(automaton, x, i, j, rows)


@pytest.mark.parametrize("rule, i, j, rows", [
    (30, -2, 2, 40),       # fewer rows than one lookup maps: the cone from t = 0
    (30, -300, 300, 40),   # a window wider than the state for every row
    (30, 500, 520, 3),     # far right of the head
    (204, -3, 3, 300),     # a head that re-canonicalizes before the switch
    (0, -1, 1, 1),         # one row, no step
    (30, -3, 3, 1003),     # 64 rows per lookup from t = 0, the cone's from t = 448
    (30, -3, 3, 1006),     # the same, then a 45-row lookup
])
def test_bounded_columns_take_exactly_their_rows(applied, rule, i, j, rows):
    want = trace_oracle(eca(rule), ONE, i, j, rows)
    applied.clear()
    assert list(itertools.islice(columns(eca(rule), ONE, i, j, rows), rows + 1)) == want
    assert rows_of(applied) == rows - 1


def test_mul_3_2_columns_match_the_canonical_orbit():
    # mul:3/2 has a 216-entry table, so its rows are mapped by the short-word
    # kernel up to rules._SHORT_WORD symbols and by numpy past it
    automaton = fractional_multiplication_rule(MulSpec(3, 2))
    x = Configuration(Alphabet(6), -1, b"\x00", b"\x01\x05\x03", b"\x00")
    for i, j, rows in ((-3, 3, 900), (-40, 40, 1200), (0, 0, 1)):
        got = list(columns(automaton, x, i, j, rows))
        assert got == trace_oracle(automaton, x, i, j, rows)
    # the rows of a zero-padded simulation, which uses no kernel of leftex
    want = simulate_zero_padded(
        {tuple(w): v for w, v in zip(itertools.product(range(6), repeat=3),
                                     automaton.rule.table)},
        1, 1, x, -3, 3, 200)
    assert [list(row) for row in columns(automaton, x, -3, 3, 201)] == want


def test_mul_5_2_columns_match_the_canonical_orbit(applied):
    # mul:5/2 has a 1000-entry table, so every row the walker maps is a numpy
    # lookup of one row.  Narrow windows of mul:5/2 itself take the
    # arithmetic kernel, so the walk is read off its twin, an equal table
    # built without the kernel
    automaton = fractional_multiplication_rule(MulSpec(5, 2))
    twin = walking_twin(automaton)
    x = Configuration(Alphabet(10), -1, b"\x00", b"\x01\x05\x03", b"\x00")
    for i, j, rows in ((-3, 3, 900), (-40, 40, 1200), (0, 0, 1)):
        got = list(columns(automaton, x, i, j, rows))
        assert got == trace_oracle(automaton, x, i, j, rows)
    # a window left of the head, which the integer part reaches near t = 1000:
    # the walk steps one row per lookup, outside the stepped cells and inside
    want = trace_oracle(automaton, x, -400, -390, 1200)
    applied.clear()
    assert list(columns(twin, x, -400, -390, 1200)) == want
    assert {k for k, _ in applied} == {1}
    applied.clear()
    assert list(columns(automaton, x, -400, -390, 1200)) == want and not applied
    # the rows of a zero-padded simulation, which uses no kernel of leftex
    want = simulate_zero_padded(
        {tuple(w): v for w, v in zip(itertools.product(range(10), repeat=3),
                                     automaton.rule.table)},
        1, 1, x, -3, 3, 200)
    assert [list(row) for row in columns(automaton, x, -3, 3, 201)] == want


def test_bounded_columns_switch_to_the_cone(applied):
    # rows over one column from a single 1: rule 30 maps k = _BIT_ROWS rows
    # per bit-sliced lookup from the first row.  Its raw state at t is its
    # canonical one, 1 + 2t head symbols between two one-symbol periods, so
    # the k-row step maps 3 + 2k*span + 2t symbols.  The walk steps the state
    # until the cone of the remaining rows is no wider than that; from there
    # on it maps the cone k rows per lookup and its last left mod k rows in
    # one lookup (one row, if one is left)
    span, k = 2, _BIT_ROWS
    step_word = 3 + 2 * k * span
    for rows, switch, tail_rows in ((2000, 960, 15), (1985, 960, 0), (1986, 960, 1)):
        left = rows - 1 - switch
        assert switch % k == 0 and left >= k
        # the first multiple of k where the cone fits, and not the one before
        assert 1 + left * span <= step_word + switch * span
        assert 1 + (left + k) * span > step_word + (switch - k) * span
        walk = [step_word + t * span for t in range(0, switch, k)]
        cones = [1 + r * span for r in range(left, left % k, -k)]
        tail = [(left % k, 1 + left % k * span)] if left % k else []
        states = list(_states(eca(30), ONE, rows))
        applied.clear()
        assert list(columns(eca(30), ONE, 0, 0, rows)) == \
            [_window(*state, 0, 0) for state in states]
        assert applied == [(k, w) for w in walk] + [(k, c) for c in cones] + tail
        assert sum(step for step, _ in tail) == tail_rows
        # under a tenth of the symbols a one-row walker maps for the same rows
        assert symbols_of(applied) < 0.1 * sum(3 + 2 * span + t * span for t in range(rows - 1))


def test_negative_row_count_is_out_of_range():
    with pytest.raises(OutOfRange):
        columns(eca(30), ONE, 0, 0, -1)
    assert list(columns(eca(30), ONE, 0, 0, 0)) == []


def test_windows_wider_than_the_prefix_bound_are_out_of_range(monkeypatch):
    """A window of more than _MAX_PREFIX cells is refused at the call,
    before a row is walked or a window word is cut."""
    def no_walk(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(leftex.rules, "_walk", no_walk)
    monkeypatch.setattr(leftex.rules, "_window", no_walk)
    for j in (_MAX_PREFIX, 99999999999):
        with pytest.raises(OutOfRange, match="wider than"):
            columns(eca(30), ONE, 0, j, 10)
    monkeypatch.undo()
    rows = list(columns(eca(30), ONE, 0, _MAX_PREFIX - 1, 2))
    assert [len(row) for row in rows] == [_MAX_PREFIX] * 2 and rows[1][:3] == b"\x01\x01\x00"


def test_columns_check_the_alphabet_at_the_call():
    # like an empty window or a negative row count, before any row is taken
    with pytest.raises(AlphabetMismatch):
        columns(eca(30), Configuration.single(Alphabet(3), 2), 0, 0, 3)


def test_rule_equality_hash_and_pickle_ignore_the_kernel_arrays():
    rule = eca(30).rule
    twin = LocalRule(A2, 1, 1, bytes(rule.table))
    walked = list(columns(Automaton(rule), ONE, 0, 0, 3000))  # computes rule 30's bit form
    assert hasattr(rule, "_bit_terms") and not hasattr(twin, "_bit_terms")
    assert not hasattr(rule, "_block_tables")
    assert twin == rule and hash(twin) == hash(rule)
    assert repr(twin) == repr(rule) and "_table_array" not in repr(rule)
    blob = pickle.dumps(rule)
    assert b"numpy" not in blob and blob == pickle.dumps(twin)
    back = pickle.loads(blob)
    assert back == rule and hash(back) == hash(rule)
    assert not hasattr(back, "_bit_terms")
    assert back._table_array.tobytes() == rule.table
    assert back._index_dtype == rule._index_dtype
    assert copy.deepcopy(rule) == rule
    assert list(columns(Automaton(back), ONE, -3, 3, 5)) == \
        list(columns(eca(30), ONE, -3, 3, 5))
    assert list(columns(Automaton(back), ONE, 0, 0, 3000)) == walked
    # a long walk of a rule that is not bit-sliced leaves nothing on the rule
    # beyond the arrays it was built with
    mul = fractional_multiplication_rule(MulSpec(3, 2)).rule
    mul = LocalRule(mul.alphabet, mul.memory, mul.anticipation, mul.table)
    start = Configuration.single(mul.alphabet, 1)
    walked = list(columns(Automaton(mul), start, 0, 0, 1000))
    assert sorted(vars(mul)) == sorted(["alphabet", "memory", "anticipation", "table",
                                        "_table_array", "_index_dtype", "_translation",
                                        "_packed"])
    back = pickle.loads(pickle.dumps(mul))
    assert back == mul and hash(back) == hash(mul) and sorted(vars(back)) == sorted(vars(mul))
    assert pickle.dumps(back) == pickle.dumps(mul)
    assert list(columns(Automaton(back), start, 0, 0, 1000)) == walked
    # mul:5/2's arithmetic column kernel is ignored the same way, and a copy
    # without it walks to the same words
    mul = fractional_multiplication_rule(MulSpec(5, 2)).rule
    twin = LocalRule(mul.alphabet, 1, 1, bytes(mul.table))
    assert hasattr(mul, "_column_kernel") and not hasattr(twin, "_column_kernel")
    assert twin == mul and hash(twin) == hash(mul) and repr(twin) == repr(mul)
    assert "_column_kernel" not in repr(mul) and pickle.dumps(mul) == pickle.dumps(twin)
    for back in (pickle.loads(pickle.dumps(mul)), copy.deepcopy(mul)):
        assert back == mul and hash(back) == hash(mul) and not hasattr(back, "_column_kernel")
        start = rational_to_config(Fraction(37, 7), 10)
        with counting_steps() as mapped:
            walked = list(columns(Automaton(back), start, 4, 11, 300))
        assert mapped and walked == list(columns(Automaton(mul), start, 4, 11, 300))


# -- the multiplication automata's arithmetic column kernel ------------------


MUL_SPECS = [(3, 2), (5, 2), (5, 3), (7, 2), (7, 3), (7, 4), (5, 4), (7, 5), (11, 3), (13, 11)]


def walking_twin(automaton):
    """An equal rule built without the kernel, so its column walks walk."""
    rule = automaton.rule
    return Automaton(LocalRule(rule.alphabet, rule.memory, rule.anticipation, rule.table))


@st.composite
def mul_column_cases(draw):
    """mul:p/q, a standard number-like x worth an integer, a terminating
    value (a power of pq as denominator), a purely periodic or a mixed
    rational, a window of 1 up to a limb's width of cells at -30 .. 30
    (integer digits, the radix point and cells right of the head) and
    0 .. 600 rows."""
    p, q = draw(st.sampled_from(MUL_SPECS))
    base = p * q
    coprime = st.integers(2, 5000).filter(lambda c: gcd(c, base) == 1)
    kind = draw(st.sampled_from(["integer", "terminating", "periodic", "mixed"]))
    if kind == "integer":
        xi = Fraction(draw(st.integers(1, 10**15)))
    elif kind == "terminating":
        xi = Fraction(draw(st.integers(1, 10**15)), base ** draw(st.integers(0, 12)))
    elif kind == "periodic":
        c = draw(coprime)
        xi = Fraction(draw(st.integers(1, c - 1)), c)
    else:
        den = draw(coprime) * draw(st.sampled_from([p, q, base])) ** draw(st.integers(1, 6))
        xi = Fraction(draw(st.integers(1, 10**9)), den)
    i = draw(st.integers(-30, 30))
    j = i + draw(st.integers(1, _pack_width(base))) - 1
    return fractional_multiplication_rule(MulSpec(p, q)), rational_to_config(xi, base), i, j, \
        draw(st.integers(0, 600))


@given(mul_column_cases())
@settings(max_examples=300, deadline=None)
@example((fractional_multiplication_rule(MulSpec(5, 2)), rational_to_config(Fraction(37), 10),
          4, 11, 600))
def test_mul_column_kernel_matches_the_walker(case):
    """Narrow windows of a standard number-like x under mul:p/q are read
    off xi * (p/q)**t and map no row; they equal the walker's words on the
    kernel-less twin and, on short walks, the canonical orbit's."""
    automaton, x, i, j, rows = case
    with counting_steps() as mapped:
        got = list(itertools.islice(columns(automaton, x, i, j, rows), rows + 1))
    assert not mapped
    assert got == list(columns(walking_twin(automaton), x, i, j, rows))
    if rows <= 30:
        assert got == trace_oracle(automaton, x, i, j, rows)


def test_mul_column_kernel_is_lazy_to_within_one_group(monkeypatch):
    automaton = fractional_multiplication_rule(MulSpec(3, 2))
    x = rational_to_config(Fraction(5, 7), 6)
    rows = 2 * _BIT_ROWS + 5
    want = list(columns(walking_twin(automaton), x, -2, 5, rows))
    split, computed = leftex.numeric._limbs_to_digits, []

    def counting(limbs, base):
        computed.append(len(limbs))
        return split(limbs, base)

    monkeypatch.setattr(leftex.numeric, "_limbs_to_digits", counting)
    walk = columns(automaton, x, -2, 5, rows)
    assert not computed
    assert next(walk) == want[0] and computed == [_BIT_ROWS]
    assert list(itertools.islice(walk, _BIT_ROWS)) == want[1:_BIT_ROWS + 1]
    assert computed == [_BIT_ROWS] * 2
    assert list(walk) == want[_BIT_ROWS + 1:] and computed == [_BIT_ROWS] * 2 + [5]


@pytest.mark.parametrize("x, i, j", [
    # a nonzero left tail and the all-zero configuration are not number-like
    (Configuration(Alphabet(10), 0, b"\x03", b"\x01", b"\x00"), 0, 7),
    (Configuration.zero(Alphabet(10)), 0, 7),
    # a (pq-1)-tail: the walker reads its digits, not the standard ones of 0.2
    (Configuration(Alphabet(10), 0, b"\x00", b"\x01", b"\x09"), 0, 7),
    # a window one cell wider than an int64 limb of base-10 digits
    (rational_to_config(Fraction(37, 7), 10), 0, _pack_width(10)),
    # an anchor, or a window, past the prefix bound
    (Configuration(Alphabet(10), _MAX_PREFIX + 1, b"\x00", b"\x01", b"\x00"), 0, 7),
    (rational_to_config(Fraction(37, 7), 10), _MAX_PREFIX + 1, _MAX_PREFIX + 8),
])
def test_ineligible_mul_columns_walk(applied, x, i, j):
    automaton = fractional_multiplication_rule(MulSpec(5, 2))
    want = list(columns(walking_twin(automaton), x, i, j, 60))
    applied.clear()
    assert list(columns(automaton, x, i, j, 60)) == want
    assert rows_of(applied) == 59


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


#: a (0,1) rule over 3 symbols under which a single 1 turns into a 2 and the
#: 2 into a 1 one cell to its left: the left edge moves one cell every two steps
HALF = Automaton(LocalRule(Alphabet(3), 0, 1, bytes([0, 0, 1, 2, 2, 1, 0, 0, 1])))


@pytest.mark.parametrize("automaton, x, horizon, rate, ties", [
    (eca(0), ONE, 6, None, 0),          # zero at t = 1, before horizon/2: no ratio
    (eca(240), ONE, 6, Fraction(-1), 4),  # the edge moves right: every ratio is -1
    (HALF, Configuration.single(Alphabet(3), 1), 6, Fraction(1, 2), 2),  # 2/4 and 3/6
])
def test_speed_edge_cases_match_the_canonical_orbit(automaton, x, horizon, rate, ties):
    edges = edge_trajectory_oracle(automaton, x, horizon)
    ratios = [Fraction(x.anchor - edge, t) for t, edge in edges if 2 * t >= horizon]
    assert max(ratios, default=None) == rate and ratios.count(rate) == ties
    speed = estimate_spreading_speed(automaton, [x], horizon)
    assert speed.per_sample == (rate,)
    assert speed.estimate == (Fraction(0) if rate is None else rate)


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


@st.composite
def raw_recurring_cases(draw):
    """A configuration that is not number-like and whose left and right
    periods differ, under a rule that maps one cell of its neighbourhood
    through a map g of the symbols (a permutation or not), so tails recur
    whenever a power of g fixes them while the raw head grows by m+n cells a
    step and the raw right period need not be the tail's primitive period; a
    start c left of the anchor, inside the head or past its end; and a
    horizon past the walker's first re-canonicalization."""
    x = draw(raw_configurations())
    assume(not x.is_number_like and x.left_period != x.right_period)
    size = x.alphabet.size
    m, n = draw(st.sampled_from([(1, 0), (0, 1), (1, 1)]))
    read = draw(st.integers(0, m + n))  # the cell g reads, counted from the left
    g = draw(st.one_of(st.permutations(range(size)),
                       st.lists(st.integers(0, size - 1), min_size=size, max_size=size)))
    table = bytes(g[w // size ** (m + n - read) % size] for w in range(size ** (m + n + 1)))
    automaton = Automaton(LocalRule(x.alphabet, m, n, table))
    end = x.anchor + len(x.head)
    c = draw(st.one_of(st.integers(x.anchor - 6, x.anchor - 1),
                       st.integers(x.anchor, max(x.anchor, end - 1)),
                       st.integers(end, end + 6)))
    return automaton, x, c, draw(st.integers(80, 250))


@given(raw_recurring_cases())
@settings(max_examples=100, deadline=None)
# x AND its left neighbour: the right period 01 turns into 00, which the
# first re-canonicalization shortens to 0; leaving len(p) out of the
# comparison's length reads a false return at t = 65
@example((Automaton(LocalRule(A2, 1, 0, bytes([0, 0, 0, 1]))),
          Configuration(A2, 2, b"\x01", b"", b"\x00\x01"), 1, 90))
def test_recurrences_of_raw_configurations_match_the_canonical_orbit(case):
    automaton, x, c, horizon = case
    assert recurrence_scan(automaton, x, c, horizon) == recurrence_oracle(automaton, x, c, horizon)
