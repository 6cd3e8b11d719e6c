import random
from time import perf_counter

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from leftex import (
    Alphabet,
    Configuration,
    OneSidedSeq,
    format_configuration,
    fractional_part,
    left_edge,
    parse_configuration,
    seq_equal,
)
from leftex.configuration import _canonical_parts
from leftex.errors import (
    AlphabetMismatch,
    EmptyInterval,
    NotNumberLike,
    ParseError,
    SymbolOutOfRange,
)

from leftex.words import cyclic_slice

from oracles import canonical_parts_oracle, expand_oracle, raw_configurations, seq_prefix_oracle

A2 = Alphabet(2)
A10 = Alphabet(10)
ONE = Configuration.single(A2, 1)


def test_alphabet_validation():
    with pytest.raises(SymbolOutOfRange):
        Alphabet(0)
    with pytest.raises(SymbolOutOfRange):
        Alphabet(300)
    assert 0 in Alphabet(1)
    assert 5 not in Alphabet(3)


def test_symbols_must_fit_alphabet():
    with pytest.raises(SymbolOutOfRange):
        Configuration(A2, 0, b"\x00", b"\x02", b"\x00")
    with pytest.raises(SymbolOutOfRange):
        Configuration(A2, 0, b"", b"\x01", b"\x00")


def test_single_window():
    assert ONE.window(-1, 1) == bytes([0, 1, 0])


def test_zero_window():
    assert Configuration.zero(A2).window(5, 7) == bytes(3)


def test_window_empty_interval():
    with pytest.raises(EmptyInterval):
        ONE.window(2, 1)


def test_left_edge_single():
    assert left_edge(ONE) == 0
    assert left_edge(Configuration.single(A2, 1, -7)) == -7


def test_left_edge_rejects_zero():
    with pytest.raises(NotNumberLike):
        left_edge(Configuration.zero(A2))


def test_left_edge_rejects_nonzero_left_tail():
    x = Configuration(A2, 0, b"\x01", b"", b"\x00")
    with pytest.raises(NotNumberLike):
        left_edge(x)


def test_shift_examples():
    assert ONE.shift(1) == Configuration.single(A2, 1, -1)
    assert ONE.shift(0) == ONE


def test_canonical_absorbs_head_into_zero_tails():
    x = Configuration(A2, -3, b"\x00", b"\x00\x00\x00\x01\x00\x00", b"\x00")
    assert x == ONE
    assert x.anchor == 0 and x.head == b"\x01"


def test_canonical_primitive_periods():
    x = Configuration(A2, 0, b"\x01\x00\x01\x00", b"", b"\x01\x01")
    assert len(x.left_period) == 2
    assert x.right_period == b"\x01"


def test_fully_periodic_anchored_at_zero():
    # the same 2-periodic function written at several anchors normalizes
    # to a single representation
    expected = Configuration(A2, 0, [0, 1], [], [0, 1])
    for a in (-5, 0, 3, 4):
        w = [0, 1][(a % 2):] + [0, 1][:(a % 2)]
        x = Configuration(A2, a, w, [], w)
        assert x == expected and x.anchor == 0


def test_empty_head_anchor_slides_to_break():
    # ...00010101... : the zeros continue one step past the raw anchor
    x = Configuration(A2, 0, b"\x00", b"", b"\x00\x01")
    assert x.anchor == 1
    assert x.window(-2, 3) == bytes([0, 0, 0, 1, 0, 1])


@given(raw_configurations())
@settings(max_examples=150)
def test_canonical_idempotent(x):
    again = Configuration(x.alphabet, x.anchor, x.left_period, x.head, x.right_period)
    assert again == x


@given(raw_configurations(), st.integers(-12, 12), st.integers(0, 10))
@settings(max_examples=150)
def test_window_matches_pointwise_oracle(x, i, width):
    j = i + width
    got = list(x.window(i, j))
    assert got == expand_oracle(x, i, j)
    assert [x.at(k) for k in range(i, j + 1)] == got


@given(raw_configurations(), st.integers(-9, 9))
@settings(max_examples=100)
def test_shift_round_trip_and_pointwise(x, k):
    y = x.shift(k)
    assert y.shift(-k) == x
    for i in range(-6, 7):
        assert y.at(i) == x.at(i + k)


@given(raw_configurations(), st.integers(-5, 5))
@settings(max_examples=100)
def test_shift_moves_left_edge(x, k):
    if not x.is_number_like:
        return
    assert left_edge(x.shift(k)) == left_edge(x) - k


@given(raw_configurations(), st.integers(0, 3), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=150)
def test_equal_functions_have_equal_representations(x, pull, lreps, rreps):
    """Rebuild x from deliberately un-normalized parts: anchor pulled left
    into the periodic tail, periods written as proper powers."""
    n = len(x.left_period)
    anchor = x.anchor - pull
    head = x.window(anchor, x.anchor + len(x.head) - 1) if pull or x.head else b""
    lp_phase = bytes(x.left_period[(k - pull) % n] for k in range(n))
    y = Configuration(x.alphabet, anchor, lp_phase * lreps, head, x.right_period * rreps)
    assert y == x


@st.composite
def absorbable_parts(draw):
    """Raw parts whose head is a continuation of the left tail's cycle, a
    free core, and a backward continuation of the right tail's cycle."""
    sym = st.integers(0, draw(st.integers(2, 4)) - 1)
    lp = bytes(draw(st.lists(sym, min_size=1, max_size=4)))
    rp = bytes(draw(st.lists(sym, min_size=1, max_size=4)))
    core = bytes(draw(st.lists(sym, max_size=4)))
    front, back = draw(st.integers(0, 20)), draw(st.integers(0, 20))
    head = cyclic_slice(lp, 0, front) + core + cyclic_slice(rp, -back, back)
    return draw(st.integers(-8, 8)), lp, head, rp


@given(absorbable_parts())
@example((4, b"\x00\x01\x01", b"", b"\x00\x01\x01"))  # fully periodic, re-anchored
@settings(max_examples=300)
def test_canonical_parts_match_symbol_by_symbol_oracle(parts):
    assert _canonical_parts(*parts) == canonical_parts_oracle(*parts)
    _, _, head, rp = parts
    s = OneSidedSeq(Alphabet(max(head + rp) + 1), head, rp)
    assert list(s.prefix(len(head) + 8)) == seq_prefix_oracle(head, rp, len(head) + 8)
    assert not s.head or s.head[-1] != s.period[-1]


def test_canonicalization_is_linear_in_absorbed_symbols():
    """4*10^5 absorbable head symbols; absorbing them one copy at a time took
    about 3 s for each of these."""
    absorbable = 400_000
    A3 = Alphabet(3)
    start = perf_counter()
    x = Configuration(A3, 0, b"\x00", bytes(absorbable) + b"\x02", b"\x00")
    assert (x.anchor, x.head) == (absorbable, b"\x02")
    assert perf_counter() - start < 0.5
    start = perf_counter()
    y = Configuration(A3, 0, b"\x00", b"\x02" + b"\x01\x00" * (absorbable // 2), b"\x01\x00")
    assert (y.anchor, y.head, y.right_period) == (0, b"\x02", b"\x01\x00")
    assert perf_counter() - start < 0.5
    start = perf_counter()
    s = OneSidedSeq(A3, b"\x02" + b"\x00\x01" * (absorbable // 2), b"\x00\x01")
    assert (s.head, s.period) == (b"\x02", b"\x00\x01")
    assert perf_counter() - start < 0.5


def test_distinct_functions_differ():
    a = Configuration(A2, 0, b"\x00", b"\x01", b"\x00")
    b = Configuration(A2, 1, b"\x00", b"\x01", b"\x00")
    assert a != b
    assert a.window(0, 1) != b.window(0, 1)


# -- one-sided sequences -----------------------------------------------------


def test_fractional_part_of_single():
    s = fractional_part(ONE, 0)
    assert s.head == b"\x01" and s.period == b"\x00"


def test_fractional_part_inside_right_tail():
    x = Configuration(Alphabet(4), 0, b"\x00", b"\x03", b"\x01\x02")
    s = fractional_part(x, 4)
    #  indices 1,2,3,4,... cycle 1,2,1,2 -> from 4: 2,1,2,1
    assert s.head == b"" and s.period == b"\x02\x01"


@given(raw_configurations(), st.integers(-6, 6))
@settings(max_examples=100)
def test_fractional_part_matches_window(x, c):
    s = fractional_part(x, c)
    assert s.prefix(12) == x.window(c, c + 11)
    assert s.at(0) == x.window(c, c)[0]


def test_seq_equal_examples():
    a = OneSidedSeq(A2, b"\x01", b"\x00")
    assert seq_equal(a, OneSidedSeq(A2, b"\x01", b"\x00"))
    # same function, different raw spellings
    assert seq_equal(
        OneSidedSeq(A2, b"", b"\x00\x01"),
        OneSidedSeq(A2, b"\x00", b"\x01\x00"),
    )
    assert not seq_equal(
        OneSidedSeq(A2, b"", b"\x00"),
        OneSidedSeq(A2, b"\x01", b"\x00"),
    )


def test_seq_equal_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        seq_equal(OneSidedSeq(A2, b"", b"\x00"), OneSidedSeq(Alphabet(3), b"", b"\x00"))


def test_seq_equal_against_brute_force_1000():
    """Spec-scale randomized agreement with index-by-index comparison over
    max(head lengths) + 2*lcm(period lengths) entries."""
    from math import lcm

    rng = random.Random(20240817)
    for _ in range(1000):
        size = rng.randint(2, 4)
        alpha = Alphabet(size)

        def rand_seq():
            head = [rng.randrange(size) for _ in range(rng.randint(0, 4))]
            period = [rng.randrange(size) for _ in range(rng.randint(1, 4))]
            return head, period

        ha, pa = rand_seq()
        if rng.random() < 0.5:
            # same function, re-spelled: repeat the period, absorb a symbol
            reps = rng.randint(1, 3)
            hb, pb = ha + pa[:1], (pa[1:] + pa[:1]) * reps
        else:
            hb, pb = rand_seq()
        a = OneSidedSeq(alpha, ha, pa)
        b = OneSidedSeq(alpha, hb, pb)
        bound = max(len(ha), len(hb)) + 2 * lcm(len(pa), len(pb))
        brute = seq_prefix_oracle(ha, pa, bound) == seq_prefix_oracle(hb, pb, bound)
        assert seq_equal(a, b) == brute


# -- literals -----------------------------------------------------------------


def test_literal_round_trip():
    text = format_configuration(ONE)
    assert text == "[L:0] 1 [R:0] @0"
    assert parse_configuration(text, A2) == ONE


def test_literal_empty_head():
    x = Configuration(A10, 0, b"\x00", b"", b"\x03")
    text = format_configuration(x)
    assert parse_configuration(text, A10) == x


def test_literal_comma_words():
    big = Alphabet(16)
    x = Configuration(big, -1, b"\x00", bytes([11, 3]), b"\x00")
    text = format_configuration(x)
    assert "11,3" in text
    assert parse_configuration(text, big) == x


def test_literal_single_two_digit_symbol():
    # over wide alphabets a lone symbol 11 must not re-parse as two 1s
    big = Alphabet(16)
    x = Configuration(big, 0, bytes([11]), b"", bytes([11]))
    assert parse_configuration(format_configuration(x), big) == x
    y = Configuration(Alphabet(2), 0, [1], [], [1])
    assert parse_configuration("[L:11] [R:11] @0", Alphabet(2)) == y


@given(raw_configurations())
@settings(max_examples=100)
def test_literal_round_trip_random(x):
    assert parse_configuration(format_configuration(x), x.alphabet) == x


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse_configuration("[L:0] 1 [R:0]", A2)  # missing @anchor
    assert info.value.line == 1 and info.value.column >= 13
    with pytest.raises(ParseError):
        parse_configuration("[L:] 1 [R:0] @0", A2)  # empty period
    with pytest.raises(ParseError):
        parse_configuration("[L:0] 1 [R:0] @0 junk", A2)
    with pytest.raises(ParseError):
        parse_configuration("[L:0] 5 [R:0] @0", A2)  # symbol out of range


WIDE = Alphabet(16)
LONG_WORD = bytes(k % 16 for k in range(21))


@pytest.mark.parametrize("text, alphabet, expected", [
    ("\n[L:0]\n1\n[R:0]\n@0\n", A2, ONE),
    (" \t[L:0]  1\t[R:0]   @0  ", A2, ONE),
    ("[L:0]1[R:0]@0", A2, ONE),
    ("[L:0] [R:3] @0", A10, Configuration(A10, 0, b"\x00", b"", b"\x03")),
    ("[L:0][R:3]@0", A10, Configuration(A10, 0, b"\x00", b"", b"\x03")),
    ("[L:15,0] " + ",".join(map(str, LONG_WORD)) + " [R:0,15] @2", WIDE,
     Configuration(WIDE, 2, bytes([15, 0]), LONG_WORD, bytes([0, 15]))),
    ("[L:0] 1 [R:0] @-7", A2, Configuration.single(A2, 1, -7)),
    ("[L: 0 ] 1 [R:\t0\n] @0", A2, ONE),
])
def test_literal_accepted_spellings(text, alphabet, expected):
    assert parse_configuration(text, alphabet) == expected


@pytest.mark.parametrize("text, line, column", [
    ("1 [R:0] @0", 1, 1),          # missing [L:
    ("  0] 1 [R:0] @0", 1, 3),
    ("[L:0 1 [R:0] @0", 1, 5),     # the L word runs to the first ']'
    ("[L:0] 1 @0", 1, 9),          # missing [R:
    ("[L:0] 1 [R:0 @0", 1, 9),
    ("[L:0] x [R:0] @0", 1, 7),
    ("[L:0] 1 [R:0]", 1, 14),      # missing @anchor
    ("[L:0] 1 [R:0] 0", 1, 15),
    ("[L:0] 1 [R:0] @x", 1, 15),
    ("[L:²] 1 [R:0] @0", 1, 4),    # a digit character that is not a decimal digit
    ("[L:] 1 [R:0] @0", 1, 4),     # empty period
    ("[L:0] 1 [R:  ] @0", 1, 12),
    ("[L:0] 1 [R:0] @0 junk", 1, 18),  # trailing text
    ("[L:0]\n1\n[R:0]\n@0\nx", 5, 1),
    ("[L:1,2,x] [R:0] @0", 1, 8),  # the column of the character, not the symbol index
    ("[L:  0x] [R:0] @0", 1, 7),   # ... and in the text before stripping
])
def test_literal_rejections_name_where_they_break(text, line, column):
    # commas spell the symbols of alphabets with more than ten
    with pytest.raises(ParseError) as info:
        parse_configuration(text, WIDE if "," in text else A2)
    assert (info.value.line, info.value.column) == (line, column)


@pytest.mark.parametrize("text", [
    "[L:0]" + " " * 200_000 + "x",
    "[L:0] 1 [R:" + "0" * 200_000,
    "[L:0] " + "1" * 200_000 + " @0",
    "[L:0] 1 [R:0] @0" + "\n" * 200_000 + "x",
])
def test_long_malformed_literals_fail_fast(text):
    start = perf_counter()
    with pytest.raises(ParseError):
        parse_configuration(text, A2)
    assert perf_counter() - start < 0.5
