import importlib
import math
import pkgutil
import random
import signal
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from leftex import (
    Alphabet,
    Configuration,
    MulSpec,
    apply,
    config_to_rational,
    fractional_multiplication_rule,
    left_edge,
    multiplication_rule,
    multiplicative_order,
    rational_to_config,
    verify_mul,
)
from leftex.errors import (
    AlphabetMismatch,
    BadBase,
    BadSpec,
    NotNumberLike,
    NotPositive,
    OutOfRange,
)
import leftex
from leftex import numeric
from leftex.numeric import (
    _digits_to_int,
    _expansion_digits,
    _half_period,
    _int_digits,
    _int_to_digits,
    _matches_expansions,
    _mod_powers,
    _pack_width,
    _period_fraction,
    _period_split,
    _square,
)
from leftex.rules import Automaton, LocalRule

from oracles import (
    config_to_rational_oracle,
    coprime_part_oracle,
    digits_to_int_oracle,
    expansion_matches_oracle,
    fractional_multiplication_rule_oracle,
    int_to_digits_oracle,
    long_division_digits,
    preperiod_oracle,
    rational_to_config_oracle,
    small_rationals,
    verify_mul_oracle,
)


def test_config_of_integer_one():
    x = rational_to_config(1, 6)
    assert x == Configuration.single(Alphabet(6), 1, -1)
    assert left_edge(x) == -1


def test_config_of_three_halves_base_six():
    x = rational_to_config(Fraction(3, 2), 6)
    assert left_edge(x) == -1
    assert x.window(-1, 0) == bytes([1, 3])
    # long-division oracle for the fractional digits
    assert list(x.window(0, 5)) == long_division_digits(3, 2, 6, 6)


def test_config_of_one_third_base_ten():
    x = rational_to_config(Fraction(1, 3), 10)
    assert x.anchor == 0 and x.head == b"" and x.right_period == bytes([3])
    assert list(x.window(0, 9)) == long_division_digits(1, 3, 10, 10)


def test_config_validation():
    with pytest.raises(NotPositive):
        rational_to_config(0, 10)
    with pytest.raises(NotPositive):
        rational_to_config(Fraction(-2, 3), 10)
    with pytest.raises(BadBase):
        rational_to_config(1, 1)
    with pytest.raises(BadBase):
        rational_to_config(1, 1000)


def test_real_of_nines_tail_is_one():
    x = Configuration(Alphabet(10), 0, b"\x00", b"", bytes([9]))
    assert config_to_rational(x, 10) == 1
    # the forward map picks the other representative of the same value
    assert rational_to_config(1, 10) != x


def test_real_of_single_one():
    for n in (2, 6, 10, 15):
        x = Configuration.single(Alphabet(n), 1, -1)
        assert config_to_rational(x, n) == 1


def test_real_requires_number_like():
    with pytest.raises(NotNumberLike):
        config_to_rational(Configuration.zero(Alphabet(10)), 10)
    with pytest.raises(AlphabetMismatch):
        config_to_rational(Configuration.single(Alphabet(6), 1), 10)


@given(small_rationals(), st.sampled_from([2, 6, 10, 15]))
@settings(max_examples=200, deadline=None)
def test_round_trip(xi, base):
    assert config_to_rational(rational_to_config(xi, base), base) == xi


@given(small_rationals(), st.sampled_from([2, 6, 10]))
@settings(max_examples=100)
def test_fractional_digits_match_long_division(xi, base):
    x = rational_to_config(xi, base)
    assert list(x.window(0, 19)) == long_division_digits(
        xi.numerator % xi.denominator, xi.denominator, base, 20
    )


def test_reverse_round_trip_condition():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.choice([2, 6, 10])
        alpha = Alphabet(n)
        head = [rng.randrange(n) for _ in range(rng.randint(0, 4))]
        period = [rng.randrange(n) for _ in range(rng.randint(1, 3))]
        x = Configuration(alpha, rng.randint(-4, 2), b"\x00", head, period)
        if x.is_zero:
            continue
        nines_tail = x.right_period == bytes([n - 1])
        back = rational_to_config(config_to_rational(x, n), n)
        assert (back == x) == (not nines_tail)


ORACLE_BASES = st.sampled_from([2, 3, 6, 10, 15, 255, 256])


@st.composite
def number_like_configurations(draw):
    """Heads before random periods of up to 1100 digits (huge reduced
    denominators), periods all 0 or all base-1 but for one digit, small
    periods repeated and changed in one digit (a prefix suggests the small
    denominator, which only the full digit check rejects), and the images
    of rationals with denominators up to 10^5, all shifted so that anchors
    go negative and tails start mid-period."""
    base = draw(ORACLE_BASES)
    shift = draw(st.integers(-40, 40))
    kind = draw(st.sampled_from(["random", "one_nonzero", "one_not_top", "corrupted", "rational"]))
    if kind == "rational":
        xi = Fraction(draw(st.integers(1, 10**9)), draw(st.integers(1, 10**5)))
        return rational_to_config(xi, base).shift(shift)
    rng = draw(st.randoms(use_true_random=False))
    if kind == "corrupted":
        small = rational_to_config(Fraction(1, draw(st.integers(2, 1000))), base).right_period
        period = bytearray(small * max(1, 1100 // len(small)))
        i = rng.randrange(len(period))
        period[i] = (period[i] + rng.randrange(1, base)) % base
    else:
        length = draw(st.integers(1, 1100))
        if kind == "random":
            period = bytearray(rng.randrange(base) for _ in range(length))
        else:
            period = bytearray([0 if kind == "one_nonzero" else base - 1]) * length
            period[rng.randrange(length)] = rng.randrange(base)
    head = [rng.randrange(base) for _ in range(draw(st.integers(0, 40)))]
    head.append(1)  # the configuration is never zero
    return Configuration(Alphabet(base), shift, b"\x00", head, bytes(period))


@given(number_like_configurations())
@settings(max_examples=400, deadline=None)
def test_config_to_rational_matches_closed_form_oracle(x):
    base = x.alphabet.size
    got, want = config_to_rational(x, base), config_to_rational_oracle(x, base)
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def test_long_period_round_trip_is_fast():
    """10 is a primitive root modulo the prime 600011, so this value has a
    base-10 period of 600010 digits behind a three-digit preperiod."""
    q = 600011
    assert multiplicative_order(10, q) == q - 1
    xi = 7 + Fraction(12345, 8 * q)
    x = rational_to_config(xi, 10)
    assert len(x.right_period) == q - 1
    start = time.perf_counter()
    value = config_to_rational(x, 10)
    assert time.perf_counter() - start < 0.15
    assert value == xi


def test_a_period_over_the_cap_raises_before_it_is_allocated():
    """The base-10 period of 1/(10**9 + 7) has 10**9 + 6 digits and the
    base-6 one 5*10**8 + 3, so both the expansion and verify_mul's first
    configuration raise OutOfRange as soon as the order is known.  A timer
    interrupts the call after 1 s, long before an expansion that ignored
    the cap had filled much of its gigabyte."""
    def too_slow(signum, frame):
        raise TimeoutError("no OutOfRange within 1 s")
    previous = signal.signal(signal.SIGALRM, too_slow)
    try:
        for call in (lambda: rational_to_config(Fraction(1, 10**9 + 7), 10),
                     lambda: verify_mul(MulSpec(3, 2), Fraction(1, 10**9 + 7), 1)):
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            try:
                with pytest.raises(OutOfRange, match="digits, more than 100000000"):
                    call()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_the_period_cap_admits_its_own_length(monkeypatch):
    """A period of exactly _MAX_PERIOD digits is expanded; one more raises."""
    monkeypatch.setattr(numeric, "_MAX_PERIOD", 6)
    assert rational_to_config(Fraction(1, 7), 10).right_period == bytes([1, 4, 2, 8, 5, 7])
    monkeypatch.setattr(numeric, "_MAX_PERIOD", 5)
    with pytest.raises(OutOfRange):
        rational_to_config(Fraction(1, 7), 10)


def test_rejected_candidates_cost_a_short_prefix(monkeypatch):
    """A random period has a reduced denominator near 10^p, so every
    candidate read from a prefix is rejected by the modular check: the
    digits converted come to p for the closed form plus at most
    8*sqrt(p) + 64 for the prefixes, and no candidate reaches the proof."""
    rng = random.Random(20000)
    p = 20000
    x = Configuration(Alphabet(10), 0, b"\x00", b"", bytes(rng.randrange(10) for _ in range(p)))
    assert len(x.right_period) == p  # primitive
    want = config_to_rational_oracle(x, 10)
    converted, proved = [], []

    def counting_digits_to_int(w, base):
        converted.append(len(w))
        return _digits_to_int(w, base)

    def counting_matches_expansions(remainders, den, base, words):
        proved.append([len(w) for w in words])
        return _matches_expansions(remainders, den, base, words)

    monkeypatch.setattr(numeric, "_digits_to_int", counting_digits_to_int)
    monkeypatch.setattr(numeric, "_matches_expansions", counting_matches_expansions)
    assert config_to_rational(x, 10) == want
    assert max(converted) == p and converted.count(p) == 1
    assert sum(converted) - p <= 8 * math.sqrt(p) + 64
    assert proved == []


def test_a_rejected_candidate_is_checked_once(monkeypatch):
    """The 1/7 period repeated to 6*10^5 digits with its last digit changed
    yields 1/7 from every prefix; that candidate is checked against the
    period and rejected once, not once per prefix length."""
    w = bytes([1, 4, 2, 8, 5, 7]) * 100000
    x = Configuration(Alphabet(10), 0, b"\x00", b"", w[:-1] + b"\x08")
    want = config_to_rational_oracle(x, 10)
    proved = []

    def counting_matches_expansions(remainders, den, base, words):
        proved.append((remainders, den, base, [len(w) for w in words]))
        return _matches_expansions(remainders, den, base, words)

    monkeypatch.setattr(numeric, "_matches_expansions", counting_matches_expansions)
    assert config_to_rational(x, 10) == want
    assert proved == [([1], 7, 10, [600000])]


def test_multiplicative_order_against_naive():
    rng = random.Random(5)
    for _ in range(200):
        base = rng.choice([2, 6, 10, 15, 28])
        m = rng.randint(2, 5000)
        while math.gcd(base, m) != 1:
            m = rng.randint(2, 5000)
        v, k = base % m, 1
        while v != 1:
            v = v * base % m
            k += 1
        assert multiplicative_order(base, m) == k


@pytest.mark.parametrize("base, modulus", [(1, 0), (10, -7)])
def test_multiplicative_order_rejects_a_modulus_below_one(base, modulus):
    with pytest.raises(OutOfRange):
        multiplicative_order(base, modulus)


def test_digit_conversions_against_int_parsing():
    rng = random.Random(9)
    for base in (2, 6, 10, 15, 28):
        for count in (1, 13, 64, 65, 300, 1024, 2000):
            digits = bytes(rng.randrange(base) for _ in range(count))
            v = 0
            for s in digits:
                v = v * base + s
            assert _digits_to_int(digits, base) == v
            assert _int_to_digits(v, base, count) == digits


def test_expansion_digits_against_long_division():
    rng = random.Random(13)
    for _ in range(30):
        base = rng.choice([2, 6, 10, 28])
        den = rng.randint(2, 10**5)
        r = rng.randrange(1, den)
        count = rng.choice([1, 3, 500, 1024, 3000])
        assert list(_expansion_digits(r, den, base, count)) == long_division_digits(
            r, den, base, count
        )


# the power-of-two tree changes shape at k*2**j limbs, k = _pack_width(base)
limb_boundaries = st.tuples(st.integers(2, 256), st.integers(0, 6), st.sampled_from([-1, 0, 1]))


@given(limb_boundaries, st.sampled_from(["random", "zeros", "top"]), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_digit_tree_matches_horner_and_divmod(boundary, fill, rng):
    base, j, offset = boundary
    count = _pack_width(base) * 2**j + offset
    if fill == "random":
        digits = bytes(rng.randrange(base) for _ in range(count))
    else:
        digits = bytes([0 if fill == "zeros" else base - 1]) * count
    v = digits_to_int_oracle(digits, base)
    assert _digits_to_int(digits, base) == v
    assert _int_to_digits(v, base, count) == int_to_digits_oracle(v, base, count) == digits
    assert _int_digits(v, base) == digits.lstrip(b"\x00")


@given(limb_boundaries, st.integers(2, 10**30), st.data())
@settings(max_examples=200, deadline=None)
def test_expansion_digits_match_long_division_at_limb_boundaries(boundary, den, data):
    base, j, offset = boundary
    count = _pack_width(base) * 2**j + offset
    r = data.draw(st.integers(0, den - 1))
    assert list(_expansion_digits(r, den, base, count)) == long_division_digits(r, den, base, count)


# the remainder table works in int64 below 2**31 and has K = isqrt(count)
# columns; a row block holds 2**16 remainders, so counts near 260**2 span
# two blocks
table_dens = st.sampled_from([1, 2, 3, 7, 2**31 - 1, 2**31, 2**31 + 1]) | st.integers(1, 10**6)


@given(st.sampled_from([2, 6, 10, 15, 28, 256]), table_dens, st.integers(1, 40) | st.integers(250, 270),
       st.sampled_from([-1, 0, 1]), st.data())
@settings(max_examples=200, deadline=None)
def test_expansion_digits_match_long_division_across_the_table(base, den, k, offset, data):
    count = k * k + offset
    r = data.draw(st.just(0) | st.integers(0, den - 1))
    assert list(_expansion_digits(r, den, base, count)) == long_division_digits(r, den, base, count)


def test_long_period_expansion_memory_is_bounded():
    """10 is a primitive root modulo the prime 4000063, so 1/4000063 has a
    4000062-digit period.  The output needs 2 bytes a digit (the array and
    its bytes); the remainder table adds a bounded block, not 8+ bytes a
    digit."""
    c = 4_000_063
    tracemalloc.start()
    try:
        digits = _expansion_digits(1, c, 10, c - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (c - 1) + 16 * 2**20
    assert len(digits) == c - 1
    for i in (0, 1, 65535, 65536, 2**21 + 7, c - 2):
        assert digits[i] == pow(10, i, c) * 10 // c


@given(st.sampled_from([2, 6, 10, 15, 28, 256]), table_dens, st.data())
@settings(max_examples=200, deadline=None)
def test_period_proof_matches_expanding_and_comparing(base, den, data):
    """The limb-by-limb proof gives long division's verdict on the true
    period of a/c and on it with one digit changed at either end or on
    either side of the first limb edge.  p is a multiple of the order, so
    base**p == 1 (mod c) as the proof requires."""
    c = coprime_part_oracle(den, base)
    order = multiplicative_order(base, c)
    assume(order <= 10**5)
    p = order * data.draw(st.integers(1, max(1, 3 * 10**4 // order)))
    a = data.draw(st.integers(0, c - 1))
    w = bytearray(long_division_digits(a, c, base, p))
    # the proof's limb width below 2**31: the most k with base**k * c < 2**63
    k = next(k for k in range(1, 64) if base ** (k + 1) * c >= 2**63)
    at = data.draw(st.sampled_from([None, 0, k - 1, k, p - 1]))
    if at is not None:
        w[at % p] = (w[at % p] + data.draw(st.integers(1, base - 1))) % base
    w = bytes(w)
    assert _matches_expansions([a], c, base, [w]) == expansion_matches_oracle(a, c, base, w) \
        == (at is None)


@given(st.sampled_from([2, 6, 10, 15, 28, 256]), table_dens, st.integers(1, 5),
       st.sampled_from([1, 50, numeric._TABLE_BLOCK]), st.data())
@settings(max_examples=200, deadline=None)
def test_batched_period_proof_matches_expanding_each_word(base, den, count, block, data):
    """A batch of periods of a/c for several a is proved exactly when long
    division confirms every word; one digit changed in one member, at
    either end or on either side of the first limb edge, makes the batch
    False.  Small table blocks split the batch's limbs into many blocks."""
    c = coprime_part_oracle(den, base)
    order = multiplicative_order(base, c)
    assume(order <= 10**4)
    p = order * data.draw(st.integers(1, max(1, 6000 // order)))
    remainders = [data.draw(st.integers(0, c - 1)) for _ in range(count)]
    words = [bytearray(long_division_digits(a, c, base, p)) for a in remainders]
    k = next(k for k in range(1, 64) if base ** (k + 1) * c >= 2**63)
    wrong = data.draw(st.sampled_from([None, *range(count)]))
    if wrong is not None:
        at = data.draw(st.sampled_from([0, k - 1, k, p - 1])) % p
        words[wrong][at] = (words[wrong][at] + data.draw(st.integers(1, base - 1))) % base
    words = [bytes(w) for w in words]
    with mock.patch.object(numeric, "_TABLE_BLOCK", block):
        got = _matches_expansions(remainders, c, base, words)
    assert got == all(expansion_matches_oracle(a, c, base, w) for a, w in zip(remainders, words)) \
        == (wrong is None)


@pytest.mark.parametrize("base, c, p", [
    (10, 7, 6),  # shorter than one limb: the padded limb repeats the word
    (10, 7, 6 * 7),  # 42 digits, not a multiple of the 18-digit limb
    (10, 10**12 - 1, 24),  # c >= 2**31: long division, word by word
    (256, 2**32 + 1, 8),  # 256**4 == -1 (mod 2**32 + 1), so the order is 8
])
def test_batched_period_proof_on_partial_limbs_and_large_denominators(base, c, p):
    assert pow(base, p, c) == 1
    remainders = [1, c // 3, c - 1]
    words = [bytes(long_division_digits(a, c, base, p)) for a in remainders]
    assert _matches_expansions(remainders, c, base, words)
    for i in range(len(words)):
        for at in (0, p - 1):
            bad = bytearray(words[i])
            bad[at] = (bad[at] + 1) % base
            batch = words[:i] + [bytes(bad)] + words[i + 1:]
            assert not _matches_expansions(remainders, c, base, batch)
            assert not expansion_matches_oracle(remainders[i], c, base, bytes(bad))


def test_long_period_proof_memory_is_under_a_byte_a_digit():
    """Proving the 4000062-digit base-10 period of 1/4000063 reads it as
    limbs one table block at a time, with no copy of it and no second
    expansion, which peaked at about two bytes a digit."""
    c = 4_000_063
    w = _expansion_digits(1, c, 10, c - 1)
    tracemalloc.start()
    try:
        value = _period_fraction(w, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == Fraction(1, c)
    assert peak < 4 * 10**6


# -- half-period expansions ------------------------------------------------------

SMALL_PRIMES = [q for q in range(3, 5000) if all(q % d for d in range(2, math.isqrt(q) + 1))]


@st.composite
def half_period_cases(draw):
    """(kind, base, c) with gcd(base, c) == 1: c an odd prime, an odd prime
    power, 2 in an odd base, base**h + 1 >= 2**31 (whose order is 2h), or a
    composite, among them 21 in base 10, where base**(p/2) != -1 (mod c)."""
    kind = draw(st.sampled_from(["prime", "prime power", "two", "large", "composite"]))
    base = draw(st.integers(2, 256))
    if kind == "prime":
        c = draw(st.sampled_from(SMALL_PRIMES))
    elif kind == "prime power":
        q = draw(st.sampled_from(SMALL_PRIMES[:15]))
        c = q ** draw(st.integers(2, max(2, int(math.log(10**6, q)))))
    elif kind == "two":
        base, c = 2 * draw(st.integers(1, 127)) + 1, 2
    elif kind == "large":
        h = next(h for h in range(1, 32) if base**h + 1 >= 2**31)
        c = base**h + 1
    elif draw(st.booleans()):
        base, c = 10, 21
    else:
        c = draw(st.sampled_from(SMALL_PRIMES[:60])) * draw(st.sampled_from(SMALL_PRIMES[:60]))
    assume(math.gcd(base, c) == 1)
    return kind, base, c


@given(half_period_cases(), st.data())
@settings(max_examples=300, deadline=None)
def test_half_period_expansions_match_long_division(case, data):
    """Digit i + p/2 of a/c is base - 1 minus digit i whenever
    base**(p/2) == -1 (mod c) and c does not divide a, which holds for
    every even period over an odd prime power; other counts, a == 0 and
    the other denominators take the full expansion.  Either way the digits
    are long division's."""
    kind, base, c = case
    order = multiplicative_order(base, c)
    assume(order <= 10**4)
    if kind in ("prime", "prime power"):
        assert _half_period(order, c, base) == (order % 2 == 0)
    elif kind == "large":
        assert _half_period(order, c, base)
    elif (base, c) == (10, 21):
        assert not _half_period(order, c, base)
    count = data.draw(st.sampled_from([order * m for m in range(1, 2 * 10**4 // order + 1)][:4])
                      | st.integers(1, 2 * order))
    a = data.draw(st.just(0) | st.integers(0, c - 1))
    assert _expansion_digits(a, c, base, count) == bytes(long_division_digits(a, c, base, count))


@given(half_period_cases(), st.integers(1, 3), st.sampled_from([1, 50, numeric._TABLE_BLOCK]),
       st.sampled_from(["none", "first half", "second half", "both halves", "other a"]), st.data())
@settings(max_examples=200, deadline=None)
def test_half_period_proof_rejects_every_wrong_word(case, count, block, corruption, data):
    """A batch of periods proved by comparing halves and then the limbs of
    the first halves gives long division's verdict.  One word changed in
    one digit of its first or its second half fails the comparison; one
    changed at i and i + p/2 so its halves stay complements, or the period
    of another numerator, must fail the limbs.  Small table blocks split
    the comparison of the halves into many slices."""
    kind, base, c = case
    p = multiplicative_order(base, c)
    assume(p <= 10**4)
    p *= data.draw(st.integers(1, max(1, 2 * 10**4 // p)))
    remainders = [data.draw(st.integers(1, c - 1)) for _ in range(count)]
    words = [bytearray(long_division_digits(a, c, base, p)) for a in remainders]
    wrong = data.draw(st.integers(0, count - 1))
    half = p // 2
    if corruption == "other a":
        other = data.draw(st.integers(1, c - 1).filter(lambda a: a != remainders[wrong]))
        words[wrong] = bytearray(long_division_digits(other, c, base, p))
    elif corruption != "none":
        assume(half > 0)
        at = data.draw(st.sampled_from([0, half - 1]) | st.integers(0, half - 1))
        at += half if corruption == "second half" else 0
        new = (words[wrong][at] + data.draw(st.integers(1, base - 1))) % base
        words[wrong][at] = new
        if corruption == "both halves":
            assume(p % 2 == 0)
            words[wrong][at + half] = base - 1 - new
    words = [bytes(w) for w in words]
    with mock.patch.object(numeric, "_TABLE_BLOCK", block):
        got = _matches_expansions(remainders, c, base, words)
    assert got == all(expansion_matches_oracle(a, c, base, w) for a, w in zip(remainders, words)) \
        == (corruption == "none")


@pytest.mark.parametrize("base, c", [(10, 7), (10, 21), (3, 2), (2, 3**5), (256, 2**32 + 1)])
def test_numerators_divisible_by_c_take_the_full_path(base, c):
    """0/c is all zeros, not zeros then nines, though base**(p/2) may be
    -1 (mod c).  So is the 0/1 candidate _period_fraction reads off an
    all-zero tail: every even p passes base**(p/2) == 0 == -1 (mod 1)."""
    half = multiplicative_order(base, c)
    p, zeros = 2 * half, bytes(2 * half)
    assert _half_period(p, 1, base)
    assert _expansion_digits(0, c, base, p) == _expansion_digits(0, 1, base, p) == zeros
    assert _matches_expansions([0], 1, base, [zeros]) and _matches_expansions([0], c, base, [zeros])
    assert not _matches_expansions([0], c, base, [zeros[:half] + bytes([1]) * half])
    ones = bytes(long_division_digits(1, c, base, p))
    assert _matches_expansions([0, 1], c, base, [zeros, ones])
    assert not _matches_expansions([0, 1], c, base, [ones, zeros])
    assert _period_fraction(zeros, base) == 0


def test_a_composite_without_half_periods_expands_in_full():
    """c = 17 * 200063 has a 1600496-digit base-10 period, but
    10**(p/2) != -1 (mod c), so the whole period is expanded and proved."""
    c = 17 * 200063
    p = multiplicative_order(10, c)
    assert p == 1600496 and not _half_period(p, c, 10)
    w = _expansion_digits(1, c, 10, p)
    assert w == bytes(long_division_digits(1, c, 10, p))
    assert _matches_expansions([1], c, 10, [w])
    assert not _matches_expansions([1], c, 10, [w[:-1] + bytes([9 - w[-1]])])


@pytest.mark.parametrize("c, qualifies", [(4_000_063, True), (17 * 200063, False)])
def test_a_half_period_computes_half_the_remainders(monkeypatch, c, qualifies):
    """The expansion's remainder table is the product of its two top-level
    _mod_powers runs, K powers and the block starts, so recording every run
    counts each remainder computed.  A period with base**(p/2) == -1
    (mod c) computes at most ceil(p/2) + O(sqrt(p)) of them and proves the
    limbs of its first half only; any other computes all p and proves
    every limb."""
    p = multiplicative_order(10, c)
    runs, depth = [], [0]

    def recording_mod_powers(start, step, count, den):
        runs.append((depth[0], count))
        depth[0] += 1
        try:
            return _mod_powers(start, step, count, den)
        finally:
            depth[0] -= 1

    def computed():
        top = [count for level, count in runs if level == 0]
        assert len(top) == 2
        return math.prod(top) + sum(count for _, count in runs)

    monkeypatch.setattr(numeric, "_mod_powers", recording_mod_powers)
    w = _expansion_digits(1, c, 10, p)
    bound = -(-p // 2) + 4 * math.isqrt(p)
    assert computed() <= bound if qualifies else computed() >= p
    runs.clear()
    assert _matches_expansions([1], c, 10, [w])
    k = next(k for k in range(1, 64) if 10 ** (k + 1) * c >= 2**63)
    limbs = math.prod(count for level, count in runs if level == 0)
    assert limbs <= -(-p // 2 // k) + 4 * math.isqrt(p) if qualifies else limbs >= p / k


@st.composite
def deep_preperiod_rationals(draw):
    """Rationals whose denominators carry up to 300 factors of each prime of
    the base, over a cofactor with a period of at most a few thousand digits."""
    base = draw(st.sampled_from([2, 6, 10, 15, 28, 256]))
    den = draw(st.integers(1, 3000))
    for p in (2, 3, 5, 7):
        if base % p == 0:
            den *= p ** draw(st.integers(0, 300))
    return Fraction(draw(st.integers(1, 50 * den)), den), base


@given(deep_preperiod_rationals())
@settings(max_examples=200, deadline=None)
def test_rational_to_config_matches_one_long_division(case):
    xi, base = case
    got, want = rational_to_config(xi, base), rational_to_config_oracle(xi, base)
    assert (got.anchor, got.left_period, got.head, got.right_period) == (
        want.anchor, want.left_period, want.head, want.right_period)


def test_period_is_expanded_over_the_coprime_part_alone(monkeypatch):
    """7/(11 * 3**500) in base 15 has a 500-digit preperiod and the 5-digit
    period of a fraction over 11 (15 = 4 mod 11 and 4**5 = 1 mod 11).  The
    period is one expansion over 11; the full denominator, an integer of
    about 800 bits, never serves for more than the preperiod."""
    den = 11 * 3**500
    calls = []

    def counting_expansion_digits(remainder, d, base, count):
        calls.append((d, count))
        return _expansion_digits(remainder, d, base, count)

    monkeypatch.setattr(numeric, "_expansion_digits", counting_expansion_digits)
    xi = Fraction(7, den)
    x = rational_to_config(xi, 15)
    assert x == rational_to_config_oracle(xi, 15)
    assert len(x.right_period) == 5 and x.anchor + len(x.head) == 500
    assert [d for d, count in calls if count == 5] == [11]
    assert all(count <= 500 for d, count in calls if d == den)


@given(st.integers(2, 256), st.integers(1, 10**6), st.lists(st.integers(0, 300), min_size=3, max_size=3))
@settings(max_examples=300, deadline=None)
def test_period_split_matches_one_factor_oracles(base, cofactor, exponents):
    primes = [p for p in range(2, base + 1) if base % p == 0 and all(p % d for d in range(2, p))]
    den = cofactor
    for p, e in zip(primes, exponents):
        den *= p**e
    assert _period_split(den, base) == (preperiod_oracle(den, base), coprime_part_oracle(den, base))


def test_deep_preperiods_and_long_integers_convert_fast():
    for xi, base in ((Fraction(1, 2**20000), 6), (Fraction(1, 5**20000), 10)):
        start = time.perf_counter()
        x = rational_to_config(xi, base)
        assert time.perf_counter() - start < 1.0
        assert x.anchor + len(x.head) == 20000 and x.right_period == b"\x00"
    start = time.perf_counter()
    digits = _int_digits(7**20000, 10)
    assert time.perf_counter() - start < 0.1
    assert digits[0] != 0 and digits_to_int_oracle(digits, 10) == 7**20000


def test_power_table_stays_bounded():
    """300 round trips with distinct period lengths up to 2*10^4 keep at
    most ceil(log2(limbs)) + 1 powers, and no module-level container grows."""
    base = 10
    dens, periods = [], set()
    for q in range(19999, 2, -1):
        if math.gcd(q, base) == 1 and len(dens) < 300:
            period = multiplicative_order(base, q)
            if period not in periods:
                periods.add(period)
                dens.append(q)
    assert len(dens) == 300
    base_keyed = [numeric._pack_width, numeric._place_values, numeric._complement]
    for f in base_keyed + [_square]:
        f.cache_clear()
    containers = {name: len(v) for name, v in vars(numeric).items() if isinstance(v, (dict, list, set))}
    rng = random.Random(300)
    longest = 0
    for i, q in enumerate(dens):
        xi = i + Fraction(rng.randrange(1, q), q * 2 ** (i % 40))
        x = rational_to_config(xi, base)
        assert config_to_rational(x, base) == xi
        longest = max(longest, len(x.head) + len(x.right_period))
    limbs = -(-longest // _pack_width(base))
    assert _square.cache_info().currsize <= math.ceil(math.log2(limbs)) + 1
    assert _square.cache_info().maxsize is not None
    assert all(f.cache_info().currsize <= 1 for f in base_keyed)  # keyed by the base alone
    assert {name: len(vars(numeric)[name]) for name in containers} == containers


def test_no_module_level_cache_is_unbounded():
    caches = {f"{info.name}.{name}": f
              for info in pkgutil.iter_modules(leftex.__path__)
              for name, f in vars(importlib.import_module(f"leftex.{info.name}")).items()
              if hasattr(f, "cache_info")}
    assert "numeric._pack_width" in caches
    assert [name for name, f in caches.items() if f.cache_info().maxsize is None] == []


# -- multiplication automata ----------------------------------------------------


def test_mul_spec_validation():
    for p, q in ((2, 3), (3, 1), (4, 2), (3, 3)):
        with pytest.raises(BadSpec):
            MulSpec(p, q)
    assert MulSpec(3, 2).base == 6


def test_mul_rule_digit_examples():
    rule = multiplication_rule(MulSpec(3, 2)).rule
    assert rule.value(bytes([0, 0])) == 0
    assert rule.value(bytes([1, 4])) == 5
    assert rule.value(bytes([5, 3])) == 4


def test_fractional_rule_shape():
    a = fractional_multiplication_rule(MulSpec(3, 2))
    assert (a.rule.memory, a.rule.anticipation) == (1, 1)
    assert a.name == "mul:3/2"


def test_fractional_rule_matches_the_other_association():
    """One composition of times-p read as a (1,0) rule with times-p gives
    the table of the inverse shift after times-p squared, for every coprime
    spec with pq <= 56 and a few up to the compose guard's pq = 215."""
    specs = [MulSpec(p, q) for q in range(2, 8) for p in range(q + 1, 56 // q + 1)
             if math.gcd(p, q) == 1]
    assert len(specs) == 35
    specs += [MulSpec(9, 7), MulSpec(13, 11), MulSpec(15, 14), MulSpec(43, 5)]
    for spec in specs:
        assert fractional_multiplication_rule(spec).rule == \
            fractional_multiplication_rule_oracle(spec).rule


def test_large_fractional_rules_build_and_verify():
    """(pq)**3 entries fit the compose guard up to pq = 215: mul:9/7 and
    mul:13/11 build, where the width-4 product of times-p squared did not."""
    for spec, xi in ((MulSpec(9, 7), Fraction(22, 7)), (MulSpec(13, 11), Fraction(1, 7))):
        assert verify_mul(spec, xi, 8)
        assert verify_mul_oracle(spec, xi, 8)


def test_multiplication_moves_values():
    spec = MulSpec(3, 2)
    x = rational_to_config(2, 6)
    y = apply(fractional_multiplication_rule(spec), x)
    assert config_to_rational(y, 6) == 3
    z = rational_to_config(4, 6)
    z = apply(fractional_multiplication_rule(spec), z)
    z = apply(fractional_multiplication_rule(spec), z)
    assert config_to_rational(z, 6) == 9


def test_verify_mul_examples():
    assert verify_mul(MulSpec(3, 2), 1, 10)
    assert verify_mul(MulSpec(5, 2), Fraction(7, 4), 6)


def test_verify_mul_expands_one_start_configuration(monkeypatch):
    """Both automata walk from one start configuration, and every image is
    valued without a second expansion: 8 steps from 1/1000003 in base 6
    expand its 500001-digit period once."""
    expanded = []

    def counting_expansion_digits(remainder, den, base, count):
        expanded.append(count)
        return _expansion_digits(remainder, den, base, count)

    monkeypatch.setattr(numeric, "_expansion_digits", counting_expansion_digits)
    assert verify_mul(MulSpec(3, 2), Fraction(1, 1000003), 8)
    assert expanded == [500001]


def test_verify_mul_spot_checks_match_direct_real_comparison():
    spec = MulSpec(3, 2)
    F = fractional_multiplication_rule(spec)
    for xi in (Fraction(5, 7), Fraction(22, 9), Fraction(1, 48)):
        x = rational_to_config(xi, 6)
        expected = xi
        for _ in range(5):
            x = apply(F, x)
            expected *= Fraction(3, 2)
            assert config_to_rational(x, 6) == expected
        assert verify_mul(spec, xi, 5)


MUL_SPECS = [MulSpec(p, q) for q in range(2, 5) for p in range(q + 1, 8) if math.gcd(p, q) == 1]


@given(st.sampled_from(MUL_SPECS), st.data())
@settings(max_examples=150, deadline=None)
def test_verify_mul_matches_the_canonical_oracle(spec, data):
    """The tail proofs over raw states give the verdict of valuing every
    canonical image with config_to_rational, on the library's automata and
    on ones with one corrupted table entry (the all-zero neighborhood kept
    quiescent), and with table blocks small enough that the pending tails
    are proved many times along the walk."""
    xi = data.draw(small_rationals()
                   | st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**4)))
    steps = data.draw(st.integers(1, 8))
    block = data.draw(st.sampled_from([numeric._TABLE_BLOCK, 64, 1]))
    automata = [multiplication_rule(spec), fractional_multiplication_rule(spec)]
    corrupt = data.draw(st.sampled_from([None, 0, 1]))
    if corrupt is not None:
        rule = automata[corrupt].rule
        table = bytearray(rule.table)
        i = data.draw(st.integers(1, len(table) - 1))
        table[i] = (table[i] + data.draw(st.integers(1, spec.base - 1))) % spec.base
        automata[corrupt] = Automaton(LocalRule(rule.alphabet, rule.memory, rule.anticipation,
                                                bytes(table)))
    want = verify_mul_oracle(spec, xi, steps, automata)
    with mock.patch.object(numeric, "multiplication_rule", lambda s: automata[0]), \
            mock.patch.object(numeric, "fractional_multiplication_rule", lambda s: automata[1]), \
            mock.patch.object(numeric, "_TABLE_BLOCK", block):
        assert verify_mul(spec, xi, steps) == want


def test_verify_mul_proves_short_tails_together_and_long_ones_as_they_come(monkeypatch):
    """The 16 images of 1/7 in base 6 have tails of period 2 over 7, proved
    by one call at the end; those of 1/1000003 have 500001-digit tails, each
    over one table block, so each is proved as soon as it is read."""
    calls = []

    def counting_matches_expansions(remainders, den, base, words):
        calls.append((den, [len(w) for w in words]))
        return _matches_expansions(remainders, den, base, words)

    monkeypatch.setattr(numeric, "_matches_expansions", counting_matches_expansions)
    assert verify_mul(MulSpec(3, 2), Fraction(1, 7), 8)
    assert calls == [(7, [2] * 16)]
    calls.clear()
    assert verify_mul(MulSpec(3, 2), Fraction(1, 1000003), 8)
    assert calls == [(1000003, [500001])] * 16


SEVENTHS = [(0, b"\x00", b"", b"\x02\x03"), (0, b"\x00", b"\x01", b"\x01\x04")]  # 3/7, 3/14
SIXTHS = [(0, b"\x00", b"\x02", b"\x05"), (0, b"\x00", b"\x01\x02", b"\x05")]  # 1/2, 1/4


@pytest.mark.parametrize("xi, images, ok", [
    (Fraction(1, 7), SEVENTHS, True),
    (Fraction(1, 6), SIXTHS, True),  # all-5 tails worth 1
    (Fraction(1, 6), [(0, b"\x00", b"\x02", b"\x04"), SIXTHS[1]], False),
    (Fraction(1, 7), [(0, b"\x01", b"", b"\x02\x03"), SEVENTHS[1]], False),  # left tail not zero
    (Fraction(1, 7), [(-1, b"\x00", b"\x01", b"\x02\x03"), SEVENTHS[1]], False),  # r < 0
    # the first 23 digits of 3/7, one whole limb of the proof: only
    # 6**23 != 1 (mod 7) tells that this tail repeats another value
    (Fraction(1, 7), [(0, b"\x00", b"", b"\x02\x03" * 11 + b"\x02"), SEVENTHS[1]], False),
])
def test_verify_mul_values_raw_tails_by_their_expected_value(monkeypatch, xi, images, ok):
    """Images in base 6 handed to verify_mul as the walker's raw states, one
    step of mulint:3/2 and one of mul:3/2 from xi."""
    spec = MulSpec(3, 2)
    by_name = {"mulint:3/2": images[0], "mul:3/2": images[1]}
    monkeypatch.setattr(numeric, "_states", lambda a, x, rows: iter([None, by_name[a.name]]))
    assert verify_mul(spec, xi, 1) is ok


def test_verify_mul_memory_holds_no_stack_of_periods():
    """The traced peak of 8 steps from 1/1000003 in base 6 covers the start
    expansion and one walker step over its 500001-digit period, about 5
    bytes a digit; it stays under 6, where holding the 16 image tails until
    the end would add 16 bytes a digit (the valuing of every canonical
    image it replaces peaked at 8)."""
    tracemalloc.start()
    try:
        assert verify_mul(MulSpec(3, 2), Fraction(1, 1000003), 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 500001


def test_verify_mul_rejects_a_wrong_automaton(monkeypatch):
    """Each automaton is checked: swapping in the other one's rule, whose
    images are number-like but worth the wrong value, fails."""
    spec = MulSpec(3, 2)
    times_p, times_p_over_q = multiplication_rule(spec), fractional_multiplication_rule(spec)

    def use(integer, fractional):
        monkeypatch.setattr(numeric, "multiplication_rule", lambda s: integer)
        monkeypatch.setattr(numeric, "fractional_multiplication_rule", lambda s: fractional)
        return verify_mul(spec, Fraction(7, 4), 3)

    assert use(times_p, times_p_over_q)
    assert not use(times_p_over_q, times_p_over_q)
    assert not use(times_p, times_p)


def test_verify_mul_fails_on_an_image_that_is_not_number_like(monkeypatch):
    """The all-zero rule maps 7/4 to the zero configuration, which has no
    value: the check returns False instead of raising NotNumberLike."""
    zero = Automaton(LocalRule(Alphabet(6), 0, 0, bytes(6)))
    monkeypatch.setattr(numeric, "multiplication_rule", lambda s: zero)
    assert verify_mul(MulSpec(3, 2), Fraction(7, 4), 3) is False


def test_corrupted_table_detected():
    spec = MulSpec(3, 2)
    good = multiplication_rule(spec)
    table = bytearray(good.rule.table)
    # corrupt f(1, 0) while keeping the all-zero neighborhood quiescent
    idx = 1 * 6 + 0
    table[idx] = (table[idx] + 1) % 6
    bad = Automaton(LocalRule(good.alphabet, 0, 1, bytes(table)))
    x = rational_to_config(1, 6)
    assert config_to_rational(apply(bad, x), 6) != 3


def test_left_edge_drift_band():
    """The left edge of the fractional orbit from 1 tracks -t*log_6(3/2)
    within two cells over 500 steps."""
    spec = MulSpec(3, 2)
    F = fractional_multiplication_rule(spec)
    rate = math.log(3 / 2, 6)
    x = rational_to_config(1, 6)
    for t in range(1, 501):
        x = apply(F, x)
        assert abs(-left_edge(x) - t * rate) <= 2
