import importlib
import math
import pkgutil
import random
import signal
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
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
    _int_digits,
    _int_to_digits,
    _pack_width,
    _period_split,
    _square,
)
from leftex.rules import Automaton, LocalRule

from oracles import (
    config_to_rational_oracle,
    coprime_part_oracle,
    digits_to_int_oracle,
    int_to_digits_oracle,
    long_division_digits,
    preperiod_oracle,
    rational_to_config_oracle,
    small_rationals,
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
    8*sqrt(p) + 64 for the prefixes, and nothing is re-expanded."""
    rng = random.Random(20000)
    p = 20000
    x = Configuration(Alphabet(10), 0, b"\x00", b"", bytes(rng.randrange(10) for _ in range(p)))
    assert len(x.right_period) == p  # primitive
    want = config_to_rational_oracle(x, 10)
    converted, expanded = [], []

    def counting_digits_to_int(w, base):
        converted.append(len(w))
        return _digits_to_int(w, base)

    def counting_expansion_digits(remainder, den, base, count):
        expanded.append(count)
        return _expansion_digits(remainder, den, base, count)

    monkeypatch.setattr(numeric, "_digits_to_int", counting_digits_to_int)
    monkeypatch.setattr(numeric, "_expansion_digits", counting_expansion_digits)
    assert config_to_rational(x, 10) == want
    assert max(converted) == p and converted.count(p) == 1
    assert sum(converted) - p <= 8 * math.sqrt(p) + 64
    assert expanded == []


def test_a_rejected_candidate_is_expanded_once(monkeypatch):
    """The 1/7 period repeated to 6*10^5 digits with its last digit changed
    yields 1/7 from every prefix; that candidate is expanded and rejected
    once, not once per prefix length."""
    w = bytes([1, 4, 2, 8, 5, 7]) * 100000
    x = Configuration(Alphabet(10), 0, b"\x00", b"", w[:-1] + b"\x08")
    want = config_to_rational_oracle(x, 10)
    expanded = []

    def counting_expansion_digits(remainder, den, base, count):
        expanded.append((remainder, den, base, count))
        return _expansion_digits(remainder, den, base, count)

    monkeypatch.setattr(numeric, "_expansion_digits", counting_expansion_digits)
    assert config_to_rational(x, 10) == want
    assert expanded == [(1, 7, 10, 600000)]


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
    base_keyed = [numeric._pack_width, numeric._place_values]
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
