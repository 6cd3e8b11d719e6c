import random
import time
from math import lcm

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from leftex import (
    Alphabet,
    Configuration,
    ExpansivityDims,
    MulSpec,
    PeriodCertificate,
    aperiodicity_scan,
    apply,
    columns,
    detect_eventual_period,
    eca,
    fractional_multiplication_rule,
    limit_point_census,
    preperiod_bound,
    propagation_check,
    rational_to_config,
    recurrence_scan,
    repetition_count_bound,
    shift_rule,
    subword_complexity,
)
from leftex import dynamics, rules
from leftex.errors import InsufficientHorizon, NotNumberLike, OutOfRange, PrefixTooShort
from leftex.rules import Automaton, LocalRule

from oracles import expand_oracle, naive_period_search

A2 = Alphabet(2)
ONE = Configuration.single(A2, 1)
MUL32 = fractional_multiplication_rule(MulSpec(3, 2))


# -- period detection ------------------------------------------------------------


def test_detect_examples():
    cert = detect_eventual_period([1, 0, 0, 0, 0, 0], 500, 500)
    assert (cert.preperiod, cert.period) == (1, 1)
    cert = detect_eventual_period([0, 1, 0, 1, 0, 1, 0, 1], 500, 500)
    assert (cert.preperiod, cert.period) == (0, 2)
    rows = list(columns(eca(90), ONE, 0, 0, 64))
    cert = detect_eventual_period(rows, 64, 64)
    assert (cert.preperiod, cert.period) == (1, 1)


def test_detect_respects_confidence_floor():
    # period 3 visible only once past the preperiod: not enough evidence
    assert detect_eventual_period([9, 1, 2, 3, 1], 10, 10) is None
    assert detect_eventual_period([9, 1, 2, 3, 1, 2, 3], 10, 10) is not None


def test_detect_respects_bounds():
    prefix = [7] * 3 + [0, 1] * 10
    assert detect_eventual_period(prefix, 2, 10) is None
    cert = detect_eventual_period(prefix, 3, 10)
    assert (cert.preperiod, cert.period) == (3, 2)
    assert detect_eventual_period([0, 1, 2] * 8, 10, 2) is None


def test_negative_scan_bounds_are_out_of_range():
    for max_c, max_p in ((-1, 10), (10, 0), (-1, -1)):
        with pytest.raises(OutOfRange):
            detect_eventual_period([0, 1] * 4, max_c, max_p)
        with pytest.raises(OutOfRange):
            aperiodicity_scan(eca(90), ONE, 0, 0, 16, max_c, max_p)


def test_scan_bounds_are_checked_before_the_walk(monkeypatch):
    def walk(*args):
        raise AssertionError("the scan walked its columns before checking its bounds")

    monkeypatch.setattr(dynamics, "columns", walk)
    monkeypatch.setattr(rules, "_states", walk)  # the walker behind every column walk
    for horizon, max_c, max_p in ((10**5, -1, 10), (10**5, 10, 0), (0, 10, 10)):
        with pytest.raises(OutOfRange):
            aperiodicity_scan(eca(30), ONE, 0, 0, horizon, max_c, max_p)


@given(
    st.lists(st.integers(0, 2), min_size=1, max_size=40),
    st.integers(0, 12),
    st.integers(1, 12),
)
@settings(max_examples=300, deadline=None)
def test_detect_matches_cubic_search(prefix, max_c, max_p):
    got = detect_eventual_period(prefix, max_c, max_p)
    want = naive_period_search(prefix, max_c, max_p)
    if want is None:
        assert got is None
    else:
        assert (got.preperiod, got.period) == want
        assert got.verified_up_to == len(prefix)


def test_detect_is_linear_in_the_prefix():
    # every candidate period breaks at the same preperiod; a search that
    # scans the whole prefix once per period takes about 2 s here
    rows = [bytes([k]) for k in range(30)] + [b"\x00"] * 10**5
    start = time.perf_counter()
    cert = detect_eventual_period(rows, 500, 500)
    assert time.perf_counter() - start < 0.25
    assert (cert.preperiod, cert.period) == (30, 1)


def test_certificates_replay_against_prefix():
    rng = random.Random(77)
    for _ in range(200):
        prefix = [rng.randrange(3) for _ in range(rng.randint(1, 30))]
        cert = detect_eventual_period(prefix, 10, 10)
        if cert is None:
            continue
        c, p = cert.preperiod, cert.period
        assert len(prefix) >= c + 2 * p
        assert all(prefix[t] == prefix[t + p] for t in range(c, len(prefix) - p))
        if c > 0:
            # preperiod minimality: periodicity must genuinely fail earlier
            assert any(
                prefix[t] != prefix[t + q]
                for q in range(1, min(10, (len(prefix) - c + 1) // 2) + 1)
                if c - 1 + 2 * q <= len(prefix)
                for t in [c - 1]
            ) or all(
                c - 1 + 2 * q > len(prefix) for q in range(1, 11)
            )


# -- scans ------------------------------------------------------------------------


def test_scan_rule90_center_column():
    report = aperiodicity_scan(eca(90), ONE, 0, 0, 256, 100, 100)
    assert report.period_found
    assert (report.certificate.preperiod, report.certificate.period) == (1, 1)
    assert report.outcome == "PeriodFound"


def test_scan_shift_on_eventually_periodic_input():
    x = Configuration(A2, 0, b"\x00", b"\x01", bytes([0, 1]))
    report = aperiodicity_scan(shift_rule(A2), x, 0, 0, 128, 60, 60)
    assert report.period_found


def test_scan_requires_number_like():
    with pytest.raises(NotNumberLike):
        aperiodicity_scan(eca(30), Configuration.zero(A2), 0, 0, 16, 4, 4)


def test_scan_rule30_short_horizon_no_period():
    report = aperiodicity_scan(eca(30), ONE, 0, 1, 200, 60, 60)
    assert not report.period_found
    doc = report.to_json_dict()
    assert doc["outcome"] == "NoPeriodFound" and doc["certificate"] is None


def test_rapid_class_members_have_aperiodic_wide_traces():
    """Every elementary rule classified Yes has aperiodic width-2 traces at
    desk bounds, even rule 90 whose width-1 center column is periodic."""
    from leftex import classify_rapid

    for number in (30, 90, 150, 210):
        result = classify_rapid(eca(number))
        assert result.verdict == "Yes"
        width = result.dims.w
        report = aperiodicity_scan(eca(number), ONE, 0, width - 1, 600, 150, 150)
        assert not report.period_found, number


# -- factor counting ---------------------------------------------------------------


def test_subword_complexity_examples():
    assert subword_complexity([0, 1, 0, 1, 0, 1], 2) == 2
    assert subword_complexity([0, 0, 0, 0], 1) == 1
    with pytest.raises(PrefixTooShort):
        subword_complexity([0, 1], 3)


def test_rule30_column_complexity():
    column = [r[0] for r in columns(eca(30), ONE, 0, 0, 64)]
    assert subword_complexity(column, 4) >= 5


# -- recurrence ---------------------------------------------------------------------


def test_identity_recurs_everywhere():
    assert recurrence_scan(eca(204), ONE, 0, 10) == list(range(1, 11))


def test_mul_never_recurs_small():
    assert recurrence_scan(MUL32, rational_to_config(1, 6), 0, 50) == []


def test_recurrence_matches_brute_force():
    rng = random.Random(2024)
    cases = 0
    while cases < 100:
        size = rng.choice([2, 3])
        alpha = Alphabet(size)
        table = bytes(rng.randrange(size) for _ in range(size**3))
        F = Automaton(LocalRule(alpha, 1, 1, table))
        x = Configuration(
            alpha,
            rng.randint(-3, 3),
            [rng.randrange(size) for _ in range(rng.randint(1, 2))],
            [rng.randrange(size) for _ in range(rng.randint(0, 4))],
            [rng.randrange(size) for _ in range(rng.randint(1, 2))],
        )
        c = rng.randint(-2, 2)
        got = recurrence_scan(F, x, c, 6)
        brute = []
        y = x
        for t in range(1, 7):
            y = apply(F, y)
            bound = 60 + 16 * lcm(len(x.right_period), len(y.right_period))
            if expand_oracle(y, c, c + bound) == expand_oracle(x, c, c + bound):
                brute.append(t)
        assert got == brute
        cases += 1


# -- censuses ----------------------------------------------------------------------


def test_census_identity_is_flat():
    census = limit_point_census(eca(204), ONE, 0, 50, range(1, 5))
    assert census == {1: 1, 2: 1, 3: 1, 4: 1}


def test_census_monotone_in_length():
    rng = random.Random(8)
    for _ in range(10):
        number = rng.randrange(256)
        census = limit_point_census(eca(number), ONE, 0, 60, range(1, 7))
        values = [census[n] for n in range(1, 7)]
        assert values == sorted(values)


def test_census_rejects_negative_horizon():
    with pytest.raises(OutOfRange):
        limit_point_census(eca(30), ONE, 0, -5, range(1, 5))
    assert limit_point_census(eca(30), ONE, 0, 0, [1]) == {1: 1}


# -- propagation --------------------------------------------------------------------


def test_propagation_trivial_zero_trace():
    x = Configuration.zero(A2)
    cert = PeriodCertificate(0, 1, 40)
    assert propagation_check(eca(30), ExpansivityDims(0, 1, 2), x, 0, cert, 40)


def test_propagation_shift_three_periodic():
    x = Configuration(A2, 0, b"\x00", b"\x01", bytes([1, 1, 0]))
    rows = list(columns(shift_rule(A2), x, 2, 2, 60))
    cert = detect_eventual_period(rows, 20, 10)
    assert cert is not None and cert.period == 3
    dims = ExpansivityDims(1, 0, 1)
    assert propagation_check(shift_rule(A2), dims, x, 2, cert, 60)
    # direct statement: the column one step left is periodic from c+1
    left = list(columns(shift_rule(A2), x, 1, 1, 60))
    start = cert.preperiod + 1
    assert all(left[t] == left[t + 3] for t in range(start, 60 - 3))


def test_propagation_rule90_periodic_configuration():
    w = [1, 0, 1, 1]
    x = Configuration(A2, 0, w, [], w)
    rows = list(columns(eca(90), x, 1, 2, 80))
    cert = detect_eventual_period(rows, 40, 16)
    assert cert is not None
    assert propagation_check(eca(90), ExpansivityDims(0, 1, 2), x, 1, cert, 80)


def test_propagation_insufficient_horizon():
    x = Configuration.zero(A2)
    cert = PeriodCertificate(0, 1, 40)
    with pytest.raises(InsufficientHorizon):
        propagation_check(eca(30), ExpansivityDims(0, 1, 2), x, 0, cert, 1)
    with pytest.raises(InsufficientHorizon):
        propagation_check(eca(30), ExpansivityDims(2, 0, 2), x, 0, PeriodCertificate(3, 4, 40), 12)


def test_propagation_validates_certificate():
    x = Configuration(A2, 0, b"\x00", b"\x01", bytes([0, 1]))
    bogus = PeriodCertificate(0, 1, 40)
    with pytest.raises(OutOfRange):
        propagation_check(shift_rule(A2), ExpansivityDims(1, 0, 1), x, 0, bogus, 40)


# -- bound calculators ----------------------------------------------------------------


def test_repetition_bound_examples():
    assert repetition_count_bound(2, 1, 2, 0, 1) == 4
    # independent ceiling computation
    from fractions import Fraction
    import math

    for args in ((3, 2, 2, 1, 2), (2, 3, 1, 2, 0), (5, 1, 1, 4, 4)):
        size, t, w, h, d = args
        want = math.ceil(Fraction((h + d) * size ** (t * w), t))
        assert repetition_count_bound(*args) == want


def test_repetition_bound_big_integers():
    value = repetition_count_bound(3, 40, 4, 2, 3)
    assert value == -(-5 * 3 ** 160 // 40)


def test_preperiod_bound():
    assert preperiod_bound(1, 2) == 1
    assert preperiod_bound(7, 1) == 0
    assert preperiod_bound(3, 4) == 9


def test_bound_keyword_arguments():
    assert repetition_count_bound(alphabet_size=2, t=1, w=2, h=0, d=1) == 4
    assert preperiod_bound(m=1, e=2) == 1
    with pytest.raises(OutOfRange):
        repetition_count_bound(2, 0, 1, 0, 0)
