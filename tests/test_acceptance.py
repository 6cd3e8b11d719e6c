"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Everything asserted here is exact (tolerance zero)
unless the criterion itself states a numeric band.
"""

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from leftex import (
    Alphabet,
    Configuration,
    ExpansivityDims,
    MulSpec,
    Verdict,
    aperiodicity_scan,
    apply,
    columns,
    config_to_rational,
    detect_eventual_period,
    eca,
    eca_rule,
    estimate_spreading_speed,
    fractional_multiplication_rule,
    is_left_expansive,
    is_left_permutive,
    is_left_spreading_eca,
    left_edge,
    limit_point_census,
    patch,
    propagation_check,
    rational_to_config,
    recurrence_scan,
    shift_rule,
    subword_complexity,
    verify_mul,
)
from leftex.render import RenderSpec, render

from oracles import RULE30, simulate_zero_padded

A2 = Alphabet(2)
ONE = Configuration.single(A2, 1)
MUL32 = fractional_multiplication_rule(MulSpec(3, 2))
MUL_SPECS = (MulSpec(3, 2), MulSpec(5, 2), MulSpec(5, 3), MulSpec(7, 4))
GOLDEN_DIR = Path(__file__).parent / "goldens"


def report(number, ok, text):
    line = f"criterion {number:2d} {'PASS' if ok else 'FAIL'}: {text}"
    print(line, flush=True)
    assert ok, line


# -- shared desk-scale scans (criteria 6 and 7) -------------------------------


@pytest.fixture(scope="module")
def rule30_pair_trace():
    return list(columns(eca(30), ONE, 0, 1, 2000))


@pytest.fixture(scope="module")
def mul_center_trace():
    return list(columns(MUL32, rational_to_config(1, 6), 0, 0, 2000))


def test_criterion_1_multiplication_exactness():
    rng = random.Random(0xC0FFEE)
    checked = 0
    for spec in MUL_SPECS:
        for _ in range(100):
            xi = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            assert verify_mul(spec, xi, 8), (spec, xi)
            checked += 1
    report(1, checked == 400,
           f"verify_mul exact for {checked} random rationals over specs "
           f"(3,2),(5,2),(5,3),(7,4) at steps=8")


def test_criterion_2_round_trip():
    rng = random.Random(0xBEEF)
    bases = (2, 6, 10, 15)
    count = 0
    for k in range(1000):
        xi = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        base = bases[k % 4]
        assert config_to_rational(rational_to_config(xi, base), base) == xi
        count += 1
    report(2, count == 1000, "value -> digits -> value exact for 1000 random "
                             "rationals across bases 2, 6, 10, 15")


def test_criterion_3_expansivity_anchors():
    anchors = (
        (shift_rule(A2), (1, 0, 1)),
        (eca(30), (0, 1, 2)),
        (eca(90), (0, 1, 2)),
        (MUL32, (1, 1, 1)),
    )
    for automaton, dims in anchors:
        verdict = is_left_expansive(automaton, ExpansivityDims(*dims))
        assert verdict.status is Verdict.TRUE, (automaton.name, dims)
        assert verdict.seeds_checked == verdict.seed_space  # full exhaustion
    negative = is_left_expansive(eca(0), ExpansivityDims(0, 1, 2))
    assert negative.status is Verdict.FALSE
    cex = negative.counterexample
    rows_a = patch(eca(0), cex.seed_a, 2).rows
    rows_b = patch(eca(0), cex.seed_b, 2).rows
    m = eca(0).memory
    rect = lambda rows: tuple(rows[k][cex.rect_col - k * m:cex.rect_col - k * m + 2]
                              for k in range(2))
    assert rect(rows_a) == rect(rows_b)
    assert rows_a[cex.ref_row][cex.det_col - cex.ref_row * m] != \
        rows_b[cex.ref_row][cex.det_col - cex.ref_row * m]
    report(3, True, "exhaustive True for shift(1,0,1), rule30(0,1,2), "
                    "rule90(0,1,2), mul3/2(1,1,1); rule0(0,1,2) False with replayable "
                    "counterexample")


def test_criterion_4_permutive_census_and_expansivity():
    permutive = [k for k in range(256) if is_left_permutive(eca_rule(k))]
    spreading = [k for k in range(256) if is_left_spreading_eca(eca_rule(k))]
    assert len(permutive) == 16
    assert len(spreading) == 128
    for k in permutive:
        verdict = is_left_expansive(eca(k), ExpansivityDims(0, 1, 2))
        assert verdict.status is Verdict.TRUE, k
    report(4, True, "all 16 left-permutive elementary rules expansive at "
                    "(0,1,2); censuses exactly 16 permutive / 128 spreading")


def test_criterion_5_spreading_speeds():
    est = estimate_spreading_speed(MUL32, [rational_to_config(1, 6)], 2000)
    target = math.log(3 / 2, 6)
    mul_ok = abs(float(est.estimate) - target) <= 0.01
    r30 = estimate_spreading_speed(eca(30), [ONE], 200).estimate
    sigma = estimate_spreading_speed(shift_rule(A2), [ONE], 200).estimate
    report(5, mul_ok and r30 == 1 and sigma == 1,
           f"mul3/2 speed {float(est.estimate):.5f} within 0.01 of {target:.5f}; "
           f"rule30 and shift speeds exactly 1 at T=200")


def test_criterion_6_aperiodicity_scans(rule30_pair_trace, mul_center_trace):
    r30 = detect_eventual_period(rule30_pair_trace, 500, 500)
    mul = detect_eventual_period(mul_center_trace, 500, 500)
    assert r30 is None and mul is None
    r90 = aperiodicity_scan(eca(90), ONE, 0, 0, 2000, 500, 500)
    assert r90.period_found
    assert (r90.certificate.preperiod, r90.certificate.period) == (1, 1)
    periodic_input = Configuration(A2, 0, b"\x00", b"\x01", bytes([0, 1]))
    sigma = aperiodicity_scan(shift_rule(A2), periodic_input, 0, 0, 2000, 500, 500)
    assert sigma.period_found
    report(6, True, "no period for rule30 width-2 / mul3/2 width-1 at T=2000 "
                    "(bounds 500/500); rule90 center column (c,p)=(1,1); shift trace of a "
                    "periodic input is periodic")


def test_criterion_7_factor_counts(rule30_pair_trace, mul_center_trace):
    for prefix in (rule30_pair_trace, mul_center_trace):
        for k in range(1, 21):
            count = subword_complexity(prefix, k)
            assert count >= k + 1, (k, count)
    report(7, True, "factor counts of both aperiodic traces meet the k+1 "
                    "lower bound for k = 1..20")


def test_criterion_8_recurrence():
    empty = recurrence_scan(MUL32, rational_to_config(1, 6), 0, 500)
    full = recurrence_scan(eca(204), ONE, 0, 500)
    report(8, empty == [] and full == list(range(1, 501)),
           "mul3/2 orbit of 1 never returns to its tail in 500 steps; the "
           "identity automaton returns at every step")


def test_criterion_9_propagation_fixtures():
    rng = random.Random(0x5EED)
    sigma2 = shift_rule(A2)
    sigma3 = shift_rule(Alphabet(3))
    checked = 0

    def run_fixture(automaton, dims, x, col, horizon, max_c, max_p):
        nonlocal checked
        rows = list(columns(automaton, x, col, col + dims.w - 1, horizon))
        cert = detect_eventual_period(rows, max_c, max_p)
        assert cert is not None, (automaton.name, x, col)
        assert propagation_check(automaton, dims, x, col, cert, horizon), \
            (automaton.name, x, col, cert)
        checked += 1

    for i in range(9):
        x = Configuration(
            A2, rng.randint(-3, 3),
            b"\x00",
            [rng.randrange(2) for _ in range(rng.randint(0, 4))],
            [rng.randrange(2) for _ in range(rng.randint(1, 4))],
        )
        run_fixture(sigma2, ExpansivityDims(1, 0, 1), x, rng.randint(-2, 2), 60, 40, 12)
    for i in range(8):
        x = Configuration(
            Alphabet(3), rng.randint(-3, 3),
            [rng.randrange(3) for _ in range(rng.randint(1, 3))],
            [rng.randrange(3) for _ in range(rng.randint(0, 4))],
            [rng.randrange(3) for _ in range(rng.randint(1, 3))],
        )
        run_fixture(sigma3, ExpansivityDims(1, 0, 1), x, rng.randint(-2, 2), 60, 40, 12)
    for i in range(17):
        w = [rng.randrange(2) for _ in range(rng.randint(1, 4))]
        x = Configuration(A2, 0, w, [], w)
        run_fixture(eca(90), ExpansivityDims(0, 1, 2), x, rng.randint(-2, 2), 80, 40, 16)
    for i in range(16):
        w = [rng.randrange(6) for _ in range(rng.randint(1, 3))]
        x = Configuration(Alphabet(6), 0, w, [], w)
        run_fixture(MUL32, ExpansivityDims(1, 1, 1), x, rng.randint(-2, 2), 600, 440, 220)
    report(9, checked == 50,
           f"period certificates propagated one column left on {checked} "
           f"fixtures across shift, rule90 and mul3/2")


def test_criterion_10_limit_point_census():
    census = limit_point_census(eca(30), ONE, 0, 5000, range(1, 9))
    values = [census[n] for n in range(1, 9)]
    monotone = all(a <= b for a, b in zip(values, values[1:]))
    strict = all(a < b for a, b in zip(values, values[1:]))
    table = ", ".join(f"{n}:{census[n]}" for n in range(1, 9))
    report(10, monotone,
           f"rule30 tail-window census at T=5000 is {table} (monotone "
           f"asserted; strictly increasing = {strict}, reported only)")


def test_criterion_11_golden_rasters():
    spec = RenderSpec(32, -32, 32, "pbm")
    r30 = render(eca(30), ONE, spec)
    golden30 = (GOLDEN_DIR / "rule30_single1_rows32_cols-32_32.pbm").read_bytes()
    assert r30 == golden30
    # independent oracle: zero-padded finite simulation of the hand table
    rows = simulate_zero_padded(RULE30, 1, 1, ONE, -32, 32, 31)
    oracle = "P1\n65 32\n" + "".join(
        " ".join("1" if s else "0" for s in row) + "\n" for row in rows
    )
    assert r30 == oracle.encode()
    assert rows[0].count(1) == 1 and rows[1].count(1) == 3

    c1 = rational_to_config(1, 6)
    mul = render(MUL32, c1, spec)
    golden_mul = (GOLDEN_DIR / "mul_3_2_config1_rows32_cols-32_32.pbm").read_bytes()
    assert mul == golden_mul
    # the raster's leftmost ink tracks the exact left-edge drift
    rate = math.log(3 / 2, 6)
    x = c1
    for t, line in enumerate(mul.decode().splitlines()[2:]):
        cells = line.split(" ")
        first_ink = cells.index("1") - 32
        assert first_ink == left_edge(x)
        assert abs(-left_edge(x) - t * rate) <= 2
        x = apply(MUL32, x)
    report(11, True, "rule30 and mul3/2 rasters byte-identical to goldens; "
                     "rule30 raster equals the padded-simulation oracle; mul raster "
                     "ink follows the exact left edge")
