"""Typed errors that no other test raises: each invalid call raises its own
LeftexError subclass before it computes anything."""

import io

import pytest

from leftex import (
    Alphabet,
    Configuration,
    ExpansivityDims,
    LocalRule,
    MulSpec,
    OneSidedSeq,
    RenderSpec,
    compose,
    detect_eventual_period,
    eca,
    find_left_expansive_dims,
    identity_rule,
    limit_point_census,
    make_rule,
    multiplicative_order,
    patch,
    preperiod_bound,
    recurrence_scan,
    render_to,
    subword_complexity,
    verify_mul,
)
from leftex.errors import (
    AlphabetMismatch,
    BadDims,
    BadSpec,
    IncompleteTable,
    OutOfRange,
    SymbolOutOfRange,
)

A2 = Alphabet(2)
ONE = Configuration.single(A2, 1)


@pytest.mark.parametrize("call, error", [
    (lambda: LocalRule(A2, -1, 1, bytes(8)), OutOfRange),
    (lambda: LocalRule(A2, 1, 1, bytes(7)), IncompleteTable),
    (lambda: eca(30).rule.value(b"\x00\x01"), OutOfRange),
    (lambda: make_rule(A2, 0, -1, {"0": 0, "1": 1}), OutOfRange),
    (lambda: make_rule(A2, 0, 0, {"00": 0, "1": 1}), IncompleteTable),
    # two keys that name one neighborhood leave the other one missing
    (lambda: make_rule(A2, 0, 0, {"0": 0, b"\x00": 1}), IncompleteTable),
    (lambda: compose(eca(30), identity_rule(Alphabet(3))), AlphabetMismatch),
    (lambda: patch(eca(30), b"\x00\x01\x00", 0), OutOfRange),
    (lambda: ExpansivityDims(-1, 0, 1), BadDims),
    (lambda: ExpansivityDims(0, 0, 0), BadDims),
    (lambda: find_left_expansive_dims(eca(30), 0, -1, 2), BadDims),
    (lambda: detect_eventual_period(b"", 1, 1), OutOfRange),
    (lambda: subword_complexity(b"\x00\x01", 0), OutOfRange),
    (lambda: recurrence_scan(eca(30), ONE, 0, 0), OutOfRange),
    (lambda: limit_point_census(eca(30), ONE, 0, 4, [0, 2]), OutOfRange),
    (lambda: preperiod_bound(1, 0), OutOfRange),
    (lambda: multiplicative_order(10, 4), OutOfRange),
    (lambda: MulSpec(3.0, 2), BadSpec),
    (lambda: verify_mul(MulSpec(3, 2), 1, 0), OutOfRange),
    (lambda: OneSidedSeq(A2, b"\x01", b""), SymbolOutOfRange),
    (lambda: render_to(io.StringIO(), eca(30), ONE, RenderSpec(2, 0, 1, "pgm", {0: 0, 1: 256})),
     OutOfRange),
])
def test_invalid_calls_raise_their_typed_error(call, error):
    with pytest.raises(error):
        call()
