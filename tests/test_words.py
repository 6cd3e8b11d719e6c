import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from leftex.errors import ParseError
from leftex.words import cyclic_slice, first_mismatch, format_word, parse_word, primitive_root, word

from oracles import primitive_root_oracle


def test_word_coercion():
    assert word([0, 1, 3]) == bytes([0, 1, 3])
    assert word(b"\x02") == b"\x02"
    assert word("013") == bytes([0, 1, 3])
    assert word("0,11,3") == bytes([0, 11, 3])
    assert word("") == b""


def test_parse_word_rejects_junk():
    with pytest.raises(ParseError):
        parse_word("01x")
    with pytest.raises(ParseError):
        parse_word("1,999")


def test_format_word():
    assert format_word(bytes([0, 1, 3]), 6) == "013"
    assert format_word(bytes([0, 11, 3]), 16) == "0,11,3"
    # a word with a symbol out of range, as an error message names it
    assert format_word(bytes([0, 12, 3]), 10) == "0123"


@given(st.integers(1, 16).flatmap(
    lambda size: st.tuples(st.just(size), st.binary(max_size=300).map(
        lambda raw: bytes(b % size for b in raw)))), st.sampled_from(["", " ", "\t "]))
@settings(max_examples=200, deadline=None)
def test_words_round_trip_through_digits(case, pad):
    size, w = case
    text = format_word(w, size)
    assert text == (",".join if size > 10 else "".join)(str(s) for s in w)
    assert parse_word(pad + text + pad, size) == w
    if size <= 10:
        assert parse_word(text) == w


def test_parse_word_keeps_non_ascii_digits_and_error_columns():
    assert parse_word("1\u06632", 10) == b"\x01\x03\x02"  # ARABIC-INDIC 3
    with pytest.raises(ParseError) as error:
        parse_word("  01\u00b23", 10)  # a superscript two is a digit, not a decimal
    assert error.value.column == 5


def test_primitive_root_examples():
    assert primitive_root(b"\x01\x00\x01\x00") == b"\x01\x00"
    assert primitive_root(b"\x01\x01\x01") == b"\x01"
    assert primitive_root(b"\x01\x00\x00") == b"\x01\x00\x00"
    assert primitive_root(b"\x05") == b"\x05"


def test_primitive_root_random():
    rng = random.Random(4)
    for _ in range(300):
        base = bytes(rng.randrange(3) for _ in range(rng.randint(1, 5)))
        reps = rng.randint(1, 4)
        w = base * reps
        root = primitive_root(w)
        assert len(w) % len(root) == 0
        assert root * (len(w) // len(root)) == w
        # the root itself has no shorter period
        n = len(root)
        assert all(root[: n - d] != root[d:] or n % d for d in range(1, n)) or n == 1
        assert primitive_root(root) == root


def test_primitive_root_matches_the_oracle_on_every_binary_word():
    for n in range(13):
        for v in range(2**n):
            w = bytes((v >> i) & 1 for i in range(n))
            assert primitive_root(w) == primitive_root_oracle(w)


@given(st.lists(st.integers(0, 3), min_size=1, max_size=30), st.integers(1, 40), st.data())
@settings(max_examples=300, deadline=None)
def test_primitive_root_of_powers_matches_the_oracle(u, k, data):
    """u^k, and u^k with one symbol changed, whose root is the whole word
    unless the change happens to make another power."""
    w = bytes(u) * k
    assert primitive_root(w) == primitive_root_oracle(w)
    i = data.draw(st.integers(0, len(w) - 1))
    changed = w[:i] + bytes([(w[i] + data.draw(st.integers(1, 3))) % 4]) + w[i + 1:]
    assert primitive_root(changed) == primitive_root_oracle(changed)


def test_cyclic_slice():
    w = bytes([1, 2, 3])
    assert cyclic_slice(w, 0, 7) == bytes([1, 2, 3, 1, 2, 3, 1])
    assert cyclic_slice(w, 2, 4) == bytes([3, 1, 2, 3])
    assert cyclic_slice(w, -1, 2) == bytes([3, 1])
    assert cyclic_slice(w, 5, 0) == b""


def test_first_mismatch():
    assert first_mismatch(b"abc", b"abc") is None
    assert first_mismatch(b"abc", b"abd") == 2
    big_a = bytes(10000)
    big_b = bytearray(big_a)
    big_b[8191] = 1
    assert first_mismatch(big_a, bytes(big_b)) == 8191
