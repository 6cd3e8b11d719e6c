import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from leftex import (
    Alphabet,
    Configuration,
    apply,
    columns,
    compose,
    eca,
    identity_rule,
    make_rule,
    patch,
    shift_inverse_rule,
    shift_rule,
    trim_vacuous,
)
from leftex.rules import (
    Automaton,
    LocalRule,
    _BLOCK_ENTRIES,
    _COMPOSE_CHUNK,
    _SHORT_WORD,
    _block,
    _block_rows,
    _chunk_digits,
    _patches,
    _radix_index,
    map_windows,
)
from leftex.errors import (
    AlphabetMismatch,
    EmptyInterval,
    IncompleteTable,
    OutOfRange,
    SeedTooShort,
    SymbolOutOfRange,
    TableTooLarge,
)

from oracles import (
    RULE30,
    RULE90,
    compose_oracle,
    lex_words_oracle,
    map_windows_oracle,
    padded_step,
    radix_index_oracle,
    raw_configurations,
    simulate_zero_padded,
    trim_vacuous_oracle,
)

A2 = Alphabet(2)
ONE = Configuration.single(A2, 1)


@st.composite
def rules(draw, min_size=2, max_size=3, max_m=1, max_n=1):
    size = draw(st.integers(min_size, max_size))
    m = draw(st.integers(0, max_m))
    n = draw(st.integers(0, max_n))
    count = size ** (m + n + 1)
    table = draw(st.lists(st.integers(0, size - 1), min_size=count, max_size=count))
    return Automaton(LocalRule(Alphabet(size), m, n, bytes(table)))


def test_eca30_matches_hand_table():
    rule = eca(30).rule
    for neigh, out in RULE30.items():
        assert rule.value(bytes(neigh)) == out


def test_eca90_is_additive():
    rule = eca(90).rule
    for neigh, out in RULE90.items():
        assert rule.value(bytes(neigh)) == out


def test_eca0_constant():
    assert eca(0).rule.table == bytes(8)


def test_eca_out_of_range():
    with pytest.raises(OutOfRange):
        eca(256)
    with pytest.raises(OutOfRange):
        eca(-1)


def test_the_package_exports_no_alias_entry_points():
    import leftex

    assert {"render", "seq_equal", "eca_rule"}.isdisjoint(leftex.__all__)
    assert {"render_to", "eca", "OneSidedSeq"} <= set(leftex.__all__)
    assert not hasattr(leftex.render, "render")
    assert not hasattr(leftex.configuration, "seq_equal")
    assert not hasattr(leftex.rules, "eca_rule")


def test_make_rule_round_trip():
    rule = make_rule(A2, 1, 1, {bytes(k): v for k, v in RULE30.items()})
    assert rule.table == eca(30).rule.table


def test_make_rule_missing_entry():
    table = {bytes(k): v for k, v in RULE30.items()}
    del table[bytes((1, 1, 1))]
    with pytest.raises(IncompleteTable):
        make_rule(A2, 1, 1, table)


def test_make_rule_counts_entries_before_allocating():
    # 2^81 neighborhoods cannot be allocated at all, 2^(2*10^9+1) cannot
    # even be counted quickly, and 2^25 would take two 32 MB arrays before
    # the empty table is found to be incomplete
    for m in (40, 10**9):
        with pytest.raises(IncompleteTable):
            make_rule(A2, m, m, {})
    tracemalloc.start()
    try:
        with pytest.raises(IncompleteTable):
            make_rule(A2, 12, 12, {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_make_rule_bad_symbol():
    table = {bytes(k): v for k, v in RULE30.items()}
    table[bytes((1, 1, 1))] = 2
    with pytest.raises(SymbolOutOfRange):
        make_rule(A2, 1, 1, table)


def test_shift_rule_is_sigma():
    sigma = shift_rule(A2)
    assert sigma.rule.memory == 0 and sigma.rule.anticipation == 1
    assert apply(sigma, ONE) == ONE.shift(1)


def test_rule30_image_of_single_one():
    y = apply(eca(30), ONE)
    assert y.window(-2, 2) == bytes([0, 1, 1, 1, 0])
    assert y == Configuration(A2, -1, b"\x00", b"\x01\x01\x01", b"\x00")


def test_rule0_kills_everything():
    x = Configuration(A2, 0, b"\x01", b"\x00\x01", b"\x01\x00")
    assert apply(eca(0), x) == Configuration.zero(A2)


def test_apply_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        apply(shift_rule(Alphabet(3)), ONE)


@given(rules(), raw_configurations(min_size=2, max_size=3))
@settings(max_examples=120, deadline=None)
def test_apply_matches_pointwise_rule_evaluation(F, x):
    if F.alphabet != x.alphabet:
        return
    y = apply(F, x)
    m, n = F.rule.memory, F.rule.anticipation
    for i in range(-50, 51):
        assert y.at(i) == F.rule.value(x.window(i - m, i + n))


@given(rules(), raw_configurations(min_size=2, max_size=3), st.integers(-6, 6))
@settings(max_examples=100)
def test_apply_commutes_with_shift(F, x, k):
    if F.alphabet != x.alphabet:
        return
    assert apply(F, x.shift(k)) == apply(F, x).shift(k)


@given(raw_configurations())
@settings(max_examples=60)
def test_identity_rule_fixes_everything(x):
    assert apply(identity_rule(x.alphabet), x) == x


# -- composition ---------------------------------------------------------------


def test_sigma_with_inverse_is_identity():
    sigma, inv = shift_rule(A2), shift_inverse_rule(A2)
    both = compose(sigma, inv)
    assert (both.rule.memory, both.rule.anticipation) == (0, 0)
    assert apply(both, ONE) == ONE


def test_compose_dims_of_fractional_multiplication():
    # inverse shift after two (0,1) steps reads only cells i-1..i+1
    from leftex import MulSpec, multiplication_rule

    times3 = multiplication_rule(MulSpec(3, 2))
    twice = compose(times3, times3)
    assert (twice.rule.memory, twice.rule.anticipation) == (0, 2)
    full = compose(shift_inverse_rule(Alphabet(6)), twice)
    assert (full.rule.memory, full.rule.anticipation) == (1, 1)


@given(rules(max_size=3), rules(max_size=3), raw_configurations(min_size=2, max_size=3))
@settings(max_examples=80, deadline=None)
def test_compose_equals_sequential_application(F, G, x):
    if F.alphabet != G.alphabet or F.alphabet != x.alphabet:
        return
    assert apply(compose(F, G), x) == apply(F, apply(G, x))


def test_compose_associates_on_application():
    rng_rules = [eca(30), eca(90), eca(110)]
    F, G, H = rng_rules
    left = compose(F, compose(G, H))
    right = compose(compose(F, G), H)
    for x in (ONE, Configuration(A2, 2, [1, 0], [1, 1, 0], [1])):
        assert apply(left, x) == apply(right, x)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_compose_matches_per_neighborhood_oracle(data):
    """Composed tables of every size up to 4^5 entries, built in one numpy
    pass, equal the neighborhood-by-neighborhood product."""
    size = data.draw(st.integers(2, 4))
    F = data.draw(rules(min_size=size, max_size=size))
    G = data.draw(rules(min_size=size, max_size=size))
    assert compose(F, G) == compose_oracle(F, G)


def test_compose_size_guard():
    """Two binary (6,6) rules compose to width 25, whose 2**25 entries are
    over the guard of 10**7; it raises before anything is tabulated."""
    wide = Automaton(LocalRule(Alphabet(2), 6, 6, bytes(2**13)))
    with pytest.raises(TableTooLarge):
        compose(wide, wide)


def test_compose_working_memory_does_not_grow_with_the_table():
    """The eighth power of rule 30 has width 17 and 131072 entries.  Built
    by seven compositions, it peaked at 22.5 MB of traced memory when every
    word of the product width was mapped in one pass; in fixed chunks the
    working memory no longer scales with the table."""
    F = eca(30)
    tracemalloc.start()
    try:
        power = F
        for _ in range(7):
            power = compose(F, power)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (power.rule.memory, power.rule.anticipation) == (8, 8)
    assert peak <= 8 * 2**20
    rng = random.Random(17)
    for _ in range(50):
        seed = bytes(rng.randrange(2) for _ in range(17))
        assert power.rule.value(seed) == patch(F, seed, 9).rows[-1][0]


def test_trim_vacuous():
    assert (trim_vacuous(eca(170).rule).memory, trim_vacuous(eca(170).rule).anticipation) == (0, 1)
    trimmed = trim_vacuous(eca(204).rule)
    assert (trimmed.memory, trimmed.anticipation) == (0, 0)
    assert trimmed.table == bytes([0, 1])
    assert trim_vacuous(eca(30).rule) == eca(30).rule


@st.composite
def rules_with_vacuous_edges(draw):
    """A random (m, n) rule over 1-4 symbols, m, n <= 2, whose table ignores
    its pad_l leftmost and pad_r rightmost positions."""
    size = draw(st.integers(1, 4))
    m, n = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    pad_l, pad_r = draw(st.integers(0, m)), draw(st.integers(0, n))
    core_count = size ** (m + n + 1 - pad_l - pad_r)
    rng = random.Random(draw(st.integers(0, 2**32)))
    core = [rng.randrange(size) for _ in range(core_count)]
    table = bytes(core[(i // size**pad_r) % core_count] for i in range(size ** (m + n + 1)))
    return LocalRule(Alphabet(size), m, n, table), pad_l, pad_r


@given(rules_with_vacuous_edges())
@settings(max_examples=300, deadline=None)
def test_trim_vacuous_matches_block_oracle(case):
    rule, pad_l, pad_r = case
    trimmed = trim_vacuous(rule)
    assert trimmed == trim_vacuous_oracle(rule)
    assert trimmed.memory <= rule.memory - pad_l
    assert trimmed.anticipation <= rule.anticipation - pad_r


# -- column walks ---------------------------------------------------------------


def test_trace_rule90_column():
    rows = list(columns(eca(90), ONE, 0, 0, 4))
    assert [r[0] for r in rows] == [1, 0, 0, 0]


def test_trace_shift_reads_the_configuration():
    x = Configuration(A2, 0, b"\x00", bytes([1, 0, 1, 1]), b"\x00")
    rows = list(columns(shift_rule(A2), x, 0, 0, 10))
    assert [r[0] for r in rows] == [x.at(t) for t in range(10)]


def test_trace_rule30_pair_column():
    rows = list(columns(eca(30), ONE, 0, 1, 3))
    oracle = simulate_zero_padded(RULE30, 1, 1, ONE, 0, 1, 2)
    assert [list(r) for r in rows] == oracle
    assert rows == [bytes([1, 0]), bytes([1, 1]), bytes([0, 0])]


def test_trace_validation():
    with pytest.raises(EmptyInterval):
        columns(eca(30), ONE, 3, 2, 5)
    with pytest.raises(OutOfRange):
        columns(eca(30), ONE, 0, 0, -1)


# -- patches ---------------------------------------------------------------------


def test_patch_rule30():
    p = patch(eca(30), [0, 0, 1, 0, 0], 2)
    assert p.rows == (bytes([0, 0, 1, 0, 0]), bytes([1, 1, 1]))
    oracle = padded_step(RULE30, 1, 1, [0, 0, 1, 0, 0], 0, 0)[1:-1]
    assert list(p.rows[1]) == oracle


def test_patch_single_row():
    p = patch(eca(30), [1, 0], 1)
    assert p.rows == (bytes([1, 0]),)


def test_patch_rule0_shrinks():
    p = patch(eca(0), [1] * 5, 3)
    assert [len(r) for r in p.rows] == [5, 3, 1]
    assert p.rows[1] == bytes(3) and p.rows[2] == bytes(1)


def test_patch_seed_too_short():
    with pytest.raises(SeedTooShort):
        patch(eca(30), [1, 0], 2)


@given(rules(min_size=2, max_size=3), st.data())
@settings(max_examples=80, deadline=None)
def test_patch_matches_embedded_configurations(F, data):
    """Rows of a patch agree with orbit windows of any configuration whose
    central window extends the seed, within the dependency cone."""
    size = F.alphabet.size
    m, n = F.rule.memory, F.rule.anticipation
    rows = data.draw(st.integers(1, 3))
    seed_len = (rows - 1) * (m + n) + 1 + data.draw(st.integers(0, 3))
    sym = st.integers(0, size - 1)
    seed = bytes(data.draw(st.lists(sym, min_size=seed_len, max_size=seed_len)))
    x = Configuration(
        F.alphabet,
        0,
        data.draw(st.lists(sym, min_size=1, max_size=3)),
        seed,
        data.draw(st.lists(sym, min_size=1, max_size=3)),
    )
    p = patch(F, seed, rows)
    y = x
    for k in range(rows):
        lo = k * m
        hi = seed_len - 1 - k * n
        assert y.window(lo, hi) == p.rows[k]
        y = apply(F, y)


def test_map_windows_matches_rolling_index_oracle():
    """Widths 1-4 over 2-6 symbols and the edge tables of the short-word
    kernel, on short words, on words around _SHORT_WORD symbols, where the
    kernels switch, and on words around 2048 symbols."""
    rng = random.Random(5)
    cases = [identity_rule(Alphabet(3)).rule, compose(shift_rule(A2), shift_inverse_rule(A2)).rule]
    assert [rule.width for rule in cases] == [1, 1]
    # binary width 8 and 16 symbols at width 2 (256 entries), a single
    # symbol (one entry), and 17 symbols at width 2 (289 entries, numpy only)
    for size, m, n in ((2, 3, 4), (16, 1, 0), (1, 1, 1), (17, 0, 1)):
        table = bytes(rng.randrange(size) for _ in range(size ** (m + n + 1)))
        cases.append(LocalRule(Alphabet(size), m, n, table))
    for size in range(2, 7):
        for width in range(1, 5):
            m = rng.randrange(width)
            table = bytes(rng.randrange(size) for _ in range(size ** width))
            cases.append(LocalRule(Alphabet(size), m, width - 1 - m, table))
    for rule in cases:
        size = rule.alphabet.size
        for length in [*range(rule.width, 65), *range(_SHORT_WORD - 2, _SHORT_WORD + 3),
                       *range(2040, 2061)]:
            samples = bytes(b % size for b in rng.randbytes(length))
            assert map_windows(rule, samples) == map_windows_oracle(rule, samples)


@given(st.integers(2, 4), st.integers(1, 17), st.integers(0, 40), st.integers(1, 5),
       st.booleans(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_radix_index_matches_horner(size, width, extra, count, matrix, rng):
    """Horner up to width 3 and doubling beyond, on words and on word
    matrices, in the narrowest dtype that holds size**width - 1."""
    shape = (width + extra, count) if matrix else (width + extra,)
    symbols = np.array([rng.randrange(size) for _ in range(np.prod(shape))],
                       dtype=np.uint8).reshape(shape)
    dtype = np.min_scalar_type(size**width - 1)
    got = _radix_index(symbols, size, width, dtype)
    assert got.dtype == dtype and got.shape == (extra + 1, *shape[1:])
    assert got.tolist() == radix_index_oracle(symbols, size, width)


@given(st.integers(1, 16), st.integers(0, 1), st.integers(0, 1), st.data(),
       st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_patches_match_the_divmod_oracle(size, m, n, data, rng):
    """Any range of words at any chunk target comes out in order as the
    oracle's run of words, each chunk reporting the index of its first
    word, and each chunk's rows the rule's patch rows of its words; a
    one-word range far into a long word's order is the oracle's word.

    The chunks are aligned blocks of size**e words cut to the range at
    either end: e starts at the digits of the power of the alphabet size
    nearest the target and rises by one after a block whose end is a
    multiple of size**(e+1), until it reaches the digits nearest
    _COMPOSE_CHUNK, and never past the word length; a target above that
    cap never grows."""
    rule = LocalRule(Alphabet(size), m, n,
                     bytes(rng.randrange(size) for _ in range(size ** (m + n + 1))))
    length = data.draw(st.integers(1, max(k for k in range(1, 15) if size**k <= 2**14)))
    first = data.draw(st.integers(0, size**length - 1))
    last = data.draw(st.integers(first + 1, size**length))
    chunk = data.draw(st.integers(1, 2**15))
    steps = data.draw(st.integers(0, (length - 1) // (m + n) if m + n else 3))
    chunks = [(start, [row.copy() for row in rows])
              for start, rows in _patches(rule, length, steps, first, last, chunk)]
    e = min(_chunk_digits(size, chunk), length)
    top = min(_chunk_digits(size, _COMPOSE_CHUNK), length)
    block_start = first - first % size**e
    for start, rows in chunks:
        assert start == max(block_start, first)
        assert rows[0].shape[1] == min(block_start + size**e, last) - start
        block_start += size**e
        if e < top and block_start % size ** (e + 1) == 0:
            e += 1
    assert block_start >= last
    assert np.array_equal(np.concatenate([rows[0] for _, rows in chunks], axis=1),
                          lex_words_oracle(first, last - first, size, length))
    for _, rows in chunks:
        assert len(rows) == steps + 1
        for col in (0, -1):
            seed = rows[0][:, col].tobytes()
            assert [row[:, col].tobytes() for row in rows] == \
                list(patch(Automaton(rule), seed, steps + 1).rows)
    long = data.draw(st.integers(length, 40))
    far = data.draw(st.integers(0, min(size**long, 2**62) - 1))
    [(start, rows)] = _patches(rule, long, 0, far, far + 1, chunk)
    assert start == far and np.array_equal(rows[0], lex_words_oracle(far, 1, size, long))


def test_chunks_are_the_nearest_power_of_the_alphabet_size():
    """size**e is the power of the alphabet size nearest the target on a log
    scale, the lower one on a tie, and one word for a single symbol."""
    assert [size**_chunk_digits(size, 2**10) for size in (1, 2, 3, 4, 6, 10)] == \
        [1, 1024, 729, 1024, 1296, 1000]
    assert 16 ** _chunk_digits(16, 2**10) == 256  # 256 and 4096 are equally near
    for size in range(2, 40):
        for target in (1, 7, 2**10, 2**14):
            def distance(f):  # size**f / target or its inverse, whichever is >= 1
                ratio = Fraction(size**f, target)
                return max(ratio, 1 / ratio)
            e = _chunk_digits(size, target)
            assert all(distance(e) <= distance(f) for f in range(16))
            assert all(distance(e) < distance(f) for f in range(e))


def test_chunks_grow_from_the_target_to_the_cap():
    """At the decider's target of 2**10 words, binary chunks double from
    the second chunk on, one growth per aligned start, up to 2**14 words;
    3-symbol chunks of 3**6 words triple after every size-1 chunks of one
    size, up to 3**9; a range cut at both ends keeps the schedule of its
    aligned blocks; a target at the cap never grows."""
    def sizes(size, length, first, last, chunk=2**10):
        rule = LocalRule(Alphabet(size), 0, 0, bytes(range(size)))
        return [(start, rows[0].shape[1])
                for start, rows in _patches(rule, length, 0, first, last, chunk)]
    assert [n for _, n in sizes(2, 17, 0, 2**17)] == \
        [2**10, 2**10, 2**11, 2**12, 2**13] + [2**14] * 7
    assert [n for _, n in sizes(3, 11, 0, 3**11)] == \
        [3**6] * 3 + [3**7] * 2 + [3**8] * 2 + [3**9] * 8
    assert sizes(2, 16, 1500, 40000) == [(1500, 548), (2048, 2048), (4096, 4096),
                                         (8192, 8192), (16384, 16384), (32768, 7232)]
    assert [n for _, n in sizes(2, 16, 0, 2**16, 2**14)] == [2**14] * 4
    assert [n for _, n in sizes(2, 12, 0, 2**12)] == [2**10, 2**10, 2**11]


@given(st.integers(2, 4), st.integers(0, 2), st.integers(0, 2), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_block_tables_are_k_rule_applications(size, m, n, rng):
    """For a sample of neighborhoods, the block's F^k table and its rows
    1..k-1 are the center of k rolling-index applications of the rule."""
    table = bytes(rng.randrange(size) for _ in range(size ** (m + n + 1)))
    rule = LocalRule(Alphabet(size), m, n, table)
    k = _block_rows(rule)
    width = 1 + k * (m + n)
    assert size**width <= _BLOCK_ENTRIES or k == 1
    assert k == 8 or k == 1 or size ** (width + m + n) > _BLOCK_ENTRIES
    if k == 1:
        return
    center, between, dtype = _block(rule)
    assert center.shape == (size**width,) and between.shape == (k - 1, size**width)
    assert dtype == np.min_scalar_type(size**width - 1)
    for v in {0, size**width - 1, *(rng.randrange(size**width) for _ in range(64))}:
        row = bytes(v // size**p % size for p in range(width - 1, -1, -1))
        for q in range(1, k + 1):
            row = map_windows_oracle(rule, row)
            want = between[q - 1][v] if q < k else center[v]
            assert row[(k - q) * m] == want


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_short_kernel_matches_the_oracle_on_both_sides_of_the_threshold(data):
    """Random rules of s^W from 1 to past 256 entries, on words from W
    symbols to twice _SHORT_WORD."""
    size = data.draw(st.integers(1, 17))
    width = data.draw(st.integers(1, max(w for w in range(1, 10) if size**w <= 2**10)))
    m = data.draw(st.integers(0, width - 1))
    rng = data.draw(st.randoms(use_true_random=False))
    rule = LocalRule(Alphabet(size), m, width - 1 - m,
                     bytes(rng.randrange(size) for _ in range(size**width)))
    length = data.draw(st.integers(width, 2 * _SHORT_WORD))
    samples = bytes(rng.randrange(size) for _ in range(length))
    assert map_windows(rule, samples) == map_windows_oracle(rule, samples)


def test_short_kernel_runs_for_short_words_and_small_tables_only():
    wide = LocalRule(Alphabet(10), 1, 1, bytes(1000))  # the shape of mul:5/2
    calls = []
    with mock.patch("leftex.rules._map_short",
                    side_effect=lambda rule, samples: calls.append(len(samples)) or b""):
        for rule, length in ((eca(30).rule, _SHORT_WORD), (eca(30).rule, _SHORT_WORD + 1),
                             (wide, 3), (wide, _SHORT_WORD)):
            map_windows(rule, bytes(length))
    assert calls == [_SHORT_WORD]


def test_map_windows_rejects_short_input():
    with pytest.raises(SeedTooShort):
        map_windows(eca(30).rule, b"\x01")
    with pytest.raises(SeedTooShort):
        map_windows(identity_rule(A2).rule, b"")
