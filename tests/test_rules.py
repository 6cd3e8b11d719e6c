import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from leftex import (
    Alphabet,
    Configuration,
    MulSpec,
    apply,
    columns,
    compose,
    eca,
    fractional_multiplication_rule,
    identity_rule,
    make_rule,
    patch,
    shift_inverse_rule,
    shift_rule,
    trim_vacuous,
)
from leftex.rules import (
    Automaton,
    DEFAULT_COMPOSE_GUARD,
    LocalRule,
    _BIT_ROWS,
    _BLOCK_GROWTH,
    _COMPOSE_CHUNK,
    _RESIDENT_LOW,
    _SHORT_WORD,
    _block,
    _block_rows,
    _chunk_digits,
    _low_words,
    _map_rows,
    _patches,
    _radix_index,
    lookup_windows,
    map_windows,
)
from leftex.properties import ExpansivityDims, is_left_expansive
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
    trace_oracle,
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


def test_lookup_windows_matches_the_oracle_on_matrices():
    """Every gather on word matrices, column by column: the shift of the
    packed bits for every ECA and for random binary tables of 2 to 8
    entries, bytes.translate for the other tables of at most 256 entries (a
    single symbol, 6 symbols at width 3, binary width 8 and 256 symbols at
    width 1), ``take`` for larger tables (289 to 1000 entries), on
    contiguous matrices and on the column-cut views that _patches yields at
    the ends of a range.  A table is packed iff it is binary with at most 8
    entries."""
    rng = random.Random(23)
    packed = [eca(number).rule for number in range(256)]
    for m, n in ((0, 0), (0, 1), (1, 0), (0, 2), (2, 0), (1, 1)):
        for _ in range(4):
            packed.append(LocalRule(Alphabet(2), m, n, bytes(rng.randrange(2)
                                                            for _ in range(2 ** (m + n + 1)))))
    small = [(1, 1, 1), (6, 1, 1), (2, 3, 4), (256, 0, 0)]
    large = [(2, 4, 4), (17, 0, 1), (3, 2, 3), (10, 1, 1)]
    others = [LocalRule(Alphabet(size), m, n,
                        bytes(rng.randrange(size) for _ in range(size ** (m + n + 1))))
              for size, m, n in small + large]
    for rule in packed + others:
        size = rule.alphabet.size
        assert (rule._packed is not None) == (size == 2 and len(rule.table) <= 8)
        assert (rule._translation is not None) == (len(rule.table) <= 256)
        for length, count in ((rule.width, 1), (rule.width + 3, 7), (20, 1024)):
            words = np.frombuffer(bytes(b % size for b in rng.randbytes(length * count)),
                                  dtype=np.uint8).reshape(length, count)
            want = [map_windows_oracle(rule, words[:, col].tobytes()) for col in range(count)]
            for lo, hi in ((0, count), (count // 3, count), (0, count - count // 4),
                           (count // 5, count // 2 + 1)):
                view = words[:, lo:hi]
                got = lookup_windows(rule, view)
                assert got.dtype == np.uint8 and got.shape == (length - rule.width + 1, hi - lo)
                for col in range(hi - lo):
                    assert got[:, col].tobytes() == want[lo + col]


def test_low_blocks_are_resident_read_only_and_bounded():
    """A resident block of low digits is the low rows of the oracle's words,
    read-only, and the same object on every call; the blocks compose() and
    _block build, above _RESIDENT_LOW words, leave nothing resident, while
    the decider's first chunks do stay."""
    for size, digits in ((1, 0), (2, 1), (2, 10), (2, 12), (3, 6), (4, 5), (16, 3)):
        block = _low_words(size, digits)
        assert np.array_equal(block, lex_words_oracle(0, size**digits, size, digits + 2)[2:])
        with pytest.raises(ValueError):
            block[:, 0] = 1
        assert _low_words(size, digits) is block
    mul32 = fractional_multiplication_rule(MulSpec(3, 2))
    twice = compose(eca(30), eca(30))
    four_times = compose(twice, twice)
    _low_words.cache_clear()
    for rule in (compose(mul32, mul32), compose(four_times, twice)):  # 6**5 and 2**13 words
        assert len(rule.rule.table) > _RESIDENT_LOW
    _block(LocalRule(mul32.rule.alphabet, 1, 1, mul32.rule.table))  # a fresh rule: 6**5 words
    assert _low_words.cache_info().currsize == 0
    is_left_expansive(eca(30), ExpansivityDims(2, 2, 4))
    assert 0 < _low_words.cache_info().currsize <= _low_words.cache_info().maxsize
    assert 2**_chunk_digits(2, 2**10) <= _RESIDENT_LOW < 2**_chunk_digits(2, _COMPOSE_CHUNK)


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


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_block_tables_are_k_rule_applications(data):
    """For a sample of neighborhoods, the block's F^k table and its rows
    1..k-1 are the center of k rolling-index applications of the rule, and
    k is the most rows the bound allows.  Tables have up to 1000 entries
    over up to 10 symbols, whose blocks of up to 10^5 words are built in
    several chunks.  Binary tables of at most 8 entries are left out: they
    are bit-sliced (_map_bits) and build no block."""
    size = data.draw(st.integers(2, 10))
    # a binary rule of at most 8 entries is bit-sliced and has no block
    span = data.draw(st.integers(3 if size == 2 else 0,
                                 max(s for s in range(5) if size ** (s + 1) <= 1000)))
    m = data.draw(st.integers(0, span))
    rng = data.draw(st.randoms(use_true_random=False))
    table = bytes(rng.randrange(size) for _ in range(size ** (span + 1)))
    rule = LocalRule(Alphabet(size), m, span - m, table)
    k = _block_rows(rule)
    bound = min(_BLOCK_GROWTH * len(table), DEFAULT_COMPOSE_GUARD)
    width = 1 + k * span
    assert k == 1 or size**width <= bound
    assert k == 8 or size ** (width + span) > bound
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


def test_block_rows_of_the_paper_rules():
    for p in (3, 5):
        assert _block_rows(fractional_multiplication_rule(MulSpec(p, 2)).rule) == 2
    # two rows of a (0,1) rule over 256 symbols would tabulate 256^3 > 10^7 words
    assert _block_rows(LocalRule(Alphabet(256), 0, 1, bytes(256 * 256))) == 1
    # a walk long enough to pay for a six-row block of rule 30 (2**13 words)
    # maps _BIT_ROWS rows per lookup instead and builds no block
    rule = LocalRule(A2, 1, 1, eca(30).rule.table)
    with mock.patch("leftex.rules._block", side_effect=AssertionError("a block was built")):
        rows = list(columns(Automaton(rule), ONE, 0, 0, 1000))
    assert rows == trace_oracle(eca(30), ONE, 0, 0, 1000)
    assert not hasattr(rule, "_block_tables") and hasattr(rule, "_bit_terms")


def test_building_an_eca_computes_no_bit_form():
    assert not any(hasattr(eca(number).rule, "_bit_terms") for number in range(256))


def _bit_sliced_case(rule, rng, k, edge):
    """A word of k rows of ``rule`` and 1 to 40 more symbols, and a
    window of its image at the left edge, at the right edge or anywhere
    (``edge`` 0, 1 or 2)."""
    span = rule.memory + rule.anticipation
    word = bytes(rng.randrange(2) for _ in range(k * span + rng.randint(1, 40)))
    last = len(word) - k * span
    width = rng.randint(1, last)
    lo = (0, last - width, rng.randint(0, last - width))[edge]
    return word, lo, width


def _check_bit_sliced(rule, word, k, lo, width):
    """_map_rows' k-row map against k applications of the rolling-index
    oracle: the word k rows down, and rows 1 .. k-1 over [lo, lo+width)."""
    rows = [word]
    for _ in range(k):
        rows.append(map_windows_oracle(rule, rows[-1]))
    got, between = _map_rows(rule, word, k, lo, width)
    assert got == rows[k]
    m = rule.memory
    assert list(between) == [rows[q][lo + (k - q) * m:lo + (k - q) * m + width]
                             for q in range(1, k)]


def test_bit_sliced_rows_of_every_small_binary_rule():
    """Every binary rule of at most 8 entries, at widths 1, 2 and 3 and every
    (m, n) split, k rows down for k from 2 to _BIT_ROWS, under windows that
    touch either edge of the image and windows inside it."""
    rng = random.Random(33)
    for width in (1, 2, 3):
        for m in range(width):
            for number in range(2 ** 2**width):
                table = bytes(number >> i & 1 for i in range(2**width))
                rule = LocalRule(A2, m, width - 1 - m, table)
                k = 2 + number % (_BIT_ROWS - 1)
                word, lo, window = _bit_sliced_case(rule, rng, k, number % 3)
                _check_bit_sliced(rule, word, k, lo, window)


@given(st.integers(1, 3).flatmap(lambda width: st.tuples(
           st.just(width), st.integers(0, width - 1), st.integers(0, 2 ** 2**width - 1))),
       st.integers(2, _BIT_ROWS), st.integers(0, 2), st.randoms(use_true_random=False))
@example((3, 1, 255), _BIT_ROWS, 0, random.Random(1))  # eca:255, constant 1
@example((3, 1, 1), 7, 1, random.Random(2))  # eca:1 = (1+a)(1+b)(1+c), a constant-1 term
@example((3, 1, 51), _BIT_ROWS, 1, random.Random(3))  # eca:51 = 1+b
@settings(max_examples=300, deadline=None)
def test_bit_sliced_rows_match_the_oracle(shape, k, edge, rng):
    width, m, number = shape
    rule = LocalRule(A2, m, width - 1 - m, bytes(number >> i & 1 for i in range(2**width)))
    word, lo, window = _bit_sliced_case(rule, rng, k, edge)
    _check_bit_sliced(rule, word, k, lo, window)


def test_columns_of_every_eca_match_the_trace_oracle():
    """Every ECA's columns, over random starts and windows and up to 150
    rows, which step the state, the cone or both up to _BIT_ROWS rows per
    lookup, against one canonical configuration per row."""
    rng = random.Random(30)
    for number in range(256):
        x = Configuration(A2, rng.randint(-5, 5),
                          [rng.randrange(2) for _ in range(rng.randint(1, 3))],
                          [rng.randrange(2) for _ in range(rng.randint(0, 8))],
                          [rng.randrange(2) for _ in range(rng.randint(1, 3))])
        i = rng.randint(-10, 10)
        j = i + rng.randint(0, 6)
        rows = rng.randint(1, 150)
        assert list(columns(eca(number), x, i, j, rows)) == trace_oracle(eca(number), x, i, j, rows)


def test_a_block_is_built_in_chunks():
    """mul:5/2's block maps 10^5 words of 5 symbols two rows down, in chunks
    of 10^4 words: the build peaks under 1 MB, where mapping every word at
    once would take its 8-byte gather indices alone, 2.4 MB."""
    mul = fractional_multiplication_rule(MulSpec(5, 2)).rule
    rule = LocalRule(mul.alphabet, mul.memory, mul.anticipation, mul.table)  # no block yet
    tracemalloc.start()
    try:
        center, between, _ = _block(rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert center.shape == (10**5,) and between.shape == (1, 10**5)
    assert peak < 2**20


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
    # every other one-row map goes through the one numpy gather, once
    mul32 = fractional_multiplication_rule(MulSpec(3, 2)).rule
    for rule, length in ((eca(30).rule, _SHORT_WORD + 1), (eca(30).rule, 32768),
                         (mul32, _SHORT_WORD + 1), (mul32, 32768), (wide, 3)):
        with mock.patch("leftex.rules.lookup_windows", wraps=lookup_windows) as gather:
            assert map_windows(rule, bytes(length)) == bytes(length - rule.width + 1)
        assert gather.call_count == 1, (rule.table, length)


def test_map_windows_rejects_short_input():
    with pytest.raises(SeedTooShort):
        map_windows(eca(30).rule, b"\x01")
    with pytest.raises(SeedTooShort):
        map_windows(identity_rule(A2).rule, b"")
