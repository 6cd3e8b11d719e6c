import random
import tracemalloc
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, example, given, settings

from leftex import (
    Alphabet,
    Configuration,
    DimsSearch,
    ExpansivityDims,
    MulSpec,
    Verdict,
    apply,
    classify_rapid,
    eca,
    estimate_spreading_speed,
    find_left_expansive_dims,
    fractional_multiplication_rule,
    is_left_expansive,
    is_left_permutive,
    is_left_spreading_eca,
    left_spreading_witnesses,
    parse_configuration,
    patch,
    rational_to_config,
    shift_rule,
)
from leftex import properties, rules
from leftex.errors import BadDims, NotECA, OutOfRange, ZeroNotQuiescent
from leftex.rules import Automaton, LocalRule
from oracles import (
    chunked_left_expansive_oracle,
    decider_charge_oracle,
    first_occurrences_oracle,
    left_edge_moves_oracle,
    left_expansive_oracle,
    linear_dims_search_oracle,
    symbols,
)

A2 = Alphabet(2)
ONE = Configuration.single(A2, 1)
MUL32 = fractional_multiplication_rule(MulSpec(3, 2))
#: a binary (1,2) rule under which [L:0] 11 [R:0] @0 moves one cell right per step
GLIDER = Automaton(LocalRule(A2, 1, 2, bytes.fromhex("00000100000100010101000101000100")))
#: a 3-symbol (1,1) rule whose single 1 moves one cell right per step, while
#: other start words move their edge left: the spreading search runs until
#: the budget stops it
STUCK = Automaton(LocalRule(Alphabet(3), 1, 1, bytes.fromhex(
    "000002000002010000010101010201010002010002020000000101")))


def random_left_permutive_rule(rng, size=3):
    """A (1,1) rule over `size` symbols whose leftmost section is a random
    permutation for every fixed right part."""
    table = bytearray(size**3)
    for rest in range(size * size):
        perm = list(range(size))
        rng.shuffle(perm)
        for a in range(size):
            table[a * size * size + rest] = perm[a]
    return Automaton(LocalRule(Alphabet(size), 1, 1, bytes(table)))


# -- permutivity ----------------------------------------------------------------


def test_permutive_examples():
    assert is_left_permutive(eca(30).rule)
    assert is_left_permutive(eca(90).rule)
    assert not is_left_permutive(eca(0).rule)


def test_permutive_census_is_sixteen():
    assert sum(is_left_permutive(eca(k).rule) for k in range(256)) == 16


def test_permutive_requires_memory():
    with pytest.raises(BadDims):
        is_left_permutive(shift_rule(A2).rule)


def test_permutive_reexpression():
    # rule 170 only reads its right neighbor; as a (1,1) rule its leftmost
    # section is constant, hence not bijective
    assert not is_left_permutive(eca(170).rule)
    # on one symbol every section is a bijection
    assert is_left_permutive(LocalRule(Alphabet(1), 1, 1, b"\x00"))


def test_random_permutive_rules_are_expansive():
    rng = random.Random(321)
    for _ in range(50):
        automaton = random_left_permutive_rule(rng)
        verdict = is_left_expansive(automaton, ExpansivityDims(0, 1, 2))
        assert verdict.status is Verdict.TRUE


# -- expansivity ------------------------------------------------------------------


def test_expansivity_anchor_instances():
    for automaton, dims in (
        (shift_rule(A2), (1, 0, 1)),
        (shift_rule(Alphabet(3)), (1, 0, 1)),
        (eca(30), (0, 1, 2)),
        (eca(90), (0, 1, 2)),
        (MUL32, (1, 1, 1)),
    ):
        verdict = is_left_expansive(automaton, ExpansivityDims(*dims))
        assert verdict.status is Verdict.TRUE
        assert verdict.seeds_checked == verdict.seed_space


def test_rule0_not_expansive_at_top_row():
    verdict = is_left_expansive(eca(0), ExpansivityDims(0, 1, 2))
    assert verdict.status is Verdict.FALSE
    cex = verdict.counterexample
    assert cex is not None and cex.value_a != cex.value_b


def replay_counterexample(automaton, dims, cex):
    """Re-derive rectangle contents and determined cells through patch()."""
    m = automaton.rule.memory
    n_rows = dims.h + dims.d + 1
    out = []
    for seed in (cex.seed_a, cex.seed_b):
        rows = patch(automaton, seed, n_rows).rows
        rect = tuple(
            rows[k][cex.rect_col - k * m:cex.rect_col - k * m + dims.w]
            for k in range(n_rows)
        )
        value = rows[cex.ref_row][cex.det_col - cex.ref_row * m]
        out.append((rect, value))
    return out


def test_counterexample_replays():
    dims = ExpansivityDims(0, 1, 2)
    verdict = is_left_expansive(eca(0), dims)
    (rect_a, val_a), (rect_b, val_b) = replay_counterexample(eca(0), dims, verdict.counterexample)
    assert rect_a == rect_b
    assert val_a != val_b
    assert (val_a, val_b) == (verdict.counterexample.value_a, verdict.counterexample.value_b)


def test_counterexamples_replay_over_random_rules():
    rng = random.Random(99)
    for _ in range(40):
        size = rng.choice([2, 3])
        m, n = rng.randint(0, 1), rng.randint(0, 1)
        table = bytes(rng.randrange(size) for _ in range(size ** (m + n + 1)))
        automaton = Automaton(LocalRule(Alphabet(size), m, n, table))
        dims = ExpansivityDims(rng.randint(0, 1), rng.randint(0, 1), rng.randint(1, 2))
        verdict = is_left_expansive(automaton, dims)
        if verdict.status is Verdict.FALSE:
            (rect_a, val_a), (rect_b, val_b) = replay_counterexample(
                automaton, dims, verdict.counterexample
            )
            assert rect_a == rect_b and val_a != val_b


def test_verdicts_are_deterministic():
    dims = ExpansivityDims(0, 1, 2)
    assert is_left_expansive(eca(0), dims) == is_left_expansive(eca(0), dims)
    assert is_left_expansive(eca(30), dims) == is_left_expansive(eca(30), dims)


def test_budget_exhaustion_reports_unknown():
    verdict = is_left_expansive(eca(30), ExpansivityDims(0, 1, 2), budget=3)
    assert verdict.status is Verdict.UNKNOWN
    assert verdict.evals_needed > verdict.budget == 3
    doc = verdict.to_json_dict()
    assert doc["status"] == "Unknown" and doc["budget"] == 3


def test_verdict_json_shapes():
    true_doc = is_left_expansive(eca(30), ExpansivityDims(0, 1, 2)).to_json_dict()
    assert true_doc["property"] == "left-expansive(0,1,2)"
    assert true_doc["status"] == "True"
    assert true_doc["dims"] == [0, 1, 2]
    assert true_doc["seeds_checked"] == true_doc["seed_space"] == 32
    assert true_doc["counterexample"] is None
    false_doc = is_left_expansive(eca(0), ExpansivityDims(0, 1, 2)).to_json_dict()
    cex = false_doc["counterexample"]
    assert cex is not None
    assert cex["value_a"] != cex["value_b"]
    assert isinstance(cex["seed_a"], str) and len(cex["seed_a"]) == 5


def test_monotonicity_of_dimensions():
    """Growing a rectangle in any direction preserves a True verdict."""
    bases = [(eca(k), (0, 1, 2)) for k in
             (15, 30, 45, 60, 75, 90, 105, 120, 135, 150, 165, 180, 195, 210, 225, 240)]
    bases += [
        (shift_rule(A2), (1, 0, 1)),
        (shift_rule(Alphabet(3)), (1, 0, 1)),
        (shift_rule(Alphabet(4)), (1, 0, 1)),
        (MUL32, (1, 1, 1)),
    ]
    assert len(bases) == 20
    for automaton, (h, d, w) in bases:
        assert is_left_expansive(automaton, ExpansivityDims(h, d, w)).status is Verdict.TRUE
        for grown in ((h + 1, d, w), (h, d + 1, w), (h, d, w + 1)):
            assert is_left_expansive(automaton, ExpansivityDims(*grown)).status is Verdict.TRUE


#: seed spaces the differential test lets the per-seed oracle enumerate
ORACLE_SEED_SPACE = 20_000
#: seed spaces the differential test lets the full-length chunked oracle enumerate
CHUNKED_ORACLE_SEED_SPACE = 200_000
#: (memory, anticipation) pairs the chunked differential test draws from:
#: the asymmetric ones, m = 0 and n = 0 among them, and (1, 1)
MN_PAIRS = [(0, 1), (0, 2), (1, 0), (2, 0), (1, 2), (2, 1), (1, 1)]


@st.composite
def small_decider_queries(draw, mn=None, seed_space=ORACLE_SEED_SPACE):
    """A random rule over 2 or 3 symbols with memory and anticipation at
    most 2, and dimensions whose seed space is at most ``seed_space``.

    With ``mn``, (m, n) is drawn from that list, and half the tables are
    left permutive (a permutation of the leftmost symbol for every fixed
    rest), which are often expansive and exhaust their seed space.
    """
    size = draw(st.sampled_from([2, 3]))
    if mn is None:
        m, n = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        permutive = False
    else:
        m, n = draw(st.sampled_from(mn))
        permutive = draw(st.booleans())
    rest = size ** (m + n)
    if permutive:
        perms = draw(st.lists(st.permutations(range(size)), min_size=rest, max_size=rest))
        table = bytes(perms[r][a] for a in range(size) for r in range(rest))
    else:
        table = bytes(draw(st.lists(st.integers(0, size - 1), min_size=size * rest,
                                    max_size=size * rest)))
    radius = max(m, n)
    cells = [(h, d, w) for h in range(3) for d in range(3) for w in range(1, 4)
             if size ** ((w + 1) + 2 * radius * (h + d)) <= seed_space]
    dims = ExpansivityDims(*draw(st.sampled_from(cells)))
    return Automaton(LocalRule(Alphabet(size), m, n, table)), dims


@given(small_decider_queries())
@settings(max_examples=150, deadline=None)
def test_decider_matches_per_seed_oracle(query):
    automaton, dims = query
    assert is_left_expansive(automaton, dims) == left_expansive_oracle(automaton, dims)


@given(small_decider_queries(MN_PAIRS, CHUNKED_ORACLE_SEED_SPACE))
@settings(max_examples=200, deadline=None)
def test_read_prefix_matches_full_length_oracle(query):
    """Enumerating only the read prefix of the top row gives the verdict
    JSON of the full-length search, counterexamples included, on seed
    spaces ten times what the per-seed oracle reaches."""
    automaton, dims = query
    assert is_left_expansive(automaton, dims).to_json_dict() == \
        chunked_left_expansive_oracle(automaton, dims).to_json_dict()


#: binary (1,0) rules f(a, b) = a or b, a xor b and a and b
OR10 = Automaton(LocalRule(A2, 1, 0, bytes([0, 1, 1, 1])))
XOR10 = Automaton(LocalRule(A2, 1, 0, bytes([0, 1, 1, 0])))
AND10 = Automaton(LocalRule(A2, 1, 0, bytes([0, 0, 0, 1])))


def test_two_word_keys_match_the_full_length_oracle():
    """A rectangle of 6 rows of 11 binary symbols packs into two uint64
    words, of 64 and 2 symbols.  OR10's first conflict at (4,1,11), read
    prefix 3072 of 2**16 against prefix 1024, is found in the one run
    carried into the grown chunk 2048-4095 (chunks 0 and 1 merged).
    AND10's at (2,3,11), prefix 14336 against prefix 0, is found in the
    older of the two runs carried into chunk 8192-16383, of 3072 and 1024
    keys, as it is with fixed chunks of 1024.  Both are the full-length
    oracle's."""
    assert properties._key_layout(2, 66)[1].itemsize == 16
    for automaton, dims, checked in ((OR10, ExpansivityDims(4, 1, 11), 3072 * 2**6 + 1),
                                     (AND10, ExpansivityDims(2, 3, 11), 14336 * 2**6 + 1)):
        verdict = is_left_expansive(automaton, dims)
        assert verdict.status is Verdict.FALSE and verdict.seeds_checked == checked
        assert verdict == chunked_left_expansive_oracle(automaton, dims)


def test_two_word_keys_tell_rectangles_apart_by_their_last_word():
    """At (7,1,8) the rectangle's last row, row 8, fills the second word of
    its key on its own.  Its first cell is row 7's cells c-1 and c added
    mod 2, so with row 7's cell c it gives the determined cell, row 7's cell
    c-1.  That cell reads the leftmost read column, which no other
    rectangle row reads, so the proof needs the second word of every key."""
    verdict = is_left_expansive(XOR10, ExpansivityDims(7, 1, 8))
    assert verdict.status is Verdict.TRUE
    assert verdict.seeds_checked == verdict.seed_space == 2**25


@given(st.sampled_from([1, 2]), st.integers(1, 8), st.data())
@settings(max_examples=200, deadline=None)
def test_first_occurrences_match_numpys_unique(words, distinct, data):
    """The decider's one stable sort gives np.unique's sorted keys, first
    occurrences and inverse, on uint64 keys and on the two-word void keys
    of _key_layout(2, 66), from one key to many copies of a few."""
    weights, key_type = properties._key_layout(2, {1: 64, 2: 66}[words])
    assert len(weights) == words
    word = st.integers(0, 2**64 - 1) | st.sampled_from([0, 1, 2**63, 2**64 - 1])
    pool = data.draw(st.lists(st.lists(word, min_size=words, max_size=words),
                              min_size=distinct, max_size=distinct))
    picks = data.draw(st.lists(st.integers(0, distinct - 1), min_size=1, max_size=300))
    packed = np.array([pool[i] for i in picks], dtype=np.uint64)
    keys = packed[:, 0].copy() if words == 1 else packed.view(key_type).ravel()
    assert keys.dtype == key_type
    for got, want in zip(properties._first_occurrences(keys), first_occurrences_oracle(keys)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_key_layouts_are_cached_and_read_only():
    """A layout is built once per (size, symbols): repeated calls return
    the same objects, and its weights cannot be written."""
    layout = properties._key_layout(2, 66)
    assert properties._key_layout(2, 66) is layout
    weights, key_type = layout
    assert weights.shape == (2, 66) and key_type.itemsize == 16
    with pytest.raises(ValueError):
        weights[0, 0] = 1


def test_single_symbol_alphabet_is_expansive_with_one_seed():
    """Over one symbol every rectangle determines its cell, and the one seed
    is read in one chunk of one word."""
    automaton = Automaton(LocalRule(Alphabet(1), 1, 1, b"\x00"))
    verdict = is_left_expansive(automaton, ExpansivityDims(1, 1, 2))
    assert verdict.status is Verdict.TRUE
    assert verdict.seeds_checked == verdict.seed_space == 1
    assert verdict == left_expansive_oracle(automaton, ExpansivityDims(1, 1, 2))


def seed_index(seed, size):
    value = 0
    for s in seed:
        value = value * size + s
    return value


# the decider reads prefixes in chunks of 1024 for 2 symbols and 729 for 3
# that grow at aligned starts: 1024, 1024, 2048, 4096, ... and 729 x3,
# 2187 x2, ...; the comments give seed_a and the conflict as read-prefix
# indices, which are what the decider chunks
@pytest.mark.parametrize("size, m, n, table, dims, index_a, index_b", [
    # prefix (0, 128): chunk 0 only
    (2, 0, 2, b"\x00\x00\x01\x01\x01\x00\x01\x00", (1, 2, 1), 0, 8192),
    # prefix (24, 88): chunk 0 only
    (2, 0, 2, b"\x01\x00\x01\x01\x01\x01\x00\x01", (2, 0, 2), 384, 1408),
    # prefix (31, 63): chunk 0 only
    (2, 2, 0, b"\x00\x00\x01\x00\x00\x00\x00\x01", (2, 1, 1), 3968, 8064),
    # prefix (189, 432): chunk 0 only
    (3, 0, 1, bytes([1, 2, 1, 1, 2, 2, 1, 2, 0]), (2, 0, 3), 1701, 3888),
    # prefix (896, 1920): chunk 0 -> chunk 1, 4 columns padded
    (2, 1, 2, bytes([0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0]), (2, 1, 3),
     14336, 30720),
    # prefix (648, 1377): chunk 0 -> chunk 1, m = 0, 3 columns padded
    (3, 0, 1, bytes([0, 0, 0, 0, 0, 1, 0, 0, 2]), (2, 1, 3), 17496, 37179),
    # prefix (324, 810): chunk 0 -> chunk 1, n = 0, 4 columns padded
    (3, 2, 0, bytes([0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 2, 0, 2, 0, 1, 1, 2, 0, 0, 2, 1,
                     0, 0, 0, 1, 1, 0]), (2, 0, 3), 26244, 65610),
    # prefix (1280, 1536): both in chunk 1
    (2, 2, 1, bytes([1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0]), (1, 2, 3),
     20480, 24576),
    # prefix (756, 1233): both in chunk 1, 1 column padded
    (3, 1, 1, bytes([2, 0, 0, 0, 2, 2, 0, 0, 1, 1, 2, 2, 2, 0, 0, 1, 1, 0, 0, 1, 1, 1,
                     1, 1, 2, 2, 2]), (2, 2, 1), 2268, 3699),
    # prefix (256, 2304): chunk 0 -> chunk 2, prefixes 2048-4095, whose carry
    # holds two runs, of 65 keys from chunk 0 and 29 from chunk 1; the key is
    # in the older one
    (2, 1, 2, bytes.fromhex("01010101010100010100000000010000"), (2, 1, 3), 4096, 36864),
])
def test_conflicts_across_chunks_match_the_oracle(size, m, n, table, dims, index_a, index_b):
    """The first conflict lies in the first chunk; in a later chunk than the
    first occurrence of its rectangle, so it is found through the runs
    carried between chunks, the latest or an older one; or in the same chunk
    past the first, whose own column gives seed_a."""
    automaton = Automaton(LocalRule(Alphabet(size), m, n, table))
    dims = ExpansivityDims(*dims)
    verdict = is_left_expansive(automaton, dims)
    assert verdict == left_expansive_oracle(automaton, dims)
    assert verdict.status is Verdict.FALSE
    assert seed_index(verdict.counterexample.seed_a, size) == index_a
    assert seed_index(verdict.counterexample.seed_b, size) == index_b == verdict.seeds_checked - 1
    cex = verdict.counterexample
    assert type(cex.value_a) is type(cex.value_b) is int
    assert all(type(row) is bytes for row in (cex.seed_a, cex.seed_b, *cex.rectangle))


def test_certificates_do_not_depend_on_the_chunk_size(monkeypatch):
    """Verdict JSON, seeds_checked and counterexamples included, is the same
    whether the decider's chunks are fixed at the power of the alphabet size
    nearest 1, 7 or 1024 prefixes (1, 8 or 1024 for 2 symbols and 1, 9 or
    729 for 3) or start there and grow to the cap.  Fixed chunks of 1 and
    8 or 9 push the carried-run lookups and merges through thousands of
    chunks.  A binary rule's first conflict, prefix 3968 against prefix
    1920, lies in the first grown chunk, prefixes 2048-4095 at 1024.
    mul:3/2 at (2,1,1) is a True proof over 6**7 prefixes whose chunks grow
    from 1296 to the cap, 7776; fixed chunks of 1 or 6 would make it 6**7
    or 6**6 chunks, so it runs in the other four settings."""
    rng = random.Random(15)
    queries = [(eca(k), ExpansivityDims(1, 1, 2)) for k in range(256)]
    queries.append((MUL32, ExpansivityDims(1, 1, 1)))  # 7 776 prefixes, True
    for k in range(20):
        size = rng.choice((2, 3))
        if k % 2:
            automaton = random_left_permutive_rule(rng, size)
        else:
            m, n = rng.choice(MN_PAIRS)
            table = bytes(rng.randrange(size) for _ in range(size ** (m + n + 1)))
            automaton = Automaton(LocalRule(Alphabet(size), m, n, table))
        dims = rng.choice([(0, 1, 2), (1, 0, 2), (1, 1, 1)])
        queries.append((automaton, ExpansivityDims(*dims)))
    queries.append((Automaton(LocalRule(A2, 1, 2, bytes.fromhex("01010101000001000001000001000100"))),
                    ExpansivityDims(2, 2, 3)))
    proof = (MUL32, ExpansivityDims(2, 1, 1))
    cap = rules._COMPOSE_CHUNK
    verdicts = []
    for chunk, top in ((1, 1), (7, 7), (2**10, 2**10), (1, cap), (7, cap), (2**10, cap)):
        monkeypatch.setattr(properties, "_CHUNK", chunk)
        monkeypatch.setattr(rules, "_COMPOSE_CHUNK", top)
        run = queries + [proof] if top == cap or chunk == 2**10 else queries
        verdicts.append([is_left_expansive(a, dims).to_json_dict() for a, dims in run])
    first = verdicts[-1]
    assert [len(v) for v in verdicts] == [len(queries)] * 2 + [len(queries) + 1] * 4
    assert all(v == first[:len(v)] for v in verdicts)
    assert first[256]["status"] == "True"
    assert {v["status"] for v in first[-22:-2]} == {"True", "False"}
    assert first[-2]["status"] == "False" and first[-2]["seeds_checked"] == 3968 * 2**5 + 1
    assert first[-1]["status"] == "True" and first[-1]["seeds_checked"] == 6**8


def test_budget_verdicts_match_the_oracle():
    """The decider is charged for the read prefixes it maps: one evaluation
    below that charge is Unknown and names it, and the charge itself
    decides, over seeded random rules and dims."""
    for budget in (3, 10**3, 10**6):
        assert is_left_expansive(MUL32, ExpansivityDims(1, 1, 1), budget=budget) == \
            left_expansive_oracle(MUL32, ExpansivityDims(1, 1, 1), budget=budget)
    rng = random.Random(16)
    for _ in range(40):
        size = rng.choice((2, 3))
        m, n = rng.choice(MN_PAIRS)
        table = bytes(rng.randrange(size) for _ in range(size ** (m + n + 1)))
        automaton = Automaton(LocalRule(Alphabet(size), m, n, table))
        dims = ExpansivityDims(rng.randrange(3), rng.randrange(3), rng.randrange(1, 4))
        cost = decider_charge_oracle(automaton, dims)
        if cost > 10**6:
            continue
        short = is_left_expansive(automaton, dims, budget=cost - 1)
        assert short.status is Verdict.UNKNOWN and short.evals_needed == cost
        assert short == left_expansive_oracle(automaton, dims, budget=cost - 1)
        assert is_left_expansive(automaton, dims, budget=cost).status is not Verdict.UNKNOWN


def test_decider_memory_is_bounded():
    """1.68M seeds at (2,1,1) are enumerated in bounded chunks, so the peak
    stays far below what materializing the seed space would take."""
    tracemalloc.start()
    try:
        verdict = is_left_expansive(MUL32, ExpansivityDims(2, 1, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.status is Verdict.TRUE and verdict.seed_space == 6**8
    assert peak < 8 * 2**20


@pytest.mark.parametrize("p, q", [(3, 2), (5, 2), (4, 3), (7, 2), (5, 3), (9, 2), (7, 4)])
def test_multiplication_family_is_expansive_at_111(p, q):
    """The certificate behind classify_rapid's exact-family reason: mul:p/q
    is proved left expansive at (1,1,1) by exhausting its (pq)**5 read
    prefixes under the default budget, which covers every pq <= 30."""
    verdict = is_left_expansive(fractional_multiplication_rule(MulSpec(p, q)),
                                ExpansivityDims(1, 1, 1))
    assert verdict.status is Verdict.TRUE
    assert verdict.seeds_checked == verdict.seed_space == (p * q) ** 6


def test_multiplication_family_beyond_the_default_budget_stays_unknown():
    verdict = is_left_expansive(fractional_multiplication_rule(MulSpec(7, 5)),
                                ExpansivityDims(1, 1, 1))
    assert verdict.status is Verdict.UNKNOWN and verdict.seeds_checked == 0
    assert verdict.evals_needed == 35**5 * 4 and verdict.seed_space == 35**6


def test_find_dims_examples():
    assert find_left_expansive_dims(eca(30), 2, 2, 4).dims == ExpansivityDims(0, 1, 2)
    assert find_left_expansive_dims(shift_rule(A2), 2, 2, 2).dims == ExpansivityDims(1, 0, 1)
    # a constant rule zeroes every image row, so any rectangle with a row
    # above the reference row determines the (image-row) cell trivially;
    # the minimal such certificate is height 1
    assert find_left_expansive_dims(eca(0), 2, 2, 3).dims == ExpansivityDims(1, 0, 1)


def test_find_dims_respects_budget():
    search = find_left_expansive_dims(eca(110), 0, 2, 4, budget=3)
    assert search.dims is None and search.budget_exceeded
    # the top corner alone is over budget, so no probe settles the scan; it
    # maps 2**12 read prefixes through 10 + 8 + 6 + 4 cells
    assert find_left_expansive_dims(eca(110), 2, 2, 4, budget=2**12 * 28 - 1) == \
        DimsSearch(None, True, 36)


def test_find_dims_matches_linear_scan_on_every_eca():
    for number in range(256):
        for bounds in ((2, 2, 4), (0, 2, 4)):
            assert find_left_expansive_dims(eca(number), *bounds) == \
                linear_dims_search_oracle(eca(number), *bounds), (number, bounds)


@pytest.mark.parametrize("automaton, bounds", [
    (eca(0), (2, 2, 4)), (eca(30), (2, 2, 4)), (eca(110), (2, 2, 4)),
    (eca(90), (0, 2, 4)), (shift_rule(A2), (2, 2, 3)), (MUL32, (1, 1, 1)),
])
def test_find_dims_matches_linear_scan_under_small_budgets(automaton, bounds):
    """Budgets from 0, which leaves every cell Unknown, past the cost of the
    top corner, which leaves none; at (2,2,4) an ECA's top corner needs
    2**12 * 28 = 114688 evaluations."""
    for budget in (0, 4, 10**3, 10**4, 10**5, 114687, 114688, 262144, 10**6):
        assert find_left_expansive_dims(automaton, *bounds, budget=budget) == \
            linear_dims_search_oracle(automaton, *bounds, budget=budget), budget


@st.composite
def small_dims_searches(draw):
    """A random rule over 2 or 3 symbols with (m, n) in {0, 1}^2, search
    bounds up to (2, 2, 3) and a budget that may cut the search short."""
    size = draw(st.sampled_from([2, 3]))
    m, n = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    table = bytes(draw(st.lists(st.integers(0, size - 1), min_size=size ** (m + n + 1),
                                max_size=size ** (m + n + 1))))
    bounds = draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(0, 3))
    budget = draw(st.sampled_from([10**2, 10**4, 10**6]))
    return Automaton(LocalRule(Alphabet(size), m, n, table)), bounds, budget


@given(small_dims_searches())
@settings(max_examples=100, deadline=None)
def test_find_dims_matches_linear_scan_on_random_rules(query):
    automaton, bounds, budget = query
    assert find_left_expansive_dims(automaton, *bounds, budget=budget) == \
        linear_dims_search_oracle(automaton, *bounds, budget=budget)


@given(st.integers(2, 4), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 3), st.integers(0, 3), st.integers(1, 5))
@settings(max_examples=200, deadline=None)
def test_no_cell_costs_more_than_its_corner(size, m, n, max_h, max_d, max_w):
    """The decider's charge is monotone in the cell, which lets the
    dimension search skip every cell's charge once the corner fits."""
    rule = LocalRule(Alphabet(size), m, n, bytes(size ** (m + n + 1)))
    corner = properties._decider_frame(rule, ExpansivityDims(max_h, max_d, max_w))[-1]
    for h in range(max_h + 1):
        for d in range(max_d + 1):
            for w in range(1, max_w + 1):
                assert properties._decider_frame(rule, ExpansivityDims(h, d, w))[-1] <= corner


@given(small_dims_searches(), st.sampled_from([-1, 0]))
@settings(max_examples=60, deadline=None)
def test_find_dims_at_the_corner_budget_matches_linear_scan(query, offset):
    """A budget of exactly the corner's charge settles the search from the
    corner; one less walks every cell's charge."""
    automaton, bounds, _ = query
    assume(bounds[2] >= 1)
    budget = properties._decider_frame(automaton.rule, ExpansivityDims(*bounds))[-1] + offset
    assume(budget <= 10**6)
    assert find_left_expansive_dims(automaton, *bounds, budget=budget) == \
        linear_dims_search_oracle(automaton, *bounds, budget=budget)


def test_find_dims_edge_bounds():
    for automaton in (eca(30), eca(110), eca(0), MUL32):
        for bounds in ((2, 2, 0), (0, 0, 0), (0, 0, 1), (0, 0, 4)):
            assert find_left_expansive_dims(automaton, *bounds) == \
                linear_dims_search_oracle(automaton, *bounds), bounds
    assert find_left_expansive_dims(eca(30), 2, 2, 0) == DimsSearch(None, False, 0)


def test_find_dims_lists_cells_only_past_a_corner_that_does_not_refute(monkeypatch):
    """A refuted search counts its 36 cells without listing them; a proved
    one lists all 36 and stops at the sixth, (0,1,2)."""
    built = []

    class Counted(ExpansivityDims):
        def __post_init__(self):
            built.append((self.h, self.d, self.w))
            super().__post_init__()

    monkeypatch.setattr(properties, "ExpansivityDims", Counted)
    assert find_left_expansive_dims(eca(110), 2, 2, 4) == DimsSearch(None, False, 36)
    assert built == [(2, 2, 4)]
    built.clear()
    found = find_left_expansive_dims(eca(30), 2, 2, 4)
    assert (found.dims.h, found.dims.d, found.dims.w, found.cells_checked) == (0, 1, 2, 6)
    assert len(built) == 1 + 36


def test_refuting_probe_at_the_top_corner_settles_the_search(monkeypatch):
    calls = []
    decide = properties.is_left_expansive

    def counting(automaton, dims, **kwargs):
        calls.append(dims)
        return decide(automaton, dims, **kwargs)

    monkeypatch.setattr(properties, "is_left_expansive", counting)
    assert find_left_expansive_dims(eca(110), 2, 2, 4) == DimsSearch(None, False, 36)
    assert calls == [ExpansivityDims(2, 2, 4)]


def test_budgets_above_the_cap_act_as_the_cap():
    """No budget overflows an int64 enumeration index: a budget above 2**61
    is read as 2**61, and the verdicts show the budget read."""
    huge = 10**40
    verdict = is_left_expansive(eca(30), ExpansivityDims(0, 60, 2), budget=huge)
    assert verdict.status is Verdict.UNKNOWN and verdict.budget == 2**61
    assert verdict.to_json_dict()["budget"] == 2**61
    assert is_left_expansive(eca(30), ExpansivityDims(0, 1, 2), budget=huge) == \
        is_left_expansive(eca(30), ExpansivityDims(0, 1, 2))
    assert find_left_expansive_dims(eca(30), 2, 2, 4, budget=huge) == \
        find_left_expansive_dims(eca(30), 2, 2, 4)
    assert find_left_expansive_dims(eca(110), 2, 2, 4, budget=huge) == DimsSearch(None, False, 36)
    assert properties._left_spreading_search(STUCK.rule, huge)[0] is Verdict.UNKNOWN


def test_classify_rejects_negative_search_bounds():
    """Every bound is checked before any branch, so the shift, the constant
    rules and the spreading No reject a negative bound too."""
    for automaton in (eca(30), eca(0), eca(170), eca(184), MUL32):
        for bounds in ((-1, 2, 4), (0, -1, 4), (2, 2, -1)):
            with pytest.raises(BadDims):
                classify_rapid(automaton, bounds)


def test_negative_budgets_are_rejected():
    calls = [
        lambda: is_left_expansive(eca(30), ExpansivityDims(0, 1, 2), budget=-1),
        lambda: find_left_expansive_dims(eca(30), 2, 2, 4, budget=-1),
        lambda: find_left_expansive_dims(eca(30), 2, 2, 0, budget=-1),
        lambda: classify_rapid(eca(30), budget=-1),
        lambda: classify_rapid(eca(204), budget=-1),
    ]
    for call in calls:
        with pytest.raises(OutOfRange):
            call()


# -- spreading --------------------------------------------------------------------


def test_spreading_criterion():
    assert is_left_spreading_eca(eca(30).rule)
    assert is_left_spreading_eca(eca(90).rule)
    assert not is_left_spreading_eca(eca(0).rule)
    with pytest.raises(NotECA):
        is_left_spreading_eca(shift_rule(Alphabet(3)).rule)


def test_spreading_criterion_census():
    assert sum(is_left_spreading_eca(eca(k).rule) for k in range(256)) == 128


def test_spreading_search_decides_every_eca_at_t1():
    """On a binary (1,1) table the search reads F(x)[-1] = f(0,0,1) for the
    one start word 1, so it is the 001 criterion at a cost of one evaluation."""
    for number in range(256):
        expected = Verdict.TRUE if is_left_spreading_eca(eca(number).rule) else Verdict.FALSE
        assert properties._left_spreading_search(eca(number).rule, 1) == (expected, 1, 1)
        assert properties._left_spreading_search(eca(number).rule, 0)[0] is Verdict.UNKNOWN


def test_spreading_search_reads_every_start_word_before_a_no():
    """Under f(a, b1, ..., b12) = b1 and b2 only the second chunk of the
    2048 start words at t = 1 moves the edge, so t = 1 is mixed.  Its
    2048 * 12 evaluations are charged before it runs, and t = 2 is over
    budget."""
    rule = LocalRule(A2, 0, 12, bytes(int(k >> 10 & 3 == 3) for k in range(2**13)))
    assert properties._left_spreading_search(rule, 2048 * 12) == (Verdict.UNKNOWN, 2, 0)
    assert properties._left_spreading_search(rule, 2048 * 12 - 1) == (Verdict.UNKNOWN, 1, 0)


@st.composite
def quiescent_rules(draw):
    """A zero-quiescent rule over 2 or 3 symbols with m, n <= 2."""
    size = draw(st.sampled_from([2, 3]))
    m, n = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    entries = size ** (m + n + 1) - 1
    table = [0] + draw(st.lists(symbols(size), min_size=entries, max_size=entries))
    return Automaton(LocalRule(Alphabet(size), m, n, bytes(table)))


@given(quiescent_rules(), st.sampled_from([10**2, 10**3, 10**4]), st.randoms())
@example(Automaton(LocalRule(A2, 1, 2, bytes.fromhex("00000100000001010101000001000000"))),
         10**4, random.Random(0))  # a witness at t = 3, moving cells left of -n
@example(GLIDER, 10**4, random.Random(0))  # mixed at every t the budget covers
@settings(max_examples=60, deadline=None)
def test_spreading_search_matches_edge_oracle(automaton, budget, rng):
    """By the oracle, a No is none-move at t = 1, every t the search ruled
    out is mixed at t = 1 and not all-move after, and a witness is all-move."""
    status, t, words = properties._left_spreading_search(automaton.rule, budget)
    if status is Verdict.FALSE:
        assert t <= 1 and not any(left_edge_moves_oracle(automaton, 1, rng))
        return
    for s in range(1, t):
        moved = set(left_edge_moves_oracle(automaton, s, rng))
        assert False in moved and (s > 1 or True in moved), s
    if status is Verdict.TRUE:
        witness = left_edge_moves_oracle(automaton, t, rng)
        assert all(witness) and words == len(witness)


def test_witnesses():
    # (3/2)^t first gains a base-6 integer digit at t=5 (when it passes 6)
    assert left_spreading_witnesses(MUL32, [rational_to_config(1, 6)], 20) == [5]
    assert left_spreading_witnesses(eca(30), [ONE], 5) == [1]
    assert left_spreading_witnesses(eca(204), [ONE], 10) == [None]


def test_spreading_rejects_negative_horizon():
    for spreading in (left_spreading_witnesses, estimate_spreading_speed):
        with pytest.raises(OutOfRange):
            spreading(eca(30), [ONE], -1)
    assert left_spreading_witnesses(eca(30), [ONE], 0) == [None]


def test_witnesses_require_quiescence():
    with pytest.raises(ZeroNotQuiescent):
        left_spreading_witnesses(eca(1), [ONE], 3)


def test_speed_of_rule30_and_shift():
    assert estimate_spreading_speed(eca(30), [ONE], 200).estimate == 1
    assert estimate_spreading_speed(shift_rule(A2), [ONE], 100).estimate == 1


def test_speed_estimate_fields():
    est = estimate_spreading_speed(eca(30), [ONE, Configuration.single(A2, 1, 3)], 40)
    assert est.samples == 2 and est.horizon == 40
    assert all(isinstance(r, Fraction) for r in est.per_sample)
    assert est.estimate == max(est.per_sample)


# -- classification ----------------------------------------------------------------


def test_classify_rule30():
    result = classify_rapid(eca(30))
    assert result.verdict == "Yes"
    assert result.dims == ExpansivityDims(0, 1, 2)
    assert result.speed_basis == "uniform-witness"


def test_classify_mul():
    result = classify_rapid(MUL32)
    assert result.verdict == "Yes"
    assert result.dims == ExpansivityDims(1, 1, 1)
    assert result.speed_basis == "exact-family"


def test_classify_recognizes_multiplication_by_table_not_name():
    for number in (110, 54, 2):
        impostor = Automaton(eca(number).rule, name="mul:x")
        assert classify_rapid(impostor).verdict == classify_rapid(Automaton(eca(number).rule)).verdict
        assert classify_rapid(impostor).verdict != "Yes"
    for p, q in ((3, 2), (5, 2)):
        unnamed = Automaton(fractional_multiplication_rule(MulSpec(p, q)).rule)
        result = classify_rapid(unnamed)
        assert (result.verdict, result.dims, result.speed_basis) == (
            "Yes", ExpansivityDims(1, 1, 1), "exact-family")


def test_classify_shift_variants():
    assert classify_rapid(shift_rule(A2)).verdict == "No"
    assert classify_rapid(shift_rule(Alphabet(5))).verdict == "No"
    assert classify_rapid(eca(170)).verdict == "No"  # trims to the shift


def test_classify_negative_cases():
    assert classify_rapid(eca(204)).verdict == "No"  # identity
    assert classify_rapid(eca(0)).verdict == "No"  # constant to zero
    assert classify_rapid(eca(1)).verdict == "No"  # zero not quiescent
    assert classify_rapid(eca(184)).verdict == "No"  # 001 -> 0, never spreads
    # the certified No costs one evaluation, which budget 0 does not cover
    assert classify_rapid(eca(184), budget=0).verdict == "Unknown"
    assert classify_rapid(eca(184), budget=1).verdict == "No"


def test_classify_single_symbol_alphabet_is_no():
    """A single-symbol alphabet has no number-like configuration and no
    start word with a nonzero first symbol; zero words are no witness."""
    for m, n in ((0, 0), (1, 1), (0, 2)):
        rule = LocalRule(Alphabet(1), m, n, bytes(1))
        assert classify_rapid(Automaton(rule)).verdict == "No"


def test_classify_never_says_yes_when_an_edge_moves_right():
    """The single 1 moves left under the glider rule, but 11 moves one cell
    right at every step, so the rule is not left spreading although that one
    sample spreads."""
    x = parse_configuration("[L:0] 11 [R:0] @0", A2)
    assert apply(GLIDER, x) == x.shift(-1)
    assert classify_rapid(GLIDER).verdict != "Yes"


def test_classify_unknown_never_uses_empirical_speed_for_positive_height():
    result = classify_rapid(eca(110))
    assert result.verdict == "Unknown"
    assert result.speed_basis is None


def test_classify_census_of_all_eca():
    verdicts = {k: classify_rapid(eca(k)).verdict for k in range(256)}
    yes = sorted(k for k, v in verdicts.items() if v == "Yes")
    # quiescent, left permutive, spreading: the four additive-or-chaotic rules
    assert yes == [30, 90, 150, 210]
    for k in yes:
        assert classify_rapid(eca(k)).dims.h == 0
