"""Local rules, cellular automata, traces and space-time patches.

A local rule with memory m and anticipation n maps every neighborhood word
of length m+n+1 to a symbol; the induced automaton sends x to the
configuration F(x)[i] = f(x[i-m], ..., x[i+n]).  Applying an automaton to an
eventually periodic configuration yields another one, computed exactly: one
period's worth of each image tail is evaluated at a safe offset where the
input window lies entirely inside the periodic region, so no periodicity
detection is ever needed.

Tables are stored flat, indexed by the radix value of the neighborhood
(leftmost symbol most significant).  Every rule evaluation, from a single
patch row to a 10^5-symbol image, is one numpy radix-index lookup
(lookup_windows); the same lookup maps many equal-length words at once when
they are stacked as the columns of a matrix, which is how the expansivity
decider grows a chunk of seeds.  compose() tabulates a product rule the
same way: it maps every word of the product width, enumerated in
lexicographic order by _lex_words (the decider's seed enumerator too),
through the inner rule and then the outer one.  Every walk along an orbit
goes through the lazy orbit() generator, which computes F^(t+1)(x) only
when it is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

import numpy as np

from .configuration import Alphabet, Configuration
from .errors import (
    AlphabetMismatch,
    EmptyInterval,
    IncompleteTable,
    OutOfRange,
    SeedTooShort,
    SymbolOutOfRange,
    TableTooLarge,
)
from .words import WordLike, word

#: entries allowed in a composed rule table before compose() refuses
DEFAULT_COMPOSE_GUARD = 10**7


@dataclass(frozen=True)
class LocalRule:
    """A total lookup table from neighborhoods of length memory+anticipation+1."""

    alphabet: Alphabet
    memory: int
    anticipation: int
    table: bytes

    def __post_init__(self):
        if self.memory < 0 or self.anticipation < 0:
            raise OutOfRange("memory and anticipation must be nonnegative")
        expected = self.alphabet.size ** self.width
        if len(self.table) != expected:
            raise IncompleteTable(
                f"table has {len(self.table)} entries, expected {expected}"
            )
        self.alphabet.check_word(self.table, "table output")

    @property
    def width(self) -> int:
        return self.memory + self.anticipation + 1

    def value(self, neighborhood: WordLike) -> int:
        """Table lookup for one neighborhood word."""
        w = word(neighborhood)
        if len(w) != self.width:
            raise OutOfRange(f"neighborhood must have length {self.width}")
        self.alphabet.check_word(w, "neighborhood")
        idx = 0
        for s in w:
            idx = idx * self.alphabet.size + s
        return self.table[idx]


@dataclass(frozen=True)
class Automaton:
    """A cellular automaton: a local rule plus an optional display name."""

    rule: LocalRule
    name: Optional[str] = None

    @property
    def alphabet(self) -> Alphabet:
        return self.rule.alphabet

    @property
    def memory(self) -> int:
        return self.rule.memory

    @property
    def anticipation(self) -> int:
        return self.rule.anticipation

    @property
    def radius(self) -> int:
        return max(self.rule.memory, self.rule.anticipation)


def make_rule(
    alphabet: Alphabet, memory: int, anticipation: int, table: Mapping[WordLike, int]
) -> LocalRule:
    """Build a validated rule from a neighborhood -> symbol mapping."""
    if memory < 0 or anticipation < 0:
        raise OutOfRange("memory and anticipation must be nonnegative")
    width = memory + anticipation + 1
    size = alphabet.size
    flat = bytearray(size**width)
    seen = bytearray(size**width)
    for key, value in table.items():
        w = word(key)
        if len(w) != width:
            raise IncompleteTable(f"neighborhood {key!r} does not have length {width}")
        alphabet.check_word(w, "neighborhood")
        if value not in alphabet:
            raise SymbolOutOfRange(f"output {value!r} for neighborhood {key!r} not in alphabet")
        idx = 0
        for s in w:
            idx = idx * size + s
        flat[idx] = value
        seen[idx] = 1
    if not all(seen):
        missing = seen.index(0)
        raise IncompleteTable(f"table is missing {size**width - sum(seen)} neighborhoods "
                              f"(first missing radix index {missing})")
    return LocalRule(alphabet, memory, anticipation, bytes(flat))


def eca_rule(number: int) -> LocalRule:
    """Elementary CA rule in the Wolfram numbering.

    The output for neighborhood a b c is bit 4a+2b+c of ``number``; since our
    flat tables are radix-indexed with the leftmost symbol most significant,
    that bit position is exactly the table index.
    """
    if not 0 <= number <= 255:
        raise OutOfRange(f"ECA number must be in 0..255, got {number}")
    return LocalRule(Alphabet(2), 1, 1, bytes((number >> i) & 1 for i in range(8)))


def eca(number: int) -> Automaton:
    return Automaton(eca_rule(number), name=f"eca:{number}")


def shift_rule(alphabet: Alphabet) -> Automaton:
    """The shift sigma, as the (0,1) rule f(a, b) = b."""
    size = alphabet.size
    table = bytes(b for _ in range(size) for b in range(size))
    return Automaton(LocalRule(alphabet, 0, 1, table), name="shift")


def shift_inverse_rule(alphabet: Alphabet) -> Automaton:
    """The inverse shift, as the (1,0) rule f(a, b) = a."""
    size = alphabet.size
    table = bytes(a for a in range(size) for _ in range(size))
    return Automaton(LocalRule(alphabet, 1, 0, table), name="shift-inverse")


def identity_rule(alphabet: Alphabet) -> Automaton:
    return Automaton(LocalRule(alphabet, 0, 0, bytes(range(alphabet.size))), name="identity")


# -- bulk rule application ----------------------------------------------------


def _lex_words(first: int, count: int, size: int, length: int) -> np.ndarray:
    """Words first .. first+count-1 of the lexicographic order, one per
    column, most significant symbol in row 0."""
    index = np.arange(first, first + count, dtype=np.int64)
    digits = np.empty((length, count), dtype=np.uint8)
    for k in range(length - 1, -1, -1):
        index, digits[k] = np.divmod(index, size)
    return digits


def lookup_windows(rule: LocalRule, symbols: np.ndarray) -> np.ndarray:
    """Apply the rule to every length-(m+n+1) window along axis 0 of a
    symbol array, by radix-index table lookup.

    A 1-D array is one word; a 2-D array of shape (length, count) holds
    ``count`` words column-wise and is mapped in one pass.  The result has
    m+n fewer rows and the table's ``uint8`` dtype.
    """
    width, size = rule.width, rule.alphabet.size
    out_len = len(symbols) - width + 1
    arr = symbols.astype(np.int64)
    idx = arr[0:out_len].copy()
    for k in range(1, width):
        idx *= size
        idx += arr[k:k + out_len]
    return np.frombuffer(rule.table, dtype=np.uint8)[idx]


def map_windows(rule: LocalRule, samples: bytes) -> bytes:
    """Apply the rule to every length-(m+n+1) window of ``samples``.

    Returns a word shorter by m+n.  This is the evaluation kernel behind
    ``apply`` and ``patch``, a bytes wrapper over ``lookup_windows``.
    """
    if len(samples) < rule.width:
        raise SeedTooShort(f"need at least {rule.width} symbols, got {len(samples)}")
    return lookup_windows(rule, np.frombuffer(samples, dtype=np.uint8)).tobytes()


def apply(automaton: Automaton, x: Configuration) -> Configuration:
    """Exact image configuration F(x).

    The image left tail repeats with the input's left period for all
    i <= anchor-1-n (the whole input window then sits inside the left
    periodic region), and symmetrically on the right with m, so evaluating
    one period of each tail at those safe offsets is enough.
    """
    rule = automaton.rule
    if rule.alphabet != x.alphabet:
        raise AlphabetMismatch("automaton and configuration alphabets differ")
    m, n = rule.memory, rule.anticipation
    lp, head, rp = x.left_period, x.head, x.right_period
    new_anchor = x.anchor - n
    lo = new_anchor - len(lp)                      # first image index computed
    hi = x.anchor + len(head) + m + len(rp) - 1    # last image index computed
    out = map_windows(rule, x.window(lo - m, hi + n))
    cut1 = len(lp)
    cut2 = cut1 + len(head) + m + n
    return Configuration._from_trusted(x.alphabet, new_anchor, out[:cut1], out[cut1:cut2], out[cut2:])


def orbit(automaton: Automaton, x: Configuration) -> Iterator[Configuration]:
    """The orbit x, F(x), F^2(x), ... as a lazy generator.

    F^(t+1)(x) is computed only when it is asked for, so a caller that takes
    k configurations, by zipping with range(k) (range first, so zip stops
    before asking the orbit again) or by breaking out of a loop, spends
    exactly k-1 applications.
    """
    while True:
        yield x
        x = apply(automaton, x)


# -- composition --------------------------------------------------------------


def trim_vacuous(rule: LocalRule) -> LocalRule:
    """Drop window positions the table provably does not depend on.

    Only the outermost positions can be dropped (the center must stay), so
    memory shrinks while the leftmost symbol is vacuous and anticipation
    shrinks while the rightmost one is.
    """
    table, m, n = rule.table, rule.memory, rule.anticipation
    size = rule.alphabet.size
    while m > 0 and table == table[:len(table) // size] * size:
        table, m = table[:len(table) // size], m - 1
    while n > 0 and table == np.repeat(np.frombuffer(table[::size], np.uint8), size).tobytes():
        table, n = table[::size], n - 1
    if m == rule.memory and n == rule.anticipation:
        return rule
    return LocalRule(rule.alphabet, m, n, table)


def compose(outer: Automaton, inner: Automaton, *, max_table: int = DEFAULT_COMPOSE_GUARD) -> Automaton:
    """The automaton x -> outer(inner(x)), with a materialized product table.

    The raw product has memory m_o+m_i and anticipation n_o+n_i; vacuous edge
    dependencies are trimmed afterwards, so e.g. composing the inverse shift
    with a (0,2) automaton whose image never reads its rightmost input cell
    comes out as a genuine (1,1) rule.
    """
    if outer.alphabet != inner.alphabet:
        raise AlphabetMismatch("cannot compose automata over different alphabets")
    size = outer.alphabet.size
    m = outer.memory + inner.memory
    n = outer.anticipation + inner.anticipation
    width = m + n + 1
    total = size**width
    if total > max_table:
        raise TableTooLarge(
            f"composed table would need {total} entries (guard {max_table})"
        )
    words = _lex_words(0, total, size, width)
    table = lookup_windows(outer.rule, lookup_windows(inner.rule, words))[0].tobytes()
    return Automaton(trim_vacuous(LocalRule(outer.alphabet, m, n, table)))


# -- traces and patches --------------------------------------------------------


def trace(automaton: Automaton, x: Configuration, i: int, j: int, horizon: int) -> list[bytes]:
    """The column words F^t(x)[i..j] for t = 0 .. horizon-1."""
    if i > j:
        raise EmptyInterval(f"empty interval [{i}, {j}]")
    if horizon < 1:
        raise OutOfRange("horizon must be at least 1")
    return [y.window(i, j) for _, y in zip(range(horizon), orbit(automaton, x))]


@dataclass(frozen=True)
class SpaceTimePatch:
    """Rows of a finite space-time fragment grown downward from a seed row.

    Row k+1 is the image of row k under the rule, so it is m+n symbols
    shorter; if the seed occupies absolute columns [a, a+len-1], row k covers
    [a + k*m, a + len - 1 - k*n].
    """

    rows: tuple[bytes, ...]


def patch(automaton: Automaton, seed: WordLike, rows: int) -> SpaceTimePatch:
    if rows < 1:
        raise OutOfRange("a patch needs at least one row")
    rule = automaton.rule
    seed_w = word(seed)
    rule.alphabet.check_word(seed_w, "seed")
    need = (rows - 1) * (rule.memory + rule.anticipation) + 1
    if len(seed_w) < need:
        raise SeedTooShort(f"seed of length {len(seed_w)} cannot support {rows} rows (need {need})")
    out = [seed_w]
    for _ in range(rows - 1):
        out.append(map_windows(rule, out[-1]))
    return SpaceTimePatch(tuple(out))
