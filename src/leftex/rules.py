"""Local rules, cellular automata, column walks and space-time patches.

A local rule with memory m and anticipation n maps every neighborhood word
of length m+n+1 to a symbol; the induced automaton sends x to the
configuration F(x)[i] = f(x[i-m], ..., x[i+n]).  Applying an automaton to an
eventually periodic configuration yields another one, computed exactly: one
period's worth of each image tail is evaluated at a safe offset where the
input window lies entirely inside the periodic region, so no periodicity
detection is ever needed.  That step is _step, which maps a raw (anchor,
left period, head, right period) state to its image laid out the same way:
the periods keep their lengths and the head grows by m+n symbols.

Tables are stored flat, indexed by the radix value of the neighborhood
(leftmost symbol most significant).  A rule evaluation is one radix-index
lookup, by one of two kernels chosen from the table size and the word
length alone.  One row of a word of at most _SHORT_WORD symbols under a
table of at most 256 entries (every ECA, mul:3/2) is mapped with Python
ints and bytes.translate (_map_short), which skips numpy's fixed cost of
about 5 us a call.  Every other evaluation is a numpy lookup
(lookup_windows, over the index of _radix_index): longer words, larger
tables, block lookups, and many equal-length words at once when they are
stacked as the columns of a matrix, which is how the expansivity decider
grows a chunk of seeds.

Every such matrix of words in lexicographic order, and every row grown
from it, comes from one generator, _patches, which yields a range of words
chunk by chunk with their rows F(words), ..., F^steps(words).  A chunk is
an aligned block of size**e words that share their high symbols, the
digits of a Python int, over one block of every e-symbol low part, built
once per e, cut to the range at either end.  The first size**e is the
power of the alphabet size nearest a target on a log scale
(_chunk_digits); e rises by one whenever the next chunk starts on a
multiple of size**(e+1), until size**e is the power nearest
_COMPOSE_CHUNK, so a long walk pays a chunk's fixed costs on few chunks
while a short one stays short.  Its callers are the expansivity decider's
read prefixes and the spreading search's start words (blocks from near
2^10 words), compose(), which maps every word of the product width a block
near 2^14 words at a time so that working memory does not grow with the
table, _block (one block of every word of its width), and the decider's
counterexample seed (a range of one word).

One lazy walker, _states, steps along an orbit: it computes the raw state
of F^(t+1)(x) only when it is asked for, and besides apply() it is the only
caller of _step.  It canonicalizes again only once the raw head is longer
than twice the head of the last canonical state plus 64, which keeps the
work per step within about twice that of a canonical orbit and never
quadratic in the number of steps.  Every walk that reads less than a whole
configuration reads the walker: columns() yields only the words
F^t(x)[i..j], which is all that aperiodicity scans, propagation checks,
limit-point censuses and rasters read, and left edges and recurrences of
tails are read off the raw state too.  Every column walk is told its row
count, so it reads only the light cone of its window: row t+r over [i, j]
depends only on row t over [i-r*m, j+r*n].  Once that cone word is at
most k times the word _step would map next, columns() cuts it off the state
once and maps it down k rows per lookup, so the state is neither stepped
nor canonicalized again.  k is 1, one lookup per row, unless the walk is
long enough to pay for the rule's block (_block): tables over every
neighborhood of width 1 + k*(m+n) that give the cone k rows down and, under
the window, the k-1 rows in between (k = 6 for the ECAs).  orbit()
yields canonical configurations, for simulate, verify_mul and library
callers; it steps each canonical image with apply(), which is _step
followed by canonicalization and never steps a head longer than the
canonical one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

import numpy as np

from .configuration import Alphabet, Configuration, _canonical_parts, _window
from .errors import (
    AlphabetMismatch,
    EmptyInterval,
    IncompleteTable,
    OutOfRange,
    SeedTooShort,
    SymbolOutOfRange,
    TableTooLarge,
)
from .words import WordLike, cyclic_slice, word

#: entries allowed in a composed rule table before compose() refuses
DEFAULT_COMPOSE_GUARD = 10**7
#: table entries compose() tabulates per pass, bounding its working memory:
#: it maps blocks of the power of the alphabet size nearest this, which is
#: also the size the chunks of _patches grow to
_COMPOSE_CHUNK = 2**14
#: neighborhoods a rule's block of column-walk rows may tabulate (see _block)
_BLOCK_ENTRIES = 2**13
#: longest word _map_short maps; numpy maps longer ones.  On a 2-core VM
#: (Python 3.11, numpy 2.4) _map_short takes 1.7-2.7 us at 20-100 symbols
#: against numpy's 6.8-12.9 us, and the two cross at about 1000-1500 symbols
#: for widths 2 and 3 (eca:30, mul:3/2) and about 800 for width 8
_SHORT_WORD = 1024


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
        # the lookup kernel's view of the table and its radix-index dtype;
        # not fields, so equality, hashing and pickles ignore them
        object.__setattr__(self, "_table_array", np.frombuffer(self.table, dtype=np.uint8))
        object.__setattr__(self, "_index_dtype", np.min_scalar_type(len(self.table) - 1))
        # the short-word kernel's bytes.translate table, None past 256 entries
        object.__setattr__(self, "_translation", self.table.ljust(256, b"\0")
                           if len(self.table) <= 256 else None)

    def __reduce__(self):
        return LocalRule, (self.alphabet, self.memory, self.anticipation, self.table)

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


def make_rule(
    alphabet: Alphabet, memory: int, anticipation: int, table: Mapping[WordLike, int]
) -> LocalRule:
    """Build a validated rule from a neighborhood -> symbol mapping."""
    if memory < 0 or anticipation < 0:
        raise OutOfRange("memory and anticipation must be nonnegative")
    width = memory + anticipation + 1
    size = alphabet.size
    # counted before size**width is computed, let alone allocated: fewer
    # than 2**width entries cannot cover size**width >= 2**width neighborhoods
    if size > 1 and width > len(table).bit_length() or len(table) < size**width:
        raise IncompleteTable(f"table has {len(table)} entries, expected {size}**{width}")
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


def eca(number: int) -> Automaton:
    """Elementary CA in the Wolfram numbering.

    The output for neighborhood a b c is bit 4a+2b+c of ``number``; since our
    flat tables are radix-indexed with the leftmost symbol most significant,
    that bit position is exactly the table index.
    """
    if not 0 <= number <= 255:
        raise OutOfRange(f"ECA number must be in 0..255, got {number}")
    table = bytes((number >> i) & 1 for i in range(8))
    return Automaton(LocalRule(Alphabet(2), 1, 1, table), name=f"eca:{number}")


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


def _chunk_digits(size: int, target: int) -> int:
    """The e for which size**e is the power of size nearest ``target`` on a
    log scale (the lower one on a tie); 0, one word, for a single symbol."""
    if size < 2:
        return 0
    e = 0
    while size ** (e + 1) <= target:
        e += 1
    return e + (target * target > size ** (2 * e + 1))


def _radix_index(symbols: np.ndarray, size: int, width: int, dtype) -> np.ndarray:
    """The radix index, in ``dtype``, of every length-``width`` window along
    axis 0 of a ``uint8`` symbol array (leftmost symbol most significant).

    Up to width 3 this is Horner's rule in place, one pass per symbol.
    Wider windows double instead: the indices of windows of length 1, 2, 4,
    ... are each built from two of the last, and the lengths in the binary
    spelling of ``width`` are joined left to right, so width 13 takes 5
    passes instead of 12.  Doubling allocates where Horner works in place,
    which costs more than it saves at width 3.  Every partial index stays
    below size**width, so ``dtype`` only has to hold the full one.
    """
    count = len(symbols)
    if width <= 3:
        idx = symbols[0:count - width + 1].astype(dtype)
        for k in range(1, width):
            idx *= size
            idx += symbols[k:k + count - width + 1]
        return idx
    piece, span = symbols.astype(dtype), 1  # the windows of length span
    idx, done = None, 0  # the windows of length done
    while True:
        if width & span:
            idx = piece if idx is None else \
                idx[:count - done - span + 1] * size**span + piece[done:count - span + 1]
            done += span
        if 2 * span > width:
            return idx
        piece = piece[:count - 2 * span + 1] * size**span + piece[span:count - span + 1]
        span *= 2


def lookup_windows(rule: LocalRule, symbols: np.ndarray) -> np.ndarray:
    """Apply the rule to every length-(m+n+1) window along axis 0 of a
    ``uint8`` symbol array, by radix-index table lookup.

    A 1-D array is one word; a 2-D array of shape (length, count) holds
    ``count`` words column-wise and is mapped in one pass.  The result has
    m+n fewer rows and the table's ``uint8`` dtype.  The radix index is
    accumulated in the narrowest unsigned type that holds every table
    index; ``take`` widens it to ``intp`` once for the gather.
    """
    return rule._table_array.take(
        _radix_index(symbols, rule.alphabet.size, rule.width, rule._index_dtype))


def _patches(rule: LocalRule, length: int, steps: int, first: int, last: int,
             chunk: int) -> Iterator[tuple[int, list[np.ndarray]]]:
    """The words first .. last-1 of ``length`` symbols in lexicographic
    order, in aligned chunks that start near ``chunk`` words and grow up to
    near _COMPOSE_CHUNK (see the module docstring): for each, the index of
    its first word and the rows [words, F(words), ..., F^steps(words)], one
    word per column, most significant symbol in row 0.  Every chunk of one
    size rewrites the high rows of the same ``uint8`` array, so its rows are
    valid until the next chunk is drawn."""
    size = rule.alphabet.size
    low = min(_chunk_digits(size, chunk), length)
    top = min(_chunk_digits(size, _COMPOSE_CHUNK), length)
    symbols = np.arange(size, dtype=np.uint8)[:, None]
    start, words = first - first % size**low, None
    while start < last:
        block = size**low
        if words is None:  # every low part of ``low`` symbols, built once per size
            words = np.empty((length, block), dtype=np.uint8)
            for k in range(low):  # row length-low+k repeats each symbol size**(low-1-k) times
                words[length - low + k].reshape(size**k, size, -1)[:] = symbols
            digits = bytearray(length - low)
        high = start // block
        for k in range(length - low - 1, -1, -1):
            high, digits[k] = divmod(high, size)
        words[:length - low] = np.frombuffer(digits, dtype=np.uint8)[:, None]
        lo, hi = max(first - start, 0), min(last - start, block)
        rows = [words if hi - lo == block else words[:, lo:hi]]
        for _ in range(steps):
            rows.append(lookup_windows(rule, rows[-1]))
        yield start + lo, rows
        start += block
        if low < top and start % (block * size) == 0:
            low, words = low + 1, None


def _block_rows(rule: LocalRule) -> int:
    """The rows k one block lookup maps: the largest k <= 8 whose
    neighborhood width 1 + k*(m+n) has at most _BLOCK_ENTRIES words, else 1."""
    size, span = rule.alphabet.size, rule.memory + rule.anticipation
    return max((k for k in range(2, 9) if size ** (1 + k * span) <= _BLOCK_ENTRIES), default=1)


def _block(rule: LocalRule) -> tuple[np.ndarray, np.ndarray, np.dtype]:
    """The rule's block of k = _block_rows(rule) > 1 rows, built on first use
    and kept on the rule like its table view (so equality, hashing and
    pickles ignore it): over every word of width W = 1 + k*(m+n) in radix
    order, the center symbol of F^k, the center symbols of F^1 .. F^(k-1)
    as the rows of a (k-1, s^W) table, and the radix-index dtype for W.
    compose() builds its table the same way, but the block is not trimmed:
    a cone walk relies on its width.
    """
    block = getattr(rule, "_block_tables", None)
    if block is None:
        size, m, k = rule.alphabet.size, rule.memory, _block_rows(rule)
        width = 1 + k * (m + rule.anticipation)
        _, rows = next(_patches(rule, width, k, 0, size**width, size**width))
        # the neighborhood's center after q rows, for q = 1 .. k
        centers = [rows[q][(k - q) * m] for q in range(1, k + 1)]
        block = (centers[-1], np.stack(centers[:-1]), np.min_scalar_type(size**width - 1))
        object.__setattr__(rule, "_block_tables", block)
    return block


def _map_short(rule: LocalRule, symbols: bytes) -> bytes:
    """One row of a word of at most _SHORT_WORD symbols under a rule of at
    most 256 entries, with Python ints: read as one big-endian int x, the
    sum of size**j * (x >> 8*j) over j < width holds at each byte the radix
    index of the window ending there, and since every index is below 256 no
    byte carries into the next."""
    x = int.from_bytes(symbols, "big")
    size, width = rule.alphabet.size, rule.width
    idx = x
    for j in range(1, width):
        idx += size**j * (x >> 8 * j)
    return idx.to_bytes(len(symbols), "big")[width - 1:].translate(rule._translation)


def _map_rows(rule: LocalRule, symbols: bytes, k: int = 1, lo: int = 0,
              width: int = 0) -> tuple[bytes, np.ndarray]:
    """Map a word k rows down with one lookup: the word k rows down, and
    rows 1 .. k-1 over its cells lo .. lo+width-1.  k is 1 (the rule's own
    table) or _block_rows(rule) (its block).  Every row an orbit or a cone
    walk maps comes from here.  One row of a short word under a table of at
    most 256 entries is _map_short's; numpy maps every other.
    """
    if k == 1:
        if rule._translation is not None and len(symbols) <= _SHORT_WORD:
            return _map_short(rule, symbols), ()
        return lookup_windows(rule, np.frombuffer(symbols, dtype=np.uint8)).tobytes(), ()
    center, between, dtype = _block(rule)
    idx = _radix_index(np.frombuffer(symbols, dtype=np.uint8), rule.alphabet.size,
                       1 + k * (rule.memory + rule.anticipation), dtype)
    return center.take(idx).tobytes(), between.take(idx[lo:lo + width], axis=1)


def map_windows(rule: LocalRule, samples: bytes) -> bytes:
    """Apply the rule to every length-(m+n+1) window of ``samples``.

    Returns a word shorter by m+n.  This is the evaluation kernel behind
    ``_step`` (so behind ``apply`` and every orbit walk) and ``patch``, one
    row of ``_map_rows``.
    """
    if len(samples) < rule.width:
        raise SeedTooShort(f"need at least {rule.width} symbols, got {len(samples)}")
    return _map_rows(rule, samples)[0]


def _step(rule: LocalRule, anchor: int, lp: bytes, head: bytes,
          rp: bytes) -> tuple[int, bytes, bytes, bytes]:
    """The exact image of (anchor, left period, head, right period), laid
    out the same way but not canonicalized.

    The image left tail repeats with the input's left period for all
    i <= anchor-1-n (the whole input window then sits inside the left
    periodic region), and symmetrically on the right with m, so evaluating
    one period of each tail at those safe offsets is enough.  The periods
    keep their lengths and the head grows by m+n symbols.
    """
    m, n = rule.memory, rule.anticipation
    L, R = len(lp), len(rp)
    out = map_windows(rule, cyclic_slice(lp, -m - n, L + m + n) + head
                      + cyclic_slice(rp, 0, R + m + n))
    cut = L + len(head) + m + n
    return anchor - n, out[:L], out[L:cut], out[cut:]


def apply(automaton: Automaton, x: Configuration) -> Configuration:
    """Exact image configuration F(x)."""
    if automaton.alphabet != x.alphabet:
        raise AlphabetMismatch("automaton and configuration alphabets differ")
    return Configuration._from_trusted(
        x.alphabet, *_step(automaton.rule, x.anchor, x.left_period, x.head, x.right_period))


def _states(automaton: Automaton,
            x: Configuration) -> Iterator[tuple[int, bytes, bytes, bytes]]:
    """The raw (anchor, left period, head, right period) states of the orbit
    x, F(x), F^2(x), ..., the first being x's own parts, as a lazy generator:
    a caller that takes k states spends exactly k-1 steps.  A state is
    canonical only after a re-canonicalization (see the module docstring).
    The alphabets are checked at the call, so every walk over the wrong
    alphabet raises before it yields anything.
    """
    if automaton.alphabet != x.alphabet:
        raise AlphabetMismatch("automaton and configuration alphabets differ")
    return _walk(automaton.rule, (x.anchor, x.left_period, x.head, x.right_period))


def _walk(rule: LocalRule, state: tuple[int, bytes, bytes, bytes]
          ) -> Iterator[tuple[int, bytes, bytes, bytes]]:
    while True:
        limit = 2 * len(state[2]) + 64
        while len(state[2]) <= limit:
            yield state
            state = _step(rule, *state)
        state = _canonical_parts(*state)


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


def columns(automaton: Automaton, x: Configuration, i: int, j: int,
            rows: int) -> Iterator[bytes]:
    """The column words F^t(x)[i..j] for t = 0 .. rows-1 as a lazy
    generator, read straight off the walker's raw states, with no
    Configuration per row.  Once the light cone of the remaining rows is at
    most k times as wide as the state it walks, k being the rows the walk
    maps per lookup, the generator walks the cone instead (see the module
    docstring).  A caller that takes r words has r-1 rows mapped, and at
    most k-1 more: the rest of the lookup its last word came from.  No row
    past rows-1 is mapped.
    """
    if i > j:
        raise EmptyInterval(f"empty interval [{i}, {j}]")
    if rows < 0:
        raise OutOfRange("rows must be nonnegative")
    return _cone_columns(automaton.rule, _states(automaton, x), i, j, rows)


def _cone_columns(rule: LocalRule, states: Iterator[tuple[int, bytes, bytes, bytes]],
                  i: int, j: int, rows: int) -> Iterator[bytes]:
    """The first ``rows`` words F^t(x)[i..j] off the walker's ``states``.

    With r rows left after row t, those rows read only row t over
    [i - r*m, j + r*n].  As soon as that cone is at most k times the word
    _step would map next, it is cut once and mapped down, k rows per lookup
    and its last r mod k rows one at a time; row t+q is its slice at offset
    (r-q)*m.  k = _block_rows(rule) when the symbols the rows would map one
    at a time, about r * (cone + width) / 2, are at least the
    k * s^W * (W+1) / 2 that building the block maps, else 1, so short walks
    never build it.
    """
    m, n = rule.memory, rule.anticipation
    size, width, k_block = rule.alphabet.size, j - i + 1, _block_rows(rule)
    block_width = 1 + k_block * (m + n)
    block_cost = k_block * size**block_width * (block_width + 1)
    for left, state in zip(range(rows - 1, -1, -1), states):
        _, lp, head, rp = state
        cone = width + left * (m + n)
        k = k_block if left * (cone + width) >= block_cost else 1
        if cone <= k * (len(lp) + len(head) + len(rp) + 2 * (m + n)):
            word = _window(*state, i - left * m, j + left * n)
            yield word[left * m:left * m + width]
            while left:
                step = k if left >= k else 1
                left -= step
                word, between = _map_rows(rule, word, step, left * m, width)
                for row in between:
                    yield row.tobytes()
                yield word[left * m:left * m + width]
            return
        yield _window(*state, i, j)


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


def compose(outer: Automaton, inner: Automaton) -> Automaton:
    """The automaton x -> outer(inner(x)), with a materialized product table.

    The raw product has memory m_o+m_i and anticipation n_o+n_i; vacuous edge
    dependencies are trimmed afterwards, so e.g. composing the inverse shift
    with a (0,2) automaton whose image never reads its rightmost input cell
    comes out as a genuine (1,1) rule.
    """
    if outer.alphabet != inner.alphabet:
        raise AlphabetMismatch("cannot compose automata over different alphabets")
    size = outer.alphabet.size
    m = outer.rule.memory + inner.rule.memory
    n = outer.rule.anticipation + inner.rule.anticipation
    width = m + n + 1
    total = size**width
    if total > DEFAULT_COMPOSE_GUARD:
        raise TableTooLarge(
            f"composed table would need {total} entries (guard {DEFAULT_COMPOSE_GUARD})"
        )
    table = b"".join(lookup_windows(outer.rule, rows[1])[0].tobytes()
                     for _, rows in _patches(inner.rule, width, 1, 0, total, _COMPOSE_CHUNK))
    return Automaton(trim_vacuous(LocalRule(outer.alphabet, m, n, table)))


# -- patches -------------------------------------------------------------------


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
