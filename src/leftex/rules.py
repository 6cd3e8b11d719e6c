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
length alone, except a k-row map of a bit-sliced rule (below).  One row
of a word of at most _SHORT_WORD symbols under a table of at most 256
entries (every ECA, mul:3/2) is mapped with Python ints and
bytes.translate (_map_short), which skips numpy's fixed cost of about
5 us a call.  Every other row, and a matrix of equal-length words stacked
as its columns (how the expansivity decider grows a chunk of seeds), is
mapped by lookup_windows, the one function that decides how a table is
gathered, over the index of _radix_index.  A binary table of at most 8 entries
(every ECA) is gathered by one shift of its bits, packed in one uint8,
another table of at most 256 entries by bytes.translate over its uint8
index's bytes, and a larger table by numpy's take, as a block is (below).

Every such matrix of words in lexicographic order, and every row grown
from it, comes from one generator, _patches, which yields a range of words
chunk by chunk with their rows F(words), ..., F^steps(words).  A chunk is
an aligned block of size**e words that share their high symbols, the
digits of a Python int, over one block of every e-symbol low part, cut to
the range at either end.  A low block of at most _RESIDENT_LOW words (the
decider's and the spreading search's first and early chunks) is copied
from a read-only block kept in a bounded cache (_low_words), so a call
that reads one chunk does not rebuild it; a larger one is built in place
once per e and walk.  The first size**e is the power of the alphabet size
nearest a target on a log scale (_chunk_digits); e rises by one whenever
the next chunk starts on a multiple of size**(e+1), until size**e is the
power nearest _COMPOSE_CHUNK, so a long walk pays a chunk's fixed costs
on few chunks while a short one stays short.  Its callers are the expansivity decider's
read prefixes and the spreading search's start words (blocks from near
2^10 words), compose(), which maps every word of the product width a block
near 2^14 words at a time so that working memory does not grow with the
table, _block (every word of its width, in the same blocks), and the
decider's counterexample seed (a range of one word).

One lazy walker, _walk, steps along an orbit: it computes its next raw
state only when it is asked for, and besides apply() it is the only caller
of _step, whose one job is to map a raw state k rows down in one
_map_rows lookup and hand back the image with the rows in between over a
window of its cells.  The walker canonicalizes again only once the raw
head is longer than twice the head of the last canonical state plus 64,
which keeps the work per step within about twice that of a canonical orbit
and never quadratic in the number of steps.  Every walk that reads less
than a whole configuration reads the walker and is told its row count:
columns() yields only the words F^t(x)[i..j], which is all that
aperiodicity scans, propagation checks, limit-point censuses and rasters
read, and left edges and recurrences of tails are read off its raw states
(_states), as are verify_mul's images, which need no canonical form to be
valued.  A bit-sliced rule, binary with at most 8 entries (every ECA, the
rules _packed marks), maps k rows per lookup as one Python int, one bit
per cell, through its table's algebraic normal form (_map_bits), and owns
no table beyond its own.  A column walk maps k = _BIT_ROWS rows per lookup
from its first row, with the rows in between over its window, and a state
walk 1, 2, 4, ... rows up to _BIT_ROWS, never past its last row, with the
rows in between over every cell the image spans; _flat, the one reader of
that layout, cuts each of those rows' raw states.  The rows are unpacked
one np.unpackbits call per group of about _UNPACK_CELLS cells, a group
only once it is read, so a state walk holds one lookup's rows packed and
one group unpacked.  Every other rule maps a state walk one row per
lookup and a long column walk through its block (_block): tables over
every neighborhood of width 1 + k*(m+n) that give the center of F^k and,
under the window, the k-1 rows in between (k = 2 for mul:3/2 and
mul:5/2).  A column walk reads only the light cone of its window, of at
most _MAX_PREFIX cells: row t+r over [i, j] depends only on row t over
[i-r*m, j+r*n].  Once that cone word is no wider than the word the next
step would map, columns() cuts it off the state once and maps it down k
rows per lookup, so the state is neither stepped nor canonicalized again.
orbit() yields canonical configurations, for simulate and library
callers; it steps each canonical image with apply(), which is _step
followed by canonicalization and never steps a head longer than the
canonical one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Optional, Sequence

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
#: a rule's block (see _block_rows) has at most this many times as many
#: entries as the rule's own table
_BLOCK_GROWTH = 2**10
#: the most words in a block of low digits that _patches keeps resident
#: (_low_words): the decider's and the spreading search's first and early
#: chunks, not the grown ones nor the blocks near _COMPOSE_CHUNK words that
#: compose() and _block map
_RESIDENT_LOW = 2**12
#: longest word _map_short maps; lookup_windows maps longer ones.  On a 2-core
#: VM (Python 3.11, numpy 2.4, best of 7) the two cross at about 1150-1400
#: symbols for eca:30 and mul:3/2 and at about 800 for a width-8 binary rule
#: (in no workload); on orbits 1 280 beat 1 024 in 6 of 6 pairs, 1 536 tied
_SHORT_WORD = 1280
#: rows one lookup of a bit-sliced rule maps in a column walk (_map_bits),
#: and the most a state walk ramps up to.  On a 2-core VM (Python 3.11) a
#: 2 000-row rule-30 column took 2.2 ms at 32 rows, 1.9 at 64 and 1.8 at 96
_BIT_ROWS = 64
#: cells of bit-sliced rows unpacked per np.unpackbits call (_unpacked), at
#: least one row: it bounds the bytes a lookup's rows hold at once
_UNPACK_CELLS = 2**16
#: the widest column window a walk reads, the longest head of a recurrence
#: scan's tail and the longest prefix a limit-point census counts
_MAX_PREFIX = 10**5


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
        # _map_short's and lookup_windows' bytes.translate table, None past 256 entries
        object.__setattr__(self, "_translation", self.table.ljust(256, b"\0")
                           if len(self.table) <= 256 else None)
        # lookup_windows' shift gather: a binary table of at most 8 entries
        # as the bits of one uint8, entry i in bit i; None for every other
        object.__setattr__(self, "_packed", np.uint8(sum(b << i for i, b in enumerate(self.table)))
                           if self.alphabet.size == 2 and len(self.table) <= 8 else None)

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


@lru_cache(maxsize=64)
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
    m+n fewer rows and the table's ``uint8`` dtype.  It alone decides how a
    table is gathered, for every numpy row: the decider's, the spreading
    search's, compose()'s, _block's and _map_rows' beyond _map_short.  The
    radix index is accumulated in the narrowest unsigned type that holds
    every table index.  A binary table of at most 8 entries (every ECA) is
    gathered in place by one shift of its packed bits (the rule's _packed)
    by each index.  Any other table of at most 256 entries (the rule's
    _translation) has a ``uint8`` index, gathered by one bytes.translate
    over its bytes into a read-only array, the index array freed first so a
    long row is not held three times; a larger table is gathered by
    ``take``, which widens the index to ``intp``.
    """
    idx = _radix_index(symbols, rule.alphabet.size, rule.width, rule._index_dtype)
    if rule._packed is not None:  # width <= 3, so Horner's astype made idx a fresh array
        np.right_shift(rule._packed, idx, out=idx)
        idx &= 1
        return idx
    if rule._translation is None:
        return rule._table_array.take(idx)
    shape, data = idx.shape, idx.tobytes()
    del idx
    return np.frombuffer(data.translate(rule._translation), dtype=np.uint8).reshape(shape)


def _fill_low(out: np.ndarray, size: int) -> np.ndarray:
    """Write every word of len(out) symbols, in lexicographic order, into
    the columns of the (len(out), size**len(out)) ``uint8`` array ``out``."""
    symbols = np.arange(size, dtype=np.uint8)[:, None]
    for k in range(len(out)):  # row k repeats each symbol size**(len(out)-1-k) times
        out[k].reshape(size**k, size, -1)[:] = symbols
    return out


@lru_cache(maxsize=16)
def _low_words(size: int, digits: int) -> np.ndarray:
    """The read-only block of every word of ``digits`` symbols, one per
    column, that _patches keeps resident for blocks of at most
    _RESIDENT_LOW words (see the module docstring)."""
    block = _fill_low(np.empty((digits, size**digits), dtype=np.uint8), size)
    block.flags.writeable = False
    return block


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
    start, words = first - first % size**low, None
    while start < last:
        block = size**low
        if words is None:  # every low part of ``low`` symbols, once per size
            words = np.empty((length, block), dtype=np.uint8)
            if block <= _RESIDENT_LOW:
                words[length - low:] = _low_words(size, low)
            else:
                _fill_low(words[length - low:], size)
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
    neighborhood width 1 + k*(m+n) has at most _BLOCK_GROWTH times as many
    words as the rule's table and at most DEFAULT_COMPOSE_GUARD, else 1
    (2 for mul:3/2 and mul:5/2).  Column walks ask it only for rules that
    are not bit-sliced; those build no block."""
    size, span = rule.alphabet.size, rule.memory + rule.anticipation
    bound = min(_BLOCK_GROWTH * len(rule.table), DEFAULT_COMPOSE_GUARD)
    return max((k for k in range(2, 9) if size ** (1 + k * span) <= bound), default=1)


def _block(rule: LocalRule) -> tuple[np.ndarray, np.ndarray, np.dtype]:
    """The rule's block of k = _block_rows(rule) > 1 rows, built on first use
    and kept on the rule like its table view (so equality, hashing and
    pickles ignore it): over every word of width W = 1 + k*(m+n) in radix
    order, the center symbol of F^k, the center symbols of F^1 .. F^(k-1)
    as the rows of a (k-1, s^W) table, and the radix-index dtype for W.
    compose() builds its table the same way, in chunks of about
    _COMPOSE_CHUNK words, but the block is not trimmed: a column walk
    relies on its width.
    """
    block = getattr(rule, "_block_tables", None)
    if block is None:
        size, m, k = rule.alphabet.size, rule.memory, _block_rows(rule)
        width = 1 + k * (m + rule.anticipation)
        total = size**width
        # row q-1: the neighborhood's center after q rows, for q = 1 .. k
        centers = np.empty((k, total), dtype=np.uint8)
        for start, rows in _patches(rule, width, k, 0, total, _COMPOSE_CHUNK):
            for q in range(1, k + 1):
                centers[q - 1, start:start + rows[q].shape[1]] = rows[q][(k - q) * m]
        block = (centers[-1], centers[:-1], np.min_scalar_type(total - 1))
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


def _bit_form(rule: LocalRule) -> tuple[int, ...]:
    """A bit-sliced rule's table as its algebraic normal form over GF(2),
    computed on first use and kept on the rule like its block: 8
    coefficients, the one at i of the AND of the row shifted right by each
    set bit b of i.  Index bit b is neighborhood cell m+n-b, which a row read
    as an int (leftmost cell most significant) brings under the image cell
    by a right shift of b.  The Moebius transform turns the table into the
    coefficients; a rule narrower than 3 cells pads them with zeros."""
    form = getattr(rule, "_bit_terms", None)
    if form is None:
        coeffs = list(rule.table.ljust(8, b"\0"))
        for b in range(rule.width):
            for i in range(len(rule.table)):
                if i >> b & 1:
                    coeffs[i] ^= coeffs[i ^ 1 << b]
        form = tuple(coeffs)
        object.__setattr__(rule, "_bit_terms", form)
    return form


def _unpacked(first: int, first_cells: int, rows: Sequence[int], cells: int) -> Iterator[bytes]:
    """``first``, an int of ``first_cells`` bits with the leftmost cell
    most significant, then each of the one or more ``rows``, ints of
    ``cells`` bits, as words of one byte a cell.  Each row is laid out in
    whole bytes (one bytes() call for rows of at most 8 cells), and they are
    unpacked by one np.unpackbits call per group of about _UNPACK_CELLS
    cells, ``first`` with the first group, a group only once it is read."""
    size = cells + 7 >> 3
    stride = 8 * size
    group, lead = max(1, _UNPACK_CELLS // stride), first.to_bytes(first_cells + 7 >> 3, "big")
    for start in range(0, len(rows), group):
        chunk = rows[start:start + group]
        data = bytes(chunk) if size == 1 else \
            b"".join(map(int.to_bytes, chunk, repeat(size), repeat("big")))
        bits = np.unpackbits(np.frombuffer(lead + data, dtype=np.uint8)).tobytes()
        at = 8 * len(lead)
        if start == 0:
            yield bits[at - first_cells:at]
        lead = b""
        yield from [bits[p:p + cells] for p in range(at + stride - cells, len(bits), stride)]


def _map_bits(rule: LocalRule, symbols: bytes, k: int, lo: int,
              width: int) -> tuple[bytes, Iterator[bytes]]:
    """_map_rows for k > 1 rows of a bit-sliced rule: the word as one Python
    int, one bit per cell, stepped k times through the rule's normal form
    (_bit_form).  Row q keeps its cells in the low count - q*(m+n) bits; the
    bits above are never read again, since an image bit reads only the m+n
    bits above it, so no row is masked.  Row k and rows 1 .. k-1 over the
    window are cut out as ints and unpacked (_unpacked): row k at once, the
    rows in between as they are read."""
    one, c1, c2, c3, c4, c5, c6, c7 = _bit_form(rule)
    m, span, count = rule.memory, rule.memory + rule.anticipation, len(symbols)
    x = int.from_bytes(np.packbits(np.frombuffer(symbols, dtype=np.uint8)).tobytes(),
                       "big") >> -count % 8
    full, window, rows = (1 << count) - 1 if one else 0, (1 << width) - 1, []
    for q in range(1, k + 1):
        x1, x2, y = x >> 1, x >> 2, full
        if c1: y ^= x
        if c2: y ^= x1
        if c3: y ^= x & x1
        if c4: y ^= x2
        if c5: y ^= x & x2
        if c6: y ^= x1 & x2
        if c7: y ^= x & x1 & x2
        x = y
        if q < k:  # row q's cells lo + (k-q)*m onwards, in its bits from count-1-q*span down
            rows.append(x >> count - q * span - lo - (k - q) * m - width & window)
    last = count - k * span
    rows = _unpacked(x & (1 << last) - 1, last, rows, width)
    return next(rows), rows


def _map_rows(rule: LocalRule, symbols: bytes, k: int = 1, lo: int = 0,
              width: int = 0) -> tuple[bytes, Iterable[bytes]]:
    """Map a word k rows down with one lookup: the word k rows down, and
    rows 1 .. k-1 over its cells lo .. lo+width-1.  k is 1 (the rule's own
    table), any k > 1 for a bit-sliced rule (_map_bits) or _block_rows(rule)
    for another (its block).  Every row an orbit, a state walk or a column
    walk maps comes from here.  One row of a short word under a table of at
    most 256 entries is _map_short's, and every other row is
    lookup_windows', which picks the gather; a block is gathered by numpy's
    take.
    """
    if k > 1 and rule._packed is not None:
        return _map_bits(rule, symbols, k, lo, width)
    if k == 1:
        if rule._translation is not None and len(symbols) <= _SHORT_WORD:
            return _map_short(rule, symbols), ()
        return lookup_windows(rule, np.frombuffer(symbols, dtype=np.uint8)).tobytes(), ()
    center, between, dtype = _block(rule)
    idx = _radix_index(np.frombuffer(symbols, dtype=np.uint8), rule.alphabet.size,
                       1 + k * (rule.memory + rule.anticipation), dtype)
    rows = between.take(idx[lo:lo + width], axis=1).tobytes()
    return center.take(idx).tobytes(), [rows[q:q + width] for q in range(0, len(rows), width)]


def map_windows(rule: LocalRule, samples: bytes) -> bytes:
    """Apply the rule to every length-(m+n+1) window of ``samples``.

    Returns a word shorter by m+n.  This is the evaluation kernel behind
    ``patch``, one row of ``_map_rows``.
    """
    if len(samples) < rule.width:
        raise SeedTooShort(f"need at least {rule.width} symbols, got {len(samples)}")
    return _map_rows(rule, samples)[0]


def _step(rule: LocalRule, state: tuple[int, bytes, bytes, bytes], k: int = 1,
          i: Optional[int] = None,
          j: int = 0) -> tuple[tuple[int, bytes, bytes, bytes], Iterable[bytes], int]:
    """The exact image of the raw state (anchor, left period, head, right
    period) k rows down, laid out the same way but not canonicalized, the
    k-1 rows in between over the image's cells [lo, lo+width), and k.

    F^k is a rule of memory k*m and anticipation k*n, mapped by _map_rows
    in one lookup.  The image left tail repeats with the input's left
    period for all cells up to anchor-1-k*n (the whole input window then
    sits inside the left periodic region), and symmetrically on the right,
    so evaluating one period of each tail at those safe offsets is enough.
    The periods keep their lengths and the head grows by k*(m+n) symbols.
    The rows in between span the cells [i, j], or every cell the image
    spans when i is None; a window outside those cells steps one row.
    """
    anchor, lp, head, rp = state
    m, n = rule.memory, rule.anticipation
    L, H, R = len(lp), len(head), len(rp)
    if i is None:
        lo, width = 0, L + H + R + k * (m + n)
    else:  # the window's offset in the image
        lo, width = i - anchor + L + k * n, j - i + 1
        if lo < 0 or lo + width > L + H + R + k * (m + n):
            k = 1
    span = k * (m + n)
    samples = cyclic_slice(lp, -span, L + span) + head + cyclic_slice(rp, 0, R + span)
    out, between = _map_rows(rule, samples, k, lo, width)
    cut = L + H + span
    return (anchor - k * n, out[:L], out[L:cut], out[cut:]), between, k


def _parts(automaton: Automaton, x: Configuration) -> tuple[int, bytes, bytes, bytes]:
    """x's raw (anchor, left period, head, right period) state, once its
    alphabet is checked against the automaton's."""
    if automaton.alphabet != x.alphabet:
        raise AlphabetMismatch("automaton and configuration alphabets differ")
    return x.anchor, x.left_period, x.head, x.right_period


def apply(automaton: Automaton, x: Configuration) -> Configuration:
    """Exact image configuration F(x)."""
    return Configuration._from_trusted(x.alphabet, *_step(automaton.rule, _parts(automaton, x))[0])


def _states(automaton: Automaton, x: Configuration,
            rows: int) -> Iterator[tuple[int, bytes, bytes, bytes]]:
    """The raw (anchor, left period, head, right period) states of the
    first ``rows`` >= 1 configurations of the orbit x, F(x), F^2(x), ...,
    the first being x's own parts, as a lazy generator.  A bit-sliced rule
    maps 1, 2, 4, ... rows per lookup, up to _BIT_ROWS and never past row
    rows-1, and _flat cuts the states of the rows in between; any other
    rule maps one row per lookup, so its walk's states are all there is.  A
    walk is lazy to within one lookup of at most the rows taken.  A state
    is canonical only after a re-canonicalization (see the module
    docstring).  The alphabets are checked at the call, so every walk over
    the wrong alphabet raises before it yields anything.
    """
    rule, state = automaton.rule, _parts(automaton, x)
    if rule._packed is None:  # one row per lookup, so no rows in between
        return map(itemgetter(0), _walk(rule, state, repeat(1, rows - 1)))
    return _flat(_walk(rule, state, _ramp(_BIT_ROWS, rows - 1)), rule.memory, rule.anticipation)


def _flat(walk: Iterator[tuple[tuple[int, bytes, bytes, bytes], Iterable[bytes], int]],
          m: int, n: int) -> Iterator[tuple[int, bytes, bytes, bytes]]:
    """Every raw state of a walk over whole images, in order: before each
    state the walk yields, the states of the k-1 rows in between, each cut
    from its row over the cells the image spans and laid out like the state
    the walk yielded last, which is the one that lookup stepped: row q's
    state starts (k-q)*n cells in."""
    for state, between, k in walk:
        for q, row in enumerate(between, 1):
            at = (k - q) * n
            cut = at + L + H + q * (m + n)
            yield anchor - q * n, row[at:at + L], row[at + L:cut], row[cut:cut + R]
        yield state
        anchor, L, H, R = state[0], len(state[1]), len(state[2]), len(state[3])


def _ramp(top: int, rows: int) -> Iterator[int]:
    """Row counts 1, 2, 4, ... up to ``top`` that add up to ``rows``."""
    k = 1
    while k < top and k < rows:
        yield k
        rows -= k
        k = min(2 * k, top)
    yield from repeat(k, rows // k)
    if rows % k:
        yield rows % k


def _walk(rule: LocalRule, state: tuple[int, bytes, bytes, bytes], steps: Iterable[int],
          i: Optional[int] = None,
          j: int = 0) -> Iterator[tuple[tuple[int, bytes, bytes, bytes], Iterable, int]]:
    """The raw states of the orbit of ``state``: the state itself, then for
    each k of ``steps`` the state k rows down from the last (one row where
    [i, j] is outside the cells _step maps), each with the rows in between
    and the rows it was stepped, as _step gives them."""
    limit = 2 * len(state[2]) + 64
    yield state, (), 0
    for k in steps:
        state, between, k = _step(rule, state, k, i, j)
        if len(state[2]) > limit:
            state = _canonical_parts(*state)
            limit = 2 * len(state[2]) + 64
        yield state, between, k


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
    Configuration per row.  The walk maps k rows per lookup from its first
    row, and once the light cone of the remaining rows is no wider than the
    word the walker would map next, it walks the cone instead (see the
    module docstring).  A caller that takes r words has r-1 rows mapped,
    and at most k-1 more: the rest of the lookup its last word came from,
    where k is _BIT_ROWS for a bit-sliced rule, _block_rows(rule) for
    another in a long walk and else 1.  No row past rows-1 is mapped.  A
    window of more than _MAX_PREFIX cells raises OutOfRange at the call.
    """
    if i > j:
        raise EmptyInterval(f"empty interval [{i}, {j}]")
    if j - i >= _MAX_PREFIX:
        raise OutOfRange(f"column windows wider than {_MAX_PREFIX} cells are not supported")
    if rows < 0:
        raise OutOfRange("rows must be nonnegative")
    return _cone_columns(automaton.rule, _parts(automaton, x), i, j, rows)


def _cone_columns(rule: LocalRule, state: tuple[int, bytes, bytes, bytes],
                  i: int, j: int, rows: int) -> Iterator[bytes]:
    """The first ``rows`` words F^t(x)[i..j] of the orbit of ``state``.

    The walker steps the state k rows per lookup.  With r rows left after
    row t, those rows read only row t over [i - r*m, j + r*n].  As soon as
    that cone is no wider than the word the next k-row step maps,
    L + H + R + 2k(m+n), or fewer than k rows are left, the cone is cut
    once and mapped down, k rows per lookup and its last r mod k rows in
    one more lookup for a bit-sliced rule, one at a time for another; row
    t+q is its slice at offset (r-q)*m.  k = _BIT_ROWS for a bit-sliced rule.
    For another, k = _block_rows(rule) when the symbols the rows would map
    one at a time, about r * (cone + width) / 2 from row 0, are at least the
    k * s^W * (W+1) / 2 that building the block maps, else 1, so short walks
    never build it.
    """
    if not rows:
        return
    m, n = rule.memory, rule.anticipation
    size, width, bits = rule.alphabet.size, j - i + 1, rule._packed is not None
    k = _BIT_ROWS if bits else _block_rows(rule)
    block_width = 1 + k * (m + n)
    if not bits and (rows - 1) * (2 * width + (rows - 1) * (m + n)) < \
            k * size**block_width * (block_width + 1):
        k = 1
    left = rows - 1  # rows below the state reached
    for state, between, stepped in _walk(rule, state, repeat(k), i, j):
        yield from between
        left -= stepped
        _, lp, head, rp = state
        if left < k or width + left * (m + n) <= len(lp) + len(head) + len(rp) + 2 * k * (m + n):
            word = _window(*state, i - left * m, j + left * n)
            yield word[left * m:left * m + width]
            while left:
                step = min(left, k) if bits or left >= k else 1
                left -= step
                word, between = _map_rows(rule, word, step, left * m, width)
                yield from between
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
