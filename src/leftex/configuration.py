"""Exact bi-infinite configurations with eventually periodic tails.

A configuration assigns a symbol to every integer coordinate.  We represent
exactly the eventually periodic ones: a periodic word filling everything
left of an anchor, a finite head starting at the anchor, and a periodic word
filling everything from the end of the head rightwards.  This class is
closed under cellular automata and shifts, and equality of the represented
functions is decidable, which is what keeps the whole toolkit exact.

Layout conventions (these are load-bearing; round trips depend on them):

* left tail:  ``x[anchor-1-k] == left_period[-1-k]`` cyclically, i.e. the
  left period word is placed so that its *last* symbol sits at anchor-1;
* head:       ``x[anchor+j] == head[j]`` for 0 <= j < len(head);
* right tail: ``x[anchor+len(head)+j] == right_period[j % len]``.

Every constructed value is canonical: both period words are primitive, the
head cannot be shortened by absorbing a symbol into either tail's cyclic
continuation, and representations with an empty head pin the anchor (to the
first break of the left periodicity, or to 0 for fully periodic
configurations).  Two Configuration values are therefore equal as Python
objects exactly when they are equal as functions from the integers to the
alphabet.

All types here are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
import re

from .errors import (
    AlphabetMismatch,
    EmptyInterval,
    NotNumberLike,
    ParseError,
    SymbolOutOfRange,
)
from .words import cyclic_slice, first_mismatch, format_word, parse_word, primitive_root, word


@dataclass(frozen=True)
class Alphabet:
    """The symbol set {0, ..., size-1}.  Symbol 0 always exists."""

    size: int

    def __post_init__(self):
        if not isinstance(self.size, int) or self.size < 1:
            raise SymbolOutOfRange(f"alphabet size must be a positive integer, got {self.size!r}")
        if self.size > 256:
            raise SymbolOutOfRange("alphabets larger than 256 symbols are not supported")

    def check_word(self, w: bytes, what: str = "word") -> bytes:
        if w and max(w) >= self.size:
            raise SymbolOutOfRange(
                f"{what} {format_word(w, self.size)!r} uses symbols outside 0..{self.size - 1}"
            )
        return w

    def __contains__(self, symbol: int) -> bool:
        return 0 <= symbol < self.size


def _rotl(w: bytes, k: int) -> bytes:
    k %= len(w)
    return w[k:] + w[:k]


def _continuation_length(head: bytes, period: bytes, limit: int, backward: bool) -> int:
    """How many of the first ``limit`` symbols of ``head`` continue the
    periodic word period period ... (head[k] == period[k mod p]); with
    ``backward``, how many of its last ``limit`` symbols continue it leftwards
    from period's last symbol (head[-1-k] == period[-1-k mod p]).

    Compares chunks of doubling size, starting at one period, so the cost is
    O(result + period); only one symbol is compared when the first one
    already breaks the cycle.
    """
    if not limit or head[-1 if backward else 0] != period[-1 if backward else 0]:
        return 0
    end = len(head)
    done, size = 0, len(period)
    while done < limit:
        size = min(size, limit - done)
        if backward:
            part = head[end - done - size:end - done][::-1]
            expect = cyclic_slice(period, -done - size, size)[::-1]
        else:
            part = head[done:done + size]
            expect = cyclic_slice(period, done, size)
        miss = first_mismatch(part, expect)
        if miss is not None:
            return done + miss
        done += size
        size *= 2
    return limit


def _canonical_parts(anchor: int, lp: bytes, head: bytes, rp: bytes):
    """Canonicalize (anchor, left period, head, right period).

    Steps: make both periods primitive; absorb head symbols that merely
    continue a tail's cycle (front symbols into the left tail, back symbols
    into the right tail); if the head empties, pin the anchor.
    """
    lp = primitive_root(lp)
    rp = primitive_root(rp)
    # the left tail's cyclic continuation at `anchor` is lp[0], lp[1], ...;
    # the right tail's backward continuation is rp[-1], rp[-2], ...
    front = _continuation_length(head, lp, len(head), backward=False)
    back = _continuation_length(head, rp, len(head) - front, backward=True)
    if front or back:
        head = head[front:len(head) - back]
        lp = _rotl(lp, front)
        rp = _rotl(rp, -back)
        anchor += front
    if not head:
        if lp == rp:
            # fully periodic configuration: re-anchor at 0
            n = len(lp)
            lp = bytes(lp[(k - anchor) % n] for k in range(n))
            return 0, lp, b"", lp
        # slide the anchor right to the first index where the left-periodic
        # continuation stops matching the right tail; distinct primitive
        # words must disagree within len(lp)+len(rp) symbols
        bound = len(lp) + len(rp)
        j = first_mismatch(cyclic_slice(lp, 0, bound), cyclic_slice(rp, 0, bound))
        assert j is not None
        anchor += j
        lp = _rotl(lp, j)
        rp = _rotl(rp, j)
    return anchor, lp, head, rp


@dataclass(frozen=True)
class Configuration:
    """An eventually periodic bi-infinite sequence, always in canonical form.

    The constructor accepts any word-like inputs (bytes, digit strings,
    iterables of ints) and canonicalizes, so structural equality coincides
    with pointwise equality of the represented functions.
    """

    alphabet: Alphabet
    anchor: int
    left_period: bytes
    head: bytes
    right_period: bytes

    def __post_init__(self):
        lp = self.alphabet.check_word(word(self.left_period), "left period")
        h = self.alphabet.check_word(word(self.head), "head")
        rp = self.alphabet.check_word(word(self.right_period), "right period")
        if not lp or not rp:
            raise SymbolOutOfRange("period words must be nonempty")
        anchor, lp, h, rp = _canonical_parts(self.anchor, lp, h, rp)
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "left_period", lp)
        object.__setattr__(self, "head", h)
        object.__setattr__(self, "right_period", rp)

    @classmethod
    def _from_trusted(cls, alphabet: Alphabet, anchor: int, lp: bytes, head: bytes,
                      rp: bytes) -> "Configuration":
        """Canonicalize without re-validating symbol ranges.

        Internal fast path for words produced by validated machinery (rule
        tables, digit expansions); skips the O(length) range scans that
        dominate on tails with 10^5+ symbols.
        """
        anchor, lp, head, rp = _canonical_parts(anchor, lp, head, rp)
        x = object.__new__(cls)
        object.__setattr__(x, "alphabet", alphabet)
        object.__setattr__(x, "anchor", anchor)
        object.__setattr__(x, "left_period", lp)
        object.__setattr__(x, "head", head)
        object.__setattr__(x, "right_period", rp)
        return x

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, alphabet: Alphabet) -> "Configuration":
        return cls(alphabet, 0, b"\x00", b"", b"\x00")

    @classmethod
    def single(cls, alphabet: Alphabet, symbol: int, position: int = 0) -> "Configuration":
        """All zeros except one ``symbol`` at ``position``."""
        return cls(alphabet, position, b"\x00", bytes([symbol]), b"\x00")

    # -- pointwise access --------------------------------------------------

    def at(self, i: int) -> int:
        a = self.anchor
        if i < a:
            return self.left_period[(i - a) % len(self.left_period)]
        j = i - a
        if j < len(self.head):
            return self.head[j]
        return self.right_period[(j - len(self.head)) % len(self.right_period)]

    def window(self, i: int, j: int) -> bytes:
        """The word x[i] x[i+1] ... x[j] (inclusive ends)."""
        if i > j:
            raise EmptyInterval(f"empty interval [{i}, {j}]")
        a = self.anchor
        s = a + len(self.head)
        parts = []
        if i < a:
            hi = min(j, a - 1)
            parts.append(cyclic_slice(self.left_period, (i - a) % len(self.left_period), hi - i + 1))
        if self.head:
            lo, hi = max(i, a), min(j, s - 1)
            if lo <= hi:
                parts.append(self.head[lo - a:hi - a + 1])
        if j >= s:
            lo = max(i, s)
            parts.append(cyclic_slice(self.right_period, (lo - s) % len(self.right_period), j - lo + 1))
        return b"".join(parts)

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.head and self.left_period == b"\x00" and self.right_period == b"\x00"

    @property
    def is_number_like(self) -> bool:
        """Zero left tail and not the all-zero configuration."""
        return self.left_period == b"\x00" and not self.is_zero

    def shift(self, k: int) -> "Configuration":
        """The configuration y with y[i] = x[i+k]."""
        return Configuration._from_trusted(
            self.alphabet, self.anchor - k, self.left_period, self.head, self.right_period
        )

    def __repr__(self):
        return f"Configuration({format_configuration(self)!r})"


# -- module-level operations ------------------------------------------------


def left_edge(x: Configuration) -> int:
    """Position of the leftmost nonzero symbol of a number-like configuration."""
    if not x.is_number_like:
        raise NotNumberLike("left edge requires a zero left tail and a nonzero configuration")
    # canonical form guarantees the first symbol at the anchor is nonzero:
    # a zero head symbol there would have been absorbed into the zero tail
    return x.anchor


@dataclass(frozen=True)
class OneSidedSeq:
    """An eventually periodic one-sided sequence (index set 0, 1, 2, ...).

    Canonical form: primitive period, head shortened as far as possible.
    Structural equality then coincides with pointwise equality.
    """

    alphabet: Alphabet
    head: bytes
    period: bytes

    def __post_init__(self):
        h = self.alphabet.check_word(word(self.head), "head")
        p = self.alphabet.check_word(word(self.period), "period")
        if not p:
            raise SymbolOutOfRange("period word must be nonempty")
        p = primitive_root(p)
        back = _continuation_length(h, p, len(h), backward=True)
        if back:
            h = h[:len(h) - back]
            p = _rotl(p, -back)
        object.__setattr__(self, "head", h)
        object.__setattr__(self, "period", p)

    def at(self, i: int) -> int:
        if i < len(self.head):
            return self.head[i]
        return self.period[(i - len(self.head)) % len(self.period)]

    def prefix(self, count: int) -> bytes:
        """The word made of the first ``count`` entries."""
        if count <= len(self.head):
            return self.head[:count]
        return self.head + cyclic_slice(self.period, 0, count - len(self.head))


def fractional_part(x: Configuration, c: int) -> OneSidedSeq:
    """The one-sided sequence i -> x[c+i]."""
    s = x.anchor + len(x.head)
    if c >= s:
        off = (c - s) % len(x.right_period)
        return OneSidedSeq(x.alphabet, b"", _rotl(x.right_period, off))
    return OneSidedSeq(x.alphabet, x.window(c, s - 1), x.right_period)


def seq_equal(a: OneSidedSeq, b: OneSidedSeq) -> bool:
    """Exact equality of two one-sided sequences.

    Both arguments are canonical, so structural comparison decides equality;
    it gives the same verdict as comparing the first
    max(|head_a|, |head_b|) + lcm(|period_a|, |period_b|) entries.
    """
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch("cannot compare sequences over different alphabets")
    return a.head == b.head and a.period == b.period


# -- textual literals --------------------------------------------------------
#
# `[L:word] head [R:word] @anchor`, e.g. `[L:0] 1 [R:0] @0` for the
# configuration with a single 1 at the origin.  The head may be omitted.
# Symbols are digits, comma-separated once the alphabet has more than 10
# symbols.


def format_configuration(x: Configuration) -> str:
    n = x.alphabet.size
    head = format_word(x.head, n)
    mid = f" {head} " if head else " "
    return f"[L:{format_word(x.left_period, n)}]{mid}[R:{format_word(x.right_period, n)}] @{x.anchor}"


_WORD_CHARS = re.compile(r"[0-9,]+")


def _parse_error(text: str, pos: int, message: str) -> ParseError:
    line = text.count("\n", 0, pos) + 1
    column = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return ParseError(message, line=line, column=column)


def parse_configuration(text: str, alphabet: Alphabet) -> Configuration:
    """Parse the textual literal format.  Raises ParseError with position."""
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def expect(token: str):
        nonlocal pos
        skip_ws()
        if not text.startswith(token, pos):
            raise _parse_error(text, pos, f"expected {token!r}")
        pos += len(token)

    def bracket_word(tag: str) -> bytes:
        nonlocal pos
        expect(f"[{tag}:")
        end = text.find("]", pos)
        if end < 0:
            raise _parse_error(text, pos, "unterminated word (missing ']')")
        raw, start = text[pos:end], pos
        pos = end + 1
        try:
            w = parse_word(raw, alphabet.size)
        except ParseError as exc:
            raise _parse_error(text, start + exc.column - 1, exc.message) from None
        if not w:
            raise _parse_error(text, start, f"period word for [{tag}:] must be nonempty")
        return w

    lp = bracket_word("L")
    skip_ws()
    head = b""
    if pos < len(text) and text[pos] != "[":
        m = _WORD_CHARS.match(text, pos)
        if not m:
            raise _parse_error(text, pos, "expected a head word or '[R:'")
        try:
            head = parse_word(m.group(0), alphabet.size)
        except ParseError:
            raise _parse_error(text, pos, f"bad head word {m.group(0)!r}") from None
        pos = m.end()
    rp = bracket_word("R")
    expect("@")
    m = re.compile(r"-?\d+").match(text, pos)
    if not m:
        raise _parse_error(text, pos, "expected an integer anchor after '@'")
    anchor = int(m.group(0))
    pos = m.end()
    skip_ws()
    if pos != len(text):
        raise _parse_error(text, pos, "trailing text after configuration literal")
    try:
        return Configuration(alphabet, anchor, lp, head, rp)
    except SymbolOutOfRange as exc:
        raise _parse_error(text, 0, str(exc)) from None
