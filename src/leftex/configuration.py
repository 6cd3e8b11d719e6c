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

    One comparison of ``limit`` symbols, at C speed; only one symbol is
    compared when the first one already breaks the cycle.
    """
    if not limit or head[-1 if backward else 0] != period[-1 if backward else 0]:
        return 0
    if backward:
        miss = first_mismatch(head[len(head) - limit:][::-1],
                              cyclic_slice(period, -limit, limit)[::-1])
    else:
        miss = first_mismatch(head[:limit], cyclic_slice(period, 0, limit))
    return limit if miss is None else miss


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
            lp = _rotl(lp, -anchor)
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


def _window(anchor: int, lp: bytes, head: bytes, rp: bytes, i: int, j: int) -> bytes:
    """The word x[i] .. x[j] of the configuration laid out as (anchor, left
    period, head, right period), canonical or not."""
    if i > j:
        raise EmptyInterval(f"empty interval [{i}, {j}]")
    s = anchor + len(head)
    parts = []
    if i < anchor:
        hi = min(j, anchor - 1)
        parts.append(cyclic_slice(lp, i - anchor, hi - i + 1))
    if head:
        lo, hi = max(i, anchor), min(j, s - 1)
        if lo <= hi:
            parts.append(head[lo - anchor:hi - anchor + 1])
    if j >= s:
        lo = max(i, s)
        parts.append(cyclic_slice(rp, lo - s, j - lo + 1))
    return b"".join(parts)


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
        return _window(self.anchor, self.left_period, self.head, self.right_period, i, j)

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
        self._canonicalize(h, p)

    def _canonicalize(self, h: bytes, p: bytes) -> None:
        p = primitive_root(p)
        back = _continuation_length(h, p, len(h), backward=True)
        if back:
            h = h[:len(h) - back]
            p = _rotl(p, -back)
        object.__setattr__(self, "head", h)
        object.__setattr__(self, "period", p)

    @classmethod
    def _from_trusted(cls, alphabet: Alphabet, head: bytes, period: bytes) -> "OneSidedSeq":
        """Canonicalize words cut from a validated configuration without
        re-validating their symbol ranges."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "alphabet", alphabet)
        seq._canonicalize(head, period)
        return seq

    def at(self, i: int) -> int:
        if i < len(self.head):
            return self.head[i]
        return self.period[(i - len(self.head)) % len(self.period)]

    def prefix(self, count: int) -> bytes:
        """The word made of the first ``count`` entries."""
        if count <= len(self.head):
            return self.head[:count]
        return self.head + cyclic_slice(self.period, 0, count - len(self.head))


def _fractional_part(alphabet: Alphabet, anchor: int, lp: bytes, head: bytes, rp: bytes,
                     c: int) -> OneSidedSeq:
    """The one-sided sequence i -> x[c+i] of the configuration laid out as
    (anchor, left period, head, right period), canonical or not."""
    s = anchor + len(head)
    if c >= s:
        return OneSidedSeq._from_trusted(alphabet, b"", _rotl(rp, (c - s) % len(rp)))
    return OneSidedSeq._from_trusted(alphabet, _window(anchor, lp, head, rp, c, s - 1), rp)


def fractional_part(x: Configuration, c: int) -> OneSidedSeq:
    """The one-sided sequence i -> x[c+i]."""
    return _fractional_part(x.alphabet, x.anchor, x.left_period, x.head, x.right_period, c)


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


# Each piece is optional inside the one before it, so one match consumes the
# longest well-formed prefix and stops where the literal breaks.
_LITERAL = re.compile(r"\s*(?:\[L:([^\]]*)\]\s*([0-9,]*)\s*"
                      r"(?:\[R:([^\]]*)\]\s*(?:@(-?\d+)\s*)?)?)?")


def _parse_error(text: str, pos: int, message: str) -> ParseError:
    line = text.count("\n", 0, pos) + 1
    column = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return ParseError(message, line=line, column=column)


def parse_configuration(text: str, alphabet: Alphabet) -> Configuration:
    """Parse the textual literal format.  Raises ParseError at the first
    missing or malformed piece."""
    m = _LITERAL.match(text)
    words = []
    for group, piece in ((1, "[L:word]"), (2, "head"), (3, "[R:word]")):
        if m[group] is None:
            raise _parse_error(text, m.end(), f"expected {piece!r}")
        try:
            w = parse_word(m[group], alphabet.size)
        except ParseError as exc:
            raise _parse_error(text, m.start(group) + exc.column - 1, exc.message) from None
        if group != 2 and not w:
            raise _parse_error(text, m.start(group), f"period word {piece!r} must be nonempty")
        words.append(w)
    if m[4] is None:
        raise _parse_error(text, m.end(), "expected '@' and an integer anchor")
    if m.end() != len(text):
        raise _parse_error(text, m.end(), "trailing text after configuration literal")
    try:
        return Configuration(alphabet, int(m[4]), *words)
    except SymbolOutOfRange as exc:
        raise _parse_error(text, 0, str(exc)) from None
