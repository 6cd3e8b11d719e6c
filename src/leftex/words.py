"""Finite words over small alphabets, stored as ``bytes``.

Symbols are the integers 0..n-1 for an alphabet of size n <= 256, so a word
is just a ``bytes`` object.  That keeps equality tests, slicing, periodicity
checks and bulk rule application at C speed, which matters: exact base-n
expansions of random rationals routinely have periodic parts with tens of
thousands of digits.
"""

from __future__ import annotations

from typing import Iterable, Union

from .errors import ParseError

WordLike = Union[bytes, bytearray, str, Iterable[int]]


def word(symbols: WordLike) -> bytes:
    """Coerce ``symbols`` to a word.

    Accepts bytes/bytearray, an iterable of symbol integers, or a digit
    string such as ``"013"`` (one digit per symbol) or ``"0,11,3"``
    (comma-separated, needed once symbols exceed 9).
    """
    if isinstance(symbols, bytes):
        return symbols
    if isinstance(symbols, bytearray):
        return bytes(symbols)
    if isinstance(symbols, str):
        return parse_word(symbols)
    return bytes(symbols)


def parse_word(text: str, alphabet_size: int | None = None) -> bytes:
    """Parse a digit string (``"013"`` or ``"0,11,3"``).  Empty -> empty word.

    Alphabets with more than ten symbols always use the comma-separated
    spelling, so when the alphabet size is known the split mode is forced by
    it; otherwise a comma in the text selects it.  Without this, a lone
    two-digit symbol like ``"11"`` would be ambiguous.  A ParseError names
    the column, in ``text`` as given, of the bad symbol's first character.
    """
    body = text.strip()
    if not body:
        return b""
    column = len(text) - len(text.lstrip()) + 1
    if (alphabet_size or 0) > 10 or ("," in body and alphabet_size is None):
        parts, sep = body.split(","), 1
    else:
        parts, sep = list(body), 0
    out = bytearray()
    for part in parts:
        if not part.isdecimal():
            raise ParseError(f"bad symbol {part!r} in word {body!r}", column=column)
        v = int(part)
        if v > 255:
            raise ParseError(f"symbol {v} exceeds the representable range", column=column)
        out.append(v)
        column += len(part) + sep
    return bytes(out)


def format_word(w: bytes, alphabet_size: int) -> str:
    """Render a word as digits; comma-separated once digits would be ambiguous."""
    if alphabet_size <= 10:
        return "".join(str(s) for s in w)
    return ",".join(str(s) for s in w)


def _factorize(v: int) -> dict[int, int]:
    """The prime factorization {p: e} of v >= 1, by trial division."""
    out: dict[int, int] = {}
    for p in (2, 3):
        while v % p == 0:
            out[p] = out.get(p, 0) + 1
            v //= p
    f = 5
    while f * f <= v:
        for p in (f, f + 2):
            while v % p == 0:
                out[p] = out.get(p, 0) + 1
                v //= p
        f += 6
    if v > 1:
        out[v] = out.get(v, 0) + 1
    return out


def primitive_root(w: bytes) -> bytes:
    """Shortest word u with w == u^k.

    The lengths d dividing n = len(w) with w[d:] == w[:n-d] are exactly the
    multiples of the root's length that divide n, so starting from d = n and
    dividing d by each prime factor r of n while d/r still qualifies reaches
    the root.  Only the prime factors of n are needed, and each test is one
    comparison of two slices.
    """
    if not w:
        return w
    n = d = len(w)
    for r in _factorize(n):
        while d % r == 0 and w[d // r:] == w[:n - d // r]:
            d //= r
    return w[:d]


def cyclic_slice(w: bytes, offset: int, count: int) -> bytes:
    """``count`` symbols of the periodic stream w w w ... starting at ``offset``."""
    if count <= 0:
        return b""
    n = len(w)
    offset %= n
    reps = (offset + count + n - 1) // n
    return (w * reps)[offset:offset + count]


def first_mismatch(a: bytes, b: bytes) -> int | None:
    """Index of the first differing position of two equal-length words."""
    if a == b:
        return None
    chunk = 4096
    for base in range(0, len(a), chunk):
        if a[base:base + chunk] != b[base:base + chunk]:
            for i in range(base, min(base + chunk, len(a))):
                if a[i] != b[i]:
                    return i
    return None
