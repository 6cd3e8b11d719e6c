"""Exact translation between positive rationals and digit configurations,
and the multiplication automata.

``rational_to_config`` lays out the base-n expansion of a positive rational
on the integer line, most significant digit leftmost, with the units digit
at index -1 and the first fractional digit at index 0.  The expansion is the
one long division produces, which never ends in an infinite tail of the
digit n-1; ``config_to_rational`` accepts any number-like configuration
(including (n-1)-tails), so the pair is a retraction, not a bijection.

Expansions of random rationals easily have periodic parts with 10^5+ digits,
so digit <-> integer conversions run by divide and conquer on cached powers
of the base rather than symbol-by-symbol, and the preperiod/period lengths
are computed arithmetically (multiplicative order) instead of by scanning
for a repeated remainder.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Union

import numpy as np

from .configuration import Alphabet, Configuration
from .errors import AlphabetMismatch, BadBase, BadSpec, NotNumberLike, NotPositive, OutOfRange
from .rules import Automaton, LocalRule, compose, orbit, shift_inverse_rule
from .words import cyclic_slice

RationalLike = Union[int, Fraction]

_pow_cache: dict[tuple[int, int], int] = {}


def _pow(base: int, k: int) -> int:
    key = (base, k)
    v = _pow_cache.get(key)
    if v is None:
        v = base**k
        _pow_cache[key] = v
    return v


@lru_cache(maxsize=None)
def _pack_width(base: int) -> int:
    """Digits per int64 limb: the largest k with base**k < 2**62."""
    k = 1
    while base ** (k + 1) < 2**62:
        k += 1
    return k


def _limbs_to_int(limbs: list[int], big_base: int, lo: int, hi: int) -> int:
    count = hi - lo
    if count <= 32:
        v = 0
        for i in range(lo, hi):
            v = v * big_base + limbs[i]
        return v
    half = count >> 1
    return (
        _limbs_to_int(limbs, big_base, lo, hi - half) * _pow(big_base, half)
        + _limbs_to_int(limbs, big_base, hi - half, hi)
    )


def _int_to_limbs(v: int, big_base: int, count: int) -> list[int]:
    if count <= 32:
        out = [0] * count
        for i in range(count - 1, -1, -1):
            v, out[i] = divmod(v, big_base)
        return out
    half = count >> 1
    hi, lo = divmod(v, _pow(big_base, half))
    return _int_to_limbs(hi, big_base, count - half) + _int_to_limbs(lo, big_base, half)


def _digits_to_int(w: bytes, base: int) -> int:
    """Value of a digit word, most significant digit first.

    Long words are packed into int64 limbs with numpy before the
    divide-and-conquer combine, which keeps the Python-level work per digit
    negligible.
    """
    n = len(w)
    if n >= 1024:
        k = _pack_width(base)
        pad = (-n) % k
        arr = np.frombuffer(bytes(pad) + w, dtype=np.uint8).astype(np.int64)
        powers = base ** np.arange(k - 1, -1, -1, dtype=np.int64)
        limbs = (arr.reshape(-1, k) @ powers).tolist()
        return _limbs_to_int(limbs, _pow(base, k), 0, len(limbs))
    if n <= 64:
        v = 0
        for s in w:
            v = v * base + s
        return v
    half = n >> 1
    return _digits_to_int(w[:n - half], base) * _pow(base, half) + _digits_to_int(w[n - half:], base)


def _int_to_digits(v: int, base: int, count: int) -> bytes:
    """Exactly ``count`` digits of v (v < base**count), zero-padded at the left."""
    if count >= 1024:
        k = _pack_width(base)
        n_limbs = -(-count // k)
        limbs = np.array(_int_to_limbs(v, _pow(base, k), n_limbs), dtype=np.int64)
        out = np.empty((n_limbs, k), dtype=np.uint8)
        for col in range(k - 1, -1, -1):
            limbs, rem = np.divmod(limbs, base)
            out[:, col] = rem
        return out.reshape(-1).tobytes()[n_limbs * k - count:]
    if count <= 64:
        buf = bytearray(count)
        for i in range(count - 1, -1, -1):
            v, buf[i] = divmod(v, base)
        return bytes(buf)
    half = count >> 1
    hi, lo = divmod(v, _pow(base, half))
    return _int_to_digits(hi, base, count - half) + _int_to_digits(lo, base, half)


def _int_digits(v: int, base: int) -> bytes:
    """Minimal digit word for a nonnegative integer (empty for 0)."""
    if v == 0:
        return b""
    count = 1
    while _pow(base, count) <= v:
        count += 1
    return _int_to_digits(v, base, count)


_LIMBS_PER_CHUNK = 32


def _expansion_digits(remainder: int, den: int, base: int, count: int) -> bytes:
    """First ``count`` digits of remainder/den (0 <= remainder < den) in ``base``.

    Works chunkwise so that every big-integer division has a small divisor
    (the denominator, or one cached power of the base), then expands whole
    int64 limbs to digits in a single vectorized pass.
    """
    k = _pack_width(base)
    chunk = k * _LIMBS_PER_CHUNK
    if count <= chunk:
        q, _ = divmod(remainder * _pow(base, count), den)
        return _int_to_digits(q, base, count)
    big = _pow(base, k)
    step = _pow(base, chunk)
    limbs: list[int] = []
    r = remainder
    for _ in range(count // chunk):
        q, r = divmod(r * step, den)
        limbs += _int_to_limbs(q, big, _LIMBS_PER_CHUNK)
    tail = b""
    rest = count % chunk
    if rest:
        q, r = divmod(r * _pow(base, rest), den)
        tail = _int_to_digits(q, base, rest)
    arr = np.array(limbs, dtype=np.int64)
    out = np.empty((len(limbs), k), dtype=np.uint8)
    for col in range(k - 1, -1, -1):
        arr, rem = np.divmod(arr, base)
        out[:, col] = rem
    return out.reshape(-1).tobytes() + tail


def _coprime_part(den: int, base: int) -> int:
    d = den
    while (g := gcd(d, base)) > 1:
        d //= g
    return d


def _factorize(v: int) -> dict[int, int]:
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


def _carmichael(factors: dict[int, int]) -> int:
    lam = 1
    for p, k in factors.items():
        if p == 2:
            block = 1 if k == 1 else (2 if k == 2 else 2 ** (k - 2))
        else:
            block = (p - 1) * p ** (k - 1)
        lam = lam * block // gcd(lam, block)
    return lam


@lru_cache(maxsize=65536)
def multiplicative_order(base: int, modulus: int) -> int:
    """Least k >= 1 with base**k == 1 (mod modulus); requires gcd == 1."""
    if modulus == 1:
        return 1
    if gcd(base, modulus) != 1:
        raise OutOfRange(f"{base} is not invertible modulo {modulus}")
    order = _carmichael(_factorize(modulus))
    for p in _factorize(order):
        while order % p == 0 and pow(base, order // p, modulus) == 1:
            order //= p
    return order


# -- configurations as numbers -------------------------------------------------


def rational_to_config(value: RationalLike, base: int) -> Configuration:
    """The base-``base`` digit configuration of a positive rational."""
    if not isinstance(base, int) or base < 2:
        raise BadBase(f"base must be an integer >= 2, got {base!r}")
    if base > 256:
        raise BadBase("bases above 256 are not supported")
    xi = Fraction(value)
    if xi <= 0:
        raise NotPositive(f"need a positive rational, got {xi}")
    num, den = xi.numerator, xi.denominator
    ipart, rem = divmod(num, den)
    int_digits = _int_digits(ipart, base)
    if rem == 0:
        head, period = int_digits, b"\x00"
    else:
        coprime = _coprime_part(den, base)
        pre = 0
        pw = 1
        while pw % (den // coprime):
            pw *= base
            pre += 1
        if coprime == 1:
            head = int_digits + _expansion_digits(rem, den, base, pre)
            period = b"\x00"
        else:
            ell = multiplicative_order(base, coprime)
            digits = _expansion_digits(rem, den, base, pre + ell)
            head = int_digits + digits[:pre]
            period = digits[pre:]
    return Configuration._from_trusted(Alphabet(base), -len(int_digits), b"\x00", head, period)


def config_to_rational(x: Configuration, base: int) -> Fraction:
    """Exact value of a number-like digit configuration.

    The periodic right tail is summed with the geometric-series closed form,
    so e.g. the all-nines tail in base 10 evaluates to exactly 1.
    """
    if x.alphabet.size != base:
        raise AlphabetMismatch(f"configuration is over {x.alphabet.size} symbols, not base {base}")
    if not x.is_number_like:
        raise NotNumberLike("value of a configuration requires a zero left tail and x != 0")
    ipart = 0
    if x.anchor < 0:
        ipart = _digits_to_int(x.window(x.anchor, -1), base)
    tail_start = x.anchor + len(x.head)
    split = max(tail_start, 0)
    frac_head = x.window(0, split - 1) if split > 0 else b""
    plen = len(x.right_period)
    phase = (split - tail_start) % plen
    period_value = _digits_to_int(cyclic_slice(x.right_period, phase, plen), base)
    frac = Fraction(_digits_to_int(frac_head, base), 1) + Fraction(period_value, _pow(base, plen) - 1)
    return ipart + frac / _pow(base, len(frac_head))


# -- multiplication automata ----------------------------------------------------


@dataclass(frozen=True)
class MulSpec:
    """Parameters of the base-pq multiplication automata: coprime p > q > 1."""

    p: int
    q: int

    def __post_init__(self):
        if not (isinstance(self.p, int) and isinstance(self.q, int)):
            raise BadSpec("p and q must be integers")
        if not self.p > self.q > 1:
            raise BadSpec(f"need p > q > 1, got p={self.p}, q={self.q}")
        if gcd(self.p, self.q) != 1:
            raise BadSpec(f"p and q must be coprime, got p={self.p}, q={self.q}")

    @property
    def base(self) -> int:
        return self.p * self.q


@lru_cache(maxsize=64)
def multiplication_rule(spec: MulSpec) -> Automaton:
    """The (0,1) automaton multiplying by p in base pq.

    Writing a = a1*q + a0 and b = b1*q + b0 with a0, b0 < q and a1, b1 < p,
    the rule sends (a, b) to a0*p + b1: the low part of the current digit is
    promoted, the high part of the right neighbor carries in.
    """
    p, q, base = spec.p, spec.q, spec.base
    table = bytearray(base * base)
    for a in range(base):
        a0 = a % q
        for b in range(base):
            table[a * base + b] = a0 * p + b // q
    return Automaton(LocalRule(Alphabet(base), 0, 1, bytes(table)), name=f"mulint:{p}/{q}")


@lru_cache(maxsize=64)
def fractional_multiplication_rule(spec: MulSpec) -> Automaton:
    """The automaton multiplying by p/q in base pq.

    Built as inverse-shift composed with two multiplications by p (multiply
    by p twice, then divide by pq via the shift); the composition trims to a
    (1,1) rule.
    """
    alphabet = Alphabet(spec.base)
    times_p = multiplication_rule(spec)
    composed = compose(shift_inverse_rule(alphabet), compose(times_p, times_p))
    return replace(composed, name=f"mul:{spec.p}/{spec.q}")


def _value_matches(x: Configuration, base: int, expected: Fraction) -> bool:
    """Exactly decide whether the value of x equals ``expected``.

    A number-like configuration whose right tail is not all (base-1) is the
    unique canonical expansion of its value, so comparing it against the
    canonical expansion of ``expected`` decides the equation; the all-(base-1)
    corner is decided by evaluating the value directly.
    """
    if not x.is_number_like:
        raise NotNumberLike("value comparison requires a number-like configuration")
    if x.right_period == bytes([base - 1]):
        return config_to_rational(x, base) == expected
    return x == rational_to_config(expected, base)


def verify_mul(spec: MulSpec, value: RationalLike, steps: int) -> bool:
    """Check both multiplication automata against exact rational arithmetic.

    True iff for all 1 <= t <= steps the integer automaton maps the digit
    configuration of xi to a configuration whose value is exactly p^t * xi,
    and the fractional automaton to one worth exactly (p/q)^t * xi.
    """
    if steps < 1:
        raise OutOfRange("steps must be at least 1")
    xi = Fraction(value)
    base = spec.base
    for automaton, factor in (
        (multiplication_rule(spec), Fraction(spec.p)),
        (fractional_multiplication_rule(spec), Fraction(spec.p, spec.q)),
    ):
        images = orbit(automaton, rational_to_config(xi, base))
        next(images)  # the start configuration itself
        expected = xi
        for _, y in zip(range(steps), images):
            expected *= factor
            if not _value_matches(y, base, expected):
                return False
    return True
