"""Exact translation between positive rationals and digit configurations,
and the multiplication automata.

``rational_to_config`` lays out the base-n expansion of a positive rational
on the integer line, most significant digit leftmost, with the units digit
at index -1 and the first fractional digit at index 0.  The expansion is the
one long division produces, which never ends in an infinite tail of the
digit n-1; ``config_to_rational`` accepts any number-like configuration
(including (n-1)-tails), so the pair is a retraction, not a bijection.

Expansions of random rationals easily have periodic parts with 10^5+ digits,
so digits and integers are converted through int64 limbs of k digits, k the
most that stay below 2**62, and one power-of-two tree over the limbs.  With
B = n**k, digits -> integer merges adjacent blocks level by level, level j
multiplying by B**(2**j); integer -> digits splits at the same powers from
the top down, and all limbs expand to digits in one numpy pass.  Only the
powers B**(2**j) are ever needed, about log2 of the limb count, and they are
squared up in one bounded cache.  The preperiod and period lengths are
computed arithmetically (valuations of the denominator at the primes of the
base, the multiplicative order of the base) instead of by scanning for a
repeated remainder, so a period of more than _MAX_PERIOD digits is refused
with OutOfRange before any of it is allocated.

A denominator den = m * c, m made of the primes of the base and c coprime
to it, splits the expansion in two.  The preperiod is one integer division,
rem * (base**pre / m) = head * c + a, whose quotient gives the head digits
through the tree; the period is the purely periodic a/c, expanded over c
alone.  Digit i of a/c is (r_i * base) // c for the remainder
r_i = a * base**i mod c.  For c < 2**31 every r_i comes from a table in
int64: about sqrt(p) powers base**i mod c times about sqrt(p) block starts,
taken a bounded number of rows at a time.  Only a denominator of 2**31 or
more runs long division in the limb radix, one big-integer step per limb.

A period of p digits is worth W/(base**p - 1), but forming W converts all
p digits.  ``_period_fraction`` instead reads a small denominator off a
prefix of O(sqrt(p)) digits and proves the value exactly, with one modular
power and one long division; only other periods pay for W.  This makes
valuing a configuration cheap enough that ``verify_mul`` checks every image
by its value alone, with no second route through ``rational_to_config``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, log2
from typing import Union

import numpy as np

from .configuration import Alphabet, Configuration
from .errors import AlphabetMismatch, BadBase, BadSpec, NotNumberLike, NotPositive, OutOfRange
from .rules import Automaton, LocalRule, compose, orbit, shift_inverse_rule
from .words import _factorize, cyclic_slice

RationalLike = Union[int, Fraction]


@lru_cache(maxsize=256)
def _pack_width(base: int) -> int:
    """Digits per int64 limb: the largest k with base**k < 2**62."""
    k = 1
    while base ** (k + 1) < 2**62:
        k += 1
    return k


@lru_cache(maxsize=256)
def _place_values(base: int) -> np.ndarray:
    """The digit weights inside one limb, base**(k-1) down to 1."""
    row = base ** np.arange(_pack_width(base) - 1, -1, -1, dtype=np.int64)
    row.flags.writeable = False
    return row


@lru_cache(maxsize=128)
def _square(base: int, j: int) -> int:
    """B**(2**j) for the limb radix B = base**k, by repeated squaring.

    A conversion of n limbs uses j < log2(n) only, so the cache holds the
    whole table of a handful of bases.
    """
    if j == 0:
        return base ** _pack_width(base)
    half = _square(base, j - 1)
    return half * half


def _digits_to_int(w: bytes, base: int) -> int:
    """Value of a digit word, most significant digit first."""
    k = _pack_width(base)
    arr = np.frombuffer(bytes(-len(w) % k) + w, dtype=np.uint8).reshape(-1, k)
    blocks = (arr.astype(np.int64) @ _place_values(base)).tolist()
    # blocks are right-aligned: all but the leftmost hold exactly 2**j limbs
    j = 0
    while len(blocks) > 1:
        scale = _square(base, j)
        odd = len(blocks) & 1
        blocks[odd:] = [hi * scale + lo for hi, lo in zip(blocks[odd::2], blocks[odd + 1::2])]
        j += 1
    return blocks[0] if blocks else 0


def _limbs_to_digits(limbs: list[int], base: int) -> bytes:
    """The k digits of each limb, concatenated."""
    high = np.array(limbs, dtype=np.int64).reshape(-1, 1) // _place_values(base)
    # digit i of a limb is v // base**i minus base times v // base**(i+1)
    high[:, 1:] -= base * high[:, :-1]
    return high.astype(np.uint8).tobytes()


def _int_to_digits(v: int, base: int, count: int) -> bytes:
    """Exactly ``count`` digits of v (0 <= v < base**count), zero-padded at the left."""
    n = -(-count // _pack_width(base))
    blocks = [v]
    # _digits_to_int's levels in reverse, padded at the left to 2**levels
    # limbs; the padding is zero limbs, which the final slice drops
    for j in reversed(range((n - 1).bit_length())):
        scale = _square(base, j)
        blocks = [part for b in blocks for part in divmod(b, scale)]
    digits = _limbs_to_digits(blocks, base)
    return digits[len(digits) - count:]


def _int_digits(v: int, base: int) -> bytes:
    """Minimal digit word for a nonnegative integer (empty for 0)."""
    # floor(bits / log2(base)) + 1 digits suffice; one spare covers float rounding
    count = int(v.bit_length() / log2(base)) + 2
    return _int_to_digits(v, base, count).lstrip(b"\x00")


#: the longest period rational_to_config expands; a longer one raises
#: OutOfRange before a digit of it is allocated.  10**8 digits take about
#: 2 s and 0.5 GB; the memory grows in proportion to the period
_MAX_PERIOD = 10**8
#: denominators below this have int64 products of two residues
_TABLE_LIMIT = 2**31
#: remainders computed per block of the table, bounding its temporaries
_TABLE_BLOCK = 2**16


def _mod_powers(start: int, step: int, count: int, den: int) -> np.ndarray:
    """start * step**i mod den for i < count (den < 2**31), as int64.

    Row j of an outer product of about sqrt(count) block starts
    start * step**(jK) and powers step**i, reduced mod den, is the run
    beginning at jK; both factors come from the same recursion, which
    bottoms out in a short multiply-and-reduce loop.
    """
    if count <= 32:
        out = [start % den]
        for _ in range(1, count):
            out.append(out[-1] * step % den)
        return np.array(out, dtype=np.int64)[:count]
    k = isqrt(count)
    table = np.multiply.outer(_mod_powers(start, pow(step, k, den), -(-count // k), den),
                              _mod_powers(1, step, k, den))
    table %= den
    return table.ravel()[:count]


def _expansion_digits(remainder: int, den: int, base: int, count: int) -> bytes:
    """First ``count`` digits of remainder/den (0 <= remainder < den) in ``base``.

    Digit i is (r_i * base) // den, r_i = remainder * base**i mod den.  For
    den < 2**31 the r_i come from a table: with K about sqrt(count), the K
    powers base**i mod den times the block starts r_(jK) give row j, in
    int64, a bounded number of rows at a time.  Larger denominators run long
    division in the limb radix, one limb per big-integer step.
    """
    if den >= _TABLE_LIMIT:
        radix = _square(base, 0)
        limbs = []
        r = remainder
        for _ in range(-(-count // _pack_width(base))):
            q, r = divmod(r * radix, den)
            limbs.append(q)
        return _limbs_to_digits(limbs, base)[:count]
    k = max(1, isqrt(count))
    rows = -(-count // k)
    powers = _mod_powers(1, base, k, den)
    starts = _mod_powers(remainder, pow(base, k, den), rows, den)
    out = np.empty(rows * k, dtype=np.uint8)
    step = max(1, _TABLE_BLOCK // k)
    for j in range(0, rows, step):
        block = np.multiply.outer(starts[j:j + step], powers)
        # block %= den, by numpy's fast int64 floor division by a scalar
        block -= block // den * den
        block *= base
        block //= den
        out[j * k:j * k + block.size] = block.ravel()
    return out[:count].tobytes()


def _valuation(n: int, p: int) -> tuple[int, int]:
    """(v, n // p**v) for the largest v with p**v dividing n > 0.

    The powers p, p**2, p**4, ... are tried upwards until one does not
    divide, then divided out greedily downwards: O(log v) divisions.
    """
    powers = []
    while n % p == 0:
        powers.append(p)
        p *= p
    v = 0
    for i in reversed(range(len(powers))):
        q, r = divmod(n, powers[i])
        if r == 0:
            n, v = q, v + (1 << i)
    return v, n


def _period_split(den: int, base: int) -> tuple[int, int]:
    """(preperiod, coprime part) of a denominator in ``base``.

    den = m * coprime with gcd(coprime, base) == 1, and the preperiod is the
    least t with m dividing base**t.
    """
    pre = 0
    for p, e in _factorize(base).items():
        v, den = _valuation(den, p)
        pre = max(pre, -(-v // e))
    return pre, den


def _carmichael(factors: dict[int, int]) -> int:
    lam = 1
    for p, k in factors.items():
        if p == 2:
            block = 1 if k == 1 else (2 if k == 2 else 2 ** (k - 2))
        else:
            block = (p - 1) * p ** (k - 1)
        lam = lam * block // gcd(lam, block)
    return lam


def multiplicative_order(base: int, modulus: int) -> int:
    """Least k >= 1 with base**k == 1 (mod modulus); requires modulus >= 1
    and gcd == 1."""
    if modulus < 1:
        raise OutOfRange(f"modulus must be at least 1, got {modulus}")
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
    """The base-``base`` digit configuration of a positive rational; a period
    of more than _MAX_PERIOD digits raises OutOfRange."""
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
    # den = m * coprime with m dividing base**pre: the first pre digits are
    # rem * base**pre // den, and what follows is the purely periodic a/coprime
    # (a terminating expansion has coprime part 1, order 1 and period b"\x00")
    pre, coprime = _period_split(den, base)
    head_value, a = divmod(base**pre // (den // coprime) * rem, coprime)
    head = int_digits + _int_to_digits(head_value, base, pre)
    order = multiplicative_order(base, coprime)
    if order > _MAX_PERIOD:
        raise OutOfRange(f"the period of {xi} in base {base} has {order} digits, "
                         f"more than {_MAX_PERIOD}")
    period = _expansion_digits(a, coprime, base, order)
    return Configuration._from_trusted(Alphabet(base), -len(int_digits), b"\x00", head, period)


def _period_fraction(w: bytes, base: int) -> Fraction:
    """Value of 0.www... in ``base`` as a reduced fraction.

    For n = 16, 64, 256, ... up to 4 * sqrt(p) digits, the best
    approximation a/c to the n-digit prefix with c <= sqrt(base**n) / 2 is
    the value itself whenever its reduced denominator is that small.  A
    candidate is accepted only once proved: base**p == 1 (mod c) makes a/c
    purely periodic with a period dividing p, so its first p digits being w
    make it equal to W/(base**p - 1), W the value of w.  Otherwise (large
    denominators, or the all-(base-1) word, worth 1) W/(base**p - 1) is
    formed directly.  A longer prefix often yields the candidate just
    rejected again, and that one is not re-expanded.
    """
    p = len(w)
    n, rejected = 16, None
    while n * n <= 16 * p:
        scale = base**n
        guess = Fraction(_digits_to_int(w[:n], base), scale).limit_denominator(isqrt(scale) // 2)
        a, c = guess.numerator, guess.denominator
        if guess != rejected and a < c and pow(base, p, c) == 1 % c \
                and _expansion_digits(a, c, base, p) == w:
            return guess
        rejected = guess
        n *= 4
    return Fraction(_digits_to_int(w, base), base**p - 1)


def config_to_rational(x: Configuration, base: int) -> Fraction:
    """Exact value of a number-like digit configuration.

    The integer digits and the fractional digits before the periodic tail
    are converted to integers; the tail, read from the first fractional
    position, is valued by ``_period_fraction``, so e.g. the all-nines
    tail in base 10 evaluates to exactly 1.
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
    period_value = _period_fraction(cyclic_slice(x.right_period, phase, plen), base)
    frac = _digits_to_int(frac_head, base) + period_value
    return ipart + frac / base ** len(frac_head)


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


def verify_mul(spec: MulSpec, value: RationalLike, steps: int) -> bool:
    """Check both multiplication automata against exact rational arithmetic.

    True iff for all 1 <= t <= steps the integer automaton maps the digit
    configuration of xi to a configuration whose value is exactly p^t * xi,
    and the fractional automaton to one worth exactly (p/q)^t * xi.  Each
    image is valued by ``config_to_rational``, which also accepts an image
    ending in an infinite tail of base-1 digits; an image that is not
    number-like has no value, so it fails the check.
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
            if not y.is_number_like or config_to_rational(y, base) != expected:
                return False
    return True
