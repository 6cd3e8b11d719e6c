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

Half of most periods comes for free (Midy's theorem).  When p is even, c
does not divide a and base**(p/2) == -1 (mod c), as for every even period
over an odd prime power, r_(i+p/2) = c - r_i != 0; c is coprime to the
base, so it does not divide base * r_i, and digit i + p/2 is base - 1
minus digit i.  That precondition costs one modular power
(``_half_period``).  Where it holds the expansion computes the first p/2
digits only and writes the second half with one ``bytes.translate``, and
the proof below compares each word's halves a bounded slice at a time and
then proves only the limbs covering the first half.  Every other period
takes the full path.

A period of p digits is worth W/(base**p - 1), but forming W converts all
p digits.  ``_period_fraction`` instead reads a small denominator off a
prefix of O(sqrt(p)) digits and proves the value exactly with one modular
power and, for c < 2**31, no digit generated.  The proof is one kernel,
``_matches_expansions``, for a batch of periods w_t of one length over one
c: each w_t read as int64 limbs must equal the limbs (B * s_tj) // c of
a_t/c, B a power of the base and s_tj = a_t * B**j mod c from one table
of powers.  Only other periods pay for W.  ``verify_mul`` needs no
denominator search: it expands its start once, walks both automata over
raw states, and since it knows what each image is worth, it knows what
the image's tail must be worth, and proves the tails of one c and length
together, a table block of digits at a time.

The automaton multiplying by p/q composes the inverse shift with times-p
first, so no product table has more than (pq)**3 entries (pq <= 215).
The rule it builds carries an arithmetic column kernel (``_mul_columns``),
which ``rules.columns`` hands a narrow window over a standard number-like
x (no (pq-1)-tail): with B = pq, the word F^t(x)[i..j] is then
floor(xi_t * B**(j+1)) mod B**(j-i+1), units digit at index -1, for
xi_t = xi * (p/q)**t.  That is exact, by three facts:

1. F is worth (p/q) * xi on every number-like x, which ``verify_mul``
   checks against the automaton itself;
2. F is quiescent, so F(x) is number-like;
3. a standard x has a standard image: if F(x) ended in pq-1, (p/q) * xi
   would be a B-adic fraction, and since 1/p = q/B so would xi be, so x
   would end in zeros, and so would F(x).

So F^t(x) is the standard expansion of xi_t.  The kernel scales xi by
B**(j+1) when j >= -1, so that the window is the integer part of each
row's value, divided by B**(-j-1) when j < -1, mod B**(j-i+1).  It keeps
the value as I + r/D with 0 <= r < D and D = b * q**t, b the scaled
value's denominator, and steps it in a few linear big-integer operations
a row: (I*p) divmod q gives u + v/q, r becomes v*D + r*p over D*q, and
at most ceil((p+q-1)/q) subtractions of the new D carry into u.  Adding
a multiple of B**(j-i+1+max(-j-1, 0)) * q**(rows-1) to I moves no window
of the rows asked for, so a larger I is reduced by it once, which keeps
a window far right of the units digit as cheap as one near it.  A group
of rows is split into digits by one numpy pass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, partial
from math import gcd, isqrt, log2
from typing import Iterator, Optional, Union

import numpy as np

from .configuration import Alphabet, Configuration
from .errors import AlphabetMismatch, BadBase, BadSpec, NotNumberLike, NotPositive, OutOfRange
from .rules import _BIT_ROWS, _MAX_PREFIX, Automaton, LocalRule, _states, compose
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
#: remainders computed per block of the table, bounding its temporaries; also
#: the count of held tail digits at which verify_mul proves them
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


@lru_cache(maxsize=256)
def _complement(base: int) -> bytes:
    """The ``bytes.translate`` table sending each digit d < base to base - 1 - d."""
    return bytes((base - 1 - d) % 256 for d in range(256))


def _half_period(p: int, den: int, base: int) -> bool:
    """Whether p > 0 is even and base**(p/2) == -1 (mod den): then digit
    i + p/2 of a/den is base - 1 minus digit i for every a that den does
    not divide (see the module docstring)."""
    return p > 0 and p % 2 == 0 and pow(base, p // 2, den) == den - 1


def _expansion_digits(remainder: int, den: int, base: int, count: int) -> bytes:
    """First ``count`` digits of remainder/den (0 <= remainder < den) in ``base``.

    Digit i is (r_i * base) // den, r_i = remainder * base**i mod den.  When
    den does not divide remainder and base**(count/2) == -1 (mod den)
    (``_half_period``), only the first count/2 digits are expanded and the
    second half is their complement.  For den < 2**31 the r_i come from a
    table: with K about sqrt(count), the K powers base**i mod den times the
    block starts r_(jK) give row j, in int64, a bounded number of rows at a
    time.  Larger denominators run long division in the limb radix, one
    limb per big-integer step.
    """
    if remainder % den and _half_period(count, den, base):
        first = _expansion_digits(remainder, den, base, count // 2)
        return first + first.translate(_complement(base))
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


def _matches_expansions(remainders: list[int], den: int, base: int, words: list[bytes]) -> bool:
    """Whether every word w_t (digits below base, all of one length p) is
    the first p digits of remainders[t]/den, given base**p == 1 (mod den).

    For den < 2**31 no digit is generated.  With B = base**k, k the most
    with B * den < 2**63, limb j of word t, its k digits read as an int64,
    must equal (B * s_tj) // den for s_tj = a_t * B**j mod den.  The powers
    of B are built once for the batch into one (T, limbs) int64 block of
    products congruent to the s_tj, which is reduced, and its digits
    compared by one matrix product over every word, a table block at a
    time.  The expansion repeats every p digits, so the
    last partial limb is padded with each word's own first digits.  The
    batch is joined into one buffer, which copies nothing for a batch of
    one.  Larger denominators compare a long division word by word.

    When den divides no a_t and base**(p/2) == -1 (mod den)
    (``_half_period``), digit i + p/2 of a_t/den is base - 1 minus digit i.
    A word whose second half is the complement of its first, checked a
    table block of digits at a time, is then a_t/den once its first half
    is, so only the whole limbs covering the first half are proved; they
    read the word's own digits, with no padding.
    """
    p, count = len(words[0]), len(words)
    if den >= _TABLE_LIMIT:
        return all(_expansion_digits(a, den, base, p) == w for a, w in zip(remainders, words))
    k = 1
    while base ** (k + 1) * den < 2**63:
        k += 1
    radix, limbs, half = base**k, -(-p // k), p // 2
    cover = -(-half // k)  # the limbs covering the first half
    if cover * k <= p and all(a % den for a in remainders) and _half_period(p, den, base):
        complement, step = _complement(base), _TABLE_BLOCK
        if not all(w[i + half:i + half + step] == w[i:min(i + step, half)].translate(complement)
                   for w in words for i in range(0, half, step)):
            return False
        limbs = cover
    full = min(limbs, p // k)
    # s_tj = a_t * radix**j mod den, laid out as _mod_powers lays out one
    # run: each word's row starts times one row of about sqrt(limbs) powers
    width = isqrt(limbs)
    starts = np.multiply.outer(np.array(remainders, dtype=np.int64),
                               _mod_powers(1, pow(radix, width, den), -(-limbs // width), den))
    starts %= den
    products = np.multiply.outer(starts, _mod_powers(1, radix % den, width, den)).reshape(count, -1)

    def want(j: int, stop: int) -> np.ndarray:
        block = products[:, j:stop]
        block = block - block // den * den  # % den, by numpy's fast division by a scalar
        block *= radix
        block //= den
        return block

    place = base ** np.arange(k - 1, -1, -1, dtype=np.int64)
    digits = np.frombuffer(b"".join(words), dtype=np.uint8).reshape(count, p)
    if full < limbs:
        last = digits[:, np.arange(full * k, full * k + k) % p].astype(np.int64) @ place
        if not np.array_equal(last, want(full, limbs)[:, 0]):
            return False
    step = max(1, _TABLE_BLOCK // (k * count))
    return all(np.array_equal(
        digits[:, j * k:min(j + step, full) * k].reshape(count, -1, k).astype(np.int64) @ place,
        want(j, min(j + step, full))) for j in range(0, full, step))


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
    rejected again, and that one is not checked again.
    """
    p = len(w)
    n, rejected = 16, None
    while n * n <= 16 * p:
        scale = base**n
        guess = Fraction(_digits_to_int(w[:n], base), scale).limit_denominator(isqrt(scale) // 2)
        a, c = guess.numerator, guess.denominator
        if guess != rejected and a < c and pow(base, p, c) == 1 % c \
                and _matches_expansions([a], c, base, [w]):
            return guess
        rejected = guess
        n *= 4
    return Fraction(_digits_to_int(w, base), base**p - 1)


def _split(anchor: int, head: bytes, rp: bytes) -> tuple[bytes, int, bytes]:
    """(word, h, tail) of the parts of a configuration with a zero left tail:
    the digits from the anchor to the last one before the tail, which start
    at index max(anchor + len(head), 0), the count h of fractional digits
    among them, and one period of the tail from there.  The value is
    (word + 0.tail tail ...) / base**h.  A head that ends left of the units
    digit is followed by the period out to index -1."""
    tail_start = anchor + len(head)
    h = max(tail_start, 0)
    word = head + cyclic_slice(rp, 0, h - tail_start)
    return word, h, cyclic_slice(rp, h - tail_start, len(rp))


def config_to_rational(x: Configuration, base: int) -> Fraction:
    """Exact value of a number-like digit configuration.

    The digits before the periodic tail are one integer, over base**h for
    their h fractional digits; the tail, read from the first fractional
    position, is valued by ``_period_fraction``, so e.g. the all-nines
    tail in base 10 evaluates to exactly 1.
    """
    if x.alphabet.size != base:
        raise AlphabetMismatch(f"configuration is over {x.alphabet.size} symbols, not base {base}")
    if not x.is_number_like:
        raise NotNumberLike("value of a configuration requires a zero left tail and x != 0")
    word, h, tail = _split(x.anchor, x.head, x.right_period)
    return (_digits_to_int(word, base) + _period_fraction(tail, base)) / base**h


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
    alphabet = Alphabet(base)  # refuses a base above 256 before the table is allocated
    table = bytearray(base * base)
    for a in range(base):
        a0 = a % q
        for b in range(base):
            table[a * base + b] = a0 * p + b // q
    return Automaton(LocalRule(alphabet, 0, 1, bytes(table)), name=f"mulint:{p}/{q}")


@lru_cache(maxsize=64)
def fractional_multiplication_rule(spec: MulSpec) -> Automaton:
    """The automaton multiplying by p/q in base pq.

    Built as inverse-shift after two multiplications by p (multiply by p
    twice, then divide by pq via the shift).  The inverse shift after
    times-p is times-p's table read as a (1,0) rule, so one composition
    with times-p builds the (1,1) rule, a table of (pq)^3 entries.
    """
    times_p = multiplication_rule(spec)
    shifted = Automaton(LocalRule(times_p.alphabet, 1, 0, times_p.rule.table))
    automaton = replace(compose(shifted, times_p), name=f"mul:{spec.p}/{spec.q}")
    # rules.columns' kernel for this rule; not a field, so equality, hashing
    # and pickles ignore it, and an equal table built otherwise walks
    object.__setattr__(automaton.rule, "_column_kernel", partial(_mul_columns, spec))
    return automaton


def _mul_columns(spec: MulSpec, x: Configuration, i: int, j: int,
                 rows: int) -> Optional[Iterator[bytes]]:
    """The words F^t(x)[i..j] for t < rows under mul:p/q, read off
    xi * (p/q)**t (see the module docstring), or None where the call is not
    the kernel's: x not number-like or ending in pq-1, a window wider than
    one int64 limb, or x's anchor or the window more than _MAX_PREFIX cells
    from index 0."""
    base = spec.base
    if not x.is_number_like or not x.right_period.strip(bytes([base - 1])) \
            or j - i >= _pack_width(base) or max(abs(x.anchor), abs(i), abs(j)) > _MAX_PREFIX:
        return None
    return _mul_rows(spec.p, spec.q, config_to_rational(x, base), i, j, rows)


def _mul_rows(p: int, q: int, xi: Fraction, i: int, j: int, rows: int) -> Iterator[bytes]:
    """The digits i..j of xi * (p/q)**t in base pq for t < rows, computed
    and split _BIT_ROWS rows at a time, so a caller that takes r words has
    at most _BIT_ROWS-1 more rows computed, and none past rows-1."""
    base, width = p * q, j - i + 1
    cut, top = base ** max(-j - 1, 0), base ** width
    xi *= base ** max(j + 1, 0)
    den, k = xi.denominator, _pack_width(base)
    whole, rem = divmod(xi.numerator, den)
    span = max(rows - 1, 0)
    if whole.bit_length() > span * (q.bit_length() - 1):  # else whole < q**span
        whole %= cut * top * q**span  # moves no window of these rows
    for start in range(0, rows, _BIT_ROWS):
        windows = []
        for t in range(start, min(start + _BIT_ROWS, rows)):
            if t:
                whole, v = divmod(whole * p, q)
                rem = v * den + rem * p
                den *= q
                while rem >= den:
                    rem -= den
                    whole += 1
            windows.append(whole % top if cut == 1 else whole // cut % top)
        digits = _limbs_to_digits(windows, base)
        yield from [digits[at - width:at] for at in range(k, len(digits) + 1, k)]


def verify_mul(spec: MulSpec, value: RationalLike, steps: int) -> bool:
    """Check both multiplication automata against exact rational arithmetic.

    True iff for all 1 <= t <= steps the integer automaton maps the digit
    configuration of xi to a configuration whose value is exactly p^t * xi,
    and the fractional automaton to one worth exactly (p/q)^t * xi.  An
    image may end in an infinite tail of base-1 digits; one that is not
    number-like has no value, so it fails the check.

    Each image is a raw state of the orbit walker, and its right tail must
    be worth r = expected * base**h - H, H the digits before the tail and h
    their count of fractional digits (``_split``).  A nonzero left tail,
    r outside [0, 1], or a p-digit tail with base**p != 1 modulo r's
    denominator c fails at once; r = 0 or 1 is an all-zero or all-(base-1)
    tail.  The other tails wait until they add up to one table block of
    digits, or the walk ends, and are then proved by one
    ``_matches_expansions`` call per (c, p).
    """
    if steps < 1:
        raise OutOfRange("steps must be at least 1")
    xi = Fraction(value)
    base = spec.base
    x = rational_to_config(xi, base)
    groups: dict[tuple[int, int], tuple[list[int], list[bytes]]] = {}
    pending = 0

    def prove() -> bool:
        return all(_matches_expansions(remainders, c, base, words)
                   for (c, _), (remainders, words) in groups.items())

    for automaton, factor in (
        (multiplication_rule(spec), Fraction(spec.p)),
        (fractional_multiplication_rule(spec), Fraction(spec.p, spec.q)),
    ):
        states = _states(automaton, x, steps + 1)
        next(states)  # the start configuration itself
        expected = xi
        for anchor, lp, head, rp in states:
            expected *= factor
            if lp.strip(b"\x00"):
                return False
            word, h, tail = _split(anchor, head, rp)
            r = expected * base**h - _digits_to_int(word, base)
            if not 0 <= r <= 1:
                return False
            if r.denominator == 1:
                if tail.strip(bytes([base - 1 if r else 0])):
                    return False
                continue
            if pow(base, len(tail), r.denominator) != 1:
                return False
            remainders, words = groups.setdefault((r.denominator, len(tail)), ([], []))
            remainders.append(r.numerator)
            words.append(tail)
            pending += len(tail)
            if pending >= _TABLE_BLOCK:
                if not prove():
                    return False
                groups.clear()
                pending = 0
    return prove()
