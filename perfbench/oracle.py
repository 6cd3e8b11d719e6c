"""Independent reference computations for the benchmark's exact checks.

Nothing here imports leftex.  Rule tables are rebuilt from their
definitions (Wolfram numbers, the multiply-by-p digit rule), rationals are
expanded by schoolbook long division, and orbits are simulated on explicit
finite rows that shrink by one cell per side and step, so every row is exact
without any padding assumption.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np


# -- rules -------------------------------------------------------------------


def eca_table(number: int) -> np.ndarray:
    """Radius-1 binary table indexed by 4a + 2b + c."""
    return np.array([(number >> i) & 1 for i in range(8)], dtype=np.uint8)


def mul_table(p: int, q: int) -> np.ndarray:
    """The (1,1) rule multiplying by p/q in base pq.

    With f(a, b) = (a mod q) * p + b div q the rule that multiplies by p,
    multiplying twice and shifting one cell right gives
    g(a, b, c) = f(f(a, b), f(b, c)).
    """
    base = p * q

    def f(a, b):
        return (a % q) * p + b // q

    return np.array(
        [f(f(a, b), f(b, c)) for a in range(base) for b in range(base) for c in range(base)],
        dtype=np.uint8,
    )


def is_left_permutive_eca(number: int) -> bool:
    """f(0, b, c) != f(1, b, c) for every b, c."""
    return all(((number >> (4 + k)) & 1) != ((number >> k) & 1) for k in range(4))


# -- configurations ----------------------------------------------------------


def symbol_at(parts, i: int) -> int:
    """Pointwise value of (anchor, left period, head, right period) at i.

    The left period's last symbol sits at anchor-1; the right period starts
    right after the head.
    """
    anchor, lp, head, rp = parts
    if i < anchor:
        return lp[(i - anchor) % len(lp)]
    j = i - anchor
    if j < len(head):
        return head[j]
    return rp[(j - len(head)) % len(rp)]


def rational_parts(xi: Fraction, base: int):
    """(anchor, left period, head, right period) of xi's base expansion by
    long division, units digit at index -1."""
    ipart, rem = divmod(xi.numerator, xi.denominator)
    int_digits = []
    while ipart:
        ipart, d = divmod(ipart, base)
        int_digits.append(d)
    int_digits.reverse()
    seen, digits = {}, []
    while rem and rem not in seen:
        seen[rem] = len(digits)
        d, rem = divmod(rem * base, xi.denominator)
        digits.append(d)
    if rem == 0:
        pre, period = digits, [0]
    else:
        pre, period = digits[:seen[rem]], digits[seen[rem]:]
    return -len(int_digits), [0], int_digits + pre, period


def simulate(table: np.ndarray, size: int, parts, lo: int, hi: int, steps: int) -> list[bytes]:
    """Rows t = 0..steps of the radius-1 orbit, restricted to [lo, hi]."""
    row = np.array([symbol_at(parts, i) for i in range(lo - steps, hi + steps + 1)], dtype=np.int64)
    width = hi - lo + 1
    rows = [row[steps:steps + width].astype(np.uint8).tobytes()]
    for t in range(1, steps + 1):
        row = table[(row[:-2] * size + row[1:-1]) * size + row[2:]].astype(np.int64)
        off = steps - t
        rows.append(row[off:off + width].astype(np.uint8).tobytes())
    return rows


def first_nonzero(parts, lo: int) -> int:
    """Leftmost nonzero index at or after lo (the configuration must have one)."""
    i = lo
    while symbol_at(parts, i) == 0:
        i += 1
    return i


# -- orbit statistics --------------------------------------------------------


def eventual_period(rows: list[bytes], max_c: int, max_p: int):
    """Least (preperiod, period) with rows[t] == rows[t+p] for t >= c,
    c <= max_c, p <= max_p and c + 2p <= len(rows); None if there is none."""
    ids = {}
    seq = np.array([ids.setdefault(r, len(ids)) for r in rows], dtype=np.int64)
    length = len(seq)
    best = None
    for p in range(1, min(max_p, length // 2) + 1):
        breaks = np.flatnonzero(seq[:-p] != seq[p:])
        c = int(breaks[-1]) + 1 if len(breaks) else 0
        if c <= max_c and c + 2 * p <= length and (best is None or (c, p) < best):
            best = (c, p)
    return best


def census(rows: list[bytes], horizon: int, lengths) -> dict[int, int]:
    """Distinct length-n prefixes of rows[t] over 2t >= horizon."""
    tail = [r for t, r in enumerate(rows) if 2 * t >= horizon]
    return {n: len({r[:n] for r in tail}) for n in lengths}


def pbm(rows: list[bytes]) -> str:
    lines = [f"P1\n{len(rows[0])} {len(rows)}\n"]
    lines += [" ".join("1" if s else "0" for s in r) + "\n" for r in rows]
    return "".join(lines)


# -- number theory for the generators ----------------------------------------


def is_prime(v: int) -> bool:
    if v < 2:
        return False
    f = 2
    while f * f <= v:
        if v % f == 0:
            return False
        f += 1
    return True


def prime_factors(v: int) -> list[int]:
    out, f = [], 2
    while f * f <= v:
        if v % f == 0:
            out.append(f)
            while v % f == 0:
                v //= f
        f += 1
    if v > 1:
        out.append(v)
    return out


def order(base: int, prime: int) -> int:
    """Multiplicative order of base modulo a prime not dividing it."""
    k = prime - 1
    for f in prime_factors(k):
        while k % f == 0 and pow(base, k // f, prime) == 1:
            k //= f
    return k


def full_period_prime(base: int, at_least: int) -> int:
    """The first prime p >= at_least for which 1/p has the longest possible
    base-``base`` period, p - 1 (base is a primitive root mod p)."""
    v = max(at_least, 3)
    while not (gcd(v, base) == 1 and is_prime(v) and order(base, v) == v - 1):
        v += 1
    return v
