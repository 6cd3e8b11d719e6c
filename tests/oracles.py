"""Independent oracles and shared hypothesis strategies for the test suite.

Everything here recomputes expected values from first principles (pointwise
indexing, schoolbook long division, Horner and divmod digit conversion,
the geometric-series value of a periodic tail, one-factor-at-a-time
preperiods, padded finite simulation, cubic period search, rolling-index
rule evaluation, block-by-block vacuity tests, symbol-by-symbol
canonicalization) without touching the
library's fast paths, so tests compare two genuinely different routes to
the same answer.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

import hypothesis.strategies as st

from leftex import (
    Alphabet,
    Automaton,
    Configuration,
    Counterexample,
    ExpansivityDims,
    PropertyVerdict,
    Verdict,
)
from leftex.configuration import _rotl
from leftex.properties import DEFAULT_BUDGET
from leftex.rules import LocalRule
from leftex.words import cyclic_slice, first_mismatch, primitive_root

# hand-transcribed radius-1 binary tables, keyed by neighborhood tuple
RULE30 = {
    (0, 0, 0): 0, (0, 0, 1): 1, (0, 1, 0): 1, (0, 1, 1): 1,
    (1, 0, 0): 1, (1, 0, 1): 0, (1, 1, 0): 0, (1, 1, 1): 0,
}
RULE90 = {(a, b, c): (a + c) % 2 for a in (0, 1) for b in (0, 1) for c in (0, 1)}


def index_oracle(anchor, left_period, head, right_period, i):
    """Pointwise semantics, written directly from the layout definition:
    x[anchor-1-k] = left_period[(len-1-k) mod len] leftwards, head at the
    anchor, right_period cycling after the head."""
    if i < anchor:
        k = anchor - 1 - i
        n = len(left_period)
        return left_period[(n - 1 - k) % n]
    j = i - anchor
    if j < len(head):
        return head[j]
    return right_period[(j - len(head)) % len(right_period)]


def expand_oracle(x: Configuration, lo: int, hi: int) -> list[int]:
    return [
        index_oracle(x.anchor, x.left_period, x.head, x.right_period, i)
        for i in range(lo, hi + 1)
    ]


def padded_step(table, memory, anticipation, row, pad_left, pad_right):
    """One CA step on an explicit finite row with known constant surroundings."""
    out = []
    for i in range(len(row)):
        neigh = []
        for k in range(i - memory, i + anticipation + 1):
            if k < 0:
                neigh.append(pad_left)
            elif k >= len(row):
                neigh.append(pad_right)
            else:
                neigh.append(row[k])
        out.append(table[tuple(neigh)])
    return out


def simulate_zero_padded(table, memory, anticipation, x: Configuration,
                         lo: int, hi: int, steps: int) -> list[list[int]]:
    """Rows t=0..steps of the orbit restricted to [lo, hi], simulated on a
    window wide enough that the dependency cone never touches the edges.
    Requires the configuration to be zero outside the materialized window
    (single-seed style inputs)."""
    margin = steps * max(memory, anticipation, 1) + 1
    full = expand_oracle(x, lo - margin, hi + margin)
    rows = [full[margin:margin + (hi - lo + 1)]]
    for _ in range(steps):
        full = padded_step(table, memory, anticipation, full, 0, 0)
        rows.append(full[margin:margin + (hi - lo + 1)])
    return rows


def long_division_digits(num: int, den: int, base: int, count: int) -> list[int]:
    """Schoolbook fractional digits of (num/den) mod 1."""
    r = num % den
    out = []
    for _ in range(count):
        d, r = divmod(r * base, den)
        out.append(d)
    return out


def digits_to_int_oracle(w: bytes, base: int) -> int:
    """Horner's rule, one digit at a time, most significant first."""
    v = 0
    for s in w:
        v = v * base + s
    return v


def int_to_digits_oracle(v: int, base: int, count: int) -> bytes:
    """The last ``count`` digits of v, peeled off by repeated divmod."""
    buf = bytearray(count)
    for i in range(count - 1, -1, -1):
        v, buf[i] = divmod(v, base)
    return bytes(buf)


def halving_digits_to_int(w: bytes, base: int) -> int:
    """Value of a digit word by splitting it in halves; Horner below 64 digits."""
    if len(w) <= 64:
        return digits_to_int_oracle(w, base)
    h = len(w) // 2
    high, low = halving_digits_to_int(w[:h], base), halving_digits_to_int(w[h:], base)
    return high * base ** (len(w) - h) + low


def config_to_rational_oracle(x: Configuration, base: int) -> Fraction:
    """Value of a number-like configuration by the geometric-series closed
    form: the tail read from the first fractional position is a period of p
    digits worth W/(base**p - 1), W the period as one integer."""
    ipart = halving_digits_to_int(x.window(x.anchor, -1), base) if x.anchor < 0 else 0
    tail_start = x.anchor + len(x.head)
    split = max(tail_start, 0)
    frac_head = x.window(0, split - 1) if split > 0 else b""
    plen = len(x.right_period)
    period = cyclic_slice(x.right_period, (split - tail_start) % plen, plen)
    tail = Fraction(halving_digits_to_int(period, base), base**plen - 1)
    frac = halving_digits_to_int(frac_head, base) + tail
    return ipart + frac / base ** len(frac_head)


def coprime_part_oracle(den: int, base: int) -> int:
    """den with every factor it shares with base divided out, one gcd at a time."""
    while (g := gcd(den, base)) > 1:
        den //= g
    return den


def preperiod_oracle(den: int, base: int) -> int:
    """Least t such that den over its coprime part divides base**t, trying
    t = 0, 1, 2, ... in turn."""
    shared = den // coprime_part_oracle(den, base)
    pre, pw = 0, 1
    while pw % shared:
        pw *= base
        pre += 1
    return pre


def naive_period_search(prefix, max_c, max_p):
    """Cubic search for the least (preperiod, period) with the confidence
    floor length >= preperiod + 2*period."""
    length = len(prefix)
    for c in range(0, max_c + 1):
        for p in range(1, max_p + 1):
            if c + 2 * p > length:
                continue
            if all(prefix[t] == prefix[t + p] for t in range(c, length - p)):
                return c, p
    return None


def seq_prefix_oracle(head, period, count):
    out = []
    for i in range(count):
        if i < len(head):
            out.append(head[i])
        else:
            out.append(period[(i - len(head)) % len(period)])
    return out


def map_windows_oracle(rule: LocalRule, samples: bytes) -> bytes:
    """Rule evaluation along a word with a rolling radix index: drop the
    leftmost symbol's digit, append the next symbol's."""
    width, size, table = rule.width, rule.alphabet.size, rule.table
    out_len = len(samples) - width + 1
    high = size ** (width - 1)
    idx = 0
    for s in samples[:width]:
        idx = idx * size + s
    out = bytearray(out_len)
    out[0] = table[idx]
    for j in range(1, out_len):
        idx = (idx % high) * size + samples[width - 1 + j]
        out[j] = table[idx]
    return bytes(out)


def trim_vacuous_oracle(rule: LocalRule) -> LocalRule:
    """Edge positions dropped by comparing table blocks: the leftmost
    symbol is vacuous when all size blocks of the table are equal, the
    rightmost when every run of size consecutive entries is constant."""
    table, m, n = rule.table, rule.memory, rule.anticipation
    size = rule.alphabet.size
    while m > 0:
        block = len(table) // size
        first = table[:block]
        if all(table[k * block:(k + 1) * block] == first for k in range(1, size)):
            table, m = first, m - 1
        else:
            break
    while n > 0:
        decimated = table[::size]
        if table == b"".join(bytes([s]) * size for s in decimated):
            table, n = decimated, n - 1
        else:
            break
    return LocalRule(rule.alphabet, m, n, table)


def compose_oracle(outer: Automaton, inner: Automaton) -> Automaton:
    """outer(inner(x)) tabulated one neighborhood at a time: run the inner
    rule along every word of the product width, then look up the outer rule."""
    size = outer.alphabet.size
    m = outer.memory + inner.memory
    n = outer.anticipation + inner.anticipation
    table = bytes(
        outer.rule.value(map_windows_oracle(inner.rule, bytes(u)))
        for u in itertools.product(range(size), repeat=m + n + 1)
    )
    return Automaton(trim_vacuous_oracle(LocalRule(outer.alphabet, m, n, table)))


def canonical_parts_oracle(anchor: int, lp: bytes, head: bytes, rp: bytes):
    """Canonical (anchor, left period, head, right period), absorbing one
    head symbol per step into whichever tail it continues."""
    lp = primitive_root(lp)
    rp = primitive_root(rp)
    while head:
        if head[0] == lp[0]:
            head = head[1:]
            lp = _rotl(lp, 1)
            anchor += 1
        elif head[-1] == rp[-1]:
            head = head[:-1]
            rp = rp[-1:] + rp[:-1]
        else:
            break
    if not head:
        if lp == rp:
            n = len(lp)
            lp = bytes(lp[(k - anchor) % n] for k in range(n))
            return 0, lp, b"", lp
        bound = len(lp) + len(rp)
        j = first_mismatch(cyclic_slice(lp, 0, bound), cyclic_slice(rp, 0, bound))
        anchor += j
        lp = _rotl(lp, j)
        rp = _rotl(rp, j)
    return anchor, lp, head, rp


def left_expansive_oracle(
    automaton: Automaton, dims: ExpansivityDims, *, budget: int = DEFAULT_BUDGET
) -> PropertyVerdict:
    """The expansivity decider one seed at a time: grow each seed's patch
    with map_windows_oracle and keep the first seed seen for every
    rectangle."""
    rule = automaton.rule
    size = rule.alphabet.size
    m, n = rule.memory, rule.anticipation
    radius = max(m, n)
    n_rows = dims.h + dims.d + 1
    seed_len = (dims.w + 1) + 2 * radius * (n_rows - 1)
    per_seed = sum(seed_len - k * (m + n) for k in range(1, n_rows)) or 1
    seed_space = size**seed_len
    needed = seed_space * per_seed
    name = f"left-expansive({dims.h},{dims.d},{dims.w})"
    if needed > budget:
        return PropertyVerdict(
            name, Verdict.UNKNOWN, dims, size, 0, seed_space,
            evals_needed=needed, budget=budget,
        )
    c = max((n_rows - 1) * m, dims.h * m + 1)
    starts = [c - k * m for k in range(n_rows)]
    det_index = (c - 1) - dims.h * m
    w = dims.w
    seen: dict[bytes, tuple[int, bytes]] = {}
    checked = 0
    for tup in itertools.product(range(size), repeat=seed_len):
        seed = bytes(tup)
        checked += 1
        rows = [seed]
        for _ in range(n_rows - 1):
            rows.append(map_windows_oracle(rule, rows[-1]))
        key = b"".join(rows[k][starts[k]:starts[k] + w] for k in range(n_rows))
        val = rows[dims.h][det_index]
        prev = seen.get(key)
        if prev is None:
            seen[key] = (val, seed)
        elif prev[0] != val:
            cex = Counterexample(
                seed_a=prev[1], seed_b=seed,
                rectangle=tuple(rows[k][starts[k]:starts[k] + w] for k in range(n_rows)),
                value_a=prev[0], value_b=val,
                rect_col=c, det_col=c - 1, ref_row=dims.h,
            )
            return PropertyVerdict(name, Verdict.FALSE, dims, size, checked, seed_space,
                                   counterexample=cex)
    return PropertyVerdict(name, Verdict.TRUE, dims, size, checked, seed_space)


# -- hypothesis strategies -------------------------------------------------


def symbols(size: int):
    return st.integers(0, size - 1)


@st.composite
def raw_configurations(draw, min_size=2, max_size=5):
    """A configuration built from arbitrary (non-canonical) raw parts."""
    size = draw(st.integers(min_size, max_size))
    sym = symbols(size)
    lp = draw(st.lists(sym, min_size=1, max_size=4))
    head = draw(st.lists(sym, min_size=0, max_size=6))
    rp = draw(st.lists(sym, min_size=1, max_size=4))
    anchor = draw(st.integers(-8, 8))
    return Configuration(Alphabet(size), anchor, lp, head, rp)


@st.composite
def binary_configurations(draw):
    sym = symbols(2)
    return Configuration(
        Alphabet(2),
        draw(st.integers(-6, 6)),
        draw(st.lists(sym, min_size=1, max_size=3)),
        draw(st.lists(sym, min_size=0, max_size=6)),
        draw(st.lists(sym, min_size=1, max_size=3)),
    )


@st.composite
def small_rationals(draw, bound=300):
    return Fraction(draw(st.integers(1, bound)), draw(st.integers(1, bound)))
