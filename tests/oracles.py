"""Independent oracles and shared hypothesis strategies for the test suite.

Everything here recomputes expected values from first principles (pointwise
indexing, schoolbook long division, Horner and divmod digit conversion,
lexicographic words as the divmod digits of an index range, first
occurrences of keys by numpy's own unique, the geometric-series value of a
periodic tail, one-factor-at-a-time preperiods, digit expansions by one
long division and period proofs by comparing with it, primitive roots by
searching w+w for w, padded finite simulation, cubic period search,
rolling-index rule evaluation, the multiply-by-p/q chain associated the
other way round and written out neighborhood by neighborhood,
block-by-block vacuity tests,
symbol-by-symbol canonicalization,
expansivity searches over every full-length seed, and the traces, left
edges and tail recurrences read off canonical orbits, one configuration
per step) without touching the library's fast paths, so
tests compare two genuinely different routes to the same answer.
There are three exceptions.  The dimension search that decides every cell
calls the library's decider, which the oracles above check, so that it
tests the pruning of the search and not the decider again.  The
multiplication check steps canonical configurations and values each image
with the library's config_to_rational, which the closed form above checks,
so that it tests verify_mul's tail proofs over raw states and not the
valuing again.  And the one-row walker steps raw states one row at a time
with the library's one-row _step, which the canonical orbit checks, so
that it tests the multi-row state walk against the walk it replaced.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

import hypothesis.strategies as st
import numpy as np

from leftex import (
    Alphabet,
    Automaton,
    Configuration,
    Counterexample,
    DimsSearch,
    ExpansivityDims,
    PropertyVerdict,
    Verdict,
    config_to_rational,
    fractional_multiplication_rule,
    is_left_expansive,
    multiplication_rule,
    rational_to_config,
)
from leftex.configuration import _canonical_parts, _rotl, fractional_part, left_edge
from leftex.properties import DEFAULT_BUDGET
from leftex.rules import LocalRule, _step, apply, orbit
from leftex.words import cyclic_slice, first_mismatch

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


def trace_oracle(automaton: Automaton, x: Configuration, i: int, j: int,
                 horizon: int) -> list[bytes]:
    """The rows F^t(x)[i..j] for t < horizon, read pointwise off one
    canonical configuration per row of rules.orbit."""
    return [bytes(expand_oracle(y, i, j)) for _, y in zip(range(horizon), orbit(automaton, x))]


def edge_trajectory_oracle(automaton: Automaton, x: Configuration,
                           horizon: int) -> list[tuple[int, int]]:
    """(t, left edge of F^t(x)) for t = 1 .. horizon off the canonical orbit,
    stopping at the zero configuration."""
    out = []
    for t, y in zip(range(1, horizon + 1), itertools.islice(orbit(automaton, x), 1, None)):
        if y.is_zero:
            break
        out.append((t, left_edge(y)))
    return out


def one_row_states_oracle(automaton: Automaton, x: Configuration,
                          rows: int) -> list[tuple[int, bytes, bytes, bytes]]:
    """The raw states of the first ``rows`` configurations of the orbit of
    x as a one-row walker steps them: one rules._step row at a time, and
    canonicalized again once the head is longer than twice the last
    canonical head plus 64."""
    state = x.anchor, x.left_period, x.head, x.right_period
    limit, out = 2 * len(x.head) + 64, [state]
    while len(out) < rows:
        state = _step(automaton.rule, state)[0]
        if len(state[2]) > limit:
            state = _canonical_parts(*state)
            limit = 2 * len(state[2]) + 64
        out.append(state)
    return out


def recurrence_oracle(automaton: Automaton, x: Configuration, c: int,
                      horizon: int) -> list[int]:
    """All t in [1, horizon] with F^t(x)[c..] == x[c..], compared as one-sided
    sequences cut from canonical configurations."""
    target = fractional_part(x, c)
    return [t for t, y in zip(range(1, horizon + 1), itertools.islice(orbit(automaton, x), 1, None))
            if fractional_part(y, c) == target]


def pbm_row_oracle(row: bytes) -> str:
    """One PBM (P1) raster line: every symbol thresholded to 0 or 1, one
    space between them."""
    return " ".join(row.translate(b"0" + b"1" * 255).decode("ascii"))


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


def expansion_matches_oracle(remainder: int, den: int, base: int, w: bytes) -> bool:
    """Whether w is the first len(w) digits of remainder/den, by expanding
    them with schoolbook long division and comparing."""
    return bytes(long_division_digits(remainder, den, base, len(w))) == w


def verify_mul_oracle(spec, value, steps: int, automata=None) -> bool:
    """verify_mul by stepping canonical configurations with rules.orbit and
    valuing each image with config_to_rational, which finds the value's
    denominator from the digits and knows nothing of the expected value.
    ``automata`` is (integer automaton, fractional automaton), the library's
    two rules for ``spec`` by default."""
    xi = Fraction(value)
    base = spec.base
    if automata is None:
        automata = (multiplication_rule(spec), fractional_multiplication_rule(spec))
    x = rational_to_config(xi, base)
    for automaton, factor in zip(automata, (Fraction(spec.p), Fraction(spec.p, spec.q))):
        images = orbit(automaton, x)
        next(images)  # the start configuration itself
        expected = xi
        for _, y in zip(range(steps), images):
            expected *= factor
            if not y.is_number_like or config_to_rational(y, base) != expected:
                return False
    return True


def fractional_multiplication_rule_oracle(spec) -> Automaton:
    """The multiply-by-p/q automaton by the other association of its chain,
    the inverse shift after the square of times-p, written out neighborhood
    by neighborhood with no composition: (a, b, c) goes to t(t(a, b),
    t(b, c)) for times-p's table t."""
    size = spec.base
    t = np.frombuffer(multiplication_rule(spec).rule.table, dtype=np.uint8).reshape(size, size)
    table = b"".join(t[t[a][:, None], t].tobytes() for a in range(size))
    return Automaton(LocalRule(Alphabet(size), 1, 1, table))


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


def rational_to_config_oracle(xi: Fraction, base: int) -> Configuration:
    """The digit configuration of a positive rational by one long division
    of rem/den for preperiod + period digits: the preperiod from
    ``preperiod_oracle``, the period by stepping powers of the base modulo
    the coprime part until they return to 1."""
    ipart, rem = divmod(xi.numerator, xi.denominator)
    # bit_length digits are enough in any base; the extra ones are zeros
    int_digits = int_to_digits_oracle(ipart, base, ipart.bit_length()).lstrip(b"\x00")
    pre = preperiod_oracle(xi.denominator, base)
    c = coprime_part_oracle(xi.denominator, base)
    period, pw = 1, base % c
    while pw != 1 % c:
        pw = pw * base % c
        period += 1
    digits = bytes(long_division_digits(rem, xi.denominator, base, pre + period))
    return Configuration(Alphabet(base), -len(int_digits), b"\x00", int_digits + digits[:pre], digits[pre:])


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


def lex_words_oracle(first: int, count: int, size: int, length: int) -> np.ndarray:
    """Words first .. first+count-1 of the lexicographic order of words of
    ``length`` symbols, one per column, most significant symbol in row 0:
    the digits of an int64 index range, peeled off by repeated divmod."""
    index = np.arange(first, first + count, dtype=np.int64)
    digits = np.empty((length, count), dtype=np.uint8)
    for k in range(length - 1, -1, -1):
        index, digits[k] = np.divmod(index, size)
    return digits


def first_occurrences_oracle(keys: np.ndarray) -> tuple:
    """numpy's own unique: the sorted distinct keys, the index of each
    one's first occurrence and each key's position among them."""
    return np.unique(keys, return_index=True, return_inverse=True)


def radix_index_oracle(symbols, size: int, width: int) -> list:
    """Horner's rule in Python integers, one window at a time: the radix
    index of every length-``width`` window along axis 0 of a 1-D or 2-D
    symbol array, leftmost symbol most significant, as nested lists."""
    def index(column, p):
        idx = 0
        for s in column[p:p + width]:
            idx = idx * size + int(s)
        return idx
    if symbols.ndim == 1:
        return [index(symbols, p) for p in range(len(symbols) - width + 1)]
    columns = symbols.T
    return [[index(column, p) for column in columns] for p in range(len(symbols) - width + 1)]


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
    m = outer.rule.memory + inner.rule.memory
    n = outer.rule.anticipation + inner.rule.anticipation
    table = bytes(
        outer.rule.value(map_windows_oracle(inner.rule, bytes(u)))
        for u in itertools.product(range(size), repeat=m + n + 1)
    )
    return Automaton(trim_vacuous_oracle(LocalRule(outer.alphabet, m, n, table)))


def primitive_root_oracle(w: bytes) -> bytes:
    """Shortest u with w == u^k: w occurs in w+w at an offset strictly
    between 0 and len(w) exactly when w is a proper power, and the smallest
    such offset is the root's length."""
    if len(w) <= 1:
        return w
    k = (w + w).find(w, 1)
    return w[:k] if k < len(w) else w


def canonical_parts_oracle(anchor: int, lp: bytes, head: bytes, rp: bytes):
    """Canonical (anchor, left period, head, right period), absorbing one
    head symbol per step into whichever tail it continues."""
    lp = primitive_root_oracle(lp)
    rp = primitive_root_oracle(rp)
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


def decider_charge_oracle(automaton: Automaton, dims: ExpansivityDims) -> int:
    """The evaluations the decider charges: the top row's read prefix is
    the columns up to the rightmost one that a rectangle row or the
    determined cell reads, and each of its size**L' values is charged one
    evaluation per cell of every patch row below the top one (at least 1)."""
    rule = automaton.rule
    m, n = rule.memory, rule.anticipation
    n_rows = dims.h + dims.d + 1
    seed_len = (dims.w + 1) + 2 * max(m, n) * (n_rows - 1)
    c = max((n_rows - 1) * m, dims.h * m + 1)
    # patch row k starts at seed column k*m; its rectangle ends at seed
    # column c+w-1+k*n, and the determined cell sits at c-1+h*n
    read_len = 1 + max(max(c + dims.w - 1 + k * n for k in range(n_rows)), c - 1 + dims.h * n)
    read_len = min(read_len, seed_len)
    row_cells = [read_len - k * (m + n) for k in range(1, n_rows)]
    return rule.alphabet.size**read_len * max(sum(row_cells), 1)


def _decider_frame(automaton: Automaton, dims: ExpansivityDims, budget: int):
    """The decider's seed length, seed space and rectangle placement, or
    its Unknown verdict when the charge of decider_charge_oracle is over the
    budget, which is read capped at 2**61."""
    rule = automaton.rule
    size = rule.alphabet.size
    m, n = rule.memory, rule.anticipation
    n_rows = dims.h + dims.d + 1
    seed_len = (dims.w + 1) + 2 * max(m, n) * (n_rows - 1)
    seed_space = size**seed_len
    name = f"left-expansive({dims.h},{dims.d},{dims.w})"
    budget = min(budget, 2**61)
    charge = decider_charge_oracle(automaton, dims)
    if charge > budget:
        return PropertyVerdict(name, Verdict.UNKNOWN, dims, size, 0, seed_space,
                               evals_needed=charge, budget=budget)
    c = max((n_rows - 1) * m, dims.h * m + 1)
    starts = [c - k * m for k in range(n_rows)]
    return name, seed_len, seed_space, c, starts, (c - 1) - dims.h * m


def _verdict(automaton, dims, name, seed_space, checked, c, conflict=None):
    """TRUE after all seed_space seeds, else FALSE with the conflict
    (seed_a, seed_b, rectangle rows, value_a, value_b)."""
    size = automaton.rule.alphabet.size
    if conflict is None:
        return PropertyVerdict(name, Verdict.TRUE, dims, size, checked, seed_space)
    seed_a, seed_b, rect, value_a, value_b = conflict
    cex = Counterexample(seed_a=seed_a, seed_b=seed_b, rectangle=rect,
                         value_a=value_a, value_b=value_b,
                         rect_col=c, det_col=c - 1, ref_row=dims.h)
    return PropertyVerdict(name, Verdict.FALSE, dims, size, checked, seed_space,
                           counterexample=cex)


def left_expansive_oracle(
    automaton: Automaton, dims: ExpansivityDims, *, budget: int = DEFAULT_BUDGET
) -> PropertyVerdict:
    """The expansivity decider one seed at a time: grow each seed's patch
    with map_windows_oracle and keep the first seed seen for every
    rectangle."""
    frame = _decider_frame(automaton, dims, budget)
    if isinstance(frame, PropertyVerdict):
        return frame
    name, seed_len, seed_space, c, starts, det_index = frame
    rule, w, n_rows = automaton.rule, dims.w, dims.h + dims.d + 1
    seen: dict[bytes, tuple[int, bytes]] = {}
    checked = 0
    for tup in itertools.product(range(rule.alphabet.size), repeat=seed_len):
        seed = bytes(tup)
        checked += 1
        rows = [seed]
        for _ in range(n_rows - 1):
            rows.append(map_windows_oracle(rule, rows[-1]))
        rect = tuple(rows[k][starts[k]:starts[k] + w] for k in range(n_rows))
        val = rows[dims.h][det_index]
        prev = seen.setdefault(b"".join(rect), (val, seed))
        if prev[0] != val:
            return _verdict(automaton, dims, name, seed_space, checked, c,
                            (prev[1], seed, rect, prev[0], val))
    return _verdict(automaton, dims, name, seed_space, checked, c)


def chunked_left_expansive_oracle(
    automaton: Automaton, dims: ExpansivityDims, *, budget: int = DEFAULT_BUDGET
) -> PropertyVerdict:
    """The expansivity decider over every full-length seed, never a read
    prefix: seeds are base-size digit columns of np.arange in chunks of
    1024, patch rows grow by a radix-index table lookup on a whole chunk,
    and a dict keeps the first seed and value seen for every rectangle."""
    frame = _decider_frame(automaton, dims, budget)
    if isinstance(frame, PropertyVerdict):
        return frame
    name, seed_len, seed_space, c, starts, det_index = frame
    rule, w, n_rows = automaton.rule, dims.w, dims.h + dims.d + 1
    size, width = rule.alphabet.size, rule.width
    table = np.frombuffer(rule.table, dtype=np.uint8)
    places = size ** np.arange(seed_len - 1, -1, -1, dtype=np.int64)
    seen: dict[bytes, tuple[int, bytes]] = {}
    for first in range(0, seed_space, 1024):
        index = np.arange(first, min(first + 1024, seed_space), dtype=np.int64)
        rows = [(index // places[:, None] % size).astype(np.uint8)]
        for _ in range(n_rows - 1):
            top = rows[-1].astype(np.int64)
            out_len = len(top) - width + 1
            idx = sum(top[k:k + out_len] * size ** (width - 1 - k) for k in range(width))
            rows.append(table[idx])
        rect = np.concatenate([rows[k][starts[k]:starts[k] + w] for k in range(n_rows)])
        keys = rect.T.tobytes()
        vals = rows[dims.h][det_index]
        for j in range(len(index)):
            key = keys[j * n_rows * w:(j + 1) * n_rows * w]
            val = int(vals[j])
            prev = seen.setdefault(key, (val, rows[0][:, j].tobytes()))
            if prev[0] != val:
                conflict = (prev[1], rows[0][:, j].tobytes(),
                            tuple(rows[k][starts[k]:starts[k] + w, j].tobytes()
                                  for k in range(n_rows)), prev[0], val)
                return _verdict(automaton, dims, name, seed_space, first + j + 1, c, conflict)
    return _verdict(automaton, dims, name, seed_space, seed_space, c)


def linear_dims_search_oracle(
    automaton: Automaton, max_h: int, max_d: int, max_w: int, *, budget: int = DEFAULT_BUDGET
) -> DimsSearch:
    """The dimension search with no pruning: the library decider on every
    cell in (h+d+w, h, d) order until the first True, an Unknown setting
    budget_exceeded and every decided cell counting in cells_checked."""
    cells = sorted(
        (ExpansivityDims(h, d, w)
         for h in range(max_h + 1) for d in range(max_d + 1) for w in range(1, max_w + 1)),
        key=lambda dims: (dims.h + dims.d + dims.w, dims.h, dims.d),
    )
    budget_hit = False
    checked = 0
    for dims in cells:
        verdict = is_left_expansive(automaton, dims, budget=budget)
        checked += 1
        if verdict.status is Verdict.TRUE:
            return DimsSearch(dims, budget_hit, checked)
        if verdict.status is Verdict.UNKNOWN:
            budget_hit = True
    return DimsSearch(None, budget_hit, checked)


def left_edge_moves_oracle(automaton: Automaton, t: int, rng) -> list[bool]:
    """For every start word u of length max(t*n, 1) with u[0] != 0, in
    lexicographic order, whether F^t moves the left edge of the number-like
    configuration 0^inf . u v^inf (u at column 0) left of 0, where v is a
    random right period with a nonzero symbol: the configuration is stepped
    t times with apply and its left edge read off."""
    size, alphabet = automaton.alphabet.size, automaton.alphabet
    out = []
    for u in itertools.product(range(size), repeat=max(t * automaton.rule.anticipation, 1)):
        if u[0] == 0:
            continue
        period = [rng.randrange(size) for _ in range(rng.randint(1, 3))]
        period[rng.randrange(len(period))] = rng.randrange(1, size)
        y = Configuration(alphabet, 0, b"\x00", bytes(u), bytes(period))
        for _ in range(t):
            y = apply(automaton, y)
        out.append(not y.is_zero and left_edge(y) < 0)
    return out


def census_oracle(rows: list[bytes], horizon: int, lengths) -> dict[int, int]:
    """limit_point_census off its rows, F^t(x)[c..c+n_max-1] for t <= horizon:
    one set of n-prefixes of the tail-window rows per length n."""
    seen = {row for t, row in enumerate(rows[:horizon + 1]) if 2 * t >= horizon}
    return {n: len({w[:n] for w in seen}) for n in lengths}


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
