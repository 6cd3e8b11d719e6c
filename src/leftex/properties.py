"""Decision procedures for left permutivity, left expansivity, left
spreading, spreading speed, and the rapid classification.

Rectangle geometry used throughout (fixed once, validated by the anchor
instances in the test suite): a rectangle of dimensions (h, d, w) placed at
reference row t and left column c occupies the spatial columns
[c, c+w-1] and the temporal rows [t-h, t+d] -- h rows above the reference
row, d rows below, h+d+1 rows in total.  An automaton is left expansive with
those dimensions when the contents of any such rectangle in any space-time
diagram determine the symbol in the cell immediately to the rectangle's
left at the reference row, i.e. at (column c-1, row t).

The decider's seeds are the words of length L = (w+1) + 2r(h+d), r being
max(m, n) of the rule, each the top row of a patch.  The top row of a
rectangle placement may be row 0 of a diagram, which is an arbitrary
configuration, so the seeds cover every instance: any conflicting pair of
seeds zero-extends to two genuine diagrams violating the implication, and
conversely deeper placements only ever see a subset of the seeds.  The
verdict is therefore exact, not a heuristic.

Only the first L' = min(L, c+w+(h+d)*n) columns of a seed are enumerated:
rectangle row k reads columns up to c+w-1+k*n and the determined cell up to
c-1+h*n.  The unread columns are the least significant ones, so the first
conflict of the full lexicographic search is the first conflict among these
prefixes, padded with zeros: seeds_checked is (prefix index)*size**(L-L')+1
and True still reports all size**L seeds.  The budget is charged for what
is mapped: size**L' prefixes times the cells below each top row (_cells, at
least 1).  Every search reads its budget capped at _BUDGET_CAP = 2**61.
No word is enumerated from an int64 range: a chunk's words are the digits
of a Python int over one block of low digits (rules._patches), which the
first and early chunks copy from a bounded cache instead of rebuilding it
on every call.  The one int64 index left is a prefix number, the first
prefix each rectangle keeps in the carry, and the prefixes number at most
the charge, so every such index stays below 2**61, far from 2**63.  The spreading search keeps no
index array; its counts are Python ints.

Prefixes are enumerated by rules._patches in lexicographic chunks, each
an aligned block of size**e words.  The first chunk's size**e is the power
of the alphabet size nearest _CHUNK = 1024 on a log scale: 1024 words for
2 and 4 symbols, 729 for 3, 1296 for 6, 1000 for 10, and one word for a
single symbol.  e then rises by one whenever the next chunk starts on a
multiple of size**(e+1), up to the power nearest rules._COMPOSE_CHUNK =
2**14: binary chunks run 1024, 1024, 2048, ..., 16384.  A conflict ends
the search at once, so a chunk only grows after a conflict-free one.
Early refutations read the small chunks, and long proofs pay a chunk's
fixed costs on fewer, larger chunks: mul:7/5 at (1,1,1), whose chunks
grow from 35**2 to 35**3 words, proves in 1.4-1.7 s instead of 4.5-5.0 s.
The spreading search walks its start words through the same generator at
the same target, so memory stays bounded by the cap.  Drawing a chunk
rewrites only its high rows.  The first chunk's size is measured: on the
benchmark's decide workload, where most random rules stop at an early
False, fixed chunks of 1024 gave a median op time of 0.85 ms, against
1.13 ms for a first chunk of 256 doubling up to 1024 and 1.6 ms for fixed
chunks of 2^12 or 2^14 (2^14 also took 1 MB more memory).

A chunk is a uint8 digit matrix with one prefix per column; the generator
grows its patch rows on the whole matrix at once by rules.lookup_windows,
the one gather of every numpy row: a packed-bit shift for a binary table of
at most 8 entries, bytes.translate up to 256 entries and take above.
Each prefix is keyed by its rectangle: the n_rows*w symbols, in radix size,
packed by one einsum into one uint32 word when size**(n_rows*w) <= 2**32,
else into ceil(n_rows*w / k) uint64 words, k being the most symbols whose
radix value stays below 2**64 (_key_layout, built once per size and
rectangle).  One word is a uint32 or uint64 key, and more are a void view
of the same words.  The keys are exact, not hashes: equal
keys are equal rectangles.  One stable sort of the chunk's keys finds the
first occurrence of every key (_first_occurrences).  The rectangles met
in earlier chunks are carried as sorted runs of (key, determined value,
first prefix), each key in exactly one run.  A chunk looks its keys up in
every run with searchsorted, and its new keys become a run, merged into the
last run while that is at most twice as long.  Each run is then more than
twice the next, so there are at most log2(K) + 1 runs for K keys, and a key
is copied O(log K) times: the carry costs O(K log K) in all, where
inserting each chunk's keys into one sorted table copies the whole table
per chunk.  The first prefix whose value differs from its key's reference
is the first conflict of the one-at-a-time search, so certificates do not
depend on the chunking.  The conflicting rectangle is cut from one copy of
its column of the chunk's rectangle matrix.

Left expansivity is monotone in the rectangle.  A pair of diagrams that
agree on an (h', d', w') rectangle and differ in the cell to its left also
refutes every (h, d, w) <= (h', d', w'): the smaller rectangle, placed at
the same reference row and left column, lies inside the larger one and has
the same determined cell.  The decider is exact, so a False verdict at
(h', d', w') is a False verdict at every smaller cell, and
find_left_expansive_dims settles its whole search with one refuting probe
at the top corner (max_h, max_d, max_w).  The search reads each cell's
status from _decide and builds no certificate; is_left_expansive alone
turns a conflict into a Counterexample.

Left spreading is decided by a search for a uniform witness: a t at which
F^t has moved the left edge of every number-like x left, so that every edge
moves left at least once every t steps.  Put the edge of x at column 0.
Zero is quiescent and F^t(x)[j] reads x[j-tm .. j+tn], so F^t(x) is zero
left of -tn and its cells -tn .. -1 read only zeros and the start word
x[0 .. tn-1].  Mapping every start word with a nonzero first symbol, written
with t(m+n) leading zeros, t times leaves exactly those cells.  When no start
word moves the edge at t = 1, none ever does: a certified No, as is
anticipation 0.  Each t is charged to the budget before it runs, start words
times cells evaluated, by the cells rule the decider charges prefixes with.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import Optional, Sequence

import numpy as np

from .configuration import Configuration, left_edge
from .errors import BadDims, NotECA, OutOfRange, TableTooLarge, ZeroNotQuiescent
from .numeric import MulSpec, fractional_multiplication_rule
from .rules import (
    Automaton,
    LocalRule,
    _patches,
    _states,
    shift_rule,
    trim_vacuous,
)
from .words import format_word

#: default number of table evaluations a decider call may spend
DEFAULT_BUDGET = 10**8
#: default (H, D, W) bounds of the rapid classification's dimension search
DEFAULT_BOUNDS = (2, 2, 4)
_BUDGET_CAP = 2**61  # the most a search reads of any budget (see the module docstring)

#: words per chunk of the expansivity decider and the spreading search
_CHUNK = 2**10


class Verdict(Enum):
    TRUE = "True"
    FALSE = "False"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class ExpansivityDims:
    """Rectangle dimensions: height (rows above the reference row), depth
    (rows below), width (columns)."""

    h: int
    d: int
    w: int

    def __post_init__(self):
        if self.h < 0 or self.d < 0:
            raise BadDims("height and depth must be nonnegative")
        if self.w < 1:
            raise BadDims("width must be at least 1")


@dataclass(frozen=True)
class Counterexample:
    """Two top-row seeds whose patches agree on the rectangle but disagree on
    the determined cell.

    Replay: grow a patch of h+d+1 rows from each seed; row k of the
    rectangle is the slice starting at list index rect_col - k*memory of
    patch row k, and the determined cell is at list index
    det_col - ref_row*memory of patch row ref_row.
    """

    seed_a: bytes
    seed_b: bytes
    rectangle: tuple[bytes, ...]
    value_a: int
    value_b: int
    rect_col: int
    det_col: int
    ref_row: int

    def to_json_dict(self, alphabet_size: int) -> dict:
        return {
            "seed_a": format_word(self.seed_a, alphabet_size),
            "seed_b": format_word(self.seed_b, alphabet_size),
            "rectangle": [format_word(r, alphabet_size) for r in self.rectangle],
            "value_a": self.value_a,
            "value_b": self.value_b,
            "rect_col": self.rect_col,
            "det_col": self.det_col,
            "ref_row": self.ref_row,
        }


@dataclass(frozen=True)
class PropertyVerdict:
    """Outcome of a decision procedure run.

    TRUE carries a full-exhaustion certificate (seeds_checked == seed_space);
    FALSE carries a replayable counterexample; UNKNOWN reports the charge
    and the budget read, which never exceeds _BUDGET_CAP.
    """

    property_name: str
    status: Verdict
    dims: Optional[ExpansivityDims]
    alphabet_size: int
    seeds_checked: int
    seed_space: int
    counterexample: Optional[Counterexample] = None
    evals_needed: Optional[int] = None
    budget: Optional[int] = None

    def __bool__(self) -> bool:
        return self.status is Verdict.TRUE

    def to_json_dict(self) -> dict:
        out = {
            "property": self.property_name,
            "status": self.status.value,
            "dims": [self.dims.h, self.dims.d, self.dims.w] if self.dims else None,
            "seeds_checked": self.seeds_checked,
            "seed_space": self.seed_space,
            "counterexample": (
                self.counterexample.to_json_dict(self.alphabet_size)
                if self.counterexample
                else None
            ),
        }
        if self.status is Verdict.UNKNOWN:
            out["evals_needed"] = self.evals_needed
            out["budget"] = self.budget
        return out


def is_left_permutive(rule: LocalRule) -> bool:
    """True iff fixing the last memory+anticipation neighborhood symbols
    always leaves a bijection in the leftmost one.

    A vacuous leftmost position makes every section constant, hence not
    bijective on alphabets with more than one symbol.
    """
    if rule.memory < 1:
        raise BadDims("left permutivity requires memory >= 1")
    size, table = rule.alphabet.size, rule.table
    chunk = len(table) // size
    return all(len({table[a * chunk + rest] for a in range(size)}) == size
               for rest in range(chunk))


def _check_budget(budget: int) -> int:
    if budget < 0:
        raise OutOfRange("budget must be nonnegative")
    return min(budget, _BUDGET_CAP)


def _cells(length: int, steps: int, span: int) -> int:  # sum of length - k*span, k <= steps
    return steps * length - span * steps * (steps + 1) // 2


def _prefix(rule: LocalRule, dims: ExpansivityDims) -> tuple[int, int, int]:
    """The decider's seed length L, read prefix length L' and rectangle
    column c, which take a few products however large the cell."""
    m, n, below = rule.memory, rule.anticipation, dims.h + dims.d
    seed_len = (dims.w + 1) + 2 * max(m, n) * below
    c = max(below * m, dims.h * m + 1)
    return seed_len, min(seed_len, c + dims.w + below * n), c


def _decider_frame(rule: LocalRule, dims: ExpansivityDims) -> tuple:
    """The decider's layout and charge: (L, L', rectangle column c, rectangle
    row starts, determined index, charge).  Patch row k covers seed columns
    [k*m, L-1-k*n]; the rectangle clears every row's left end."""
    m, n, below = rule.memory, rule.anticipation, dims.h + dims.d
    seed_len, read_len, c = _prefix(rule, dims)
    charge = rule.alphabet.size**read_len * max(_cells(read_len, below, m + n), 1)
    starts = [c - k * m for k in range(below + 1)]
    return seed_len, read_len, c, starts, (c - 1) - dims.h * m, charge


@lru_cache(maxsize=64)
def _key_layout(size: int, symbols: int) -> tuple[np.ndarray, np.dtype]:
    """How the decider packs a rectangle of ``symbols`` symbols, in radix
    ``size``: into one uint32 word when its radix value stays below 2**32,
    else into uint64 words of k symbols each, k the most whose radix value
    stays below 2**64.  Returns the read-only (words, symbols) matrix of
    radix weights that maps a rectangle column to its words, and the key
    dtype, the word's for one word and a void over the words' bytes for
    more."""
    word_type = np.uint32 if size**symbols <= 2**32 else np.uint64
    per_word = symbols
    while size**per_word > 2**64:
        per_word -= 1
    i = np.arange(symbols)
    word = i // per_word  # the word symbol i sits in, most significant first
    weights = np.zeros((word[-1] + 1, symbols), dtype=word_type)
    weights[word, i] = np.uint64(size) ** (
        np.minimum(word * per_word + per_word, symbols) - 1 - i).astype(np.uint64)
    weights.flags.writeable = False
    key = np.dtype(word_type) if len(weights) == 1 else np.dtype((np.void, 8 * len(weights)))
    return weights, key


def _first_occurrences(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.unique(keys, return_index=True, return_inverse=True) without its
    wrapper layers: the sorted distinct keys, the index of each one's first
    occurrence, and each key's position among them, from one stable sort."""
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    flag = np.empty(len(keys), dtype=bool)
    flag[:1] = True
    flag[1:] = ordered[1:] != ordered[:-1]  # `!=`: not_equal has no void loop
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = flag.cumsum() - 1
    return ordered[flag], order[flag], inverse


def _first_conflict(rule: LocalRule, dims: ExpansivityDims, frame: tuple) -> Optional[tuple]:
    """The decider's chunk loop: the first conflict as (chunk start, column,
    reference prefix, reference value, rows, rectangle matrix), or None."""
    size = rule.alphabet.size
    _, read_len, _, starts, det_index, _ = frame
    n_rows, w = len(starts), dims.w
    weights, key_type = _key_layout(size, n_rows * w)
    runs = []  # sorted (keys, values, first prefixes) runs of the earlier chunks' rectangles
    for first, rows in _patches(rule, read_len, n_rows - 1, 0, size**read_len, _CHUNK):
        rect = np.concatenate([rows[k][starts[k]:starts[k] + w] for k in range(n_rows)])
        keys = np.ascontiguousarray(np.einsum("ws,sn->nw", weights, rect)).view(key_type).ravel()
        vals = rows[dims.h][det_index]
        uniq, where, inverse = _first_occurrences(keys)
        # each key's reference: its entry in an earlier run, else its first
        # prefix in this chunk
        ref_vals, ref_prefixes = vals[where], where + first
        new = np.ones(len(uniq), dtype=bool) if runs else slice(None)  # first chunk: all new
        for run_keys, run_vals, run_prefixes in runs:
            pos = np.minimum(np.searchsorted(run_keys, uniq), len(run_keys) - 1)
            hit = run_keys[pos] == uniq
            ref_vals[hit] = run_vals[pos[hit]]
            ref_prefixes[hit] = run_prefixes[pos[hit]]
            new &= ~hit
        clash = vals != ref_vals[inverse]
        j = int(clash.argmax())
        if clash[j]:
            return first, j, int(ref_prefixes[inverse[j]]), int(ref_vals[inverse[j]]), rows, rect
        run = (uniq[new], ref_vals[new], ref_prefixes[new])
        while runs and len(runs[-1][0]) <= 2 * len(run[0]):  # each run > twice the next
            older = runs.pop()
            at = np.searchsorted(older[0], run[0])
            run = tuple(np.insert(a, at, b) for a, b in zip(older, run))
        if len(run[0]):
            runs.append(run)
    return None


def _decide(rule: LocalRule, dims: ExpansivityDims, budget: int) -> tuple:
    """(frame, status, first conflict); UNKNOWN searches nothing.  Over two
    or more symbols the charge is at least 2**L', so an L' longer than
    budget.bit_length() answers UNKNOWN with no frame (None), before the
    frame's power and row starts are built for a huge cell."""
    if rule.alphabet.size > 1 and _prefix(rule, dims)[1] > budget.bit_length():
        return None, Verdict.UNKNOWN, None
    frame = _decider_frame(rule, dims)
    if frame[-1] > budget:
        return frame, Verdict.UNKNOWN, None
    conflict = _first_conflict(rule, dims, frame)
    return frame, Verdict.TRUE if conflict is None else Verdict.FALSE, conflict


def is_left_expansive(
    automaton: Automaton, dims: ExpansivityDims, *, budget: int = DEFAULT_BUDGET
) -> PropertyVerdict:
    """Decide left expansivity with the given dimensions by exhaustive
    enumeration of patch seeds (lexicographic order, so certificates are
    reproducible).  A negative budget raises OutOfRange; one above
    _BUDGET_CAP acts as the cap.
    """
    budget = _check_budget(budget)
    rule = automaton.rule
    size = rule.alphabet.size
    frame, status, conflict = _decide(rule, dims, budget)
    seed_len, read_len, c, starts, det_index, needed = frame or _decider_frame(rule, dims)
    seed_space = size**seed_len
    name = f"left-expansive({dims.h},{dims.d},{dims.w})"
    if status is Verdict.UNKNOWN:
        return PropertyVerdict(
            name, status, dims, size, 0, seed_space, evals_needed=needed, budget=budget,
        )
    if status is Verdict.TRUE:
        return PropertyVerdict(name, status, dims, size, seed_space, seed_space)
    first, j, ref, ref_val, rows, rect = conflict
    pad, n_rows, w = seed_len - read_len, len(starts), dims.w
    top_a = rows[0][:, ref - first] if ref >= first else \
        next(_patches(rule, read_len, 0, ref, ref + 1, 1))[1][0][:, 0]
    column = rect[:, j].tobytes()  # the rectangle's rows, w symbols each
    cex = Counterexample(
        seed_a=top_a.tobytes() + bytes(pad),
        seed_b=rows[0][:, j].tobytes() + bytes(pad),
        rectangle=tuple(column[k:k + w] for k in range(0, n_rows * w, w)),
        value_a=ref_val, value_b=int(rows[dims.h][det_index][j]),
        rect_col=c, det_col=c - 1, ref_row=dims.h,
    )
    return PropertyVerdict(name, Verdict.FALSE, dims, size,
                           (first + j) * size**pad + 1, seed_space, counterexample=cex)


@dataclass(frozen=True)
class DimsSearch:
    """Result of a bounded search for left-expansive dimensions."""

    dims: Optional[ExpansivityDims]
    budget_exceeded: bool
    cells_checked: int


def find_left_expansive_dims(
    automaton: Automaton,
    max_h: int,
    max_d: int,
    max_w: int,
    *,
    budget: int = DEFAULT_BUDGET,
) -> DimsSearch:
    """Smallest proved dimensions with h <= max_h, d <= max_d and
    1 <= w <= max_w (ordered by h+d+w, then h, then d), or none; max_h=0
    searches height-0 rectangles only.  Budget exhaustion never raises; it
    is reported in the result.

    The top corner (max_h, max_d, max_w) is decided first, and a False
    there refutes every cell (see the module docstring), which ends the
    search with all (max_h+1)*(max_d+1)*max_w cells counted and none listed.
    Otherwise the cells are listed lazily, level h+d+w by level, and each is
    decided, the corner's status being reused for the corner; a cell over
    budget answers Unknown and sets budget_exceeded.  The charge is monotone
    in each coordinate and every cell above a level contains a cell of that
    level, so once every cell of a level is over budget, so is every later
    cell, and the search stops there.  cells_checked is the position of the
    answer in the order, or the number of cells when there is none, so the
    result is that of deciding every cell in turn.  Deciding the corner
    first adds a decider run only when the corner is expansive, a proof that
    exhausts its seed space, and a smaller cell is the answer.
    """
    budget = _check_budget(budget)
    if max_h < 0 or max_d < 0 or max_w < 0:
        raise BadDims("search bounds must be nonnegative")
    count = (max_h + 1) * (max_d + 1) * max_w
    if count == 0:
        return DimsSearch(None, False, 0)
    top = ExpansivityDims(max_h, max_d, max_w)  # the only cell with the largest h+d+w
    top_status = _decide(automaton.rule, top, budget)[1]
    if top_status is Verdict.FALSE:
        return DimsSearch(None, False, count)
    budget_hit, checked = False, 0
    for level in range(1, max_h + max_d + max_w + 1):
        fits = False  # some cell of this level is within budget
        for h in range(min(max_h, level - 1) + 1):
            for d in range(max(0, level - h - max_w), min(max_d, level - 1 - h) + 1):
                dims = ExpansivityDims(h, d, level - h - d)
                checked += 1
                status = top_status if dims == top else _decide(automaton.rule, dims, budget)[1]
                if status is Verdict.TRUE:
                    return DimsSearch(dims, budget_hit, checked)
                budget_hit |= status is Verdict.UNKNOWN
                fits |= status is Verdict.FALSE
        if not fits:
            break
    return DimsSearch(None, budget_hit, count)


# -- left spreading ------------------------------------------------------------


def is_left_spreading_eca(rule: LocalRule) -> bool:
    """Exact criterion for binary radius-1 rules: the neighborhood 001 must
    map to 1 (and then the spreading speed is exactly 1)."""
    if rule.alphabet.size != 2 or (rule.memory, rule.anticipation) != (1, 1):
        raise NotECA("the spreading criterion applies to binary (1,1) rules")
    return rule.table[1] == 1


def _left_spreading_search(rule: LocalRule, budget: int) -> tuple[Verdict, int, int]:
    """The uniform-witness search of the module docstring on a quiescent rule:
    (TRUE, witness t, start words at t), (FALSE, t, start words) when no edge
    ever moves left, or (UNKNOWN, the first t over budget, 0)."""
    budget = _check_budget(budget)
    size, m, n = rule.alphabet.size, rule.memory, rule.anticipation
    if n == 0:  # every cell left of the edge reads only zeros
        return Verdict.FALSE, 0, 0
    spent, t = 0, 1
    while True:
        first, last = size ** (t * n - 1), size ** (t * n)
        spent += (last - first) * _cells(t * (m + 2 * n), t, m + n)
        if spent > budget:
            return Verdict.UNKNOWN, t, 0
        moved = 0
        for _, rows in _patches(rule, t * (m + 2 * n), t, first, last, _CHUNK):
            hits = rows[-1].any(axis=0)
            moved += int(np.count_nonzero(hits))
            if t > 1 and not hits.all():  # no witness; a No needs every word at t = 1
                break
        if moved == last - first:
            return Verdict.TRUE, t, moved
        if moved == 0 and t == 1:
            return Verdict.FALSE, t, last - first
        t += 1


def _check_spreading_args(rule: LocalRule, horizon: int):
    if horizon < 0:
        raise OutOfRange("horizon must be nonnegative")
    if rule.table[0] != 0:
        raise ZeroNotQuiescent("rule does not map the all-zero neighborhood to 0")


def _edge_trajectory(automaton: Automaton, x: Configuration, horizon: int):
    """(t, left edge of F^t(x)) for t = 1 .. horizon, read off the raw states
    of the orbit walker, stopping at the zero configuration, where the orbit
    stays.  The rule is quiescent and x number-like, so every state's left
    period is 0 and its edge is the first nonzero symbol of the head, else,
    when the head is all zeros, of the right period."""
    states = _states(automaton, x, horizon + 1)
    next(states)  # x itself
    for t, (anchor, _, head, rp) in enumerate(states, 1):
        edge = anchor + len(head) - len(head.lstrip(b"\x00"))
        if edge == anchor + len(head):
            rest = rp.lstrip(b"\x00")
            if not rest:
                return
            edge += len(rp) - len(rest)
        yield t, edge


def left_spreading_witnesses(
    automaton: Automaton, samples: Sequence[Configuration], horizon: int
) -> list[Optional[int]]:
    """For each number-like sample, the least t <= horizon at which the left
    edge has moved left, or None.

    None is evidence against left spreading at this horizon, never a proof:
    the property is semi-decidable.
    """
    _check_spreading_args(automaton.rule, horizon)
    out: list[Optional[int]] = []
    for x in samples:
        base = left_edge(x)
        moves = (t for t, edge in _edge_trajectory(automaton, x, horizon) if edge < base)
        out.append(next(moves, None))
    return out


@dataclass(frozen=True)
class SpeedEstimate:
    """Tail-windowed spreading speed measured on samples.

    Each sample contributes max over horizon/2 <= t <= horizon of
    (edge(x) - edge(F^t x)) / t, computed as an exact rational; the
    aggregate is the maximum over samples.  The tail window damps the
    transient bias of early steps.
    """

    samples: int
    horizon: int
    per_sample: tuple[Optional[Fraction], ...]
    estimate: Fraction


def estimate_spreading_speed(
    automaton: Automaton, samples: Sequence[Configuration], horizon: int
) -> SpeedEstimate:
    _check_spreading_args(automaton.rule, horizon)
    per_sample: list[Optional[Fraction]] = []
    for x in samples:
        base = left_edge(x)
        best = None  # the largest (base - edge, t) seen, compared as (base - edge) / t
        for t, edge in _edge_trajectory(automaton, x, horizon):
            if 2 * t >= horizon and (best is None or (base - edge) * best[1] > best[0] * t):
                best = base - edge, t
        per_sample.append(None if best is None else Fraction(*best))
    rates = [r for r in per_sample if r is not None]
    estimate = max(rates) if rates else Fraction(0)
    return SpeedEstimate(len(per_sample), horizon, tuple(per_sample), estimate)


# -- rapid classification --------------------------------------------------------


@dataclass(frozen=True)
class RapidClassification:
    verdict: str  # "Yes" | "No" | "Unknown"
    dims: Optional[ExpansivityDims]
    speed_basis: Optional[str]  # "exact-family" | "uniform-witness"
    reason: str

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "dims": [self.dims.h, self.dims.d, self.dims.w] if self.dims else None,
            "speed_basis": self.speed_basis,
            "reason": self.reason,
        }


def _is_fractional_multiplication(trimmed: LocalRule) -> bool:
    """True iff the trimmed rule is the multiply-by-p/q automaton for some
    coprime p > q > 1 with p*q equal to the alphabet size.  Only a (1,1)
    rule is compared, and a candidate too large to compose is no match."""
    if (trimmed.memory, trimmed.anticipation) != (1, 1):
        return False
    size = trimmed.alphabet.size
    for q in range(2, isqrt(size) + 1):
        p, rest = divmod(size, q)
        if rest == 0 and p > q and gcd(p, q) == 1:
            with suppress(TableTooLarge):
                if trimmed == fractional_multiplication_rule(MulSpec(p, q)).rule:
                    return True
    return False


def classify_rapid(
    automaton: Automaton,
    search_bounds: tuple[int, int, int] = DEFAULT_BOUNDS,
    *,
    budget: int = DEFAULT_BUDGET,
) -> RapidClassification:
    """Classify an automaton as rapidly left expansive: left expansive with
    dimensions (h, d, w), left spreading with speed s, and s < 1/h.

    Two families are recognized by their tables: the shift (speed 1, least
    expansive height 1) is No, and the multiplication family (speed
    log_pq(p/q) < 1 = 1/h at (1,1,1)) is Yes.  Any other rule is No when the
    exact spreading search of the module docstring refutes spreading, and Yes
    when it finds a witness and a height-0 rectangle is proved, since any
    speed is below 1/0.  Height > 0 is never Yes: s < 1/h needs the exact speed.
    Of search_bounds (H, D, W) only D and W are searched, since a Yes from
    the uniform witness needs height 0.  A negative bound raises BadDims.
    """
    budget = _check_budget(budget)
    if min(search_bounds) < 0:
        raise BadDims("search bounds must be nonnegative")
    rule = automaton.rule
    if rule.alphabet.size == 1:
        return RapidClassification("No", None, None,
                                   "single-symbol alphabet has no number-like configurations")
    if rule.table[0] != 0:
        return RapidClassification("No", None, None,
                                   "zero is not quiescent, so the automaton is not left spreading")
    trimmed = trim_vacuous(rule)
    if trimmed == shift_rule(rule.alphabet).rule:
        return RapidClassification(
            "No", ExpansivityDims(1, 0, 1), "exact-family",
            "the shift spreads with speed 1 and its least expansive height is 1, so s = 1/h")
    if _is_fractional_multiplication(trimmed):
        return RapidClassification(
            "Yes", ExpansivityDims(1, 1, 1), "exact-family",
            "fractional multiplication automaton: expansive at (1,1,1) with speed "
            "log_pq(p/q) < 1 = 1/h")
    status, t, words = _left_spreading_search(trimmed, budget)
    if status is Verdict.UNKNOWN:
        return RapidClassification("Unknown", None, None,
                                   f"budget exhausted before spreading search t={t}")
    searched = f"spreading search t={t}, start words checked: {words}"
    if status is Verdict.FALSE:
        why = "the trimmed rule reads nothing to its right" if t == 0 else searched
        return RapidClassification("No", None, None, f"no left edge ever moves left ({why})")
    _, max_d, max_w = search_bounds
    found = find_left_expansive_dims(automaton, 0, max_d, max_w, budget=budget)
    if found.dims is not None:
        return RapidClassification("Yes", found.dims, "uniform-witness",
                                   f"uniform witness ({searched}) and a proved height-0 rectangle")
    why = "budget exhausted searching height-0 rectangles" if found.budget_exceeded else \
        "no height-0 rectangle within bounds, and height > 0 needs the exact speed"
    return RapidClassification("Unknown", None, None, f"uniform witness ({searched}), but {why}")
