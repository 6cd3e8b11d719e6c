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

The decider enumerates every word of length L = (w+1) + 2r(h+d) as the top
row of a patch (r being the automaton radius).  The top row of a rectangle
placement may be row 0 of a diagram, which is an arbitrary configuration, so
the enumeration covers every instance: any conflicting pair of seeds
zero-extends to two genuine diagrams violating the implication, and
conversely deeper placements only ever see a subset of the enumerated top
rows.  The verdict is therefore exact, not a heuristic.

Seeds are enumerated in lexicographic chunks: 256 at first, doubling up to
1024, so an early False stays cheap and memory stays bounded.  A chunk is a
uint8 digit matrix with one seed per column (rules._lex_words); its patch
rows grow by table lookup on the whole matrix at once
(rules.lookup_windows), and each seed is keyed by its rectangle as
fixed-width bytes.  np.unique finds the first occurrence of every key
inside the chunk, and a sorted table carried from chunk to chunk holds, for
each key met before, its determined value and the first seed that produced
it.  The first seed whose value differs from its
key's reference is the first conflict of the one-seed-at-a-time search, so
seeds_checked and the counterexample pair do not depend on the chunking.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, isqrt
from typing import Optional, Sequence, Union

import numpy as np

from .configuration import Configuration, left_edge
from .errors import BadDims, IncompatibleRule, NotECA, OutOfRange, ZeroNotQuiescent
from .numeric import MulSpec, fractional_multiplication_rule
from .rules import (
    Automaton,
    LocalRule,
    _lex_words,
    identity_rule,
    lookup_windows,
    orbit,
    shift_inverse_rule,
    shift_rule,
    trim_vacuous,
)
from .words import format_word

#: default number of table evaluations a decider call may spend
DEFAULT_BUDGET = 10**8

#: seeds in the decider's first chunk; each later chunk doubles, up to the cap
_FIRST_CHUNK = 256
_CHUNK_CAP = 2**10


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
    FALSE carries a replayable counterexample; UNKNOWN reports the budget
    that was not sufficient.
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


def _as_rule(rule_or_automaton: Union[LocalRule, Automaton]) -> LocalRule:
    if isinstance(rule_or_automaton, Automaton):
        return rule_or_automaton.rule
    return rule_or_automaton


def is_left_permutive(
    rule: Union[LocalRule, Automaton],
    memory: Optional[int] = None,
    anticipation: Optional[int] = None,
) -> bool:
    """True iff fixing the last memory+anticipation neighborhood symbols
    always leaves a bijection in the leftmost one.

    The rule is re-expressed with the requested (memory, anticipation) by
    padding vacuous positions when possible; a padded leftmost position makes
    the leftmost section constant, hence not bijective on alphabets with
    more than one symbol.
    """
    rule = _as_rule(rule)
    if memory is None:
        memory = rule.memory
    if anticipation is None:
        anticipation = rule.anticipation
    if memory < 1:
        raise BadDims("left permutivity requires memory >= 1")
    trimmed = trim_vacuous(rule)
    if memory < trimmed.memory or anticipation < trimmed.anticipation:
        raise IncompatibleRule(
            f"rule genuinely depends on ({trimmed.memory},{trimmed.anticipation}); "
            f"cannot re-express as ({memory},{anticipation})"
        )
    size = rule.alphabet.size
    if memory > trimmed.memory:
        return size == 1
    table = trimmed.table
    chunk = len(table) // size
    for rest in range(chunk):
        if len({table[a * chunk + rest] for a in range(size)}) != size:
            return False
    return True


def is_left_expansive(
    automaton: Automaton, dims: ExpansivityDims, *, budget: int = DEFAULT_BUDGET
) -> PropertyVerdict:
    """Decide left expansivity with the given dimensions by exhaustive
    enumeration of patch seeds (lexicographic order, so certificates are
    reproducible).
    """
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
    # rectangle placement within the patch: seed occupies columns
    # [0, seed_len-1]; patch row k covers [k*m, seed_len-1-k*n]; the left
    # rectangle column must clear every row's left end and leave room for
    # the determined cell in the reference row
    c = max((n_rows - 1) * m, dims.h * m + 1)
    starts = [c - k * m for k in range(n_rows)]
    det_index = (c - 1) - dims.h * m
    w = dims.w
    key_type = np.dtype((np.void, n_rows * w))
    # every rectangle met in earlier chunks, sorted by key, with its
    # determined value and the first seed that produced it
    known_keys = np.empty(0, dtype=key_type)
    known_vals = np.empty(0, dtype=np.uint8)
    known_seeds = np.empty(0, dtype=np.int64)
    first, count = 0, _FIRST_CHUNK
    while first < seed_space:
        count = min(count, seed_space - first)
        rows = [_lex_words(first, count, size, seed_len)]
        for _ in range(n_rows - 1):
            rows.append(lookup_windows(rule, rows[-1]))
        rect = np.concatenate([rows[k][starts[k]:starts[k] + w] for k in range(n_rows)])
        keys = np.ascontiguousarray(rect.T).view(key_type).ravel()
        vals = rows[dims.h][det_index]
        uniq, where, inverse = np.unique(keys, return_index=True, return_inverse=True)
        pos = np.searchsorted(known_keys, uniq)
        known = pos < len(known_keys)
        known[known] = known_keys[pos[known]] == uniq[known]
        # each key's reference: its entry from an earlier chunk, else its
        # first seed in this one
        ref_vals = vals[where]
        ref_seeds = where + first
        ref_vals[known] = known_vals[pos[known]]
        ref_seeds[known] = known_seeds[pos[known]]
        clash = vals != ref_vals[inverse]
        if clash.any():
            j = int(clash.argmax())
            seed_a = _lex_words(int(ref_seeds[inverse[j]]), 1, size, seed_len).tobytes()
            cex = Counterexample(
                seed_a=seed_a, seed_b=rows[0][:, j].tobytes(),
                rectangle=tuple(rows[k][starts[k]:starts[k] + w, j].tobytes()
                                for k in range(n_rows)),
                value_a=int(ref_vals[inverse[j]]), value_b=int(vals[j]),
                rect_col=c, det_col=c - 1, ref_row=dims.h,
            )
            return PropertyVerdict(name, Verdict.FALSE, dims, size, first + j + 1, seed_space,
                                   counterexample=cex)
        new = ~known
        known_keys = np.insert(known_keys, pos[new], uniq[new])
        known_vals = np.insert(known_vals, pos[new], ref_vals[new])
        known_seeds = np.insert(known_seeds, pos[new], ref_seeds[new])
        first += count
        count = min(2 * count, _CHUNK_CAP)
    return PropertyVerdict(name, Verdict.TRUE, dims, size, seed_space, seed_space)


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
    """
    if max_h < 0 or max_d < 0 or max_w < 0:
        raise BadDims("search bounds must be nonnegative")
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


# -- left spreading ------------------------------------------------------------


def is_left_spreading_eca(rule: Union[LocalRule, Automaton]) -> bool:
    """Exact criterion for binary radius-1 rules: the neighborhood 001 must
    map to 1 (and then the spreading speed is exactly 1)."""
    rule = _as_rule(rule)
    if rule.alphabet.size != 2 or (rule.memory, rule.anticipation) != (1, 1):
        raise NotECA("the spreading criterion applies to binary (1,1) rules")
    return rule.table[1] == 1


def _check_spreading_args(rule: LocalRule, horizon: int):
    if horizon < 0:
        raise OutOfRange("horizon must be nonnegative")
    if rule.table[0] != 0:
        raise ZeroNotQuiescent("rule does not map the all-zero neighborhood to 0")


def _edge_trajectory(automaton: Automaton, x: Configuration, horizon: int):
    """(t, left edge of F^t(x)) for t = 1 .. horizon, stopping at the zero
    configuration: the rule is quiescent, so the orbit stays there."""
    images = orbit(automaton, x)
    next(images)  # x itself
    for t, y in zip(range(1, horizon + 1), images):
        if y.is_zero:
            return
        yield t, left_edge(y)


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
    """Tail-windowed empirical spreading speed.

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
        ratios = (Fraction(base - edge, t)
                  for t, edge in _edge_trajectory(automaton, x, horizon) if 2 * t >= horizon)
        per_sample.append(max(ratios, default=None))
    rates = [r for r in per_sample if r is not None]
    estimate = max(rates) if rates else Fraction(0)
    return SpeedEstimate(len(per_sample), horizon, tuple(per_sample), estimate)


# -- rapid classification --------------------------------------------------------


@dataclass(frozen=True)
class RapidClassification:
    verdict: str  # "Yes" | "No" | "Unknown"
    dims: Optional[ExpansivityDims]
    speed_basis: Optional[str]  # "exact-family" | "empirical"
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
    coprime p > q > 1 with p*q equal to the alphabet size."""
    size = trimmed.alphabet.size
    for q in range(2, isqrt(size) + 1):
        p, rest = divmod(size, q)
        if rest == 0 and p > q and gcd(p, q) == 1 \
                and trimmed == fractional_multiplication_rule(MulSpec(p, q)).rule:
            return True
    return False


def classify_rapid(
    automaton: Automaton,
    search_bounds: tuple[int, int, int] = (2, 2, 4),
    *,
    budget: int = DEFAULT_BUDGET,
    spreading_horizon: int = 64,
) -> RapidClassification:
    """Classify an automaton as rapidly left expansive: left expansive with
    dimensions (h, d, w), left spreading with speed s, and s < 1/h.

    Yes is only ever certified from exact knowledge of the speed: height-0
    dimensions make any speed qualify (1/0 is infinite), the multiplication
    family has speed log_pq(p/q) < 1 = 1/h, and spreading binary radius-1
    rules have speed exactly 1.  An empirical speed estimate never upgrades
    a height > 0 case to Yes, because s < 1/h is a strict inequality on a
    quantity a finite run can only estimate.
    """
    rule = automaton.rule
    size = rule.alphabet.size
    if size == 1:
        return RapidClassification("No", None, None,
                                   "single-symbol alphabet has no number-like configurations")
    if rule.table[0] != 0:
        return RapidClassification("No", None, None,
                                   "zero is not quiescent, so the automaton is not left spreading")
    trimmed = trim_vacuous(rule)
    if trimmed == identity_rule(rule.alphabet).rule:
        return RapidClassification("No", None, None,
                                   "identity automaton never moves the left edge")
    if trimmed == LocalRule(rule.alphabet, 0, 0, bytes(size)):
        return RapidClassification("No", None, None,
                                   "constant-to-zero automaton erases every configuration")
    if trimmed == shift_rule(rule.alphabet).rule:
        return RapidClassification(
            "No", ExpansivityDims(1, 0, 1), "exact-family",
            "the shift spreads with speed 1 and its least expansive height is 1, so s = 1/h")
    if trimmed == shift_inverse_rule(rule.alphabet).rule:
        return RapidClassification("No", None, None,
                                   "inverse shift moves the left edge right, never left")
    if _is_fractional_multiplication(trimmed):
        return RapidClassification(
            "Yes", ExpansivityDims(1, 1, 1), "exact-family",
            "fractional multiplication automaton: expansive at (1,1,1) with speed "
            "log_pq(p/q) < 1 = 1/h")
    max_h, max_d, max_w = search_bounds
    if size == 2 and (rule.memory, rule.anticipation) == (1, 1):
        if rule.table[1] != 1:
            return RapidClassification("No", None, None,
                                       "binary radius-1 rule maps 001 to 0: not left spreading")
        found = find_left_expansive_dims(automaton, 0, max_d, max_w, budget=budget)
        if found.dims is not None:
            return RapidClassification(
                "Yes", found.dims, "exact-family",
                "spreading binary radius-1 rule (speed exactly 1) with a height-0 rectangle")
        why = "budget exhausted searching height-0 rectangles" if found.budget_exceeded else \
            "no height-0 rectangle within bounds; speed is exactly 1, so height >= 1 cannot qualify"
        return RapidClassification("Unknown", None, None, why)
    found = find_left_expansive_dims(automaton, 0, max_d, max_w, budget=budget)
    if found.dims is not None:
        sample = Configuration.single(rule.alphabet, 1)
        witness = left_spreading_witnesses(automaton, [sample], spreading_horizon)[0]
        if witness is not None:
            return RapidClassification(
                "Yes", found.dims, "empirical",
                f"height-0 rectangle proved and a spreading witness found at t={witness}")
        return RapidClassification(
            "Unknown", found.dims, None,
            f"height-0 rectangle proved but no spreading witness within t <= {spreading_horizon}")
    why = "budget exhausted searching height-0 rectangles" if found.budget_exceeded else \
        "no height-0 rectangle within bounds and no exact speed knowledge for height > 0"
    return RapidClassification("Unknown", None, None, why)
