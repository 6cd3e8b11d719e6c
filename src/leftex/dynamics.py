"""Periodicity certificates, aperiodicity scans, factor counting, exact
recurrence scans, limit-point censuses and the combinatorial bound
calculators.

A period certificate (preperiod c, period p) is only ever reported when the
materialized prefix is long enough to witness the period at least twice past
the preperiod (L >= c + 2p); "no period found" is always bounded evidence
relative to the scan's (max_c, max_p, horizon), never a proof of
aperiodicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .configuration import Configuration, _window, fractional_part
from .errors import InsufficientHorizon, NotNumberLike, OutOfRange, PrefixTooShort
from .properties import ExpansivityDims
from .rules import _MAX_PREFIX, Automaton, _states, columns

#: bytes of adjacent-pair comparisons a census makes per block
_PAIR_BLOCK = 2**20


@dataclass(frozen=True)
class PeriodCertificate:
    """seq[t + period] == seq[t] for all preperiod <= t < verified_up_to - period."""

    preperiod: int
    period: int
    verified_up_to: int

    def to_json_dict(self) -> dict:
        return {
            "preperiod": self.preperiod,
            "period": self.period,
            "verified_up_to": self.verified_up_to,
        }


def _check_period_bounds(max_c: int, max_p: int) -> None:
    if max_c < 0 or max_p < 1:
        raise OutOfRange(f"need max_c >= 0 and max_p >= 1, got {max_c} and {max_p}")


def detect_eventual_period(
    prefix: Sequence, max_c: int, max_p: int
) -> Optional[PeriodCertificate]:
    """Smallest (preperiod, then period) certificate within the bounds.

    For preperiod c the least period that can be certified is the smallest
    period p of the suffix prefix[c:], if p <= max_p and 2p fits in the
    suffix: every other period of the suffix is larger.  The smallest period
    of a word of length k is k minus its longest proper border, the same
    for the word read backwards, so one prefix-function pass over the
    reversed prefix gives it for every suffix at once, and the first c that
    qualifies is the answer.  The cost is O(length + max_c) comparisons.
    """
    length = len(prefix)
    if length < 1:
        raise OutOfRange("prefix must be nonempty")
    _check_period_bounds(max_c, max_p)
    rev = prefix[::-1]
    border = [0] * length  # border[k]: longest proper border of rev[:k+1]
    for k in range(1, length):
        b = border[k - 1]
        while b and rev[k] != rev[b]:
            b = border[b - 1]
        border[k] = b + 1 if rev[k] == rev[b] else 0
    for c in range(min(max_c, length - 1) + 1):
        k = length - c
        p = k - border[k - 1]
        if p <= max_p and 2 * p <= k:
            return PeriodCertificate(c, p, length)
    return None


@dataclass(frozen=True)
class AperiodicityReport:
    """Bounded-evidence outcome of a trace periodicity scan."""

    interval: tuple[int, int]
    horizon: int
    max_c: int
    max_p: int
    certificate: Optional[PeriodCertificate]

    @property
    def period_found(self) -> bool:
        return self.certificate is not None

    @property
    def outcome(self) -> str:
        return "PeriodFound" if self.period_found else "NoPeriodFound"

    def to_json_dict(self) -> dict:
        return {
            "interval": list(self.interval),
            "horizon": self.horizon,
            "max_c": self.max_c,
            "max_p": self.max_p,
            "outcome": self.outcome,
            "certificate": self.certificate.to_json_dict() if self.certificate else None,
        }


def aperiodicity_scan(
    automaton: Automaton,
    x: Configuration,
    i: int,
    j: int,
    horizon: int,
    max_c: int,
    max_p: int,
) -> AperiodicityReport:
    """Materialize the first ``horizon`` column words over [i, j] and search
    for an eventual period.  NoPeriodFound means every (c, p) with
    c <= max_c, p <= max_p and c + 2p <= horizon fails on the prefix.  The
    horizon and the bounds are checked before any row is computed.
    """
    if not x.is_number_like:
        raise NotNumberLike("aperiodicity scans are defined for number-like configurations")
    if horizon < 1:
        raise OutOfRange("horizon must be at least 1")
    _check_period_bounds(max_c, max_p)
    rows = list(columns(automaton, x, i, j, horizon))
    cert = detect_eventual_period(rows, max_c, max_p)
    return AperiodicityReport((i, j), horizon, max_c, max_p, cert)


def subword_complexity(prefix: Sequence, n: int) -> int:
    """Number of distinct length-n factors of the prefix."""
    if n < 1:
        raise OutOfRange("factor length must be at least 1")
    if len(prefix) < n:
        raise PrefixTooShort(f"prefix of length {len(prefix)} has no factors of length {n}")
    return len({tuple(prefix[k:k + n]) for k in range(len(prefix) - n + 1)})


def recurrence_scan(
    automaton: Automaton, x: Configuration, c: int, horizon: int
) -> list[int]:
    """All t in [1, horizon] at which the one-sided sequence from index c
    returns exactly (as an infinite object) to its initial value.

    x's own tail is canonicalized once, as (head h, period p).  The tail of
    a raw state (anchor, lp, head, rp) of the orbit walker is periodic with
    period len(rp) from index P = anchor + len(head) - c on, so by Fine and
    Wilf the two tails are equal iff they agree on their first
    max(len(h), P) + len(p) + len(rp) symbols: one comparison of bytes per
    step, after a shorter one on the first len(h) + len(p) symbols rejects
    most steps, with no object built per step.  A tail whose head, the
    cells c .. anchor + len(head) - 1 of x, is longer than _MAX_PREFIX
    raises OutOfRange before the tail is built."""
    if horizon < 1:
        raise OutOfRange("horizon must be at least 1")
    if x.anchor + len(x.head) - c > _MAX_PREFIX:
        raise OutOfRange(f"tails with a head longer than {_MAX_PREFIX} cells are not supported")
    states = _states(automaton, x, horizon + 1)
    next(states)  # x's own state
    target = fractional_part(x, c)
    h, p = len(target.head), len(target.period)
    short = target.head + target.period
    out = []
    for t, state in enumerate(states, 1):
        if _window(*state, c, c + h + p - 1) == short:
            n = max(h, state[0] + len(state[2]) - c) + p + len(state[3])
            if _window(*state, c, c + n - 1) == target.prefix(n):
                out.append(t)
    return out


def limit_point_census(
    automaton: Automaton,
    x: Configuration,
    c: int,
    horizon: int,
    lengths: Sequence[int],
) -> dict[int, int]:
    """Distinct length-n prefixes of the sequence from index c seen over the
    tail window t in [ceil(horizon/2), horizon], for each requested n.

    The tail window operationalizes "occurs at arbitrarily large times"; the
    census can suggest an abundance of limit points but a finite run can
    never certify infinitude, so only the counts are returned.  Only the
    distinct n_max-words are kept: their n-prefixes are the n-prefixes seen.
    Sorted, two adjacent words share their n-prefix iff they first differ
    at n or later, so the count for n is 1 plus the adjacent pairs that
    first differ before n: one sort and one vectorized mismatch pass, in
    blocks of _PAIR_BLOCK bytes, serve every length.  A length above
    _MAX_PREFIX raises OutOfRange before any is listed.
    """
    if horizon < 0:
        raise OutOfRange("horizon must be nonnegative")
    if any(n > _MAX_PREFIX for n in lengths):
        raise OutOfRange(f"prefix lengths above {_MAX_PREFIX} are not supported")
    lengths = sorted(set(lengths))
    if not lengths:
        return {}
    if lengths[0] < 1:
        raise OutOfRange("prefix lengths must be at least 1")
    n_max = lengths[-1]
    seen = {w for t, w in enumerate(columns(automaton, x, c, c + n_max - 1, horizon + 1))
            if 2 * t >= horizon}
    kept = np.frombuffer(b"".join(sorted(seen)), dtype=np.uint8).reshape(len(seen), n_max)
    before, after = kept[:-1], kept[1:]
    firsts = np.empty(len(before), dtype=np.intp)
    step = max(1, _PAIR_BLOCK // n_max)
    for j in range(0, len(before), step):
        firsts[j:j + step] = (after[j:j + step] != before[j:j + step]).argmax(axis=1)
    firsts.sort()
    return {n: 1 + int(k) for n, k in zip(lengths, np.searchsorted(firsts, lengths))}


def propagation_check(
    automaton: Automaton,
    dims: ExpansivityDims,
    x: Configuration,
    i: int,
    certificate: PeriodCertificate,
    horizon: int,
) -> bool:
    """Check that a period certificate for the trace over [i, i+w-1]
    propagates one column leftward with preperiod c + h.

    Callers are responsible for the automaton actually being left expansive
    with ``dims``; the certificate itself is re-validated against the base
    trace before the propagated window is checked.  A period below 1, which
    compares each row with itself, or a negative preperiod, which would
    index rows from the end, raises OutOfRange before any row is computed.
    """
    c, p = certificate.preperiod, certificate.period
    if p < 1 or c < 0:
        raise OutOfRange(f"need preperiod >= 0 and period >= 1, got {c} and {p}")
    if horizon < c + dims.h + 2 * p:
        raise InsufficientHorizon(
            f"horizon {horizon} < preperiod {c} + height {dims.h} + 2*period {2 * p}"
        )
    rows = list(columns(automaton, x, i - 1, i + dims.w - 1, horizon))
    if any(rows[t][1:] != rows[t + p][1:] for t in range(c, horizon - p)):
        raise OutOfRange("certificate does not hold on the base trace")
    w = dims.w  # row t is F^t(x)[i-1 .. i+w-1]: [1:] is the base trace, [:w] the propagated one
    return all(rows[t][:w] == rows[t + p][:w] for t in range(c + dims.h, horizon - p))


# -- bound calculators -----------------------------------------------------------


def repetition_count_bound(alphabet_size: int, t: int, w: int, h: int, d: int) -> int:
    """Least N with (h+d) * alphabet_size**(t*w) <= t*N."""
    if alphabet_size < 1 or t < 1 or w < 1 or h < 0 or d < 0:
        raise OutOfRange("need alphabet_size, t, w >= 1 and h, d >= 0")
    k = alphabet_size ** (t * w)
    return -(-(h + d) * k // t)


def preperiod_bound(m: int, e: int) -> int:
    """Preperiod m*(e-1) for an automaton with memory m that is left
    expansive with equal height and depth e."""
    if m < 0 or e < 1:
        raise OutOfRange("need memory >= 0 and e >= 1")
    return m * (e - 1)
