"""The three seeded workloads: numbers, decide and orbits.

Each workload turns a seed into a fixed list of ops (plain data: ints,
Fractions, bytes), builds its automata in ``setup`` from freshly imported
leftex modules, runs one public call per op, and checks each result exactly.
The program only ever sees the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import statistics
from fractions import Fraction
from math import gcd

import oracle


def log_strata(rng, count, lo, hi):
    """One log-uniform draw from the middle fifth of each of ``count`` equal
    strata of [lo, hi], in ascending order; stratifying keeps the size mix,
    and so the cost, alike from seed to seed."""
    return [lo * (hi / lo) ** ((k + 0.4 + 0.2 * rng.random()) / count) for k in range(count)]


def spread(values):
    """min / median / p90 / max of a list of numbers, for the input record."""
    values = sorted(values)
    if not values:
        return {}
    p90 = values[min(len(values) - 1, (9 * len(values)) // 10)]
    return {"n": len(values), "min": values[0], "median": statistics.median(values),
            "p90": p90, "max": values[-1]}


class Op:
    __slots__ = ("kind", "args", "verify")

    def __init__(self, kind, args, verify=True):
        self.kind, self.args, self.verify = kind, args, verify


# -- numbers -----------------------------------------------------------------


class Numbers:
    name = "numbers"
    why = ("big-integer digit conversions and canonicalization of 10^3..10^6-symbol words; "
           "properties and dynamics stay idle")
    BASES = (2, 6, 10, 15)
    MUL_SPECS = ((3, 2), (5, 2), (5, 3), (7, 4))
    ROUND_TRIPS_PER_BASE = 48
    VERIFY_PER_SPEC = 16
    STEPS = 8

    @staticmethod
    def _rational(rng, base, period_target, pre, int_digits):
        """A rational with base-``base`` period exactly p - 1 for the first
        suitable prime p >= ``period_target``, preperiod exactly ``pre`` and
        exactly ``int_digits`` integer digits."""
        prime = oracle.full_period_prime(base, int(period_target) + 1)
        period = prime - 1
        q = rng.choice(oracle.prime_factors(base))
        den = prime * q**pre
        rem = rng.randrange(1, den)
        while gcd(rem, den) != 1:
            rem = rng.randrange(1, den)
        ipart = rng.randrange(base ** (int_digits - 1), base**int_digits) if int_digits else 0
        props = {"period": period, "preperiod": pre, "int_digits": int_digits}
        return Fraction(ipart * den + rem, den), props

    def generate(self, seed):
        """The strata of the three properties are paired by one fixed random
        design, so they vary independently across the op list while the seed
        only moves each value within its stratum and draws the digits."""
        rng = random.Random(f"numbers/{seed}")
        design = random.Random("numbers/design")
        ops, props = [], []
        groups = [(base, base, self.ROUND_TRIPS_PER_BASE, (7e5, 3000, 1000)) for base in self.BASES]
        groups += [((p, q), p * q, self.VERIFY_PER_SPEC, (2e4, 200, 60)) for p, q in self.MUL_SPECS]
        for key, base, n, (max_period, max_pre, max_int) in groups:
            periods = log_strata(rng, n, 2, max_period)
            pres = [int(v) - 1 for v in log_strata(rng, n, 1, max_pre + 1)]
            ints = [int(v) - 1 for v in log_strata(rng, n, 1, max_int + 1)]
            pre_order, int_order = design.sample(range(n), n), design.sample(range(n), n)
            for k in range(n):
                xi, p = self._rational(rng, base, periods[k], pres[pre_order[k]],
                                       ints[int_order[k]])
                if key == base:
                    ops.append(Op("round_trip", (xi, base)))
                    props.append(dict(p, kind="round_trip", base=base))
                else:
                    ops.append(Op("verify_mul", key + (xi,)))
                    props.append(dict(p, kind="verify_mul", base=base))
        order = design.sample(range(len(ops)), len(ops))
        return [ops[i] for i in order], self._record([props[i] for i in order])

    @staticmethod
    def _record(props):
        out = {}
        for kind in ("round_trip", "verify_mul"):
            rows = [p for p in props if p["kind"] == kind]
            out[kind] = {
                "ops": len(rows),
                "period": spread([p["period"] for p in rows]),
                "preperiod": spread([p["preperiod"] for p in rows]),
                "int_digits": spread([p["int_digits"] for p in rows]),
                "share_period_ge_2048": sum(p["period"] >= 2048 for p in rows) / len(rows),
                "share_preperiod_ge_1000": sum(p["preperiod"] >= 1000 for p in rows) / len(rows),
            }
        return out

    def setup(self, lx, ops):
        for p, q in self.MUL_SPECS:
            lx.numeric.fractional_multiplication_rule(lx.numeric.MulSpec(p, q))
        return None

    def run(self, lx, ctx, op):
        numeric = lx.numeric
        if op.kind == "round_trip":
            xi, base = op.args
            return numeric.config_to_rational(numeric.rational_to_config(xi, base), base)
        p, q, xi = op.args
        return numeric.verify_mul(numeric.MulSpec(p, q), xi, self.STEPS)

    def check(self, lx, ctx, op, result):
        if op.kind == "round_trip":
            return result == op.args[0]
        return result is True

    def finish_pass(self, lx, ctx, ops, results):
        return []


# -- decide ------------------------------------------------------------------


class Decide:
    name = "decide"
    why = ("exhaustive expansivity deciders: atlas rows repeat height-0 queries, mul:3/2 has "
           "seed spaces up to 1.7e6, random rules exit early on FALSE; numeric stays idle")
    ATLAS_BOUNDS = (2, 2, 4)
    MUL_DIMS = ((1, 1, 1), (1, 1, 2), (2, 1, 1))
    RANDOM_RULES = 48
    RANDOM_SEED_SPACE_CAP = 20_000

    def generate(self, seed):
        rng = random.Random(f"decide/{seed}")
        ops = [Op("atlas", (number,)) for number in range(256)]
        ops += [Op("mul32", dims) for dims in self.MUL_DIMS]
        for k in range(self.RANDOM_RULES):
            permutive = k % 2 == 0
            size = rng.choice((2, 3))
            m, n = (1, rng.choice((0, 1))) if permutive else rng.choice(((1, 1), (1, 0), (0, 1)))
            chunk = size ** (m + n)
            if permutive:
                table = bytearray(size * chunk)
                for rest in range(chunk):
                    perm = rng.sample(range(size), size)
                    for a in range(size):
                        table[a * chunk + rest] = perm[a]
                table = bytes(table)
            else:
                table = bytes(rng.randrange(size) for _ in range(size * chunk))
            while True:
                dims = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(1, 3))
                if self._seed_space(size, max(m, n), dims) <= self.RANDOM_SEED_SPACE_CAP:
                    break
            ops.append(Op("random", (size, m, n, table, dims)))
        rng.shuffle(ops)
        spaces = [self._seed_space(6, 1, op.args) for op in ops if op.kind == "mul32"]
        spaces += [self._seed_space(op.args[0], max(op.args[1:3]), op.args[4])
                   for op in ops if op.kind == "random"]
        record = {
            "atlas_rows": 256,
            "direct_queries": len(spaces),
            "seed_space": spread(spaces),
            "share_seed_space_ge_1e5": sum(s >= 10**5 for s in spaces) / len(spaces),
            "random_rules_left_permutive": self.RANDOM_RULES // 2,
        }
        return ops, record

    @staticmethod
    def _seed_space(size, radius, dims):
        h, d, w = dims
        return size ** ((w + 1) + 2 * radius * (h + d))

    def setup(self, lx, ops):
        rules, numeric = lx.rules, lx.numeric
        ctx = {("atlas", n): rules.eca(n) for n in range(256)}
        ctx["mul32"] = numeric.fractional_multiplication_rule(numeric.MulSpec(3, 2))
        for op in ops:
            if op.kind == "random":
                size, m, n, table, _ = op.args
                rule = rules.LocalRule(lx.configuration.Alphabet(size), m, n, table)
                ctx[op.args] = rules.Automaton(rule)
        return ctx

    def run(self, lx, ctx, op):
        props = lx.properties
        if op.kind == "atlas":
            a = ctx[("atlas", op.args[0])]
            bounds = self.ATLAS_BOUNDS
            return (props.is_left_permutive(a.rule), props.is_left_spreading_eca(a.rule),
                    props.find_left_expansive_dims(a, *bounds, budget=props.DEFAULT_BUDGET),
                    props.classify_rapid(a, bounds, budget=props.DEFAULT_BUDGET))
        if op.kind == "mul32":
            return props.is_left_expansive(ctx["mul32"], props.ExpansivityDims(*op.args))
        return props.is_left_expansive(ctx[op.args], props.ExpansivityDims(*op.args[4]))

    def check(self, lx, ctx, op, result):
        if op.kind == "atlas":
            return self._check_row(op.args[0], *result)
        if op.kind == "mul32":
            return (result.status.value == "True"
                    and result.seed_space == self._seed_space(6, 1, op.args)
                    and result.seeds_checked == result.seed_space)
        size, m, n, _, dims = op.args
        if result.seed_space != self._seed_space(size, max(m, n), dims):
            return False
        status = result.status.value
        if status == "True":
            return result.seeds_checked == result.seed_space
        if status == "False":
            return self._replays(lx, ctx[op.args], m, dims, result.counterexample)
        return status == "Unknown"

    @staticmethod
    def _replays(lx, automaton, m, dims, cex):
        """The counterexample's two patches agree on the rectangle and
        disagree on the determined cell."""
        h, d, w = dims
        rows_a = lx.rules.patch(automaton, cex.seed_a, h + d + 1).rows
        rows_b = lx.rules.patch(automaton, cex.seed_b, h + d + 1).rows
        for k in range(h + d + 1):
            lo = cex.rect_col - k * m
            rect = rows_a[k][lo:lo + w]
            if rect != rows_b[k][lo:lo + w] or rect != cex.rectangle[k]:
                return False
        det = cex.det_col - cex.ref_row * m
        va, vb = rows_a[cex.ref_row][det], rows_b[cex.ref_row][det]
        return va != vb and (va, vb) == (cex.value_a, cex.value_b)

    @staticmethod
    def _check_row(number, permutive, spreading, found, classification):
        """Atlas row consistency, from the Wolfram number alone."""
        if permutive != oracle.is_left_permutive_eca(number):
            return False
        if spreading != bool((number >> 1) & 1):
            return False
        if permutive:
            # every left-permutive ECA is left expansive at (0,1,2)
            dims = found.dims
            if dims is None or dims.h + dims.d + dims.w > 3:
                return False
        verdict = classification.verdict
        if verdict not in ("Yes", "No", "Unknown"):
            return False
        if (number & 1 or not spreading) and verdict != "No":
            return False
        if verdict == "Yes" and (classification.dims is None or classification.dims.h != 0):
            return False
        return True

    def finish_pass(self, lx, ctx, ops, results):
        """The atlas census: 16 left-permutive and 128 left-spreading rules.
        Returns the indices of ops to count as failed."""
        rows = [r for op, r in zip(ops, results) if op.kind == "atlas" and r is not None]
        if len(rows) == 256:
            permutive = sum(bool(r[0]) for r in rows)
            spreading = sum(bool(r[1]) for r in rows)
            if (permutive, spreading) == (16, 128):
                return []
        return [i for i, op in enumerate(ops) if op.kind == "atlas"][-1:]


# -- orbits ------------------------------------------------------------------

ECA_RULES = (30, 110, 54, 90)
MUL_RULES = ((3, 2), (5, 2))
#: classify --json verdicts and dims at the seed commit
EXPECTED_CLASSIFY = {
    "eca:30": ("Yes", [0, 1, 2]),
    "eca:110": ("Unknown", None),
    "eca:54": ("Unknown", None),
    "eca:90": ("Yes", [0, 1, 2]),
    "mul:3/2": ("Yes", [1, 1, 1]),
    "mul:5/2": ("Yes", [1, 1, 1]),
}
_LITERAL = re.compile(r"\[L:([0-9]*)\]\s*([0-9]*)\s*\[R:([0-9]*)\]\s*@(-?\d+)")


def _word(symbols):
    return "".join(str(s) for s in symbols)


class Orbits:
    name = "orbits"
    why = ("long-horizon apply loops on heads growing from 1 to ~2e4 symbols, through "
           "dynamics, render and cli; numeric and properties stay nearly idle")
    #: op kind -> ops per pass
    MIX = {"aperiodicity": 12, "census": 6, "recurrence": 18, "speed": 10,
           "witnesses": 14, "render": 24, "cli": 36}
    CLI_KINDS = ("simulate", "scan-period", "render", "classify")
    #: CLI sub-command -> range of its steps, horizon or rows
    CLI_SIZES = {"simulate": (8, 48), "scan-period": (200, 1500), "render": (16, 128)}
    #: op kind -> range of its horizon (steps or rows)
    HORIZONS = {"census": (500, 10_000), "recurrence": (100, 600), "speed": (50, 1000),
                "witnesses": (16, 512), "render": (16, 256)}
    CHECK_SHARE = 1 / 3

    # -- generation --------------------------------------------------------

    @staticmethod
    def _start(rng, rule, number_like, single=False, zero_background=False):
        """(anchor, left period, head, right period) of a starting point."""
        if rule.startswith("mul:"):
            p, q = map(int, rule[4:].split("/"))
            xi = Fraction(rng.randint(1, 60), rng.randint(1, 60))
            return oracle.rational_parts(xi, p * q)
        anchor = rng.randint(-4, 4)
        if single:
            return anchor, [0], [1], [0]
        head = [1] + [rng.randrange(2) for _ in range(rng.randint(0, 15))]
        if zero_background:
            return anchor, [0], head, [0]
        right = [rng.randrange(2) for _ in range(rng.randint(1, 4))]
        left = [0] if number_like else right
        return anchor, left, head, right

    def generate(self, seed):
        """Rules, start kinds and horizon strata are dealt out in a fixed
        pattern, so that the seed changes the inputs but not their cost mix."""
        rng = random.Random(f"orbits/{seed}")
        rules = [f"eca:{n}" for n in ECA_RULES] + [f"mul:{p}/{q}" for p, q in MUL_RULES]
        ops = []
        for kind, count in self.MIX.items():
            if kind in self.HORIZONS:
                horizons = log_strata(rng, count, *self.HORIZONS[kind])
            for k in range(count):
                verify = rng.random() < self.CHECK_SHARE
                rule = rules[k % len(rules)]
                single = (k // len(rules)) % 2 == 0
                horizon = int(horizons[k]) if kind in self.HORIZONS else None
                if kind == "aperiodicity":
                    i = rng.randint(-2, 2)
                    args = (rule, self._start(rng, rule, True, single), i, i + rng.randint(0, 1),
                            2000)
                elif kind == "census":
                    args = (rule, self._start(rng, rule, False, single), rng.randint(-4, 4),
                            horizon)
                elif kind == "recurrence":
                    rule = rules[k % len(ECA_RULES)]
                    start = self._start(rng, rule, True, single, zero_background=True)
                    c = start[0] + rng.randint(-2, len(start[2]) + 2)
                    args = (rule, start, c, horizon)
                elif kind in ("speed", "witnesses"):
                    starts = tuple(self._start(rng, rule, True, single and j == 0)
                                   for j in range(1 + k % 3))
                    args = (rule, starts, horizon)
                elif kind == "render":
                    args = (rule, self._start(rng, rule, False, single), horizon, -horizon, horizon)
                else:
                    per_sub = count // len(self.CLI_KINDS)
                    stratum = (k // len(self.CLI_KINDS) + 0.4 + 0.2 * rng.random()) / per_sub
                    args = self._cli_args(rng, self.CLI_KINDS[k % len(self.CLI_KINDS)],
                                          rules[(k // len(self.CLI_KINDS)) % len(rules)], single,
                                          stratum)
                ops.append(Op(kind, args, verify))
        rng.shuffle(ops)
        steps = [self._steps(op) for op in ops]
        record = {
            "ops": {kind: count for kind, count in self.MIX.items()},
            "oracle_checked": sum(op.verify for op in ops),
            "steps": spread(steps),
            "share_steps_ge_2000": sum(s >= 2000 for s in steps) / len(steps),
            "share_mul": sum(op.args[0].startswith("mul:") or
                             (op.kind == "cli" and op.args[1].startswith("mul:"))
                             for op in ops) / len(ops),
        }
        return ops, record

    def _cli_args(self, rng, sub, rule, single, stratum):
        """Arguments of one CLI op; ``stratum`` in [0, 1) places its size
        log-uniformly in the sub-command's range."""
        if sub == "classify":
            return ("classify", rule)
        lo, hi = self.CLI_SIZES[sub]
        size = int(lo * (hi / lo) ** stratum)
        start = self._start(rng, rule, True, single)
        if sub == "simulate":
            return ("simulate", rule, start, size)
        if sub == "scan-period":
            i = rng.randint(-2, 2)
            return ("scan-period", rule, start, i, i + rng.randint(0, 1), size)
        return ("render", rule, start, size, -size, size)

    @staticmethod
    def _steps(op):
        a = op.args
        if op.kind == "aperiodicity":
            return a[4]
        if op.kind in ("census", "recurrence"):
            return a[3]
        if op.kind in ("speed", "witnesses"):
            return a[2] * len(a[1])
        if op.kind == "render":
            return a[2]
        if a[0] == "scan-period":
            return a[5]
        return a[3] if a[0] in ("simulate", "render") else 0

    # -- running -----------------------------------------------------------

    def setup(self, lx, ops):
        ctx = {f"eca:{n}": lx.rules.eca(n) for n in ECA_RULES}
        for p, q in MUL_RULES:
            spec = lx.numeric.MulSpec(p, q)
            ctx[f"mul:{p}/{q}"] = lx.numeric.fractional_multiplication_rule(spec)
        return ctx

    @staticmethod
    def _config(lx, automaton, parts):
        anchor, lp, head, rp = parts
        return lx.configuration.Configuration(automaton.alphabet, anchor, bytes(lp), bytes(head),
                                              bytes(rp))

    @staticmethod
    def _literal(parts):
        anchor, lp, head, rp = parts
        return f"[L:{_word(lp)}] {_word(head)} [R:{_word(rp)}] @{anchor}"

    def run(self, lx, ctx, op):
        a = op.args
        if op.kind == "cli":
            return self._run_cli(lx, a)
        automaton = ctx[a[0]]
        if op.kind == "aperiodicity":
            x = self._config(lx, automaton, a[1])
            return lx.dynamics.aperiodicity_scan(automaton, x, a[2], a[3], a[4], 500, 500)
        if op.kind == "census":
            x = self._config(lx, automaton, a[1])
            return lx.dynamics.limit_point_census(automaton, x, a[2], a[3], range(1, 9))
        if op.kind == "recurrence":
            x = self._config(lx, automaton, a[1])
            return lx.dynamics.recurrence_scan(automaton, x, a[2], a[3])
        if op.kind in ("speed", "witnesses"):
            xs = [self._config(lx, automaton, parts) for parts in a[1]]
            fn = (lx.properties.estimate_spreading_speed if op.kind == "speed"
                  else lx.properties.left_spreading_witnesses)
            return fn(automaton, xs, a[2])
        x = self._config(lx, automaton, a[1])
        buf = io.StringIO()
        lx.render.render_to(buf, automaton, x, lx.render.RenderSpec(a[2], a[3], a[4], "pbm"))
        return buf.getvalue()

    def _run_cli(self, lx, a):
        sub, rule = a[0], a[1]
        if sub == "classify":
            argv = ["classify", rule, "--json"]
        elif sub == "simulate":
            argv = ["simulate", rule, self._literal(a[2]), str(a[3])]
        elif sub == "scan-period":
            argv = ["scan-period", rule, self._literal(a[2]), f"--cols={a[3]}:{a[4]}",
                    "--T", str(a[5]), "--max-c", "500", "--max-p", "500", "--json"]
        else:
            argv = ["render", rule, self._literal(a[2]), "--rows", str(a[3]),
                    f"--cols={a[4]}:{a[5]}", "--format", "pbm"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lx.cli.main(argv)
        return code, out.getvalue()

    # -- checking ----------------------------------------------------------

    @staticmethod
    def _table(rule):
        if rule.startswith("eca:"):
            return oracle.eca_table(int(rule[4:])), 2
        p, q = map(int, rule[4:].split("/"))
        return oracle.mul_table(p, q), p * q

    def _rows(self, rule, parts, lo, hi, steps):
        table, size = self._table(rule)
        return oracle.simulate(table, size, parts, lo, hi, steps)

    def _edges(self, rule, parts, steps):
        """Left edge of F^t(x) for t = 0..steps (radius-1 quiescent rules
        move it at most one cell per step, and never right here)."""
        edge0 = oracle.first_nonzero(parts, parts[0] - len(parts[1]) - 1)
        rows = self._rows(rule, parts, edge0 - steps, edge0, steps)
        out = []
        for row in rows:
            nz = next(k for k, s in enumerate(row) if s)
            out.append(edge0 - steps + nz)
        return out

    def check(self, lx, ctx, op, result):
        a = op.args
        kind = op.kind
        if kind == "cli":
            return self._check_cli(a, result, op.verify)
        if kind == "aperiodicity":
            rule, parts, i, j, horizon = a
            if result.horizon != horizon or tuple(result.interval) != (i, j):
                return False
            if not op.verify:
                return True
            cert = result.certificate
            got = (cert.preperiod, cert.period) if cert else None
            rows = self._rows(rule, parts, i, j, horizon - 1)
            return got == oracle.eventual_period(rows, 500, 500)
        if kind == "census":
            rule, parts, c, horizon = a
            values = [result.get(n) for n in range(1, 9)]
            if sorted(result) != list(range(1, 9)) or values != sorted(values) or values[0] < 1:
                return False
            if not op.verify:
                return True
            rows = self._rows(rule, parts, c, c + 7, horizon)
            return result == oracle.census(rows, horizon, range(1, 9))
        if kind == "recurrence":
            rule, parts, c, horizon = a
            if result != sorted(set(result)) or any(not 1 <= t <= horizon for t in result):
                return False
            if not op.verify:
                return True
            end = parts[0] + len(parts[2]) + horizon
            rows = self._rows(rule, parts, c, max(c, end), horizon)
            return result == [t for t in range(1, horizon + 1) if rows[t] == rows[0]]
        if kind in ("speed", "witnesses"):
            rule, starts, horizon = a
            if rule.startswith("eca:"):
                # binary radius-1 rules mapping 001 to 1 move the left edge
                # exactly one cell left per step
                if kind == "speed":
                    return result.estimate == 1 and list(result.per_sample) == [1] * len(starts)
                return result == [1] * len(starts)
            if not op.verify:
                return len(result.per_sample if kind == "speed" else result) == len(starts)
            expected = []
            for parts in starts:
                edges = self._edges(rule, parts, horizon)
                if kind == "speed":
                    expected.append(max(Fraction(edges[0] - edges[t], t)
                                        for t in range(1, horizon + 1) if 2 * t >= horizon))
                else:
                    expected.append(next((t for t in range(1, horizon + 1)
                                          if edges[t] < edges[0]), None))
            if kind == "speed":
                return list(result.per_sample) == expected and result.estimate == max(expected)
            return result == expected
        rule, parts, rows, lo, hi = a
        if not result.startswith(f"P1\n{hi - lo + 1} {rows}\n") or result.count("\n") != rows + 2:
            return False
        return not op.verify or result == oracle.pbm(self._rows(rule, parts, lo, hi, rows - 1))

    def _check_cli(self, a, result, verify):
        code, out = result
        sub, rule = a[0], a[1]
        if sub == "classify":
            doc = json.loads(out)
            verdict, dims = EXPECTED_CLASSIFY[rule]
            return (doc["verdict"], doc["dims"]) == (verdict, dims) and \
                code == {"Yes": 0, "No": 1}.get(verdict, 2)
        if sub == "simulate":
            parts, steps = a[2], a[3]
            lines = out.splitlines()
            if code != 0 or len(lines) != steps + 1:
                return False
            if not verify:
                return all(_LITERAL.fullmatch(line) for line in lines)
            lo, hi = parts[0] - steps - 2, parts[0] + len(parts[2]) + steps + 2
            rows = self._rows(rule, parts, lo, hi, steps)
            for line, row in zip(lines, rows):
                m = _LITERAL.fullmatch(line)
                if not m:
                    return False
                got = ([int(s) for s in m[1]], [int(s) for s in m[2]], [int(s) for s in m[3]])
                shown = (int(m[4]),) + got
                if bytes(oracle.symbol_at(shown, i) for i in range(lo, hi + 1)) != row:
                    return False
            return True
        if sub == "scan-period":
            parts, i, j, horizon = a[2:]
            doc = json.loads(out)
            cert = doc["certificate"]
            if code != (0 if cert else 1) or doc["horizon"] != horizon:
                return False
            if not verify:
                return True
            got = (cert["preperiod"], cert["period"]) if cert else None
            rows = self._rows(rule, parts, i, j, horizon - 1)
            return got == oracle.eventual_period(rows, 500, 500)
        parts, rows, lo, hi = a[2:]
        if code != 0 or not out.startswith(f"P1\n{hi - lo + 1} {rows}\n"):
            return False
        return not verify or out == oracle.pbm(self._rows(rule, parts, lo, hi, rows - 1))

    def finish_pass(self, lx, ctx, ops, results):
        return []


WORKLOADS = {w.name: w for w in (Numbers(), Decide(), Orbits())}
