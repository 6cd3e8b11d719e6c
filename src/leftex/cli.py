"""Command-line surface.

Rules are read as ``eca:N`` (elementary rules), ``mul:p/q`` (fractional
multiplication automaton), ``mulint:p/q`` (integer multiplication automaton)
or a path to a JSON rule file
``{"alphabet": n, "m": m, "n": n, "table": {"digits": symbol, ...}}``.
Configurations use the literal format ``[L:word] head [R:word] @anchor``.

Options are spelled in full; an abbreviated option is a usage error.
Exit codes: 0 pass/True, 1 fail/False, 2 Unknown or budget exhausted,
3 usage or parse error, 4 internal error (any other exception, with its
traceback on stderr), so that no crash reads as a No.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from contextlib import contextmanager
from fractions import Fraction

from .configuration import Alphabet, format_configuration, parse_configuration
from .dynamics import aperiodicity_scan, limit_point_census, recurrence_scan
from .errors import LeftexError
from .numeric import MulSpec, fractional_multiplication_rule, multiplication_rule, verify_mul
from .properties import (
    DEFAULT_BOUNDS,
    DEFAULT_BUDGET,
    classify_rapid,
    find_left_expansive_dims,
    is_left_permutive,
    is_left_spreading_eca,
)
from .render import FORMATS, RenderSpec, render_to
from .rules import Automaton, eca, make_rule, orbit
from .words import parse_word

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # subparsers are made by this class too, so no command accepts a prefix
    # of an option for the option itself
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    # argparse exits with status 2 on usage errors; our contract wants 3
    def error(self, message):
        raise _UsageError(message)


def load_rule(text: str) -> Automaton:
    """Parse a rule designator (eca:N, mul:p/q, mulint:p/q, or a JSON file path)."""
    if text.startswith("eca:"):
        return eca(int(text[4:]))
    if text.startswith(("mul:", "mulint:")):
        kind, _, frac = text.partition(":")
        p_str, _, q_str = frac.partition("/")
        if not q_str:
            raise _UsageError(f"expected {kind}:p/q, got {text!r}")
        spec = MulSpec(int(p_str), int(q_str))
        return multiplication_rule(spec) if kind == "mulint" else fractional_multiplication_rule(spec)
    try:
        with open(text) as f:
            doc = json.load(f)
    except OSError as exc:
        raise _UsageError(f"cannot read rule file {text!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise _UsageError(f"rule file {text!r} is not valid JSON: {exc}") from None
    table = doc.get("table") if isinstance(doc, dict) else None
    # type, not isinstance: JSON true and false load as bools, an int subclass
    if not (isinstance(table, dict) and all(type(v) is int for v in table.values())
            and all(type(doc.get(k)) is int for k in ("alphabet", "m", "n"))):
        raise _UsageError(f"rule file {text!r} must be an object with integer alphabet, m and n "
                          "and a table object of integer outputs")
    alphabet = Alphabet(doc["alphabet"])
    table = {parse_word(k, alphabet.size): v for k, v in table.items()}
    return Automaton(make_rule(alphabet, doc["m"], doc["n"], table), name=text)


def _parse_rational(text: str) -> Fraction:
    num, slash, den = text.partition("/")
    try:
        return Fraction(int(num), int(den)) if slash else Fraction(int(num))
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"expected a rational NUM or NUM/DEN, got {text!r}") from None


def _parse_cols(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    if not hi:
        raise _UsageError(f"expected a column range a:b, got {text!r}")
    return int(lo), int(hi)


def _parse_budget(text: str) -> int:
    try:
        budget = int(text)
    except ValueError:
        budget = -1
    if budget < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return budget


@contextmanager
def _output(args):
    """The --out file, closed on exit, or stdout when --out is not given."""
    if args.out:
        with open(args.out, "w") as stream:
            yield stream
    else:
        yield sys.stdout


# -- commands -----------------------------------------------------------------


def _cmd_simulate(args, automaton, x) -> int:
    if args.steps < 0:
        raise _UsageError("steps must be nonnegative")
    for _, y in zip(range(args.steps + 1), orbit(automaton, x)):
        print(format_configuration(y))
    return EXIT_PASS


def _cmd_render(args, automaton, x) -> int:
    lo, hi = _parse_cols(args.cols)
    palette = None
    if args.palette:
        palette = {}
        for item in args.palette.split(","):
            sym, _, gray = item.partition(":")
            if not gray:
                raise _UsageError(f"palette entries look like symbol:gray, got {item!r}")
            palette[int(sym)] = int(gray)
    spec = RenderSpec(args.rows, lo, hi, args.format, palette)
    with _output(args) as stream:
        render_to(stream, automaton, x, spec)
    return EXIT_PASS


def _cmd_atlas(args, *_) -> int:
    rows = []
    for number in range(256):
        automaton = eca(number)
        permutive = is_left_permutive(automaton.rule)
        spreading = is_left_spreading_eca(automaton.rule)
        found = find_left_expansive_dims(automaton, *DEFAULT_BOUNDS, budget=args.budget)
        classification = classify_rapid(automaton, DEFAULT_BOUNDS, budget=args.budget)
        rows.append({
            "rule": number,
            "permutive": permutive,
            "spreading": spreading,
            "dims": [found.dims.h, found.dims.d, found.dims.w] if found.dims else None,
            "rapid": classification.verdict,
        })
    with _output(args) as stream:
        if args.json:
            stream.write(json.dumps(rows, separators=(",", ":")) + "\n")
        else:
            stream.write("rule,permutive,spreading,dims,rapid\n")
            for row in rows:
                dims = ";".join(map(str, row["dims"])) if row["dims"] else ""
                stream.write(f"{row['rule']},{int(row['permutive'])},{int(row['spreading'])},"
                             f"{dims},{row['rapid']}\n")
    return EXIT_PASS


def _cmd_verify_mul(args, *_) -> int:
    spec = MulSpec(args.p, args.q)
    ok = verify_mul(spec, _parse_rational(args.xi), args.steps)
    print(f"verify-mul p={args.p} q={args.q} xi={args.xi} steps={args.steps}: "
          f"{'ok' if ok else 'FAILED'}")
    return EXIT_PASS if ok else EXIT_FAIL


def _cmd_scan_period(args, automaton, x) -> int:
    lo, hi = _parse_cols(args.cols)
    report = aperiodicity_scan(automaton, x, lo, hi, args.horizon, args.max_c, args.max_p)
    if args.json:
        print(json.dumps(report.to_json_dict()))
    elif report.period_found:
        cert = report.certificate
        print(f"PeriodFound c={cert.preperiod} p={cert.period} "
              f"(verified to {cert.verified_up_to})")
    else:
        print(f"NoPeriodFound within c<={args.max_c} p<={args.max_p} T={args.horizon}")
    return EXIT_PASS if report.period_found else EXIT_FAIL


def _cmd_recur(args, automaton, x) -> int:
    ts = recurrence_scan(automaton, x, args.c, args.horizon)
    if args.json:
        print(json.dumps({"c": args.c, "horizon": args.horizon, "recurrences": ts}))
    else:
        print(f"{len(ts)} recurrence(s) in [1, {args.horizon}]: {' '.join(map(str, ts))}".rstrip())
    return EXIT_PASS


def _cmd_limits(args, automaton, x) -> int:
    if args.n_max < 1:
        raise _UsageError(f"--n-max must be at least 1, got {args.n_max}")
    lengths = range(1, args.n_max + 1)
    census = limit_point_census(automaton, x, args.c, args.horizon, lengths)
    with _output(args) as stream:
        if args.json:
            stream.write(json.dumps({"horizon": args.horizon, "census": census}) + "\n")
        else:
            stream.write("n,census\n")
            for n in lengths:
                stream.write(f"{n},{census[n]}\n")
    return EXIT_PASS


def _cmd_classify(args, automaton, _) -> int:
    bounds = tuple(int(v) for v in args.bounds.split(","))
    if len(bounds) != 3:
        raise _UsageError("bounds must be three comma-separated integers h,d,w")
    result = classify_rapid(automaton, bounds, budget=args.budget)
    if args.json:
        print(json.dumps(result.to_json_dict()))
    else:
        dims = f" dims=({result.dims.h},{result.dims.d},{result.dims.w})" if result.dims else ""
        basis = f" basis={result.speed_basis}" if result.speed_basis else ""
        print(f"{result.verdict}{dims}{basis}: {result.reason}")
    return {"Yes": EXIT_PASS, "No": EXIT_FAIL}.get(result.verdict, EXIT_UNKNOWN)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="leftex", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    # the commands that step a configuration; main loads both arguments
    stepped = _Parser(add_help=False)
    stepped.add_argument("rule")
    stepped.add_argument("config")

    p = sub.add_parser("simulate", parents=[stepped], help="print iterated configuration literals")
    p.add_argument("steps", type=int)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("render", parents=[stepped], help="draw a space-time diagram")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", required=True, metavar="A:B",
                   help="spatial window; write --cols=-8:8 when the left bound is negative")
    p.add_argument("--format", choices=FORMATS, default="ascii")
    p.add_argument("--palette", help="pgm palette, e.g. 0:255,1:0")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("atlas", help="structural census of all 256 elementary rules")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.add_argument("--budget", type=_parse_budget, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_atlas)

    p = sub.add_parser("verify-mul", help="check the multiplication automata exactly")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("xi", help="positive rational, NUM or NUM/DEN")
    p.add_argument("steps", type=int)
    p.set_defaults(func=_cmd_verify_mul)

    p = sub.add_parser("scan-period", parents=[stepped],
                       help="search a trace for an eventual period")
    p.add_argument("--cols", required=True, metavar="A:B", help="column window; --cols=A:A for one")
    p.add_argument("--T", dest="horizon", type=int, required=True)
    p.add_argument("--max-c", type=int, default=500)
    p.add_argument("--max-p", type=int, default=500)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_scan_period)

    p = sub.add_parser("recur", parents=[stepped], help="exact fractional-part recurrence scan")
    p.add_argument("--c", type=int, default=0)
    p.add_argument("--T", dest="horizon", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_recur)

    p = sub.add_parser("limits", parents=[stepped], help="limit-point census table")
    p.add_argument("--c", type=int, default=0)
    p.add_argument("--T", dest="horizon", type=int, required=True)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_limits)

    p = sub.add_parser("classify", help="rapid left expansivity classification")
    p.add_argument("rule")
    p.add_argument("--bounds", default=",".join(map(str, DEFAULT_BOUNDS)), metavar="H,D,W",
                   help="nonnegative; H is not searched, since a Yes needs height 0")
    p.add_argument("--budget", type=_parse_budget, default=DEFAULT_BUDGET)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    return parser


#: the parser main reads, built at the first call rather than at import
_parser = functools.lru_cache(maxsize=1)(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        automaton = load_rule(args.rule) if "rule" in args else None
        x = parse_configuration(args.config, automaton.alphabet) if "config" in args else None
        return args.func(args, automaton, x)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (LeftexError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


def entry():  # console_scripts hook
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
