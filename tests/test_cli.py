import argparse
import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from leftex import Alphabet, RenderSpec, cli, config_to_rational, eca, parse_configuration, render_to
from leftex.cli import build_parser, main

GOLDEN_DIR = Path(__file__).parent / "goldens"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_rule30(capsys):
    code, out, _ = run(capsys, "simulate", "eca:30", "[L:0] 1 [R:0] @0", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    final = parse_configuration(lines[2], Alphabet(2))
    assert final.window(-2, 2) == bytes([1, 1, 0, 0, 1])


def test_simulate_rule0(capsys):
    code, out, _ = run(capsys, "simulate", "eca:0", "[L:0] 1 [R:0] @0", "1")
    assert code == 0
    assert out.splitlines()[1] == "[L:0] [R:0] @0"


def test_simulate_mul(capsys):
    code, out, _ = run(capsys, "simulate", "mul:3/2", "[L:0] 1 [R:0] @-1", "1")
    assert code == 0
    final = parse_configuration(out.splitlines()[1], Alphabet(6))
    from fractions import Fraction

    assert config_to_rational(final, 6) == Fraction(3, 2)


def test_negative_step_counts_are_usage_errors(capsys):
    code, out, err = run(capsys, "simulate", "eca:30", "[L:0] 1 [R:0] @0", "-3")
    assert code == 3 and out == "" and "steps" in err
    code, out, err = run(capsys, "limits", "eca:30", "[L:0] 1 [R:0] @0", "--T", "-5", "--json")
    assert code == 3 and out == "" and "horizon" in err


def test_verify_mul_exit_codes(capsys):
    code, out, _ = run(capsys, "verify-mul", "3", "2", "1", "10")
    assert code == 0 and "ok" in out
    code, _, err = run(capsys, "verify-mul", "2", "3", "1", "4")
    assert code == 3  # p <= q is a spec error


def test_malformed_rationals_are_usage_errors(capsys):
    # exit 1 would read as a failed verification
    for xi in ("1/0", "1/x", "x", "1/"):
        code, out, err = run(capsys, "verify-mul", "3", "2", xi, "4")
        assert code == 3 and out == "" and repr(xi) in err


def test_classify_exit_codes(capsys):
    assert run(capsys, "classify", "eca:30")[0] == 0
    assert run(capsys, "classify", "eca:204")[0] == 1
    assert run(capsys, "classify", "eca:30", "--budget", "1")[0] == 2


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "mul:3/2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "Yes" and doc["dims"] == [1, 1, 1]


def test_classify_json_matches_golden(capsys):
    """Every branch of the classification: exact families, the identity,
    the zero rule, the shifts, and binary radius-1 rules with and without a
    height-0 rectangle."""
    for line in (GOLDEN_DIR / "classify.txt").read_text().splitlines():
        rule, code, doc = line.split("\t")
        assert run(capsys, "classify", rule, "--json")[:2] == (int(code), doc + "\n"), rule


def test_scan_period_exit_codes(capsys):
    code, out, _ = run(
        capsys, "scan-period", "eca:90", "[L:0] 1 [R:0] @0", "--cols=0:0", "--T", "256"
    )
    assert code == 0 and "PeriodFound c=1 p=1" in out
    code, out, _ = run(
        capsys, "scan-period", "eca:30", "[L:0] 1 [R:0] @0",
        "--cols", "0:1", "--T", "128", "--max-c", "40", "--max-p", "40",
    )
    assert code == 1 and "NoPeriodFound" in out


def test_negative_scan_bounds_are_usage_errors(capsys):
    code, out, err = run(capsys, "scan-period", "eca:90", "[L:0] 1 [R:0] @0",
                         "--cols=0:0", "--T", "64", "--max-c", "-1", "--max-p", "-1")
    assert code == 3 and out == "" and "max_c" in err


def test_scan_period_requires_columns(capsys):
    code, _, err = run(capsys, "scan-period", "eca:90", "[L:0] 1 [R:0] @0", "--T", "16")
    assert code == 3


def test_scan_period_rejects_col_with_cols(capsys):
    # one column is --cols=A:A; there is no --col, nor any other prefix of --cols
    code, out, err = run(capsys, "scan-period", "eca:90", "[L:0] 1 [R:0] @0",
                         "--col", "0", "--cols", "0:1", "--T", "16")
    assert code == 3 and out == "" and "--col" in err


def test_scan_period_json(capsys):
    code, out, _ = run(
        capsys, "scan-period", "eca:90", "[L:0] 1 [R:0] @0",
        "--cols=0:0", "--T", "64", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "PeriodFound"
    assert doc["certificate"] == {"preperiod": 1, "period": 1, "verified_up_to": 64}
    assert doc["max_c"] == 500 and doc["max_p"] == 500


def test_recur_identity(capsys):
    code, out, _ = run(capsys, "recur", "eca:204", "[L:0] 1 [R:0] @0", "--T", "5", "--json")
    assert code == 0
    assert json.loads(out)["recurrences"] == [1, 2, 3, 4, 5]


def test_limits_csv(capsys):
    code, out, _ = run(
        capsys, "limits", "eca:204", "[L:0] 1 [R:0] @0", "--T", "20", "--n-max", "3"
    )
    assert code == 0
    assert out.splitlines() == ["n,census", "1,1", "2,1", "3,1"]


def test_limits_n_max_below_one_is_a_usage_error(capsys):
    # an empty census would read as a pass
    for n_max in ("-3", "0"):
        code, out, err = run(capsys, "limits", "eca:30", "[L:0] 1 [R:0] @0", "--T", "10",
                             "--n-max", n_max, "--json")
        assert (code, out) == (3, ""), n_max
        assert "--n-max" in err and "Traceback" not in err


def test_limits_n_max_above_the_census_bound_is_a_usage_error(capsys):
    code, out, err = run(capsys, "limits", "eca:30", "[L:0] 1 [R:0] @0", "--T", "0",
                         "--n-max", "100001")
    assert (code, out) == (3, "")
    assert "prefix lengths above 100000 are not supported" in err


@pytest.mark.parametrize("argv", [
    ("render", "eca:30", "[L:0]1[R:0]@0", "--rows", "10", "--cols", "0:99999999999"),
    ("scan-period", "eca:30", "[L:0]1[R:0]@0", "--cols", "0:99999999999", "--T", "10"),
    ("recur", "eca:30", "[L:0]1[R:0]@0", "--c", "-99999999999", "--T", "3"),
])
def test_windows_and_tails_past_the_prefix_bound_are_usage_errors(capsys, argv):
    # refused before a row or a tail of 10^11 cells is allocated
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert "not supported" in err and "Traceback" not in err


@pytest.mark.parametrize("bounds, budget, want", [
    ("0,2,99999999999", "1", (2, "Unknown")),
    ("0,99999999999,2", "1", (2, "Unknown")),
    ("0,2,99999999999", None, (0, "Yes dims=(0,1,2) ")),
])
def test_huge_classify_bounds_answer_without_building_the_corner(capsys, bounds, budget, want):
    # the top corner reads a prefix of about 10^11 symbols: Unknown from its
    # length alone, before size**L' or a list of 10^11 row starts is built
    argv = ["classify", "eca:30", f"--bounds={bounds}"] + (["--budget", budget] if budget else [])
    code, out, err = run(capsys, *argv)
    assert (code, err) == (want[0], "") and out.startswith(want[1])


def test_any_other_crash_is_an_internal_error(capsys, monkeypatch):
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "verify_mul", out_of_memory)
    code, out, err = run(capsys, "verify-mul", "3", "2", "1/3", "1")
    assert (code, out) == (cli.EXIT_INTERNAL, "") == (4, "")
    assert err.startswith("Traceback") and "MemoryError" in err


BIG = 99_999_999_999  # near 10**11: far past every bound, and no long request


def extreme_ints():
    return st.one_of(st.integers(-4, 4), st.integers(-BIG, BIG),
                     st.sampled_from([BIG, -BIG, BIG + 2, 2**63, -2**63]))


@st.composite
def cli_argvs(draw):
    """An argv from the CLI's grammar, valid more often than not so that
    the extremes reach past the parser: extreme anchors, windows, columns,
    ECA numbers, p/q, bounds and budgets, with few rows and steps."""
    small = st.integers(-1, 6)
    fraction = st.one_of(st.integers(-1, 9), st.sampled_from([BIG, 2**63]))
    pq = draw(st.one_of(st.sampled_from([(3, 2), (5, 2), (5, 3), (4, 3), (7, 4)]),
                        st.tuples(fraction, fraction)))
    rule = draw(st.one_of(
        st.just("eca:30"),  # the paper's rule 30 spreads, so classify searches its dims
        st.integers(0, 255).map("eca:{}".format),
        st.sampled_from(["mul", "mulint"]).map(lambda kind: f"{kind}:{pq[0]}/{pq[1]}"),
        st.sampled_from(["eca:-1", "eca:256"])))
    period = st.text("01", min_size=1, max_size=3)
    head = st.one_of(st.text("01", max_size=3), st.just("5"))  # 5: a symbol of mul:3/2 only
    config = "[L:{}] {} [R:{}] @{}".format(*draw(st.tuples(period, head, period, extreme_ints())))
    lo = draw(extreme_ints())
    cols = f"--cols={lo}:{draw(st.one_of(st.integers(lo - 1, lo + 6), extreme_ints()))}"
    json_flag = draw(st.sampled_from([[], ["--json"]]))
    command = draw(st.sampled_from(["simulate", "render", "scan-period", "recur", "limits",
                                    "classify", "verify-mul"]))
    if command == "simulate":
        return [command, rule, config, str(draw(small))]
    if command == "render":
        return [command, rule, config, "--rows", str(draw(small)), cols,
                "--format", draw(st.sampled_from(["ascii", "pbm", "pgm"]))]
    if command == "scan-period":
        bound = st.one_of(st.integers(0, 30), extreme_ints())
        return [command, rule, config, cols, "--T", str(draw(st.integers(-1, 20))),
                f"--max-c={draw(bound)}", f"--max-p={draw(bound)}", *json_flag]
    if command in ("recur", "limits"):
        extra = ["--n-max", str(draw(small))] if command == "limits" else []
        return [command, rule, config, f"--c={draw(extreme_ints())}",
                "--T", str(draw(st.integers(-1, 20))), *extra, *json_flag]
    if command == "classify":
        bound = st.one_of(st.integers(-1, 4), st.sampled_from([BIG, BIG + 2]))
        # a larger budget lets wide bounds run a long proof: at the default
        # 10**8, eca:222 over 0,0,99999999999 decides w = 1 .. 25 in 16 s
        budget = st.integers(-1, 10**5)
        return [command, rule, "--bounds={},{},{}".format(*draw(st.tuples(bound, bound, bound))),
                f"--budget={draw(budget)}", *json_flag]
    xi = "{}/{}".format(*draw(st.tuples(st.integers(-1, 9), st.sampled_from(
        [-1, 0, 1, 3, 7, 49, 2**63]))))
    return [command, str(pq[0]), str(pq[1]), xi, str(draw(small))]


def says_no(out):
    """Whether the output holds a No, FAILED or NoPeriodFound line, as text
    or as JSON."""
    for line in out.splitlines():
        if line.startswith("No") or line.endswith(": FAILED"):
            return True
        if line.startswith("{"):
            doc = json.loads(line)
            if doc.get("verdict") == "No" or doc.get("outcome") == "NoPeriodFound":
                return True
    return False


@settings(max_examples=60, deadline=None)
@given(cli_argvs())
def test_every_argv_of_the_grammar_exits_with_a_contract_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert 0 <= code <= 3 and "Traceback" not in err, (argv, code, err)
    assert code != 1 or says_no(out), (argv, out)


# calls with and without --budget, --json and --format, in turn
ALTERNATING_ARGV = (
    ("classify", "eca:30", "--budget", "1000"),
    ("classify", "eca:30"),
    ("classify", "eca:30", "--json"),
    ("render", "eca:30", "[L:0] 1 [R:0] @0", "--rows", "3", "--cols=-2:2", "--format", "pbm"),
    ("render", "eca:30", "[L:0] 1 [R:0] @0", "--rows", "3", "--cols=-2:2"),
    ("recur", "eca:204", "[L:0] 1 [R:0] @0", "--T", "8", "--json"),
    ("recur", "eca:204", "[L:0] 1 [R:0] @0", "--T", "8"),
    ("classify", "eca:30", "--budget", "1000", "--json"),
    ("classify", "eca:30", "--budget", "x"),
    ("classify", "eca:30"),
)


def parsed(parser, argv):
    try:
        return vars(parser.parse_args(argv))
    except cli._UsageError as exc:
        return str(exc)


def test_the_parser_main_reuses_leaks_nothing_between_calls(capsys, monkeypatch):
    argvs = [list(argv) for argv in ALTERNATING_ARGV * 2]
    reused = [(run(capsys, *argv), parsed(cli._parser(), argv)) for argv in argvs]
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", build_parser)  # main builds a parser per call
    fresh = [(run(capsys, *argv), parsed(build_parser(), argv)) for argv in argvs]
    assert reused == fresh


def test_render_pbm_to_file(tmp_path, capsys):
    out_file = tmp_path / "r30.pbm"
    code, _, _ = run(
        capsys, "render", "eca:30", "[L:0] 1 [R:0] @0",
        "--rows", "32", "--cols=-32:32", "--format", "pbm", "--out", str(out_file),
    )
    assert code == 0
    golden = GOLDEN_DIR / "rule30_single1_rows32_cols-32_32.pbm"
    assert out_file.read_bytes() == golden.read_bytes()


def test_render_pgm_palette_matches_the_library(tmp_path, capsys):
    out_file = tmp_path / "r30.pgm"
    code, _, _ = run(
        capsys, "render", "eca:30", "[L:0] 1 [R:0] @0", "--rows", "8", "--cols=-8:8",
        "--format", "pgm", "--palette", "0:255,1:0", "--out", str(out_file),
    )
    assert code == 0
    expected = io.StringIO()
    render_to(expected, eca(30), parse_configuration("[L:0] 1 [R:0] @0", Alphabet(2)),
              RenderSpec(8, -8, 8, "pgm", {0: 255, 1: 0}))
    assert out_file.read_text() == expected.getvalue()
    assert expected.getvalue().startswith("P2\n17 8\n255\n255 ")


def test_malformed_render_and_classify_arguments_are_usage_errors(capsys):
    for argv in (("render", "eca:30", "[L:0] 1 [R:0] @0", "--rows", "2", "--cols=0:1",
                  "--format", "pgm", "--palette", "0:255,1"),
                 ("render", "eca:30", "[L:0] 1 [R:0] @0", "--rows", "2", "--cols", "5"),
                 ("classify", "eca:30", "--bounds", "1,2")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "") and err.startswith("usage error: "), argv


def test_a_palette_outside_pgm_is_refused(capsys):
    for fmt in ("ascii", "pbm"):
        code, out, err = run(capsys, "render", "eca:30", "[L:0] 1 [R:0] @0", "--rows", "2",
                             "--cols=-1:1", "--format", fmt, "--palette", "0:999,1:0")
        assert (code, out) == (3, "") and "pgm only" in err, fmt


def test_limits_json_written_to_a_file(tmp_path, capsys):
    out_file = tmp_path / "limits.json"
    code, out, _ = run(capsys, "limits", "eca:204", "[L:0] 1 [R:0] @0", "--T", "20",
                       "--n-max", "3", "--json", "--out", str(out_file))
    assert (code, out) == (0, "")
    assert out_file.read_text() == '{"horizon": 20, "census": {"1": 1, "2": 1, "3": 1}}\n'


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "simulate", "eca:30", "[L:0 1 [R:0] @0", "2")
    assert code == 3 and "column" in err


def test_every_stepping_command_rejects_a_malformed_literal(capsys):
    for argv in (("simulate", "1"), ("render", "--rows", "2", "--cols=0:1"),
                 ("scan-period", "--cols=0:0", "--T", "8"), ("recur", "--T", "8"),
                 ("limits", "--T", "8")):
        code, out, err = run(capsys, argv[0], "eca:30", "[L:0] 1 [R:0] @0 junk", *argv[1:])
        assert (code, out) == (3, ""), argv[0]
        assert "trailing text" in err and "column 18" in err


def test_unknown_rule_designator(capsys):
    code, _, err = run(capsys, "simulate", "mul:32", "[L:0] 1 [R:0] @0", "1")
    assert code == 3


def test_multiplication_rules_over_256_symbols_are_usage_errors(capsys):
    """The base is checked before the integer automaton's table exists."""
    for rule in ("mulint:17/16", "mul:17/16"):
        code, out, err = run(capsys, "classify", rule)
        assert (code, out) == (3, ""), rule
        assert "alphabets larger than 256 symbols are not supported" in err, rule


def test_rule_file_loading(tmp_path, capsys):
    doc = {
        "alphabet": 2,
        "m": 1,
        "n": 1,
        "table": {f"{a}{b}{c}": (a + c) % 2 for a in (0, 1) for b in (0, 1) for c in (0, 1)},
    }
    path = tmp_path / "rule90.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "simulate", str(path), "[L:0] 1 [R:0] @0", "1")
    assert code == 0
    ref = run(capsys, "simulate", "eca:90", "[L:0] 1 [R:0] @0", "1")[1]
    assert out == ref


def test_rule_file_errors(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(capsys, "simulate", str(path), "[L:0] 1 [R:0] @0", "1")[0] == 3
    path.write_text(json.dumps({"alphabet": 2, "m": 1, "n": 1, "table": {"000": 0}}))
    assert run(capsys, "simulate", str(path), "[L:0] 1 [R:0] @0", "1")[0] == 3
    for doc in ([1, 2], {"alphabet": 2, "m": 1, "n": 1, "table": [0] * 8},
                {"alphabet": 2, "m": "1", "n": 1, "table": {"000": 0}},
                {"alphabet": 2, "m": 1, "n": 1, "table": {"000": "0"}}):
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "simulate", str(path), "[L:0] 1 [R:0] @0", "1")
        assert (code, out) == (3, "") and str(path) in err, doc
    for unreadable in (tmp_path / "missing.json", tmp_path):  # no file, a directory
        code, out, err = run(capsys, "classify", str(unreadable))
        assert (code, out) == (3, "") and err.startswith("usage error: cannot read rule file")


def test_booleans_in_a_rule_file_are_usage_errors(tmp_path, capsys):
    # JSON true and false are not integers, though Python's bool is an int
    rule90 = {f"{a}{b}{c}": (a + c) % 2 for a in (0, 1) for b in (0, 1) for c in (0, 1)}
    path = tmp_path / "bools.json"
    for doc in ({"alphabet": True, "m": 0, "n": 0, "table": {"0": 0}},
                {"alphabet": 2, "m": True, "n": 1, "table": rule90},
                {"alphabet": 2, "m": 1, "n": True, "table": rule90},
                {"alphabet": 2, "m": 1, "n": 1, "table": {k: bool(v) for k, v in rule90.items()}}):
        path.write_text(json.dumps(doc))
        for argv in (("classify", str(path)), ("simulate", str(path), "[L:0] 0 [R:0] @0", "1")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (3, "") and str(path) in err, (doc, argv[0])


def test_an_incomplete_table_of_a_huge_width_is_a_usage_error(tmp_path, capsys):
    # 2^81 and 2^(2*10^9+1) neighborhoods: the entries are counted before
    # anything is allocated, or the count of neighborhoods computed
    for m in (40, 10**9):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"alphabet": 2, "m": m, "n": m, "table": {}}))
        code, out, err = run(capsys, "classify", str(path))
        assert (code, out) == (3, "") and err.startswith("error: ") and "Traceback" not in err


def test_budgets_beyond_int64_classify_as_unknown(tmp_path, capsys):
    """A 3-symbol (1,1) rule whose spreading search climbs t until the
    budget stops it; at 10**40 an int64 index used to overflow."""
    table = bytes.fromhex("000002000002010000010101010201010002010002020000000101")
    doc = {"alphabet": 3, "m": 1, "n": 1,
           "table": {f"{k // 9}{k // 3 % 3}{k % 3}": v for k, v in enumerate(table)}}
    path = tmp_path / "stuck.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "classify", str(path), "--budget", str(10**40), "--json")
    assert (code, err) == (2, "")
    assert json.loads(out)["reason"].startswith("budget exhausted before spreading search t=")


def test_negative_classify_bounds_are_usage_errors(capsys):
    for bounds in ("-1,2,4", "0,-1,4", "2,2,-1"):
        code, out, err = run(capsys, "classify", "eca:30", f"--bounds={bounds}")
        assert code == 3 and out == "" and "bounds" in err, bounds


def test_budget_env_variable_is_ignored(capsys, monkeypatch):
    # --budget is the one way to set the budget
    for value in ("1", "abc"):
        monkeypatch.setenv("LEFTEX_BUDGET", value)
        assert run(capsys, "classify", "eca:30")[0] == 0


def test_negative_or_malformed_budgets_are_usage_errors(capsys):
    for command in (("classify", "eca:30"), ("atlas",)):
        for value in ("-1", "abc"):
            code, out, err = run(capsys, *command, "--budget", value)
            assert code == 3 and out == "", (command, value)
            assert "--budget" in err and repr(value) in err and "Traceback" not in err


# one valid argv per command, so that only an appended option can make it fail
VALID_ARGV = {
    "simulate": ("eca:30", "[L:0] 1 [R:0] @0", "2"),
    "render": ("eca:30", "[L:0] 1 [R:0] @0", "--rows", "2", "--cols=0:1"),
    "atlas": (),
    "verify-mul": ("3", "2", "1", "4"),
    "scan-period": ("eca:90", "[L:0] 1 [R:0] @0", "--cols=0:0", "--T", "8"),
    "recur": ("eca:204", "[L:0] 1 [R:0] @0", "--T", "8"),
    "limits": ("eca:204", "[L:0] 1 [R:0] @0", "--T", "8"),
    "classify": ("eca:30",),
}


def test_every_abbreviated_option_is_a_usage_error(capsys):
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(commands.choices) == set(VALID_ARGV)
    checked = 0
    for name, command in commands.choices.items():
        argv = [name, *VALID_ARGV[name]]
        parser.parse_args(argv)  # valid as it stands
        options = {o for action in command._actions for o in action.option_strings}
        for option in sorted(o for o in options if o.startswith("--")):
            for cut in range(3, len(option)):
                prefix = option[:cut]
                if prefix in options:
                    continue
                for extra in ([prefix, "1"], [f"{prefix}=1"]):
                    code, out, err = run(capsys, *argv, *extra)
                    assert (code, out) == (3, ""), (name, extra)
                    assert prefix in err and "Traceback" not in err
                checked += 1
    assert checked > 50


@pytest.mark.slow
def test_atlas_counts_and_determinism(capsys):
    code, first, _ = run(capsys, "atlas")
    assert code == 0
    code, second, _ = run(capsys, "atlas")
    assert first == second
    assert first == (GOLDEN_DIR / "atlas.csv").read_text()
    lines = first.splitlines()
    assert lines[0] == "rule,permutive,spreading,dims,rapid"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 256
    assert sum(int(r[1]) for r in rows) == 16
    assert sum(int(r[2]) for r in rows) == 128
    by_rule = {int(r[0]): r for r in rows}
    assert by_rule[30][3] == "0;1;2" and by_rule[30][4] == "Yes"
    assert by_rule[90][4] == "Yes"
    assert by_rule[204][4] == "No"


@pytest.mark.slow
def test_atlas_json_rows_are_the_csv_rows(capsys):
    code, out, _ = run(capsys, "atlas", "--json")
    assert code == 0 and out.endswith("\n") and out.count("\n") == 1
    code, csv, _ = run(capsys, "atlas")
    assert code == 0
    header, *lines = csv.splitlines()
    assert [{"rule": str(row["rule"]), "permutive": str(int(row["permutive"])),
             "spreading": str(int(row["spreading"])),
             "dims": ";".join(map(str, row["dims"])) if row["dims"] else "",
             "rapid": row["rapid"]} for row in json.loads(out)] == \
        [dict(zip(header.split(","), line.split(","))) for line in lines]
