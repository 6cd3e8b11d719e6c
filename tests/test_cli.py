import json
from pathlib import Path

import pytest

from leftex import Alphabet, config_to_rational, parse_configuration
from leftex.cli import main

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
        capsys, "scan-period", "eca:90", "[L:0] 1 [R:0] @0", "--col", "0", "--T", "256"
    )
    assert code == 0 and "PeriodFound c=1 p=1" in out
    code, out, _ = run(
        capsys, "scan-period", "eca:30", "[L:0] 1 [R:0] @0",
        "--cols", "0:1", "--T", "128", "--max-c", "40", "--max-p", "40",
    )
    assert code == 1 and "NoPeriodFound" in out


def test_scan_period_requires_columns(capsys):
    code, _, err = run(capsys, "scan-period", "eca:90", "[L:0] 1 [R:0] @0", "--T", "16")
    assert code == 3


def test_scan_period_rejects_col_with_cols(capsys):
    code, out, err = run(capsys, "scan-period", "eca:90", "[L:0] 1 [R:0] @0",
                         "--col", "0", "--cols", "0:1", "--T", "16")
    assert code == 3 and out == "" and "--col" in err


def test_scan_period_json(capsys):
    code, out, _ = run(
        capsys, "scan-period", "eca:90", "[L:0] 1 [R:0] @0",
        "--col", "0", "--T", "64", "--json",
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


def test_render_pbm_to_file(tmp_path, capsys):
    out_file = tmp_path / "r30.pbm"
    code, _, _ = run(
        capsys, "render", "eca:30", "[L:0] 1 [R:0] @0",
        "--rows", "32", "--cols=-32:32", "--format", "pbm", "--out", str(out_file),
    )
    assert code == 0
    golden = GOLDEN_DIR / "rule30_single1_rows32_cols-32_32.pbm"
    assert out_file.read_bytes() == golden.read_bytes()


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "simulate", "eca:30", "[L:0 1 [R:0] @0", "2")
    assert code == 3 and "column" in err


def test_unknown_rule_designator(capsys):
    code, _, err = run(capsys, "simulate", "mul:32", "[L:0] 1 [R:0] @0", "1")
    assert code == 3


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


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("LEFTEX_BUDGET", "1")
    assert run(capsys, "classify", "eca:30")[0] == 2
    monkeypatch.delenv("LEFTEX_BUDGET")
    assert run(capsys, "classify", "eca:30")[0] == 0


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
