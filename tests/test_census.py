"""The census verdict ledger and its metamorphic relabeling check."""

import random
from itertools import product
from pathlib import Path

from census_ledger import census, ledger_entry, ledger_lines
from leftex import Alphabet
from leftex.rules import LocalRule

LEDGER = Path(__file__).parent / "goldens" / "census.jsonl"


def test_census_ledger_matches_its_golden():
    """Every census verdict, dims search and decider result is pinned: a
    change that moves one shows here as a line diff."""
    want = LEDGER.read_text().splitlines()
    got = ledger_lines()
    assert len(got) == len(want) == 400
    moved = [(k, w, g) for k, (w, g) in enumerate(zip(want, got)) if w != g]
    assert not moved, f"{len(moved)} census lines moved, the first: {moved[0]}"


def relabeled(rule: LocalRule, perm: list[int]) -> LocalRule:
    """The rule read through the symbol bijection perm: the neighborhood
    perm(u) maps to perm(f(u))."""
    size, width = rule.alphabet.size, rule.width
    table = bytearray(len(rule.table))
    for k, word in enumerate(product(range(size), repeat=width)):
        index = 0
        for a in word:
            index = index * size + perm[a]
        table[index] = perm[rule.table[k]]
    return LocalRule(Alphabet(size), rule.memory, rule.anticipation, bytes(table))


def test_relabeling_symbols_keeps_every_verdict():
    """A permutation of the symbols that fixes 0 is a conjugacy that keeps
    the zero configuration, so it keeps the classification, the dims search
    and every decider status.  seeds_checked and counterexamples follow the
    lexicographic order of the seeds, so they are not compared."""
    rng = random.Random(14)
    rules = rng.sample([r for r in census() if r.alphabet.size > 2], 16)
    for rule in rules:
        rest = list(range(1, rule.alphabet.size))
        while rest == sorted(rest):
            rng.shuffle(rest)
        image = relabeled(rule, [0] + rest)
        a, b = ledger_entry(rule), ledger_entry(image)
        for key in ("verdict", "dims"):
            assert a["classify"][key] == b["classify"][key], (rule.table.hex(), rest)
        assert a["dims_search"] == b["dims_search"], (rule.table.hex(), rest)
        assert {cell: v["status"] for cell, v in a["decider"].items()} == \
            {cell: v["status"] for cell, v in b["decider"].items()}, (rule.table.hex(), rest)
