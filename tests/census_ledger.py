"""The census verdict ledger: one JSON line per rule of the 400-rule census.

The census is drawn with random.Random(7).  Each rule takes an alphabet
size s from {2, 3, 4}, a neighborhood (m, n) from (1,1), (0,1), (1,2) and
(2,1), replaced by (1,1) when s**(m+n+1) > 256, and a table of s**(m+n+1)
draws below s whose entry 0 is then set to 0.  A line holds the table in
hex, the size, m and n, the classify_rapid JSON at the default bounds and
budget, the find_left_expansive_dims(., 2, 2, 4) result at the default
budget, and the decider JSON at three cells at budget 2*10**4.

Regenerate the golden after a reviewed verdict change with

    PYTHONPATH=src python tests/census_ledger.py > tests/goldens/census.jsonl

test_census.py regenerates it in memory and diffs it line by line.
"""

from __future__ import annotations

import json
import random
import sys

from leftex import (
    Alphabet,
    Automaton,
    ExpansivityDims,
    classify_rapid,
    find_left_expansive_dims,
    is_left_expansive,
)
from leftex.rules import LocalRule

#: the cells the decider column decides, and the budget it reads
DECIDER_CELLS = ((0, 1, 2), (1, 1, 1), (1, 0, 2))
DECIDER_BUDGET = 2 * 10**4


def census() -> list[LocalRule]:
    rng = random.Random(7)
    rules = []
    for _ in range(400):
        size = rng.choice([2, 3, 4])
        m, n = rng.choice([(1, 1), (0, 1), (1, 2), (2, 1)])
        if size ** (m + n + 1) > 256:
            m, n = 1, 1
        table = bytearray(rng.randrange(size) for _ in range(size ** (m + n + 1)))
        table[0] = 0
        rules.append(LocalRule(Alphabet(size), m, n, bytes(table)))
    return rules


def ledger_entry(rule: LocalRule) -> dict:
    automaton = Automaton(rule)
    found = find_left_expansive_dims(automaton, 2, 2, 4)
    return {
        "table": rule.table.hex(),
        "size": rule.alphabet.size,
        "m": rule.memory,
        "n": rule.anticipation,
        "classify": classify_rapid(automaton).to_json_dict(),
        "dims_search": {
            "dims": [found.dims.h, found.dims.d, found.dims.w] if found.dims else None,
            "budget_exceeded": found.budget_exceeded,
            "cells_checked": found.cells_checked,
        },
        "decider": {
            ",".join(map(str, cell)): is_left_expansive(
                automaton, ExpansivityDims(*cell), budget=DECIDER_BUDGET).to_json_dict()
            for cell in DECIDER_CELLS
        },
    }


def ledger_lines() -> list[str]:
    return [json.dumps(ledger_entry(rule)) for rule in census()]


if __name__ == "__main__":
    sys.stdout.write("".join(line + "\n" for line in ledger_lines()))
