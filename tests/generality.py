"""Each notion's verdict on classify-random structures 0-119: the generality table.

`outcomes()` runs, on each structure as `conftest.bench_rule_set` draws it
and under BUDGET with no deadline, the acyclicity check in `mfa` and in
`rmfa-like` mode with k = 2 and the DRPC, RPC_s and RPC cyclicity checks,
and returns each verdict's result word, one column per notion. Each check
runs on its own parse of the structure, so that no check reads another's
unblockability answers and any subset of the columns can be replayed
alone. A column counts the certificates (`terminating`) or the cyclic
verdicts of its notion; README quotes the counts.

Run as a script to record the table into GOLDEN (this rewrites the fixture,
so do it only when a certificate or a witness is meant to move):

    PYTHONPATH=src python tests/generality.py

With `--print`, the script writes the table to standard output instead, in
the fixture's format, for a diff against the committed file.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

from chase_sentinel.cyclicity import DRPC, RPC, RPC_S, check
from chase_sentinel.termination import MFA, RMFA_LIKE, SearchBudget, check_acyclic

from conftest import bench_rule_set

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "data" / "generality_golden.json"
STRUCTURES = range(120)
BUDGET = SearchBudget(max_triggers=3000, max_term_depth=6)
ACYCLICITY = (MFA, RMFA_LIKE)
COLUMNS = (*ACYCLICITY, DRPC, RPC_S, RPC)


def verdict(i: int, column: str) -> str:
    """The result word of one column's check on structure i."""
    rules = bench_rule_set(i)
    if column in ACYCLICITY:
        return check_acyclic(rules, k=2, budget=BUDGET, mode=column).result
    return check(rules, column, BUDGET).result


def outcomes(columns=COLUMNS) -> dict[str, dict[str, str]]:
    return {f"structure-{i:03d}": {column: verdict(i, column) for column in columns}
            for i in STRUCTURES}


def dumps(table: dict) -> str:
    return json.dumps(table, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    text = dumps(outcomes())
    if sys.argv[1:] == ["--print"]:
        sys.stdout.write(text)
    else:
        GOLDEN.write_text(text, encoding="utf-8")
