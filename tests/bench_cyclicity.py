"""DRPC and RPC_s verdicts on benchmark-scale rule sets, with the times cut.

`outcomes()` runs `cyclicity.check` under both notions on classify-random
corpus structures 0-29 (8, 12 and 16 rules, as `conftest.bench_rule_set`
draws them) with BUDGET, and returns each verdict as `classify --json`
prints it: result, witness and stats, without `elapsed_ms`. The stats hold
the unblockability counters (`approx_builds`, `approx_triggers`,
`unblockability_cache_hits`, `unblockability_star_answers`), so a change to
what an over-approximation build queues or answers shows here. Each notion
runs on its own parse of the structure, so with its own unblockability
answers: a rule set keeps the answers of every check on it.

Run as a script to record them into GOLDEN (this rewrites the fixture, so do
it only when a verdict, witness or stat is meant to change):

    PYTHONPATH=src python tests/bench_cyclicity.py

With `--print`, the script writes the outcomes to standard output instead,
in the fixture's format, for a diff against the committed file.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

from chase_sentinel import cli
from chase_sentinel.cyclicity import DRPC, RPC_S, check
from chase_sentinel.ruleio import Namer
from chase_sentinel.termination import SearchBudget

from conftest import bench_rule_set

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "data" / "bench_cyclicity_golden.json"
STRUCTURES = range(30)
BUDGET = SearchBudget(max_triggers=3000, max_term_depth=6)


def outcomes() -> dict[str, dict[str, dict]]:
    out = {}
    for i in STRUCTURES:
        runs = {}
        for notion in (DRPC, RPC_S):
            rules = bench_rule_set(i)
            report = cli._verdict_json(check(rules, notion, BUDGET), Namer(rules))
            del report["stats"]["elapsed_ms"]
            runs[notion] = report
        out[f"structure-{i:02d}"] = runs
    return out


def dumps(results: dict) -> str:
    return json.dumps(results, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    text = dumps(outcomes())
    if sys.argv[1:] == ["--print"]:
        sys.stdout.write(text)
    else:
        GOLDEN.write_text(text, encoding="utf-8")
