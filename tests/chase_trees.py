"""Chase trees and acyclicity counts, the outputs that discovery order decides.

`outcomes()` records what `matcher.discover`'s enumeration order fixes:

- the `run_chase` tree, under the default budget, of every corpus file that has facts,
  and of four small `transitive_closure` and `path_colouring` instances
  from perfbench/generators.py: each vertex's parent, trigger (rule and
  body image as `Namer` prints them), disjunct and new facts, in vertex
  order, with the tree's `status` and `exhausted`. A tree of more than
  MAX_LISTED vertices is kept as its vertex count and the sha256 of those
  lines;
- `check_acyclic` under both modes on classify-random structures 0-29 (as
  `conftest.bench_rule_set` draws them) and on stratified set 512/1: the
  result, `applied`, `facts` and the first k-cyclic term.

Run as a script to record them into GOLDEN (this rewrites the fixture, so do
it only when a chase tree or acyclicity count is meant to change):

    PYTHONPATH=src python tests/chase_trees.py

With `--print`, the script writes the outcomes to standard output instead,
in the fixture's format, for a diff against the committed file.
"""
from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from chase_sentinel import corpus_dir
from chase_sentinel.chase import run_chase
from chase_sentinel.ruleio import Namer, parse
from chase_sentinel.termination import MFA, RMFA_LIKE, SearchBudget, check_acyclic

from conftest import bench_rule_set, perfbench_module, rules_from, trace_lines

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "data" / "chase_trees_golden.json"
ACYCLIC_BUDGET = SearchBudget(max_triggers=100_000, max_term_depth=8)
MAX_LISTED = 200
STRUCTURES = range(30)


def _tree(text: str) -> dict:
    program = parse(text)
    tree = run_chase(program.rules, program.facts)
    lines = trace_lines(tree)
    out: dict = {"status": tree.status, "exhausted": tree.exhausted}
    if len(lines) > MAX_LISTED:
        digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
        out.update(vertex_count=len(lines), sha256=digest)
    else:
        out["vertices"] = lines
    return out


def _instances() -> dict[str, str]:
    generators = perfbench_module("generators")
    return {
        "tc-4": generators.transitive_closure(random.Random("tc/4"), 4).text,
        "tc-12": generators.transitive_closure(random.Random("tc/12"), 12).text,
        "colour-2x3": generators.path_colouring(random.Random("colour/2"), 2, 3).text,
        "colour-4x3": generators.path_colouring(random.Random("colour/4"), 4, 3).text,
    }


def _acyclicity(rules) -> dict[str, dict]:
    namer = Namer(rules)
    out = {}
    for mode in (RMFA_LIKE, MFA):
        verdict = check_acyclic(rules, k=2, budget=ACYCLIC_BUDGET, mode=mode)
        out[mode] = {
            "result": verdict.result,
            "applied": verdict.stats["applied"],
            "facts": verdict.stats["facts"],
            "term": None if verdict.cyclic_term is None
            else namer.term(verdict.cyclic_term),
        }
    return out


def outcomes() -> dict[str, dict]:
    trees = {}
    for path in sorted(corpus_dir().glob("*.drls")):
        text = path.read_text(encoding="utf-8")
        if parse(text).facts:
            trees[path.name] = _tree(text)
    for name, text in _instances().items():
        trees[name] = _tree(text)
    acyclic = {f"structure-{i:02d}": _acyclicity(bench_rule_set(i)) for i in STRUCTURES}
    stratified = perfbench_module("generators").stratified_rule_set(
        random.Random("stratified/512/1"), 512)
    acyclic["stratified-512-1"] = _acyclicity(rules_from(stratified.text))
    return {"chase": trees, "acyclicity": acyclic}


def dumps(results: dict) -> str:
    return json.dumps(results, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    text = dumps(outcomes())
    if sys.argv[1:] == ["--print"]:
        sys.stdout.write(text)
    else:
        GOLDEN.write_text(text, encoding="utf-8")
