"""Metamorphic relations of the verdicts, which need no oracle and so reach
rule sets of any size.

- Presentation: the verdicts of `mfa`, DRPC and RPC_s do not change under a
  presentation shuffle (`conftest.presentation_text`). Each is read off a
  least fixpoint of a monotone operator, and each trigger's unblockability
  off the rule set and the trigger alone. `rmfa-like` blocks against the
  facts derived so far, which depend on the order of derivation, so its
  verdict can change (ROADMAP item 1).
- Disjoint union: for rule sets A and B over disjoint predicates, `mfa`
  certifies A ∪ B iff it certifies both, and DRPC and RPC_s find A ∪ B
  cyclic iff they find A or B cyclic.
- Entailment: an `entails` answer does not change when the rule order is
  shuffled. The leaves of every complete restricted chase tree form a
  universal model set, whatever the order triggers were applied in, so
  each decides the same queries. Whether the chase stops within a budget
  does depend on that order.

Only decided answers are compared: a pair of runs is skipped when either
side is "resource-exhausted", or "unknown" for entailment. The checks
return the number of decided
comparisons with the mismatches, so that a floor on the first keeps budgets
from emptying a check.
"""
from __future__ import annotations

import random
import time
from dataclasses import replace
from typing import Iterable

import pytest

from chase_sentinel.chase import COMPLETE, ChaseBudget, entails, results, run_chase
from chase_sentinel.cyclicity import CYCLIC, DRPC, RPC_S, check
from chase_sentinel.model import RuleSet, constant
from chase_sentinel.ruleio import parse, render
from chase_sentinel.termination import (MFA, RESOURCE_EXHAUSTED, RMFA_LIKE,
                                        TERMINATING, SearchBudget,
                                        check_acyclic)

from conftest import bench_text, perfbench_module, presentation_text, rules_from
from test_chase import _random_instances, _random_query

BUDGET = SearchBudget(max_triggers=3000, max_term_depth=6)
NOTIONS = (MFA, DRPC, RPC_S)


def verdicts(rules: RuleSet, notions: Iterable[str] = NOTIONS,
             seconds: float | None = None) -> dict[str, str]:
    """The result of each notion under BUDGET, with a deadline `seconds`
    after each check starts when given."""
    out = {}
    for notion in notions:
        budget = BUDGET if seconds is None else replace(
            BUDGET, deadline=time.monotonic() + seconds)
        if notion in (MFA, RMFA_LIKE):
            out[notion] = check_acyclic(rules, budget=budget, mode=notion).result
        else:
            out[notion] = check(rules, notion, budget).result
    return out


def bench_cases(structures: Iterable[int]) -> list[tuple[str, str]]:
    """(name, text) of classify-random structures."""
    return [(f"structure-{i}", bench_text(i)) for i in structures]


def large_cases(seeds: Iterable[int]) -> list[tuple[str, str]]:
    """(name, text) of the 64-rule generator sets of the given seeds."""
    generators = perfbench_module("generators")
    return [(f"seed-{s}", generators.random_rule_set(
        random.Random(s), random.Random(0), 64).text) for s in seeds]


def shuffle_seed(name: str, j: int) -> str:
    return f"presentation/{name}/{j}"


def presentation_checks(cases: Iterable[tuple[str, str]], shuffles: int,
                        notions: Iterable[str] = NOTIONS,
                        seconds: float | None = None):
    """Compare each case's verdicts with those of `shuffles` presentation
    shuffles of it. Returns the number of decided comparisons and the
    mismatches, as (name, shuffle seed, notion, before, after)."""
    decided, mismatches = 0, []
    for name, text in cases:
        rules = rules_from(text)
        before = verdicts(rules, notions, seconds)
        for j in range(shuffles):
            seed = shuffle_seed(name, j)
            after = verdicts(rules_from(presentation_text(rules, seed)),
                             notions, seconds)
            for notion, result in before.items():
                if RESOURCE_EXHAUSTED in (result, after[notion]):
                    continue
                decided += 1
                if result != after[notion]:
                    mismatches.append((name, seed, notion, result, after[notion]))
    return decided, mismatches


def union_pairs(n: int) -> list[tuple[int, int]]:
    """n pairs of distinct classify-random structures; a shorter list is a
    prefix of a longer one."""
    rng = random.Random("disjoint-union")
    return [tuple(rng.sample(range(90), 2)) for _ in range(n)]


def union_checks(pairs: Iterable[tuple[int, int]]):
    """Check the disjoint-union relation on pairs of structures, with the
    predicates of the first renamed A0, A1, ... and of the second B0, B1,
    .... Returns the number of decided comparisons and the mismatches, as
    (pair, notion, verdict of A, of B, of A ∪ B)."""
    decided, mismatches = 0, []
    for i, j in pairs:
        a = presentation_text(rules_from(bench_text(i)), prefix="A")
        b = presentation_text(rules_from(bench_text(j)), prefix="B")
        parts = [verdicts(rules_from(text)) for text in (a, b, a + b)]
        for notion in NOTIONS:
            va, vb, vu = (v[notion] for v in parts)
            if RESOURCE_EXHAUSTED in (va, vb, vu):
                continue
            decided += 1
            if notion == MFA:
                holds = (vu == TERMINATING) == (va == vb == TERMINATING)
            else:
                holds = (vu == CYCLIC) == (CYCLIC in (va, vb))
            if not holds:
                mismatches.append(((i, j), notion, va, vb, vu))
    return decided, mismatches


def entailment_checks(count: int):
    """Compare the entails answers of `count` random instances
    (test_chase._random_instances), four queries each
    (test_chase._random_query), with those of the rules in a shuffled
    order, re-parsed from their rendering; the database and the query stay
    as they are. Returns the number of decided comparisons and the
    mismatches, as (instance, query, before, after)."""
    rng = random.Random("entailment-presentation")
    consts = [constant(n) for n in ("a", "b", "c")]
    budget = ChaseBudget(max_vertices=400, max_term_depth=3)
    decided, mismatches = 0, []
    for n, (rules, db) in enumerate(_random_instances(rng, count)):
        order = list(rules)
        rng.shuffle(order)
        shuffled = parse(render(RuleSet(order))).rules
        tree = run_chase(rules, db, budget)
        sets = results(tree) if tree.status == COMPLETE else []
        for _ in range(4):
            query = _random_query(rng, rules, consts,
                                  rng.choice(sets) if sets else None)
            before = entails(rules, db, query, budget)
            after = entails(shuffled, db, query, budget)
            if "unknown" in (before, after):
                continue
            decided += 1
            if before != after:
                mismatches.append((n, query, before, after))
    return decided, mismatches


def test_verdicts_do_not_depend_on_presentation():
    # Every third classify-random structure, one shuffle each.
    decided, mismatches = presentation_checks(bench_cases(range(0, 90, 3)), 1)
    assert mismatches == []
    assert decided >= 60, decided


def test_presentation_shuffles_move_rules_and_body_atoms():
    # A shuffle that moved nothing would let the test above pass vacuously.
    # Structure 54 has four predicates, so renaming keeps each line's length.
    rules = rules_from(bench_text(54))
    plain = presentation_text(rules)
    for j in range(3):
        text = presentation_text(rules, shuffle_seed("structure-54", j))
        assert text != plain
        assert sorted(map(len, text.splitlines())) == \
            sorted(map(len, plain.splitlines()))


def test_disjoint_unions_compose_verdicts():
    decided, mismatches = union_checks(union_pairs(10))
    assert mismatches == []
    assert decided >= 20, decided


def test_entailment_does_not_depend_on_rule_order():
    decided, mismatches = entailment_checks(150)
    assert mismatches == []
    assert decided >= 500, decided


# (structure, shuffle) pairs under which rmfa-like changes its verdict:
# structure 54 from terminating to not-detected, and 67 the other way. Its
# blocking reads the facts derived so far, whose order the presentation
# decides.
RMFA_LIKE_MOVES = [(54, 0), (67, 0), (67, 1)]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_rmfa_like_verdicts_do_not_depend_on_presentation():
    cases = dict(bench_cases(sorted({i for i, _ in RMFA_LIKE_MOVES})))
    for i, j in RMFA_LIKE_MOVES:
        name = f"structure-{i}"
        rules = rules_from(cases[name])
        shuffled = rules_from(presentation_text(rules, shuffle_seed(name, j)))
        assert verdicts(rules, (RMFA_LIKE,)) == verdicts(shuffled, (RMFA_LIKE,))
