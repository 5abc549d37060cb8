"""Checks of the benchmark's input generators: determinism, the recipe of
each family, and the stratification invariant. Run with

    python3 -m pytest perfbench
"""
from __future__ import annotations

import random
import re

import generators

ATOM = re.compile(r"(\w+)\(([^)]*)\)")


def _rng(*parts: object) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


def _rules(text: str):
    """(body atoms, head disjuncts) per rule line, atoms as (pred, args)."""
    for line in text.splitlines():
        if "->" not in line:
            continue
        body, head = line.rstrip(" .").split(" -> ")
        atoms = lambda s: [(p, [a.strip() for a in args.split(",")])
                           for p, args in ATOM.findall(s)]
        yield atoms(body), [atoms(d) for d in head.split(" | ")]


def _families(seed: int):
    return [
        generators.random_rule_set(_rng("structure", seed), _rng("names", seed), 16).text,
        generators.stratified_rule_set(_rng(seed), 512).text,
        generators.transitive_closure(_rng(seed), 40).text,
        generators.path_colouring(_rng(seed), 4, 5).text,
    ]


def test_same_seed_gives_identical_text():
    assert _families(7) == _families(7)


def test_other_seed_gives_other_text():
    assert all(a != b for a, b in zip(_families(7), _families(8)))


def test_random_sets_follow_the_recipe():
    for i in range(30):
        n = (8, 12, 16)[i % 3]
        text = generators.random_rule_set(_rng("s", i), _rng("p", i), n).text
        rules = list(_rules(text))
        assert len(rules) == n
        predicates = set()
        for body, heads in rules:
            assert 1 <= len(body) <= 2 and 1 <= len(heads) <= 2
            body_vars = {a for _, args in body for a in args}
            frontier = set()
            for disjunct in heads:
                assert 1 <= len(disjunct) <= 2
                frontier |= {a for _, args in disjunct for a in args} & body_vars
            existential = any(a not in body_vars for d in heads for _, args in d for a in args)
            assert frontier or not existential
            for p, args in body + [a for d in heads for a in d]:
                assert len(args) == 2
                predicates.add(p)
        assert len(predicates) <= n // 2


def test_stratified_heads_sit_above_bodies():
    for seed in range(5):
        text = generators.stratified_rule_set(_rng(seed), 512).text
        rules = list(_rules(text))
        assert len(rules) == 512
        for body, heads in rules:
            top = max(generators.level_of(p) for p, _ in body)
            low = min(generators.level_of(p) for d in heads for p, _ in d)
            assert top < low


def test_chase_instances_state_their_answers():
    tc = generators.transitive_closure(_rng(1), 10)
    assert len(tc.names) == 11 and tc.text.count("E(") == 10 + 2
    colour = generators.path_colouring(_rng(1), 3, 4)
    assert len(colour.names) == 3 * 5 and colour.text.count("Start(") == 1 + 3
    for inst in (tc, colour):
        for query, answer in inst.queries:
            assert f"? {query} ." in inst.text and answer in ("yes", "no")
