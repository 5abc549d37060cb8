"""Seeded generators for the benchmark's three input families.

Every generator takes a `random.Random` and returns `.drls` text only; the
program under test sees nothing else. Generation depends on the standard
library alone, so the same seed gives byte-identical text whatever the state
of the package. Each family also returns the facts the output checks rely on
(the known verdict, chain length, path count), fixed by construction.

A rule that breaks a structural rule of the input language (a generating
rule with no frontier variable) is re-rolled on its own; re-rolling whole
sets never finishes at 40 or more rules.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = [
    "RandomSet",
    "StratifiedSet",
    "ChaseInstance",
    "random_rule_set",
    "stratified_rule_set",
    "transitive_closure",
    "path_colouring",
    "level_of",
]

BODY_VARS = ("X", "Y", "Z")


def _atom(predicate: str, args) -> str:
    return f"{predicate}({', '.join(args)})"


def _head(rng: random.Random, predicates, arity, body_vars, disjunct: int,
          fresh: int):
    """One head disjunct of 1-2 atoms, each argument drawn from the body
    variables plus `fresh` existential variables.

    Returns the atoms as (predicate, args) pairs, whether an existential
    occurs, and the frontier. Existential variables carry the disjunct
    number, so two disjuncts of one rule never share one.
    """
    pool = list(body_vars) + [f"{v}{disjunct}" for v in "UV"[:fresh]]
    atoms = []
    frontier = set()
    generating = False
    for _ in range(rng.randint(1, 2)):
        p = rng.choice(predicates)
        args = [rng.choice(pool) for _ in range(arity[p])]
        frontier.update(a for a in args if a in body_vars)
        generating |= any(a not in body_vars for a in args)
        atoms.append((p, args))
    return atoms, generating, frontier


def _rule(rng: random.Random, body_predicates, head_predicates, arity,
          fresh: int):
    """Body of 1-2 atoms over X, Y, Z and a head of one disjunct, or two
    with probability 0.3. A generating draw without a frontier variable is
    drawn again, this rule alone."""
    while True:
        body = []
        used: list[str] = []
        for _ in range(rng.randint(1, 2)):
            p = rng.choice(body_predicates)
            args = [rng.choice(BODY_VARS) for _ in range(arity[p])]
            used.extend(a for a in args if a not in used)
            body.append((p, args))
        heads = []
        generating = False
        frontier: set[str] = set()
        for d in range(1, 3 if rng.random() < 0.3 else 2):
            atoms, gen, front = _head(rng, head_predicates, arity, used, d, fresh)
            heads.append(atoms)
            generating |= gen
            frontier |= front
        if not generating or frontier:
            return body, heads


def _render_rule(body, heads, pred=lambda p: p) -> str:
    def conj(atoms):
        return ", ".join(_atom(pred(p), args) for p, args in atoms)

    return f"{conj(body)} -> {' | '.join(conj(h) for h in heads)} ."


@dataclass(frozen=True)
class RandomSet:
    rules: int
    text: str


def random_rule_set(structure: random.Random, presentation: random.Random,
                    n: int) -> RandomSet:
    """n rules over n/2 binary predicates, 1-2 body atoms, about 30% of
    rules with two head disjuncts, 1-2 atoms per disjunct.

    `structure` draws the rules and `presentation` the predicate names.
    Variable names, rule order and atom order stay as drawn: they fix the
    order in which the cyclicity search visits pivots and triggers, and
    with it the time to a verdict.
    """
    predicates = [f"p{i}" for i in range(max(1, n // 2))]
    arity = dict.fromkeys(predicates, 2)
    rules = [_rule(structure, predicates, predicates, arity, 2) for _ in range(n)]
    ids = presentation.sample(range(10 * len(predicates)), len(predicates))
    names = {p: f"p{i}" for p, i in zip(predicates, ids)}
    lines = [_render_rule(body, heads, names.__getitem__) for body, heads in rules]
    return RandomSet(n, "\n".join(lines) + "\n")


@dataclass(frozen=True)
class StratifiedSet:
    rules: int
    levels: int
    text: str


def level_of(predicate: str) -> int:
    """Level encoded in a stratified predicate name `l<level>q<index>`."""
    return int(predicate[1:predicate.index("q")])


STRATA = 5


def stratified_rule_set(rng: random.Random, n: int) -> StratifiedSet:
    """n rules over predicates of arity 2-3 arranged in levels 0..STRATA,
    n/16 predicates per level; rule i has its head at level 1 + i % STRATA.

    Every body predicate of a rule sits at a lower level than every head
    predicate, so no skolem symbol can nest inside itself and the chase
    terminates on every database. Head terms nest at most STRATA deep,
    inside the pipeline's default term-depth budget of 8.
    """
    levels = STRATA
    per_level = max(8, n // 16)
    by_level = [[f"l{lv}q{i}" for i in range(per_level)] for lv in range(levels + 1)]
    # Half the predicates of each level are binary and half ternary, and
    # rules are spread evenly over the levels, so the cost of a set varies
    # little between seeds at one size.
    arity = {}
    for ps in by_level:
        shapes = [2, 3] * (len(ps) // 2) + [2] * (len(ps) % 2)
        rng.shuffle(shapes)
        arity.update(zip(ps, shapes))
    lines = []
    for i in range(n):
        lv = 1 + i % levels
        below = [p for ps in by_level[:lv] for p in ps]
        lines.append(_render_rule(*_rule(rng, below, by_level[lv], arity, 1)))
    return StratifiedSet(n, levels, "\n".join(lines) + "\n")


@dataclass(frozen=True)
class ChaseInstance:
    """A rule file with facts, and queries with the answers the
    construction fixes."""

    family: str
    size: int
    text: str
    names: tuple[str, ...]
    queries: tuple[tuple[str, str], ...]


def _shuffled(rng: random.Random, items: list[str]) -> list[str]:
    out = list(items)
    rng.shuffle(out)
    return out


def _names(rng: random.Random, prefix: str, count: int) -> list[str]:
    """count distinct constant names in seeded order."""
    ids = rng.sample(range(10 * count), count)
    return [f"{prefix}{i}" for i in ids]


def _program(rng: random.Random, rules: list[str], facts: list[str],
             queries) -> str:
    """Rules, then the facts in seeded order, then one `?` line per query."""
    lines = rules + _shuffled(rng, facts) + [f"? {q} ." for q, _ in queries]
    return "\n".join(lines) + "\n"


def transitive_closure(rng: random.Random, n: int) -> ChaseInstance:
    """Datalog transitive closure over a chain of n + 1 nodes.

    `names[i]` is the i-th node along the chain, so the closure has exactly
    n(n+1)/2 `T` facts and `T(names[i], names[j])` holds iff i < j.
    """
    names = _names(rng, "a", n + 1)
    facts = [f"E({names[i]}, {names[i + 1]}) ." for i in range(n)]
    i = rng.randrange(n)
    j = rng.randrange(i + 1, n + 1)
    queries = (
        (f"T({names[0]}, {names[n]})", "yes"),
        (f"T({names[i]}, {names[j]})", "yes"),
        (f"T({names[j]}, {names[i]})", "no"),
    )
    rules = [
        "E(X, Y) -> T(X, Y) .",
        "T(X, Y), E(Y, Z) -> T(X, Z) .",
    ]
    return ChaseInstance("tc", n, _program(rng, rules, facts, queries),
                         tuple(names), queries)


def path_colouring(rng: random.Random, m: int, length: int) -> ChaseInstance:
    """Disjunctive 2-colouring of m disjoint paths of `length` edges.

    The first node of each path picks a colour, the edges force the rest,
    and every red node gets a fresh side witness. The chase therefore has
    exactly 2^m result sets, each a proper colouring. `names` lists the
    nodes path by path, `length + 1` per path.
    """
    names = _names(rng, "c", m * (length + 1))
    facts = []
    for p in range(m):
        path = names[p * (length + 1):(p + 1) * (length + 1)]
        facts.append(f"Start({path[0]}) .")
        facts.extend(f"E({path[k]}, {path[k + 1]}) ." for k in range(length))
    first = names[0]
    queries = (
        (f"V({first})", "yes"),
        (f"Red({first})", "no"),
        (f"Red({first}), Blue({first})", "no"),
        (f"Mark({first}, W)", "no"),
    )
    rules = [
        "Start(X) -> Red(X) | Blue(X) .",
        "Red(X), E(X, Y) -> Blue(Y) .",
        "Blue(X), E(X, Y) -> Red(Y) .",
        "E(X, Y) -> V(X), V(Y) .",
        "Red(X) -> Mark(X, W) .",
    ]
    return ChaseInstance("colour", m, _program(rng, rules, facts, queries),
                         tuple(names), queries)
