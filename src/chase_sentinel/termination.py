"""Acyclicity check: sufficient conditions for chase termination.

The first stage of the pipeline; it imports only `model` and `matcher`.
It is the one home of what every stage shares: `SearchBudget` and the
result words `TERMINATING`, `NOT_DETECTED` and `RESOURCE_EXHAUSTED`.

The check saturates the skolemized rules from the critical instance, the
database holding every fact built from the rule set's predicates and the
special constant, reading disjunction conjunctively. The critical
instance is the over-approximation seed over the one-constant universe
{*}, and `model.facts_over` builds both. If saturation finishes without
ever creating a k-cyclic term (k + 1 nested occurrences of one skolem
symbol), every restricted chase tree of the rule set is finite, for any
database.

Two disciplines are offered. The default one ("rmfa-like") drops a trigger
when its head already matches into the derived portion of the saturation,
the facts outside the critical seed; restriction-aware blocking keeps the
check from drowning in the seed facts, which satisfy every head vacuously.
The plain discipline ("mfa") never drops a trigger and is the coarser,
unconditionally sound variant: `matcher.enqueue` discovers each trigger's
key once per saturation, straight into one `matcher.Queues`, and the
chase's step `matcher.pop_active` pops them, datalog first, testing each
on its frontier image against the derived facts in the default mode and
against the empty set, where none is obsolete, in the plain one. The saturation never
backtracks, so it never marks or undoes; its queues keep the keys already
popped, as the chase's do. `matcher.pop_active` also tests the budget's
term depth bound on the same frontier image, and a pop that would pass
it ends the check.

The k-cyclic watch runs only on pops of generating rules: it tests with
`model.is_k_cyclic`, in order, each argument of each newly added fact
that is a functional term over one of the popped rule's skolem symbols,
keeping no record of the terms it has seen. This is exact. Every argument
of an output is a term of the trigger's image or a skolem term
f(frontier image), f a symbol of the rule, so an output adds no term with
a new proper subterm, and a non-generating output adds no term at all.
Every term thus arrived in the critical instance, whose one term, the
special constant, is not functional, or as a skolem term of a generating
output, where it was tested without stopping the run. The arguments the
watch skips are image terms, which passed the test when they arrived, and
an image term over one of the rule's symbols is tested again in vain. So
the first k-cyclic argument tested is the first k-cyclic term the
saturation builds.

The pipeline's acyclicity stage, in `cli`, is a ladder of two rungs, and
every verdict's `stats` names the rung that answered. The first rung,
`weakly_acyclic`, reads the rule set alone: weak acyclicity (Fagin,
Kolaitis, Miller and Popa, TCS 2005) asks that no cycle of the position
graph over (predicate, position) pairs pass through a special edge. Weak
acyclicity is contained in the plain discipline's certificates with k = 1
(Cuenca Grau et al., JAIR 2013), so it certifies a set for every k >= 1,
and whatever the term depth bound, since it builds no term. Only a set
that is not weakly acyclic goes on to the second rung, the saturation
`check_acyclic`, which the tests keep as the reference in both modes.

The special edges follow the skolemization. A skolem term takes the
rule's whole frontier, not the variables of its own disjunct, so a special
edge runs from every body position of every frontier variable of the rule
to every existential position of every disjunct. Normal edges run from
each body position of a frontier variable to each head position of that
variable, in any disjunct, since the saturation reads disjunction
conjunctively.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from typing import Hashable, Iterable, Mapping

from .matcher import FactSet, Queues, enqueue, pop_active
from .model import (Atom, FunctionalTerm, RuleSet, Term, facts_over,
                    gc_paused, is_k_cyclic, star)

__all__ = ["SearchBudget", "AcyclicityVerdict", "check_acyclic",
           "weakly_acyclic", "critical_instance", "RMFA_LIKE", "MFA",
           "WEAKLY_ACYCLIC", "SATURATION", "TERMINATING", "NOT_DETECTED",
           "RESOURCE_EXHAUSTED"]

TERMINATING = "terminating"
NOT_DETECTED = "not-detected"
RESOURCE_EXHAUSTED = "resource-exhausted"

RMFA_LIKE = "rmfa-like"
MFA = "mfa"

# The rungs of the acyclicity stage, as its stats name them.
WEAKLY_ACYCLIC = "weakly-acyclic"
SATURATION = "saturation"


@dataclass(frozen=True)
class SearchBudget:
    """Limits of one search. The deadline is an absolute `time.monotonic()`
    value, not a duration, so every stage and saturation that shares the
    budget stops at the same instant: one value bounds a whole run. It is
    read before each trigger and each new (head choice, pivot) pair; an
    unblockability build in progress is not interrupted.

    max_term_depth means a different thing in the acyclicity check and in a
    saturation. The acyclicity check never builds a term deeper than it:
    `matcher.pop_active` hands back a trigger whose outputs would hold one,
    and the check ends with "resource-exhausted". A cyclicity saturation
    skips only a trigger whose body image holds a term deeper than it, and
    marks itself truncated, so it can build a term one level deeper than the
    bound."""

    max_triggers: int | None = 1_000_000
    max_term_depth: int | None = 8
    deadline: float | None = None

    def expired(self) -> bool:
        """Whether the deadline has passed."""
        return self.deadline is not None and time.monotonic() > self.deadline


@dataclass
class AcyclicityVerdict:
    k: int
    result: str
    cyclic_term: Term | None
    stats: dict


def critical_instance(rules: RuleSet) -> list[Atom]:
    """One fact per predicate, every argument the special constant: the
    facts over the universe {*}."""
    return facts_over(rules, (star(),))


def _components(succ: Mapping[Hashable, Iterable[Hashable]]) -> dict:
    """Each node's strongly connected component, named by its root:
    Tarjan's algorithm with an explicit stack of (node, successor
    iterator) frames, so deep graphs do not recurse. Nodes reached only
    as successors are included."""
    index: dict = {}
    low: dict = {}
    component: dict = {}
    stack: list = []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        frames = [(root, iter(succ[root]))]
        while frames:
            v, successors = frames[-1]
            for w in successors:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    frames.append((w, iter(succ.get(w, ()))))
                    break
                if w not in component and index[w] < low[v]:
                    low[v] = index[w]
            else:
                frames.pop()
                if frames:
                    u = frames[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        component[w] = v
                        if w == v:
                            break
    return component


def weakly_acyclic(rules: RuleSet) -> bool:
    """Whether no cycle of the position graph passes through a special
    edge (see the module docstring).

    A cycle of positions maps onto a cycle of predicates, so an edge can
    lie on one only if its two predicates share a strongly connected
    component of the predicate graph, body predicate to head predicate.
    The position graph is built from those edges alone, once per call, and
    then each special edge is checked once. Nothing is cached: the rule set
    is read afresh on every call."""
    predicates: dict[str, set[str]] = {p: set() for p in rules.predicates}
    for rule in rules:
        heads = {p for h in rule.heads for p, _ in h.atoms}
        for p, _ in rule.body:
            predicates[p] |= heads
    cluster = _components(predicates)

    graph: dict[tuple[str, int], set[tuple[str, int]]] = {}
    special: set[tuple[tuple[str, int], tuple[str, int]]] = set()
    for rule in rules:
        body = {cluster[p] for p, _ in rule.body}
        if not any(cluster[p] in body for h in rule.heads for p, _ in h.atoms):
            continue
        at: dict = {}
        for p, terms in rule.body:
            for i, t in enumerate(terms):
                at.setdefault(t, []).append((p, i))
        # The body positions of the frontier, which every skolem term reads.
        frontier = [u for x in rule.frontier for u in at[x]]
        for h in rule.heads:
            for p, terms in h.atoms:
                for j, t in enumerate(terms):
                    sources = at.get(t)
                    for u in frontier if sources is None else sources:
                        if cluster[u[0]] == cluster[p]:
                            graph.setdefault(u, set()).add((p, j))
                            if sources is None:
                                special.add((u, (p, j)))
    component = _components(graph)
    return all(component[u] != component[v] for u, v in special)


@gc_paused
def check_acyclic(
    rules: RuleSet,
    k: int = 2,
    budget: SearchBudget | None = None,
    *,
    mode: str = RMFA_LIKE,
) -> AcyclicityVerdict:
    """Saturate from the critical instance, watching for k-cyclic terms.

    Returns "terminating" when the saturation reaches a fixpoint with no
    k-cyclic term (a sound termination certificate), "not-detected" as soon
    as one appears, and "resource-exhausted" when a budget ran out first.
    The budget's deadline is absolute and read before each trigger.
    """
    if mode not in (RMFA_LIKE, MFA):
        raise ValueError(f"unknown mode {mode!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    budget = budget or SearchBudget()
    start = time.monotonic()

    facts = FactSet(critical_instance(rules))
    # What triggers are blocked against: in the default mode the derived
    # portion, everything added beyond the critical seed, and in the plain
    # one nothing. Every predicate's seed fact is in the critical instance
    # from the start, so `update` never returns one: the new facts it
    # returns are all derived, and go in unfiltered.
    blocking = FactSet()
    applied = 0
    queues = Queues()

    def verdict(result: str, term: Term | None) -> AcyclicityVerdict:
        stats = {
            "mode": mode,
            "rung": SATURATION,
            "applied": applied,
            "facts": len(facts),
            "elapsed_ms": round((time.monotonic() - start) * 1000.0, 3),
        }
        return AcyclicityVerdict(k, result, term, stats)

    enqueue(queues, rules, facts)
    while queues:
        if budget.expired():
            return verdict(RESOURCE_EXHAUSTED, None)
        if budget.max_triggers is not None and applied >= budget.max_triggers:
            return verdict(RESOURCE_EXHAUSTED, None)
        popped = pop_active(queues, blocking, budget.max_term_depth)
        if popped is None:
            break
        key, outputs = popped
        rule = key[0]
        if outputs is None:
            return verdict(RESOURCE_EXHAUSTED, None)
        applied += 1
        new = facts.update(chain.from_iterable(outputs))
        if mode == RMFA_LIKE:
            blocking.update(new)
        if rule.is_generating:
            symbols = rule.sk_symbols
            for _, terms in new:
                for t in terms:
                    if t.__class__ is FunctionalTerm and \
                            t.symbol in symbols and is_k_cyclic(t, k):  # type: ignore[attr-defined]
                        return verdict(NOT_DETECTED, t)
        if new:
            enqueue(queues, rules, facts, new)
    return verdict(TERMINATING, None)
