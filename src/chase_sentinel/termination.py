"""Acyclicity check: sufficient conditions for chase termination.

The first stage of the pipeline; it imports only `model` and `matcher`.
It is the one home of what every stage shares: `SearchBudget` and the
result words `TERMINATING`, `NOT_DETECTED` and `RESOURCE_EXHAUSTED`.

The check saturates the skolemized rules from the critical instance, the
database holding every fact built from the rule set's predicates and the
special constant, reading disjunction conjunctively. If saturation finishes
without ever creating a k-cyclic term (k + 1 nested occurrences of one
skolem symbol), every restricted chase tree of the rule set is finite, for
any database.

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
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain

from .matcher import FactSet, Queues, enqueue, pop_active
from .model import (Atom, FunctionalTerm, RuleSet, Term, gc_paused,
                    is_k_cyclic, new_atom, star)

__all__ = ["SearchBudget", "AcyclicityVerdict", "check_acyclic",
           "critical_instance", "RMFA_LIKE", "MFA", "TERMINATING",
           "NOT_DETECTED", "RESOURCE_EXHAUSTED"]

TERMINATING = "terminating"
NOT_DETECTED = "not-detected"
RESOURCE_EXHAUSTED = "resource-exhausted"

RMFA_LIKE = "rmfa-like"
MFA = "mfa"


@dataclass(frozen=True)
class SearchBudget:
    """Limits of one search. The deadline is an absolute `time.monotonic()`
    value, not a duration, so every stage and saturation that shares the
    budget stops at the same instant: one value bounds a whole run. It is
    read before each trigger and each new (head choice, pivot) pair; an
    unblockability build in progress is not interrupted."""

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
    """One fact per predicate, every argument the special constant."""
    return [
        new_atom((predicate, (star(),) * arity))
        for predicate, arity in rules.predicates.items()
    ]


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
