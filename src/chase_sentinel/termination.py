"""Acyclicity check: sufficient conditions for chase termination.

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
unconditionally sound variant: `matcher.discover` finds each trigger's key
once per saturation, and the chase's step `matcher.pop_active` pops keys
from one `matcher.Queues`, datalog first, testing each on its frontier
image against the derived facts in the default mode and against the
empty set, where none is obsolete, in the plain one. The saturation never
backtracks, so it never marks or undoes; its queues keep the keys already
popped, as the chase's do.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from .cyclicity import SearchBudget
from .matcher import FactSet, Queues, discover, enqueue, pop_active
from .model import (Atom, RuleSet, Term, gc_paused, is_k_cyclic, new_subterms,
                    star)

__all__ = ["AcyclicityVerdict", "check_acyclic", "critical_instance",
           "RMFA_LIKE", "MFA"]

TERMINATING = "terminating"
NOT_DETECTED = "not-detected"
RESOURCE_EXHAUSTED = "resource-exhausted"

RMFA_LIKE = "rmfa-like"
MFA = "mfa"


@dataclass
class AcyclicityVerdict:
    k: int
    result: str
    cyclic_term: Term | None
    stats: dict


def critical_instance(rules: RuleSet) -> list[Atom]:
    """One fact per predicate, every argument the special constant."""
    return [
        Atom(predicate, (star(),) * arity)
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

    seed_constant = star()
    facts = FactSet(critical_instance(rules))
    # What triggers are blocked against: in the default mode the derived
    # portion, everything added beyond the critical seed, and in the plain
    # one nothing. A fact belongs to the seed exactly when every argument is
    # the special constant, so seed re-derivations stay out of this set.
    blocking = FactSet()
    known_terms: set[Term] = {seed_constant}
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

    enqueue(queues, discover(rules, facts))
    while queues:
        if budget.expired():
            return verdict(RESOURCE_EXHAUSTED, None)
        if budget.max_triggers is not None and applied >= budget.max_triggers:
            return verdict(RESOURCE_EXHAUSTED, None)
        popped = pop_active(queues, blocking)
        if popped is None:
            break
        output = [atom for out in popped[1] for atom in out]
        if budget.max_term_depth is not None and any(
            t.depth > budget.max_term_depth for atom in output for t in atom.terms
        ):
            return verdict(RESOURCE_EXHAUSTED, None)
        applied += 1
        new = facts.update(output)
        if mode == RMFA_LIKE:
            for atom in new:
                if any(t != seed_constant for t in atom.terms):
                    blocking.add(atom)
        for t in new_subterms(new, known_terms):
            if is_k_cyclic(t, k):
                return verdict(NOT_DETECTED, t)
        if new:
            enqueue(queues, discover(rules, facts, new))
    return verdict(TERMINATING, None)
