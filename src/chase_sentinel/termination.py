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
unconditionally sound variant. Triggers are found by `matcher.discover`,
the shared semi-naive routine, in the enumeration order of this check's
former pin loop; it yields each trigger once over the whole saturation.
"""
from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .cyclicity import SearchBudget
from .matcher import FactSet, Trigger, discover, is_obsolete
from .model import (Atom, Rule, RuleSet, Substitution, Term, is_k_cyclic, star,
                    subterms)

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
    """
    if mode not in (RMFA_LIKE, MFA):
        raise ValueError(f"unknown mode {mode!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    budget = budget or SearchBudget()
    start = time.monotonic()
    deadline = None
    if budget.timeout_seconds is not None:
        deadline = start + budget.timeout_seconds

    seed_constant = star()
    facts = FactSet(critical_instance(rules))
    # The derived portion: everything added beyond the critical seed. A fact
    # belongs to the seed exactly when every argument is the special
    # constant, so seed re-derivations stay out of this set.
    derived = FactSet()
    known_terms: set[Term] = {seed_constant}
    applied = 0

    datalog: deque[Trigger] = deque()
    general: deque[Trigger] = deque()

    def enqueue(found: Iterable[tuple[Rule, Substitution]]) -> None:
        for rule, sub in found:
            (datalog if rule.is_datalog else general).append(Trigger(rule, sub))

    def verdict(result: str, term: Term | None) -> AcyclicityVerdict:
        stats = {
            "mode": mode,
            "applied": applied,
            "facts": len(facts),
            "elapsed_ms": round((time.monotonic() - start) * 1000.0, 3),
        }
        return AcyclicityVerdict(k, result, term, stats)

    enqueue(discover(rules, facts))
    while datalog or general:
        if deadline is not None and time.monotonic() > deadline:
            return verdict(RESOURCE_EXHAUSTED, None)
        if budget.max_triggers is not None and applied >= budget.max_triggers:
            return verdict(RESOURCE_EXHAUSTED, None)
        trigger = datalog.popleft() if datalog else general.popleft()
        if mode == RMFA_LIKE and is_obsolete(trigger, derived):
            continue
        output = list(itertools.chain.from_iterable(trigger.outputs()))
        if budget.max_term_depth is not None and any(
            t.depth > budget.max_term_depth for atom in output for t in atom.terms
        ):
            return verdict(RESOURCE_EXHAUSTED, None)
        applied += 1
        new = facts.update(output)
        for atom in new:
            if any(t != seed_constant for t in atom.terms):
                derived.add(atom)
            for arg in atom.terms:
                for t in subterms(arg):
                    if t in known_terms:
                        continue
                    known_terms.add(t)
                    if is_k_cyclic(t, k):
                        return verdict(NOT_DETECTED, t)
        if new:
            enqueue(discover(rules, facts, new))
    return verdict(TERMINATING, None)
