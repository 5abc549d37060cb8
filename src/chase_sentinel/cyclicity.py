"""Static never-termination analysis.

Starting from a rule's own body turned into fresh constants, a saturation
collects chosen outputs of triggers that are loaded, carry no cyclic terms
in their substitution, are unblockable, and (for the pivot rule) are
injective. A term that nests the pivot rule's skolem symbols inside each
other certifies that the restricted chase admits no finite tree for the
rule set extended by that database, for any database that loads the pivot
rule. The provenance of the saturation is sliced backward into a replayable
trigger prefix whose constant mapping can be pumped forever.

A saturation runs in semi-naive rounds on `matcher.discover`: the first
round matches every rule, each later one finds only the keys of triggers
that use a fact the previous round added. A round sorts its keys on rule
position, then body image reprs, so every witness is the one that
re-matching every rule each round finds. The watch tests each argument of
each fact a trigger adds, in order, with `model.is_rho_cyclic`, and keeps
no record of the terms it has seen. This is exact: an output's arguments
are terms of the trigger's image or skolem terms over its frontier image,
so no output adds a term with a new proper subterm, and an older term was
tested when it arrived, without stopping the run.

Three notions are provided: the full search over all head choices, the
cheaper search over the uniform head choices hc_1..hc_b only, and the
deterministic-rules-only search with the coarser star abstraction. A
saturation is resumable: it yields after each applied trigger. `check` runs
each notion as one schedule of rounds over the (head choice, pivot) pairs of
its family, in the notion's order: round 1 lets every pair apply 4
triggers, and each later round doubles that quota and resumes the pairs that
reached it. So a short witness of a late pair is not kept waiting behind
long saturations of earlier pairs, and every pair still applies the triggers
it applies alone. Every pair reads the budget's one absolute deadline.
Unblockability answers are kept with the rule set, so every saturation, and
every later check on the same rule set, reads the answers that earlier ones
built.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .approx import (
    check_reversible,
    is_star_unblockable,
    is_uc_unblockable,
    skeleton,
    unblockability_cache,
)
from .matcher import FactSet, HeadChoice, Trigger, discover
from .model import (
    Atom,
    ConstantMapping,
    Constant,
    Rule,
    RuleSet,
    Term,
    db_constant,
    gc_paused,
    is_cyclic,
    is_rho_cyclic,
)
from .termination import NOT_DETECTED, RESOURCE_EXHAUSTED, SearchBudget

__all__ = [
    "AppliedTrigger",
    "SaturationRun",
    "CyclicityPrefix",
    "Verdict",
    "InternalInconsistencyError",
    "RPC",
    "RPC_S",
    "DRPC",
    "rule_database",
    "rpc_fact_set",
    "drpc_fact_set",
    "check",
    "extract_prefix",
    "unroll_prefix",
]

RPC = "RPC"
RPC_S = "RPC_s"
DRPC = "DRPC"

CYCLIC = "cyclic"

_NOTION_ALIASES = {
    "rpc": RPC,
    "rpc_s": RPC_S,
    "rpcs": RPC_S,
    "drpc": DRPC,
}


class InternalInconsistencyError(RuntimeError):
    """A recorded provenance failed to replay; this indicates a bug."""


def rule_database(rule: Rule) -> Trigger:
    """The seed trigger of the rule's database: every body variable x is
    frozen to the fresh constant c_x, and its body_facts() are the
    database."""
    return Trigger((rule, *[db_constant(v.name) for v in rule.body_vars]))


@dataclass(frozen=True)
class AppliedTrigger:
    """One applied trigger and the facts its output added."""

    trigger: Trigger
    new: tuple[Atom, ...]


@dataclass
class SaturationRun:
    """Outcome of one pivot-rule saturation, with full provenance: the
    applied triggers in order, starting with the seed. When a cyclic term
    was found, the last one applied produced it and the run stopped there.
    Without a head choice only deterministic rules took part."""

    rules: RuleSet
    rho: Rule
    hc: HeadChoice | None
    facts: FactSet
    provenance: list[AppliedTrigger]
    cyclic_term: Term | None
    truncated: bool


def _out(hc: HeadChoice | None, trigger: Trigger) -> tuple[Atom, ...]:
    """The trigger's output under the head choice; without one, only
    deterministic rules take part, so their one disjunct."""
    return trigger.out(1) if hc is None else hc.out(trigger)


def _pair_run(rules: RuleSet, rho: Rule, hc: HeadChoice | None) -> SaturationRun:
    """The run of one (head choice, pivot) pair before its seed is applied:
    its facts are rho's rule database."""
    facts = FactSet(rule_database(rho).body_facts())
    return SaturationRun(rules, rho, hc, facts, [], None, False)


def _saturate(
    run: SaturationRun,
    budget: SearchBudget,
    injectivity_guard: bool = True,
) -> Iterator[None]:
    """Shared saturation engine, resumable: it applies triggers to run and
    yields after each one that leaves the saturation going, so a caller can
    suspend the run between two triggers and resume it later. The budget's
    deadline is absolute and read before each candidate key, so a run
    resumed after it truncates without applying another trigger.

    With a head choice, triggers of every rule contribute their chosen
    output and must be unblockable under the unique-constants abstraction.
    Without one (the deterministic notion), only triggers of deterministic
    rules take part and the star abstraction is used.

    A trigger new in a round uses a fact the previous round added, since
    every other loaded trigger was a candidate before, and discover returns
    its key in no other round. Only the seed comes back, from the opening
    full match. A round sorts keys, totally since distinct terms of one
    rule set have distinct reprs, and builds a Trigger only for a key that
    reaches the unblockability test.
    """
    rules, rho, hc, facts = run.rules, run.rho, run.hc, run.facts
    deterministic_only = hc is None
    seed = rule_database(rho)

    position = {rule: i for i, rule in enumerate(rules)}

    def record(trigger: Trigger) -> bool:
        """Apply one trigger; returns True when a cyclic term was found."""
        new = facts.update(_out(hc, trigger))
        run.provenance.append(AppliedTrigger(trigger, tuple(new)))
        for fact in new:
            for t in fact.terms:
                if is_rho_cyclic(t, rho):
                    run.cyclic_term = t
                    return True
        return False

    if record(seed):
        return
    yield

    found = discover(rules, facts)
    while True:
        mark = len(run.provenance)
        candidates = [key for key in found if key != seed and (
            key[0].is_deterministic or not deterministic_only)]
        candidates.sort(key=lambda k: (position[k[0]], tuple(map(repr, k[1:]))))
        for key in candidates:
            if budget.expired():
                run.truncated = True
                return
            image = key[1:]
            if any(is_cyclic(t) for t in image):
                continue
            if budget.max_term_depth is not None and \
                    any(t.depth > budget.max_term_depth for t in image):
                run.truncated = True
                continue
            if injectivity_guard and key[0].id == rho.id:
                if len(set(image)) != len(image):
                    continue
            trigger = Trigger(key)
            if not (is_star_unblockable(rules, trigger) if hc is None
                    else is_uc_unblockable(rules, hc, trigger)):
                continue
            if budget.max_triggers is not None and \
                    len(run.provenance) >= budget.max_triggers:
                run.truncated = True
                return
            if record(trigger):
                return
            yield
        new = [fact for applied in run.provenance[mark:] for fact in applied.new]
        if not new:
            return
        found = discover(rules, facts, new)


def _run_to_end(rules: RuleSet, rho: Rule, hc: HeadChoice | None,
                budget: SearchBudget | None,
                injectivity_guard: bool = True) -> SaturationRun:
    """One saturation of the pair, drained without suspension."""
    run = _pair_run(rules, rho, hc)
    for _ in _saturate(run, budget or SearchBudget(), injectivity_guard):
        pass
    return run


def rpc_fact_set(
    rules: RuleSet,
    hc: HeadChoice,
    rho: Rule,
    budget: SearchBudget | None = None,
    *,
    injectivity_guard: bool = True,
) -> SaturationRun:
    """Saturation for one generating rule under one head choice.

    The injectivity guard on pivot-rule triggers is part of the definition;
    disabling it exists purely to demonstrate why it is needed.
    """
    if not rho.is_generating:
        raise ValueError(f"rule {rho.id} is not generating")
    return _run_to_end(rules, rho, hc, budget, injectivity_guard)


def drpc_fact_set(rules: RuleSet, rho: Rule,
                  budget: SearchBudget | None = None) -> SaturationRun:
    """Saturation over deterministic rules only, star abstraction."""
    if not (rho.is_generating and rho.is_deterministic):
        raise ValueError(f"rule {rho.id} is not deterministic and generating")
    return _run_to_end(rules, rho, None, budget)


# ---------------------------------------------------------------------------
# Prefix extraction

@dataclass(frozen=True)
class CyclicityPrefix:
    """Replayable evidence: a loaded trigger sequence from the rule database
    of rho, ending in a trigger of rho whose output carries a rho-cyclic
    term, together with the constant mapping that pumps it. Without a head
    choice every trigger fires its one disjunct; the Verdict that carries
    the prefix names the notion."""

    rho: Rule
    hc: HeadChoice | None
    triggers: tuple[Trigger, ...]
    g: ConstantMapping
    cyclic_term: Term


def extract_prefix(run: SaturationRun) -> CyclicityPrefix:
    """Slice the provenance backward from the cyclic trigger.

    The slice keeps exactly the triggers whose outputs feed, transitively,
    the body of the final trigger, and always starts at the seed trigger.
    Validation replays loadedness, rebuilds the constant mapping, and checks
    its reversibility on the skeleton of every non-seed trigger; a failure
    means the saturation recorded something unsound and is raised loudly.
    """
    if run.cyclic_term is None:
        raise ValueError("saturation found no cyclic term")
    final = run.provenance[-1].trigger
    if final.rule.id != run.rho.id:
        raise InternalInconsistencyError(
            f"cyclic output produced by {final.rule.id}, "
            f"expected {run.rho.id}")

    derived_by = {fact: index for index, applied in enumerate(run.provenance)
                  for fact in applied.new}
    keep: set[int] = {0, len(run.provenance) - 1}
    frontier_facts = list(final.body_facts())
    while frontier_facts:
        fact = frontier_facts.pop()
        src = derived_by.get(fact)
        if src is None or src in keep:
            continue
        keep.add(src)
        frontier_facts.extend(run.provenance[src].trigger.body_facts())
    triggers = tuple(run.provenance[i].trigger for i in sorted(keep))

    # The seed and the last trigger are both rho's, so their images pair
    # up variable by variable.
    mapping: dict[Constant, Term] = {}
    for c, target in zip(triggers[0][1:], triggers[-1][1:]):
        assert isinstance(c, Constant)
        if mapping.setdefault(c, target) != target:
            raise InternalInconsistencyError(
                f"constant mapping ill-defined at {c!r}")
    g = ConstantMapping(mapping)
    _validate_prefix(run, triggers, g)
    return CyclicityPrefix(run.rho, run.hc, triggers, g, run.cyclic_term)


def _validate_prefix(run: SaturationRun, triggers: Sequence[Trigger],
                     g: ConstantMapping) -> None:
    facts = FactSet(rule_database(run.rho).body_facts())
    for pos, trigger in enumerate(triggers):
        for fact in trigger.body_facts():
            if fact not in facts:
                raise InternalInconsistencyError(
                    f"prefix trigger {pos} is not loaded during replay")
        facts.update(_out(run.hc, trigger))
    if tuple(map(g.apply, triggers[0][1:])) != triggers[-1][1:]:
        raise InternalInconsistencyError("constant mapping does not close the loop")
    term = run.cyclic_term
    if not is_rho_cyclic(term, run.rho) or not any(
            term in atom.terms for atom in _out(run.hc, triggers[-1])):
        raise InternalInconsistencyError(
            f"final output does not carry the reported cyclic term {term!r}")
    for trigger in triggers[1:]:
        certificate = check_reversible(g, skeleton(trigger, run.rules))
        if not certificate.reversible:
            raise InternalInconsistencyError(
                f"constant mapping not reversible: {certificate.detail}")


def unroll_prefix(prefix: CyclicityPrefix, repetitions: int) -> list[Trigger]:
    """First repetitions blocks of the induced infinite sequence.

    Block j repeats the non-seed triggers with the constant mapping applied
    j-1 times to their images, so the result has 1 + (len(prefix) - 1) *
    repetitions triggers and repetitions = 1 returns the prefix itself.
    The range of g is ground, so every image stays ground.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    g = prefix.g
    out = [prefix.triggers[0]]
    for j in range(1, repetitions + 1):
        for trigger in prefix.triggers[1:]:
            out.append(Trigger((trigger[0], *[
                g.apply_power(t, j - 1) for t in trigger[1:]])))
    return out


# ---------------------------------------------------------------------------
# Verdicts

@dataclass
class Verdict:
    notion: str
    result: str
    witness: CyclicityPrefix | None
    stats: dict


# Applied triggers, counting the seed, that each pair gets in the first
# round of `check`; each later round doubles it.
_FIRST_QUOTA = 4


def _pairs(rules: RuleSet, notion: str) -> Iterator[tuple[HeadChoice | None, Rule]]:
    """The notion's (head choice, pivot) pairs in search order: each head
    choice of its family with every eligible pivot in rule order."""
    if notion == DRPC:
        family: Iterator[HeadChoice | None] = iter([None])
    elif notion == RPC_S:
        branching = max((r.branching for r in rules), default=1)
        family = (HeadChoice.uniform(rules, i) for i in range(1, branching + 1))
    else:
        ids = [r.id for r in rules]
        family = (HeadChoice(rules, dict(zip(ids, combo))) for combo in
                  itertools.product(*(range(1, r.branching + 1) for r in rules)))
    for hc in family:
        for rho in rules:
            if rho.is_generating and (hc is not None or rho.is_deterministic):
                yield hc, rho


def _advance(run: SaturationRun, steps: Iterator[None], quota: int) -> bool:
    """Resume the pair's saturation until it has applied quota triggers;
    True when it finished before that."""
    for _ in steps:
        if len(run.provenance) >= quota:
            return False
    return True


@gc_paused
def check(rules: RuleSet, notion: str, budget: SearchBudget | None = None) -> Verdict:
    """Run one never-termination notion over every eligible pivot rule.

    The notion's (head choice, pivot) pairs are saturated in rounds. Round 1
    walks the pairs in the notion's order and lets each apply _FIRST_QUOTA
    triggers, counting the seed; every later round doubles the quota and
    resumes, in the same order, each pair that stopped at the quota. A pair
    applies the triggers it applies when run alone, in the same order, so
    its witness is the same; only which pair answers first can change. The
    first cyclic term ends the search, so `saturations` counts the pairs
    started up to it. Every pair reads the budget's one absolute deadline:
    once it has passed, no further pair starts and a resumed pair truncates
    before its next trigger, so the check ends with "resource-exhausted".

    DRPC takes the deterministic generating rules in rule order with no
    head choice. RPC_s takes hc_1..hc_b in turn, and RPC every head choice
    lexicographically in rule order, each with every generating rule in rule
    order. All pairs read the rule set's unblockability answers, and so does
    every later check on it: in a `classify` run, or a `batch` file, RPC_s
    reads the star answers that DRPC built. The unblockability counters in
    `stats` count only this call's work.

    Verdict "cyclic" always carries a validated witness prefix; the other
    results carry none. "resource-exhausted" is reported when a search was
    truncated before anything was found, never instead of "cyclic".
    """
    canonical = _NOTION_ALIASES.get(notion.lower())
    if canonical is None:
        raise ValueError(f"unknown notion {notion!r}")
    budget = budget or SearchBudget()
    start = time.monotonic()
    cache = unblockability_cache(rules)
    before = cache.counts()
    started = 0
    result, witness = NOT_DETECTED, None

    def first_round() -> Iterator[tuple[SaturationRun, Iterator[None]]]:
        nonlocal started, result
        for hc, rho in _pairs(rules, canonical):
            if budget.expired():
                result = RESOURCE_EXHAUSTED
                return
            started += 1
            run = _pair_run(rules, rho, hc)
            yield run, _saturate(run, budget)

    pending: Iterable[tuple[SaturationRun, Iterator[None]]] = first_round()
    quota = _FIRST_QUOTA
    while witness is None:
        suspended = []
        for run, steps in pending:
            if not _advance(run, steps, quota):
                suspended.append((run, steps))
                continue
            if run.truncated:
                result = RESOURCE_EXHAUSTED
            if run.cyclic_term is not None:
                result, witness = CYCLIC, extract_prefix(run)
                break
        if not suspended:
            break
        pending, quota = suspended, 2 * quota
    stats = {
        "notion": canonical,
        "saturations": started,
        **{name: n - before[name] for name, n in cache.counts().items()},
        "elapsed_ms": round((time.monotonic() - start) * 1000.0, 3),
    }
    return Verdict(canonical, result, witness, stats)
