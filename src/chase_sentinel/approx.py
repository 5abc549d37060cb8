"""Finite over-approximations of chase futures and trigger unblockability.

A trigger survives forever (is unblockable) when it stays non-obsolete for a
finite fact set that over-approximates everything later triggers could add.
The approximation abstracts foreign terms either to the special constant
(star) or to one fresh constant per skolem symbol (unique constants); the
latter is strictly sharper because distinct symbols stay distinct. A build
is given the trigger it is built around (the pivot) and the kind of
abstraction, STAR or UC, and works out the pivot's skeleton itself.

Every term of an over-approximation is a fixed point of its abstraction: a
skeleton term, a fresh per-symbol constant or the special constant. A
trigger's body variables therefore map to terms that need no abstracting,
and only the skolem terms of its output do. The fixpoint relies on this: it
fills compiled head templates whose skolem slots read the term off the
skeleton or fall back to the symbol's replacement, so no skolem term is
ever built there. These templates are the one statement of the
abstraction; the pivot's own outputs are abstracted through them too.

Those templates, and the comparison with the pivot's output, read a
trigger only on its rule's frontier image. A build therefore works on
(rule, *frontier image) keys from end to end: it queues each once, and
fills a skolem slot by one lookup of the image, since a skolem term's
arguments are exactly the frontier. Its seed holds every fact over the
skeleton's constants plus the special constant (the universe U), so the
seed's keys are enumerated over U directly. Those of a rule whose
contributed templates fill only frontier images and constants of U are
counted as queued but never popped, since their output lies in the seed.
Later keys come from matcher.frontier_keys, pinned to the pivot's birth
facts and then to each new batch: it reads images straight off the facts,
and stops at the first match when the pinned atom binds the frontier. Only
the resulting fixpoint as a set is specified, not the order in which its
facts were added.

A popped key is run once per contributed image. Its read positions are the
frontier positions that the rule's contributed templates copy: the chosen
one under a head choice, all of them otherwise. Two keys that agree there
fill identical facts and get the same exclusion decision, unless the rule
is the pivot's (exclusion compares raw skolem outputs, which read the whole
frontier) or a contributed slot looks the image up in the skeleton; those
rules are read on the whole image. Another rule's skolem symbols are never
the pivot's, so its raw output never equals the pivot's when it holds a
skolem term.

The star build answers a unique-constants (UC) question when it can. Let h
send every per-symbol constant c_f to the special constant and fix every
other term. When the pivot's skeleton holds neither constant, h maps the
UC fixpoint, under any head choice or none, into the conjunctive star
fixpoint. Both builds have the same seed and birth facts, which h fixes,
and h(UC fill) lies in the star fill of h(image) slot by slot: a frontier
slot copies the image, c_f becomes the special constant, and a skeleton
lookup hits for an image iff it hits for h(image), since skeleton
arguments hold neither constant.
Conjunctive star excludes h(k) only if h(k)'s raw output is the pivot's;
then k agrees with h(k) on the positions that output reads, so the UC build
excludes k too. So a pivot obsolete for the UC fixpoint is obsolete for
the star one, and a star-unblockable pivot is UC-unblockable. The star
build is several times cheaper and serves every head choice, so a UC
question asks it first and builds under UC only when star blocks.

The fixpoint is one loop that hands out each batch of new facts, starting
with the seed. build_over_approx drains it. An unblockability check only
asks whether the pivot is obsolete for the fixpoint, and stops at the
first batch that makes it so: obsolescence is monotone in the fact set and
the facts only grow, so the pivot is obsolete for the fixpoint iff it is
for some prefix of batches. The check is complete batch by batch: at the
first such prefix, some match of a head disjunct uses a fact of the last
batch, or the pivot would be obsolete one batch earlier. So the seed is
tested whole and each later batch only through matches using its facts.

Reversible constant mappings transport unblockability between triggers of
the same rule, which is what lets a finite search certify infinitely many
trigger repetitions.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .chase import HeadChoice
from .matcher import (FactSet, Trigger, compile_query, frontier_keys,
                      is_obsolete, query_matched)
from .model import (
    STAR_NAME,
    UC_PREFIX,
    Atom,
    Constant,
    ConstantMapping,
    FunctionalTerm,
    Rule,
    RuleSet,
    SkolemSymbol,
    Term,
    apply_atoms,
    birth_facts,
    skeleton,
    star,
    subterms,
    uc_constant,
)

__all__ = [
    "STAR",
    "UC",
    "OverApproximation",
    "ReversibilityCertificate",
    "build_over_approx",
    "is_star_unblockable",
    "is_uc_unblockable",
    "check_reversible",
    "UnblockabilityCache",
]

STAR = "star"
UC = "uc"


@dataclass
class OverApproximation:
    """The fact set of one build, equal as a set to the least fixpoint (its
    insertion order is unspecified), and the number of (rule, frontier
    image) keys it queued: each key of a trigger loaded in it, once. The
    seed's keys are enumerated over the universe U, not matched."""

    facts: FactSet
    triggers: int


def _seed_facts(rules: RuleSet, terms: frozenset[Term], pivot: Trigger,
                ) -> tuple[FactSet, list[Term], list[Atom]]:
    """The seed facts, their universe U (the constants of the pivot's
    skeleton `terms` plus the special constant) and the birth facts that
    are not over U."""
    facts = FactSet()
    consts = sorted(
        (t for t in terms if isinstance(t, Constant)),
        key=lambda c: c.name,
    )
    universe: list[Term] = list(consts) + [star()]
    for predicate, arity in rules.predicates.items():
        for combo in itertools.product(universe, repeat=arity):
            facts.add(Atom(predicate, combo))
    births = facts.update(sorted(birth_facts(pivot, rules), key=repr))
    return facts, universe, births


def _seed_blocks(pivot: Trigger) -> bool:
    """Whether the seed of _seed_facts makes the pivot obsolete, read off
    the pivot alone: some head disjunct's universal variables all map to
    constants. The skeleton holds every constant a frontier variable maps
    to, so these lie in U; with the disjunct's existential variables sent
    to the special constant, also in U, each of its atoms is a fact over U,
    and the seed holds every such fact for every predicate."""
    sigma = pivot.substitution
    return any(all(sigma[t].__class__ is Constant
                   for a in d.atoms for t in a.terms
                   if t not in d.existential_vars)
               for d in pivot.rule.heads)


# A compiled head disjunct: one (predicate, slots) pair per atom. A slot is
# the position of a frontier variable in the rule's frontier image (its image
# is copied), a constant (the replacement of a skolem symbol with no term in
# the skeleton) or, for a skolem term f(frontier) whose symbol f occurs in the
# skeleton, the pair (skeleton terms of f by argument tuple, f's replacement):
# the skeleton term when it has the frontier image as its arguments, else the
# replacement.
_Slot = int | Term | tuple[dict[tuple[Term, ...], Term], Term]
_Shape = tuple[tuple[str, tuple[_Slot, ...]], ...]


def _compile_heads(rule: Rule, kind: str,
                   by_symbol: Mapping[SkolemSymbol, dict[tuple[Term, ...], Term]],
                   ) -> tuple[_Shape, ...]:
    """Every skolemized head disjunct of the rule, as abstracting slots."""
    position = {v: i for i, v in enumerate(rule.frontier)}
    shapes = []
    for disjunct in rule.sk_heads:
        atoms = []
        for atom in disjunct:
            slots: list[_Slot] = []
            for t in atom.terms:
                if isinstance(t, FunctionalTerm):
                    replacement = uc_constant(t.symbol) if kind == UC else star()
                    known = by_symbol.get(t.symbol)
                    slots.append(replacement if known is None
                                 else (known, replacement))
                else:
                    slots.append(position[t])  # type: ignore[index]
            atoms.append((atom.predicate, tuple(slots)))
        shapes.append(tuple(atoms))
    return tuple(shapes)


def _fill(shape: _Shape, image: tuple[Term, ...]) -> tuple[Atom, ...]:
    """The abstracted output of one compiled disjunct for a frontier image."""
    return tuple([
        Atom(predicate, tuple([
            image[s] if s.__class__ is int  # type: ignore[index]
            else s[0].get(image, s[1]) if s.__class__ is tuple  # type: ignore[index]
            else s
            for s in slots]))
        for predicate, slots in shape])


def _over_universe(shapes: Iterable[_Shape], universe: set[Term]) -> bool:
    """Whether the shapes fill only terms of the universe from an image over
    it: every slot is a frontier position or a constant of the universe."""
    return all(s.__class__ is int or s.__class__ is not tuple and s in universe
               for shape in shapes for _, slots in shape for s in slots)


def _same_output(rule: Rule, image: tuple[Term, ...], disjunct: int,
                 pivot_out: frozenset[Atom],
                 pivot_terms: Mapping[tuple, Term]) -> bool:
    """Whether the rule's unabstracted output of one disjunct for a frontier
    image is pivot_out.

    Skolem terms are looked up among the pivot's output terms instead of
    being built: a term that is not one of them matches no pivot atom. A
    skolem term's arguments are the frontier, so its key is the image.
    """
    sigma = dict(zip(rule.frontier, image))
    out = set()
    for atom in rule.sk_heads[disjunct - 1]:
        terms = []
        for t in atom.terms:
            if isinstance(t, FunctionalTerm):
                found = pivot_terms.get((t.symbol, image))
                if found is None:
                    return False
                terms.append(found)
            else:
                terms.append(sigma[t])  # type: ignore[index]
        fact = Atom(atom.predicate, tuple(terms))
        if fact not in pivot_out:
            return False
        out.add(fact)
    return len(out) == len(pivot_out)


def build_over_approx(
    rules: RuleSet,
    pivot: Trigger,
    kind: str,
    hc: HeadChoice | None = None,
) -> OverApproximation:
    """Least fact set closed under abstracted outputs of loaded triggers.

    The abstraction is `kind` (STAR or UC) around the pivot's skeleton.

    Seeded with every fact over the rule set's predicates and the skeleton's
    constants plus the special constant, together with the pivot's birth
    facts. With a head choice, each loaded trigger contributes its chosen
    output unless that output equals the pivot's; without one, disjunction is
    read conjunctively and each loaded trigger contributes all its outputs
    unless it shares the pivot's rule and all of its outputs.

    Every term of the fact set is a fixed point of the abstraction: a
    skeleton term, a fresh per-symbol constant or the special constant.
    Body variables of a trigger therefore map to terms that need no
    abstracting, and only the skolem terms of its output do. Those are
    never built: each rule's heads are compiled once per build into slots
    that read a skolem term off the skeleton or fall back to its
    replacement. Exclusion still compares unabstracted outputs; since
    abstraction is a function, only triggers whose abstracted output equals
    the pivot's abstracted output can be excluded, and only those are
    compared exactly.

    A loaded trigger's contribution and its exclusion read it only on the
    rule's frontier image, so the fixpoint queues each (rule, *frontier
    image) key once per build, and builds no Trigger or substitution for
    it. The seed holds every fact over its universe U, so every assignment
    of a body into U is loaded: the seed's keys over U are enumerated
    directly. A rule whose contributed shapes fill only frontier images and
    constants of U adds nothing from those keys, so they are counted but
    never popped. Only the matches through birth facts outside U, and then
    through each new fact, are joined, by matcher.frontier_keys: it yields
    keys and not substitutions, and stops at the first match when the
    pinned atom binds the whole frontier. Exclusion depends only on the
    trigger, so the result is the least fixpoint of a monotone operator and
    does not depend on queue order; only the fact set as a set is
    specified, not its insertion order. The number of keys is returned as
    OverApproximation.triggers.
    """
    for facts, _, queued in _batches(rules, pivot, kind, hc):
        pass
    # The key set is live: it is read once the fixpoint is done.
    return OverApproximation(facts, len(queued))


def _batches(
    rules: RuleSet,
    pivot: Trigger,
    kind: str,
    hc: HeadChoice | None,
) -> Iterator[tuple[FactSet, Iterable[Atom], set[tuple]]]:
    """The fixpoint of build_over_approx, one batch of new facts at a time.

    Yields (facts, batch, queued): the fact set so far, the facts just added
    to it and the live set of queued keys. The first batch is the seed (the
    whole fact set), handed out once its keys over U are queued; each later
    one is what one loaded key added, handed out before its matches are
    queued. Draining the generator runs the fixpoint to its end.

    The queue holds (rule, *frontier image) keys. A rule whose contributed
    shapes (the chosen disjunct under a head choice, all of them otherwise)
    fill only frontier images and constants of U adds nothing from a key
    over U, since the seed holds every fact over U: its keys over U are
    queued but never popped.

    A popped key is skipped when (rule, *image at the read positions) was
    popped before: the read positions are the frontier positions that the
    contributed shapes copy. Keys that agree there fill the same facts and
    get the same exclusion decision. The pivot's rule and a rule with a
    contributed slot that looks the image up in the skeleton read the whole
    image, so each of their keys is run; `queued` still counts every key.
    """
    terms = skeleton(pivot, rules)
    facts, universe, births = _seed_facts(rules, terms, pivot)
    by_symbol: dict[SkolemSymbol, dict[tuple[Term, ...], Term]] = {}
    for t in terms:
        if isinstance(t, FunctionalTerm):
            by_symbol.setdefault(t.symbol, {})[t.args] = t
    shapes = {rule.id: _compile_heads(rule, kind, by_symbol) for rule in rules}

    # No Trigger is built: every frontier image comes from U or from matching
    # into a FactSet, which holds only ground atoms, so its check could not
    # fail.
    queued: set[tuple] = set()
    queue: deque[tuple] = deque()
    in_seed = set(universe)
    # The read positions of the rules that read less than the whole image.
    reads: dict[str, list[int]] = {}
    for rule in rules:
        keys = [(rule, *combo) for combo in
                itertools.product(universe, repeat=len(rule.frontier))]
        queued.update(keys)
        contributed = shapes[rule.id]
        if hc is not None:
            contributed = (contributed[hc.choice(rule) - 1],)
        if not _over_universe(contributed, in_seed):
            queue.extend(keys)
        slots = [s for shape in contributed for _, atom in shape for s in atom]
        read = sorted({s for s in slots if s.__class__ is int})
        if len(read) < len(rule.frontier) and rule.id != pivot.rule.id and \
                not any(s.__class__ is tuple for s in slots):
            reads[rule.id] = read  # type: ignore[assignment]
    yield facts, facts, queued

    # The pivot's outputs per disjunct, unabstracted and abstracted, and the
    # skolem terms they hold. The pivot's frontier images occur in its birth
    # facts, so they are skeleton terms and its heads fill exactly.
    pivot_image = tuple(map(pivot.substitution.__getitem__, pivot.rule.frontier))
    raw_outs = {i: frozenset(pivot.out(i))
                for i in range(1, pivot.rule.branching + 1)}
    abs_outs = {i: frozenset(_fill(shape, pivot_image))
                for i, shape in enumerate(shapes[pivot.rule.id], start=1)}
    pivot_terms = {
        (t.symbol, t.args): t
        for out in raw_outs.values() for a in out for t in a.terms
        if isinstance(t, FunctionalTerm)
    }
    if hc is not None:
        chosen = hc.choice(pivot.rule)
        pivot_abs, pivot_raw = abs_outs[chosen], raw_outs[chosen]

    queue.extend(frontier_keys(rules, facts, births, queued))
    popped: set[tuple] = set()
    while queue:
        key = queue.popleft()
        rule, image = key[0], key[1:]
        read = reads.get(rule.id)
        if read is not None:
            contributed_image = (rule, *map(image.__getitem__, read))
            if contributed_image in popped:
                continue
            popped.add(contributed_image)
        if hc is not None:
            i = hc.choice(rule)
            contribution = _fill(shapes[rule.id][i - 1], image)
            if contribution[0] in pivot_abs and frozenset(contribution) == pivot_abs \
                    and _same_output(rule, image, i, pivot_raw, pivot_terms):
                continue
        else:
            outs = tuple(_fill(shape, image) for shape in shapes[rule.id])
            if rule.id == pivot.rule.id and all(
                    frozenset(outs[i - 1]) == abs_outs[i] and
                    _same_output(rule, image, i, raw_outs[i], pivot_terms)
                    for i in raw_outs):
                continue
            contribution = tuple(a for o in outs for a in o)
        new = facts.update(contribution)
        if new:
            yield facts, new, queued
            queue.extend(frontier_keys(rules, facts, new, queued))


# ---------------------------------------------------------------------------
# Unblockability

class UnblockabilityCache:
    """Memo for unblockability checks, scoped to one rule set.

    Triggers that differ only by a bijective renaming of constants have the
    same unblockability (the renaming is reversible in both directions), and
    the build, its exclusion and the obsolescence test read a trigger only
    on its rule's frontier. So entries are keyed by the constant-canonical
    shape of the frontier image. `hits` counts answers served from the memo,
    `builds` the over-approximations started to answer the rest that the
    seed does not block outright, one per (abstraction, head choice,
    frontier shape), `triggers` the keys those builds queued until their
    answer was known, and `star_answers` the unique-constants questions
    that the star question for the same trigger answered. A star question
    asked on behalf of a unique-constants one counts as any other: a hit or
    a build.
    """

    def __init__(self) -> None:
        self.entries: dict[object, bool] = {}
        self.hits = 0
        self.builds = 0
        self.triggers = 0
        self.star_answers = 0

    def counts(self) -> dict[str, int]:
        """The counters under the names of cyclicity.check's stats."""
        return {"approx_builds": self.builds, "approx_triggers": self.triggers,
                "unblockability_cache_hits": self.hits,
                "unblockability_star_answers": self.star_answers}

    @staticmethod
    def _shape(t: Term, renaming: dict[Constant, int]) -> object:
        if isinstance(t, Constant):
            idx = renaming.get(t)
            if idx is None:
                idx = len(renaming)
                renaming[t] = idx
            return ("c", idx)
        assert isinstance(t, FunctionalTerm)
        return (t.symbol, tuple(
            UnblockabilityCache._shape(a, renaming) for a in t.args))

    def key(self, kind: str, hc: HeadChoice | None, trigger: Trigger) -> object:
        renaming: dict[Constant, int] = {}
        shape = tuple(
            self._shape(trigger.substitution[v], renaming)
            for v in trigger.rule.frontier)
        sig = hc.signature() if hc is not None else None
        return (kind, sig, trigger.rule.id, shape)


def _holds_abstract_constants(trigger: Trigger, rules: RuleSet) -> bool:
    """Whether the trigger's skeleton holds the special constant or a
    per-symbol constant."""
    return any(t.__class__ is Constant and
               (t.name == STAR_NAME or t.name.startswith(UC_PREFIX))
               for t in skeleton(trigger, rules))


def _is_unblockable(
    rules: RuleSet,
    kind: str,
    hc: HeadChoice | None,
    trigger: Trigger,
    cache: UnblockabilityCache,
) -> bool:
    """Whether the trigger is not obsolete for its build's fixpoint, worked
    out from the build's batches and stopped at the first that blocks it.

    Obsolescence is monotone in the fact set and the build's facts only
    grow, so the trigger is obsolete for the fixpoint iff it is for some
    prefix of batches. At the first such prefix, the match of a head
    disjunct uses a fact of the last batch, or the trigger would already be
    obsolete one batch earlier. So after testing the seed whole, it is
    enough to test each later batch semi-naively: its new facts against the
    disjuncts with the trigger's frontier images filled in and their
    existential variables left free, as a query.

    A trigger the seed blocks (_seed_blocks) is answered without a build.

    A UC question is first asked as the conjunctive star question for the
    same trigger, under no head choice, and a star-unblockable trigger is
    UC-unblockable: the map h that sends every per-symbol constant to the
    special constant and fixes every other term sends the UC fixpoint into
    the star one, and a pivot obsolete for the first is obsolete for the
    second (see the module docstring). Only when star blocks is the UC
    build run. The argument needs h to fix the pivot's skeleton and a
    collapsed image to hit no skeleton lookup that the image misses, so
    the step is taken only for a skeleton that holds neither the special
    constant nor a per-symbol constant; saturation triggers never do.
    """
    if trigger.rule.is_datalog:
        return True
    key = cache.key(kind, hc, trigger)
    if key in cache.entries:
        cache.hits += 1
        return cache.entries[key]
    if _seed_blocks(trigger):
        cache.entries[key] = False
        return False
    if kind == UC and not _holds_abstract_constants(trigger, rules) and \
            _is_unblockable(rules, STAR, None, trigger, cache):
        cache.star_answers += 1
        cache.entries[key] = True
        return True
    queries = [compile_query(apply_atoms(trigger.substitution, d.atoms))
               for d in trigger.rule.heads]
    steps = _batches(rules, trigger, kind, hc)
    facts, _, queued = next(steps)
    answer = not (is_obsolete(trigger, facts) or any(
        query_matched(query, batch, facts)
        for _, batch, _ in steps for query in queries))
    cache.builds += 1
    cache.triggers += len(queued)
    cache.entries[key] = answer
    return answer


def is_star_unblockable(
    rules: RuleSet,
    trigger: Trigger,
    cache: UnblockabilityCache | None = None,
) -> bool:
    """Datalog triggers always; others iff not obsolete for the star set."""
    return _is_unblockable(rules, STAR, None, trigger,
                           cache or UnblockabilityCache())


def is_uc_unblockable(
    rules: RuleSet,
    hc: HeadChoice,
    trigger: Trigger,
    cache: UnblockabilityCache | None = None,
) -> bool:
    """Datalog triggers always; others iff not obsolete for the uc set."""
    return _is_unblockable(rules, UC, hc, trigger,
                           cache or UnblockabilityCache())


# ---------------------------------------------------------------------------
# Reversibility

@dataclass(frozen=True)
class ReversibilityCertificate:
    reversible: bool
    violated: int | None
    detail: str


def check_reversible(g: ConstantMapping, terms: Iterable[Term]) -> ReversibilityCertificate:
    """Check the three reversibility conditions over a subterm-closed set.

    Condition 1: g is defined on every constant of the set. Condition 2: g
    is injective on the set. Condition 3: no image of a functional member
    occurs as a subterm of the image of a constant. The first violated
    condition is reported.
    """
    domain = sorted(set(terms), key=repr)
    members = set(domain)
    for t in domain:
        for s in subterms(t):
            if s not in members:
                raise ValueError(
                    f"term set is not subterm-closed: {s!r} missing (from {t!r})")

    for t in domain:
        if isinstance(t, Constant) and t not in g.mapping:
            return ReversibilityCertificate(
                False, 1, f"condition 1: g is undefined on constant {t!r}")

    images: dict[Term, Term] = {}
    first: dict[Term, Term] = {}  # each image's first term in domain order
    for t in domain:
        image = images[t] = g.apply(t)
        other = first.setdefault(image, t)
        if other is not t:
            return ReversibilityCertificate(
                False, 2, f"condition 2: g({other!r}) = g({t!r}) = {image!r}")

    constant_image_subterms: set[Term] = set()
    for t in domain:
        if isinstance(t, Constant):
            constant_image_subterms.update(subterms(images[t]))
    for t in domain:
        if isinstance(t, FunctionalTerm) and images[t] in constant_image_subterms:
            return ReversibilityCertificate(
                False, 3,
                f"condition 3: g({t!r}) = {images[t]!r} occurs inside the "
                f"image of a constant")

    return ReversibilityCertificate(True, None, "reversible")
