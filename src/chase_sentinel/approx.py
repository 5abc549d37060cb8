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
fills the rule's templates (Rule.sk_heads), and a build states only how a
symbol slot is abstracted: it reads the term off the skeleton or falls
back to the symbol's replacement, so filling a slot builds no skolem term.
That per-symbol map is the one statement of the abstraction; the pivot's
own outputs are abstracted through it too. Exclusion compares raw outputs
(Rule.output) only where the abstracted ones are equal, and the intern
tables forget the skolem terms built for that once nothing holds them.

Those templates, and the comparison with the pivot's output, read a
trigger only on its rule's frontier image. A build therefore works on
(rule, *frontier image) keys from end to end: it queues each once, and
fills a skolem slot by one lookup of the image, since a skolem term's
arguments are exactly the frontier. Its seed holds every fact over the
skeleton's constants plus the special constant (the universe U), so the
seed's keys are enumerated over U directly.

The seed depends only on the rule set and U, so the rule set keeps one per
U in RuleSet.seeds, made by the first build over U and freed with the rule
set; the 120 sets of a seed-1 classify-random pass keep 267 for 1,640
builds. A build adds the pivot's birth facts and its fixpoint to the kept
seed, and the build's owner undoes them in a try/finally on every exit
(drained, stopped early or raised): facts through the FactSet trail,
queued keys through the list of those the build added. A build that finds
its seed changed raises.

Every seed key counts as queued, but only those that can add a fact are
popped. Where each symbol slot of a rule's contributed templates has its
replacement in U, as under STAR, a key over U fills facts over U, which
the seed holds, unless its image is the argument tuple of a skeleton term
of a contributed symbol: only those keys are popped, none when there is
no such term. Every other rule pops all its seed keys.

Later keys come from matcher.frontier_keys, pinned to the pivot's birth
facts and then to each new batch: it reads images straight off the facts,
drops the keys already queued and appends the others to the list the
build is reading. Only the resulting fixpoint as a set
is specified, not the order in which its facts were added.

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
with the pivot's birth facts that the seed lacks. build_over_approx drains
it. An unblockability check only asks whether the pivot is obsolete for
the fixpoint, and tests it semi-naively, as semi-naive evaluation tests
only what each step adds: obsolescence is monotone in the fact set and the
facts only grow, so the pivot is obsolete for the fixpoint iff it is for
the seed or for the seed plus some prefix of batches. At the first such
prefix, some match of a head disjunct uses a fact of the last batch, or
the pivot would be obsolete one batch earlier. So the seed is tested once,
off the pivot alone (_seed_blocks), and each batch, the births first, only
through matches using its facts (matcher.obsolete_through).

Reversible constant mappings transport unblockability between triggers of
the same rule, which is what lets a finite search certify infinitely many
trigger repetitions.

The term measures that only these builds and the cyclicity witnesses read
live here too: a term's or a trigger's birth facts (`birth_facts`) and a
trigger's skeleton (`skeleton`). The module imports only `model` and
`matcher`, which holds the `Trigger` and `HeadChoice` it reads.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .matcher import (FactSet, HeadChoice, Trigger, frontier_keys,
                      obsolete_through, pinned_head_chains)
from .model import (
    STAR_NAME,
    Atom,
    Constant,
    ConstantMapping,
    FunctionalTerm,
    RuleSet,
    SkolemSymbol,
    Template,
    Term,
    facts_over,
    new_atom,
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
    "unblockability_cache",
    "UnknownSymbolError",
    "birth_facts",
    "skeleton",
]

STAR = "star"
UC = "uc"


class UnknownSymbolError(KeyError):
    """A skolem symbol does not belong to the rule set at hand."""


def _birth_of_term(t: Term, rules: RuleSet) -> frozenset[Atom]:
    cached = rules._birth_cache.get(t)
    if cached is not None:
        return cached
    if not isinstance(t, FunctionalTerm):
        result: frozenset[Atom] = frozenset()
    else:
        entry = rules.symbol_index.get(t.symbol)
        if entry is None:
            raise UnknownSymbolError(f"symbol {t.symbol!r} is not from this rule set")
        rule, disjunct = entry
        acc: set[Atom] = set(rule.output(disjunct, t.args))
        for arg in t.args:
            acc |= _birth_of_term(arg, rules)
        result = frozenset(acc)
    rules._birth_cache[t] = result
    return result


def birth_facts(x: Term | Trigger, rules: RuleSet) -> frozenset[Atom]:
    """Birth facts of a term, or of a trigger (union over frontier images)."""
    if isinstance(x, Term):
        return _birth_of_term(x, rules)
    acc: set[Atom] = set()
    for t in x.frontier_image():
        acc |= _birth_of_term(t, rules)
    return frozenset(acc)


def skeleton(trigger: Trigger, rules: RuleSet) -> frozenset[Term]:
    """Term skeleton of a trigger, closed under subterms.

    Contains every term of the trigger's birth facts plus every constant a
    frontier variable maps to. Subterm closure is required so reversibility
    checks can run on skeletons directly.
    """
    base: set[Term] = set()
    for atom in birth_facts(trigger, rules):
        base.update(atom.terms)
    for t in trigger.frontier_image():
        if isinstance(t, Constant):
            base.add(t)
    closed: set[Term] = set()
    for t in base:
        closed.update(subterms(t))
    return frozenset(closed)


@dataclass
class OverApproximation:
    """The fact set of one build, equal as a set to the least fixpoint (its
    insertion order is unspecified) and the build's own, so that later
    builds leave it as it is, and the number of (rule, frontier image) keys
    it queued: each key of a trigger loaded in it, once. The seed's keys
    are enumerated over the universe U, not matched."""

    facts: FactSet
    triggers: int


class _Seed:
    """What a build starts from that depends only on its rule set and its
    universe U, kept in RuleSet.seeds: every fact over U, predicate by
    predicate in product order (`model.facts_over`), and each rule's
    (rule, *frontier image) keys over U in product order, in a list per
    rule and all in `queued`.
    A build adds to `facts` and `queued` and appends each key it queues to
    `added`, the trail that `undo` reads to put both back as they were."""

    __slots__ = ("order", "facts", "keys", "queued", "added", "size")

    def __init__(self, rules: RuleSet, universe: tuple[Term, ...]):
        # Each term of U by its position: product order sorts by these.
        self.order = {t: i for i, t in enumerate(universe)}
        self.facts = FactSet(facts_over(rules, universe))
        self.keys = [[(rule, *combo) for combo in
                      itertools.product(universe, repeat=len(rule.frontier))]
                     for rule in rules]
        self.queued: set[tuple] = set().union(*self.keys)
        self.added: list[tuple] = []
        self.size = (len(self.facts), len(self.queued))

    def undo(self) -> None:
        """Drop what a build added: facts by the FactSet trail, queued keys
        by `added`."""
        self.facts.undo(self.size[0])
        self.queued.difference_update(self.added)
        self.added.clear()


def _seed(rules: RuleSet, terms: frozenset[Term]) -> _Seed:
    """The rule set's kept seed for the universe U of the pivot's skeleton
    `terms` (its constants plus the special constant), made on first use.
    Raises if a build left it changed."""
    universe = (*sorted((t for t in terms if isinstance(t, Constant)),
                        key=lambda c: c.name), star())
    seed = rules.seeds.get(universe)
    if seed is None:
        seed = rules.seeds[universe] = _Seed(rules, universe)
    elif (len(seed.facts), len(seed.queued)) != seed.size or seed.added:
        raise RuntimeError(f"a build left the seed over {universe!r} changed")
    return seed


def _seed_blocks(pivot: Trigger) -> bool:
    """Whether the seed over U makes the pivot obsolete, read off the
    pivot's frontier image alone: iff some head disjunct's universal
    variables, its template's int slots, all map to constants. If they do,
    the skeleton holds those constants, so they lie in U; with the
    disjunct's existential variables sent to the special constant, also in
    U, each of its atoms is a fact over U, and the seed holds every such
    fact for every predicate. Conversely, U holds only constants, so a
    match into the facts over U maps every universal variable of its
    disjunct to a constant. A match that uses any other fact uses a birth
    fact the seed lacks or a fact of a later batch."""
    image = pivot.frontier_image()
    return any(all(image[s].__class__ is Constant  # type: ignore[index]
                   for _, slots in template for s in slots
                   if s.__class__ is int)
               for template in pivot.rule.sk_heads)


# How a build fills the symbol slots of the rules' templates: per skolem
# symbol, the pair (its known terms by argument tuple, its replacement). A
# slot takes the known term whose arguments are the frontier image, which
# they are for every skolem term, else the replacement.
_Fills = Mapping[SkolemSymbol, tuple[Mapping[tuple[Term, ...], Term], Term]]


def _fills(rules: RuleSet, kind: str, terms: Iterable[Term]) -> _Fills:
    """The _Fills of every skolem symbol of the rules under the abstraction
    `kind`, its known terms being those of the skeleton `terms`."""
    by_symbol: dict[SkolemSymbol, dict[tuple[Term, ...], Term]] = {}
    for t in terms:
        if t.__class__ is FunctionalTerm:
            by_symbol.setdefault(t.symbol, {})[t.args] = t  # type: ignore[attr-defined]
    return {sym: (by_symbol.get(sym, {}),
                  uc_constant(sym) if kind == UC else star())
            for sym in rules.symbol_index}


def _fill(template: Template, image: tuple[Term, ...],
          fills: _Fills) -> tuple[Atom, ...]:
    """One disjunct's output for a frontier image, its symbol slots filled
    through `fills`. Like Rule.output, it runs per key and is one loop that
    builds each atom through `new_atom`, so a call runs one Python frame on
    CPython 3.11."""
    out = []
    for predicate, slots in template:
        terms = []
        for s in slots:
            if s.__class__ is int:
                terms.append(image[s])  # type: ignore[index]
            else:
                known, replacement = fills[s]  # type: ignore[index]
                terms.append(known.get(image, replacement))
        out.append(new_atom((predicate, tuple(terms))))
    return tuple(out)


def build_over_approx(
    rules: RuleSet,
    pivot: Trigger,
    kind: str,
    hc: HeadChoice | None = None,
) -> OverApproximation:
    """Least fact set closed under abstracted outputs of loaded triggers.

    The abstraction is `kind` (STAR or UC) around the pivot's skeleton.

    Seeded with every fact over the rule set's predicates and the skeleton's
    constants plus the special constant (the rule set's kept seed over this
    universe U), together with the pivot's birth facts. With a head choice,
    each loaded trigger contributes its chosen output unless that output
    equals the pivot's; without one, disjunction is read conjunctively and
    each loaded trigger contributes all its outputs unless it shares the
    pivot's rule and all of its outputs.

    Every term of the fact set is a fixed point of the abstraction: a
    skeleton term, a fresh per-symbol constant or the special constant.
    Body variables of a trigger therefore map to terms that need no
    abstracting, and only the skolem terms of its output do. The build
    fills each rule's templates through one map from each skolem symbol to
    its skeleton terms and its replacement, and a symbol slot takes the
    skeleton term over the frontier image or the replacement, so filling
    builds no skolem term. Exclusion still compares unabstracted outputs;
    since abstraction is a function, only triggers whose abstracted output
    equals the pivot's abstracted output can be excluded, and only those
    have their raw output built (Rule.output) and compared exactly.

    A loaded trigger's contribution and its exclusion read it only on the
    rule's frontier image, so the fixpoint queues each (rule, *frontier
    image) key once per build, and builds no Trigger or substitution for
    it. The seed holds every fact over its universe U, so every assignment
    of a body into U is loaded: the seed's keys over U are enumerated
    directly. All are counted, and only those that can add a fact are
    popped (see _batches). Only the matches through birth facts outside U,
    and then through each new batch, are joined, by matcher.frontier_keys:
    it appends keys and not substitutions to seed.added, and drops the
    keys already queued. Exclusion depends only on the trigger, so the result is the
    least fixpoint of a monotone operator and does not depend on queue
    order; only the fact set as a set is specified, not its insertion
    order. The number of keys is returned as OverApproximation.triggers.

    The build runs on the kept seed and undoes its additions in a
    try/finally, so the returned facts are a copy: later builds reuse the
    seed and leave the copy as it is.
    """
    terms = skeleton(pivot, rules)
    seed = _seed(rules, terms)
    try:
        for _ in _batches(rules, pivot, kind, hc, terms, seed):
            pass
        return OverApproximation(FactSet(seed.facts), len(seed.queued))
    finally:
        seed.undo()


def _batches(
    rules: RuleSet,
    pivot: Trigger,
    kind: str,
    hc: HeadChoice | None,
    terms: frozenset[Term],
    seed: _Seed,
) -> Iterator[list[Atom]]:
    """The fixpoint of build_over_approx, one batch of new facts at a time.

    Yields each list of facts just added to seed.facts. The first is the
    pivot's birth facts that the seed lacks, handed out once the seed keys
    to pop are queued; each later one is what one loaded key added, handed
    out before its matches are queued. Draining the generator runs the
    fixpoint to its end.

    The facts and the queued keys are those of the kept `seed` of the
    pivot's skeleton `terms`, which the caller reads off it as seed.facts
    and seed.queued. The generator adds to both and appends each
    key it queues to seed.added; the caller owns the build and calls
    seed.undo in a finally clause, whether it drains the generator, stops
    at some batch or raises, and resumes no generator after that.

    The queue holds (rule, *frontier image) keys: the seed keys to pop,
    then seed.added. Every seed key is queued, but a rule pops only those
    that can add a fact. When each symbol slot of its contributed templates
    (the chosen disjunct under a head choice, all of them otherwise) has
    its replacement in U, as under STAR, a key over U fills a slot with a
    term outside U only where its image is the argument tuple of a known
    term of the slot's symbol; every other key fills facts over U, which
    the seed holds. So only the keys of those argument tuples over U are
    popped, in product order, and none when there are none. Any other rule
    pops all its seed keys.

    Exclusion compares a key's abstracted output with the pivot's first,
    and its raw output, Rule.output, only where they are equal.
    """
    facts, queued, added, order = seed.facts, seed.queued, seed.added, seed.order
    births = facts.update(sorted(birth_facts(pivot, rules), key=repr))
    fills = _fills(rules, kind, terms)

    # No Trigger is built: every frontier image comes from U or from matching
    # into a FactSet, which holds only ground atoms, so its check could not
    # fail.
    queue: list[tuple] = []
    for rule, keys in zip(rules, seed.keys):
        contributed = rule.sk_heads
        if hc is not None:
            contributed = (contributed[hc.choice(rule) - 1],)
        symbols = {s for template in contributed for _, atom in template
                   for s in atom if s.__class__ is not int}
        if all(fills[s][1] in order for s in symbols):  # type: ignore[index]
            # A key over U fills terms of U, and so seed facts, except in a
            # symbol slot with a known term over the key's image: pop only
            # the keys of those images, in product order.
            images = {args for s in symbols
                      for args in fills[s][0]  # type: ignore[index]
                      if all(map(order.__contains__, args))}
            queue.extend((rule, *args) for args in sorted(
                images, key=lambda args: [order[t] for t in args]))
        else:
            queue.extend(keys)
    yield births

    # The pivot's outputs per disjunct, raw and abstracted. The pivot's
    # frontier image occurs in its birth facts, so its terms are skeleton
    # terms, which need no abstracting.
    pivot_image = pivot.frontier_image()
    raw_outs = {i: frozenset(pivot.rule.output(i, pivot_image))
                for i in range(1, pivot.rule.branching + 1)}
    abs_outs = {i: frozenset(_fill(template, pivot_image, fills))
                for i, template in enumerate(pivot.rule.sk_heads, start=1)}
    if hc is not None:
        chosen = hc.choice(pivot.rule)
        pivot_abs, pivot_raw = abs_outs[chosen], raw_outs[chosen]

    frontier_keys(rules, facts, births, queued, added)
    for key in itertools.chain(queue, added):
        rule, image = key[0], key[1:]
        if hc is not None:
            disjunct = hc.choice(rule)
            contribution = _fill(rule.sk_heads[disjunct - 1], image, fills)
            if contribution[0] in pivot_abs and frozenset(contribution) == pivot_abs \
                    and frozenset(rule.output(disjunct, image)) == pivot_raw:
                continue
        else:
            outs = tuple(_fill(template, image, fills) for template in rule.sk_heads)
            if rule.id == pivot.rule.id and all(
                    frozenset(outs[i - 1]) == abs_outs[i] and
                    frozenset(rule.output(i, image)) == raw_outs[i]
                    for i in raw_outs):
                continue
            contribution = tuple(a for o in outs for a in o)
        new = facts.update(contribution)
        if new:
            yield new
            frontier_keys(rules, facts, new, queued, added)


# ---------------------------------------------------------------------------
# Unblockability

class UnblockabilityCache:
    """Memo for unblockability checks, held by the rule set it answers for
    and freed with it: `unblockability_cache` makes it on first use.

    Triggers that differ only by a bijective renaming of ordinary constants
    have the same unblockability (the renaming is reversible in both
    directions). The skeleton, the seed test, the build, its exclusion and
    the obsolescence test all read a trigger through its frontier_image()
    and never its substitution, so entries are keyed by the rule and the
    constant-canonical shape of that image. The special constant
    and the per-symbol constants are no ordinary constants: every seed
    holds the first, and the fills make the others, so they are keyed as
    themselves. `hits` counts answers served from the memo,
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
            if _is_abstract(t):
                return t
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
            self._shape(t, renaming) for t in trigger.frontier_image())
        sig = hc.signature() if hc is not None else None
        return (kind, sig, trigger.rule.id, shape)


def _is_abstract(t: Term) -> bool:
    """Whether t is the special constant or a per-symbol constant."""
    return t.__class__ is Constant and \
        (t.symbol is not None or t.name == STAR_NAME)  # type: ignore[attr-defined]


def _is_unblockable(
    rules: RuleSet,
    kind: str,
    hc: HeadChoice | None,
    trigger: Trigger,
    cache: UnblockabilityCache,
) -> bool:
    """Whether the trigger is not obsolete for its build's fixpoint, worked
    out semi-naively and stopped at the first batch that blocks it.

    Obsolescence is monotone in the fact set and the build's facts only
    grow, so the trigger is obsolete for the fixpoint iff it is for the seed
    or for the seed plus some prefix of batches. At the first such prefix,
    the match of a head disjunct uses a fact of the last batch, or the
    trigger would already be obsolete one batch earlier. So the seed is
    tested once, exactly and without a build (_seed_blocks), and then each
    batch, the birth facts first, by matcher.obsolete_through: each new
    fact pinned to each atom of the rule's head chains (pinned_head_chains),
    on rows that start with the trigger's frontier image.

    A trigger the seed blocks is answered without a build. Any other build
    runs on the rule set's kept seed for its universe, and this function
    owns it: it undoes the build in a finally clause once the answer is
    known, at the first blocking batch or at the end, or on a raise, so
    every exit leaves the seed as it was.

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
    terms = skeleton(trigger, rules)
    if kind == UC and not any(map(_is_abstract, terms)) and \
            _is_unblockable(rules, STAR, None, trigger, cache):
        cache.star_answers += 1
        cache.entries[key] = True
        return True
    chains = pinned_head_chains(trigger.rule)
    image = trigger.frontier_image()
    seed = _seed(rules, terms)
    try:
        answer = not any(
            obsolete_through(chains, image, batch, seed.facts)
            for batch in _batches(rules, trigger, kind, hc, terms, seed))
        cache.triggers += len(seed.queued)
    finally:
        seed.undo()
    cache.builds += 1
    cache.entries[key] = answer
    return answer


def unblockability_cache(rules: RuleSet) -> UnblockabilityCache:
    """The rule set's unblockability cache, made on first use."""
    if rules.unblockability is None:
        rules.unblockability = UnblockabilityCache()
    return rules.unblockability


def is_star_unblockable(rules: RuleSet, trigger: Trigger) -> bool:
    """Datalog triggers always; others iff not obsolete for the star set."""
    return _is_unblockable(rules, STAR, None, trigger, unblockability_cache(rules))


def is_uc_unblockable(rules: RuleSet, hc: HeadChoice, trigger: Trigger) -> bool:
    """Datalog triggers always; others iff not obsolete for the uc set."""
    return _is_unblockable(rules, UC, hc, trigger, unblockability_cache(rules))


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
