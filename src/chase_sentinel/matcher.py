"""Fact storage, conjunction matching and trigger discovery.

One discovery routine serves the four fixpoint loops. `_pinned_keys` runs
the compiled pinned joins and appends each key it finds to a list of the
caller's: `enqueue` writes the keys of the chase and the acyclicity check
straight into their `Queues`, `discover` returns them as a list for the
cyclicity saturation's rounds, and `frontier_keys` appends the
over-approximation builds' keys to the list the build is reading. A full
call pins each rule's first body atom to each of its facts in insertion
order; a semi-naive call pins each new fact to each body atom of its
predicate, new fact by new fact and, per fact, in body-index order. No
loop meets a trigger twice, so none keeps a seen set for triggers.

One compiler, `_compile_chain`, turns the body atoms a pin leaves, a
pattern of `match_conjunction`, a head disjunct or a query into a chain
of steps in written order, and one runner, `_chain`, extends a row of
bound terms through each step's candidates, or a pinned fact. So every
join and existence test is the nested loop over the atoms in written
order, each atom's candidates in insertion order: a full `discover` call
returns the keys of `match_conjunction(rule.body, {}, facts)`'s matches in
their order.

A trigger travels from its discovery through its pop as the key (rule,
*body image), the image of rule.body_vars in order. A `Trigger` is that key: a
tuple that adds only methods, so `Trigger(key)` is the tuple's own
constructor, which copies the key's items and checks nothing, and a
trigger equals its key. Keys are read off a FactSet, so they are ground; a
chase vertex's `trigger` and the saturation's unblockability test read
them as triggers. A `HeadChoice` picks one head disjunct per rule, and so
one output per trigger: the cyclicity notions and the over-approximation
builds read it.

Pinning a fact to body atom idx of a rule is a join whose shape depends
only on (rule, idx). A rule set's joins are compiled together on first
use and held by the rule set next to its body index, so they are freed
with it. `_pinned_keys` runs them, one loop for every plan, and projects
each row onto a key: (rule, *body image) for `discover` and `enqueue`, and
(rule, *frontier image) for `frontier_keys`, as builds read only the
frontier; a key already seen is dropped. It picks the list a plan's keys
go to once per plan, by its rule's `is_datalog`, and it is a plain
function, not a generator: the joins read the facts' live index lists,
and as every call runs to its end before it returns, no caller can add a
fact while one is still being read.

The chase and the acyclicity check share the step around it: `enqueue`
appends datalog keys to the first list of a `Queues` and the others to
the second, and `pop_active` pops the first key that is not obsolete and
returns it with its outputs. Both loops stop at a term-depth bound, and
`pop_active` is where it is tested: on the popped key's frontier image,
which bounds every term its outputs can hold.
A `FactSet` is the insertion-ordered dict of its facts, with one index
beside it from each lookup, a predicate or a (predicate, first argument)
pair, to its facts, so membership is a dict lookup; `update`, the one way
in, appends each new fact under both of its lookups. `FactSet` and
`Queues` only grow at their ends, so each can `mark` a point and `undo`
back to it: the chase backtracks this way. Obsolescence is stated once,
per head disjunct, in `disjunct_holds`, on a frontier image: an
existential-free disjunct is looked up as its output, and an existential
one runs its chain, held by the rule, on rows that start with the image;
rule.existential says which is which. `pop_active` reads each popped
key's frontier image off the key with rule.key_frontier and asks each
disjunct, passing the disjunct's output when that is the grounded head,
so the one build serves the test and the caller; `is_obsolete` asks every
disjunct of a trigger. Nothing in the package calls `is_obsolete`: it
stays public because the benchmark wraps it by name and the tests check
the others against it, until the package keeps its own per-layer
counters. `obsolete_through` is the same test with one atom pinned to a
new fact, the semi-naive test of the unblockability builds
(`pinned_head_chains`) and of a query (`compile_query`).

Patterns hold only variables and ground terms, and every atom, pattern or
fact, has a first term. `Rule` ensures this for bodies and heads (they
hold variables only), `compile_query` for queries (they may hold ground
terms too) and `FactSet.update` for facts, so a chain reads each bound
term off its row position and looks a keyed step up by its first term,
and terms are compared by identity, which interning makes exact.
"""
from __future__ import annotations

import functools
from operator import itemgetter
from typing import Container, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .model import (
    Atom,
    Rule,
    RuleError,
    RuleSet,
    Substitution,
    Term,
    Variable,
    new_atom,
)

__all__ = [
    "FactSet",
    "Trigger",
    "HeadChoice",
    "Queues",
    "match_conjunction",
    "discover",
    "pinned_head_chains",
    "disjunct_holds",
    "is_obsolete",
    "obsolete_through",
    "enqueue",
    "pop_active",
    "compile_query",
]

# A compiled join: the steps of _compile_chain, which _chain runs.
Chain = tuple[tuple, ...]


class FactSet(dict):
    """Insertion-ordered set of facts, indexed by lookup: the dict from each
    fact to None, so membership, size, iteration and `mark` are the dict's
    own. A fact is a ground atom with at least one term. The one index maps
    each lookup, a predicate or a (predicate, first argument) pair, to its
    facts in insertion order; a str never equals a tuple, so the two kinds
    of lookup cannot collide. Facts enter only through `update` and leave
    only newest first by `undo`, so each index list keeps its facts in
    insertion order; the dict's own mutators would bypass the index.
    Equality and hashing are by identity, as for any object."""

    __slots__ = ("_index",)
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__  # type: ignore[assignment]

    def __init__(self, facts: Iterable[Atom] = ()):
        self._index: dict[str | tuple[str, Term], list[Atom]] = {}
        self.update(facts)

    def update(self, facts: Iterable[Atom]) -> list[Atom]:  # type: ignore[override]
        """Insert facts, each checked to be a fact before it goes in;
        returns the ones that were new, in order."""
        new = []
        index = self._index
        for fact in facts:
            if fact in self:
                continue
            predicate, terms = fact
            if not terms:
                raise RuleError(f"not a fact: {fact!r}")
            for t in terms:
                if not t.is_ground:
                    raise RuleError(f"not a fact: {fact!r}")
            self[fact] = None
            new.append(fact)
            # An index list is never empty, as undo deletes an emptied
            # one, so a new list is built only for a new lookup.
            (index.get(predicate) or index.setdefault(predicate, [])).append(fact)
            (index.get((predicate, terms[0])) or
             index.setdefault((predicate, terms[0]), [])).append(fact)
        return new

    # A point to come back to with `undo`: the number of facts.
    mark = dict.__len__

    def undo(self, mark: int) -> None:
        """Drop every fact added since `mark`, newest first. Facts and index
        lists only ever grow at their ends, so each dropped fact is the last
        entry of both its lists; a list left empty is deleted, which leaves
        the set as if those facts had never been added."""
        index = self._index
        while len(self) > mark:
            predicate, terms = self.popitem()[0]
            for lookup in (predicate, (predicate, terms[0])):
                entries = index[lookup]
                entries.pop()
                if not entries:
                    del index[lookup]

    def candidates(self, predicate: str, first: Term | None = None) -> Sequence[Atom]:
        """The facts of the predicate, or of the predicate with this first
        argument, in insertion order."""
        return self._index.get(predicate if first is None else (predicate, first), ())

    def __repr__(self) -> str:
        return f"FactSet({len(self)} facts)"


class Trigger(tuple):
    """A rule paired with a ground image of its body variables: the key
    (rule, *body image) itself, so equal to another trigger, or to a key,
    with the same rule object and image. `Trigger(key)` is the tuple's own
    constructor and checks nothing: keys are read off fact sets, so they
    are ground. Copies and pickles rebuild it the same way."""

    __slots__ = ()

    @property
    def rule(self) -> Rule:
        return self[0]

    @property
    def substitution(self) -> dict[Variable, Term]:
        """The body variables mapped to their images, built on each read."""
        return dict(zip(self.rule.body_vars, self[1:]))

    def body_facts(self) -> tuple[Atom, ...]:
        sigma = self.substitution
        return tuple(
            new_atom((predicate, tuple(sigma[t] for t in terms)))  # type: ignore[index]
            for predicate, terms in self.rule.body
        )

    def frontier_image(self) -> tuple[Term, ...]:
        """The image of rule.frontier, in order."""
        return self.rule.key_frontier(self)

    def out(self, disjunct: int) -> tuple[Atom, ...]:
        """Skolemized output of one head disjunct (1-based), by Rule.output."""
        return self.rule.output(disjunct, self.frontier_image())

    def __repr__(self) -> str:
        inner = ", ".join(f"{v.name}/{t!r}" for v, t in self.substitution.items())
        return f"<{self.rule.id}, [{inner}]>"


class HeadChoice:
    """Total map from rules to one of their head disjuncts (1-based). Its
    sorted (rule id, disjunct) pairs, made once, are its signature, its
    equality and its hash."""

    __slots__ = ("choices", "_signature")

    def __init__(self, rules: RuleSet, choices: Mapping[str, int]):
        self.choices: dict[str, int] = {}
        for rule in rules:
            i = choices.get(rule.id)
            if i is None:
                raise ValueError(f"head choice undefined for rule {rule.id}")
            if not 1 <= i <= rule.branching:
                raise ValueError(
                    f"head choice {i} out of range for rule {rule.id} "
                    f"(branching {rule.branching})")
            self.choices[rule.id] = i
        self._signature = tuple(sorted(self.choices.items()))

    @classmethod
    def uniform(cls, rules: RuleSet, i: int) -> "HeadChoice":
        """hc_i: pick disjunct i where available, else the last one."""
        if i < 1:
            raise ValueError("head choice index must be >= 1")
        return cls(rules, {r.id: min(i, r.branching) for r in rules})

    def choice(self, rule: Rule) -> int:
        return self.choices[rule.id]

    def signature(self) -> tuple[tuple[str, int], ...]:
        return self._signature

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HeadChoice) and other._signature == self._signature

    def __hash__(self) -> int:
        return hash(self._signature)

    def __repr__(self) -> str:
        inner = ", ".join(f"{rid}:{i}" for rid, i in self._signature)
        return f"HeadChoice({inner})"


def match_conjunction(
    pattern: Sequence[Atom],
    base: Substitution,
    facts: FactSet,
) -> Iterator[dict[Variable, Term]]:
    """Enumerate extensions of base mapping the pattern into the fact set.

    Pattern terms must be variables or ground terms, and each atom needs
    one, as in `compile_query`. Yields dictionaries covering dom(base) plus
    every pattern variable, in the order of the nested loop over the
    pattern atoms in written order, each atom's facts in insertion order;
    the empty pattern yields dict(base) once. Base values and ground terms
    are bound row positions of one compiled chain.
    """
    where = _bound_terms(pattern, "pattern", base)
    row = tuple([base.get(t, t) for t in where])  # type: ignore[call-overload]
    steps, where = _compile_chain(pattern, where, len(row))
    for found in _chain(steps, row, facts) if steps else (row,):
        sub = dict(base)
        for t, i in where.items():
            if t.__class__ is Variable:
                sub[t] = found[i]  # type: ignore[index]
        yield sub


def _bound_terms(atoms: Sequence[Atom], kind: str,
                 bound: Container[Term] = ()) -> dict[Term, int]:
    """The ground terms of the atoms and their variables in bound, each
    with its position in order of first occurrence: the row positions a
    pattern or query binds before its chain runs. Raises RuleError, naming
    the kind of atom, on an atom with no terms, which a keyed step could not
    look up, and on a term that is neither a variable nor ground, which
    identity comparison would silently misread."""
    where: dict[Term, int] = {}
    for atom in atoms:
        if not atom.terms:
            raise RuleError(f"{kind} atom {atom!r} has no terms")
        for t in atom.terms:
            if t.__class__ is Variable:
                if t in bound:
                    where.setdefault(t, len(where))
            elif t.is_ground:
                where.setdefault(t, len(where))
            else:
                raise RuleError(f"{kind} term is neither a variable nor ground: {t!r}")
    return where


def _compile_chain(atoms: Iterable[tuple[str, Sequence]], where: dict,
                   width: int) -> tuple[Chain, dict]:
    """The one compiler of joins: the (predicate, terms) atoms, in written
    order, as steps of a chain that `_chain` runs over rows of width
    `width`, whose position where[t] holds the term bound to t: a term is a
    variable, a ground query term or a template slot. Each step
    (predicate, arity, key, bound, repeats) reads the candidates of its
    predicate, through the (predicate, first argument) index on row[key]
    when its first term is bound (key is None otherwise), and keeps a
    candidate whose terms ct have ct[i] equal to row[p] for each (i, p) in
    bound and ct[i] equal to ct[j] for each (i, j) in repeats, a later
    occurrence of an unbound term paired with its first; the row then
    grows by ct. Also returns where extended with the position of every
    term of the atoms."""
    where = dict(where)
    steps = []
    for predicate, terms in atoms:
        key = where.get(terms[0])
        bound: list[tuple[int, int]] = []
        repeats: list[tuple[int, int]] = []
        first: dict = {}
        for i, t in enumerate(terms):
            if t in where:
                if i:
                    bound.append((i, where[t]))
            elif t in first:
                repeats.append((i, first[t]))
            else:
                first[t] = i
        for t, i in first.items():
            where[t] = width + i
        width += len(terms)
        steps.append((predicate, len(terms), key, tuple(bound),
                      tuple(repeats)))
    return tuple(steps), where


def _chain(steps: Chain, row: tuple, facts: FactSet,
           at: int = 0, pinned: Atom | None = None) -> Iterator[tuple]:
    """The one runner of compiled chains: each extension of row by the terms
    of a candidate of every step from steps[at] on, depth first in
    candidate order; a pinned fact of steps[at]'s predicate is that step's
    one candidate, still checked against row[key] when the step is keyed.
    A module-level generator and not a closure: a nested chain refers to
    itself through its cell, and that cycle would keep every fact set it
    read alive until the next cyclic garbage collection. Terms are
    compared by identity, which interning makes exact."""
    predicate, arity, key, bound, repeats = steps[at]
    at += 1
    last = at == len(steps)
    if pinned is None:
        candidates = facts.candidates(predicate, None if key is None else row[key])
    elif key is None or pinned.terms[0] is row[key]:
        candidates = (pinned,)
    else:
        return
    for cand in candidates:
        ct = cand.terms
        if len(ct) != arity:
            continue
        for i, p in bound:
            if ct[i] is not row[p]:
                break
        else:
            for i, j in repeats:
                if ct[i] is not ct[j]:
                    break
            else:
                if last:
                    yield row + ct
                else:
                    yield from _chain(steps, row + ct, facts, at)


def _rotations(conjunctions: Iterable[Sequence[tuple[str, Sequence]]],
               where: dict) -> tuple[Chain, ...]:
    """Each conjunction compiled by _compile_chain once with each atom
    first, over rows that start with len(where) bound terms, to run on a
    fact of that atom's predicate pinned to its first step."""
    return tuple([
        _compile_chain((atom, *atoms[:j], *atoms[j + 1:]), where, len(where))[0]
        for atoms in conjunctions for j, atom in enumerate(atoms)])


def pinned_head_chains(rule: Rule) -> tuple[Chain, ...]:
    """The _rotations of the rule's head disjuncts (Rule.sk_heads) over
    its frontier image, bound as in `disjunct_holds`, for
    `obsolete_through`; compiled on first use and kept in
    rule.pinned_chains, so they are freed with the rule. Only the
    unblockability builds pin, so most rules compile none."""
    if rule.pinned_chains is None:
        rule.pinned_chains = _rotations(
            rule.sk_heads, {i: i for i in range(len(rule.frontier))})
    return rule.pinned_chains


class _PinPlan(NamedTuple):
    """The join of a rule's body with one body atom pinned to a fact,
    analysed once per (rule, idx) and run by _pinned_keys.

    arity is the pinned atom's, and repeats pairs a later position of a
    variable of the pinned atom with its first. steps is the chain of the
    other body atoms, in body order, over rows (rule, *fact terms, ...).

    frontier and body are the getters that read the (rule, *frontier
    image) and (rule, *body image) keys off a row.

    Plans are tuples and not closures: the dozen cells of a closure per plan
    gave the garbage collector enough to scan to slow 512-1024-rule sets by
    a few percent.
    """

    arity: int
    repeats: tuple[tuple[int, int], ...]
    steps: Chain
    frontier: itemgetter
    body: itemgetter


_FRONTIER = _PinPlan._fields.index("frontier")
_BODY = _PinPlan._fields.index("body")


def _compile_pinned(rule: Rule, idx: int) -> _PinPlan:
    """The rule's body compiled by _compile_chain with atom idx first, over
    rows (rule, *fact terms, ...): that atom's step gives the arity and
    repeats a pinned fact is checked on, the others the chain, with both
    projections of the rows."""
    body = rule.body
    steps, where = _compile_chain((body[idx], *body[:idx], *body[idx + 1:]),
                                  {}, 1)
    _, n, _, _, repeats = steps[0]
    return _PinPlan(n, repeats, steps[1:],
                    _projection(tuple([where[v] for v in rule.frontier])),
                    _projection(tuple([where[v] for v in rule.body_vars])))


@functools.cache
def _projection(positions: tuple[int, ...]) -> itemgetter:
    """The getter of the key (rule, *the terms at these positions) of a row
    (rule, ...). Position 0 is the rule, so an empty frontier's key is the
    rule alone. Equal getters are shared: a getter per plan gave the
    garbage collector enough to scan to slow 512-1024-rule sets by a few
    percent."""
    return itemgetter(0, *positions) if positions else itemgetter(slice(1))


def _joins(rules: RuleSet) -> dict[str, list[tuple[Rule, _PinPlan]]]:
    """The compiled joins of every body atom, per predicate in body_index
    order, all compiled on first use and kept in rules.pinned_joins, so
    they live and die with the rule set."""
    joins = rules.pinned_joins
    if not joins:
        for predicate, pins in rules.body_index.items():
            joins[predicate] = [(rule, _compile_pinned(rule, idx))
                                for rule, idx in pins]
    return joins


def _pinned_keys(joins: dict[str, Sequence[tuple[Rule, _PinPlan]]],
                 facts: FactSet, new_facts: Iterable[Atom], seen: set[tuple],
                 projection: int, datalog: list[tuple], other: list[tuple]) -> None:
    """The runner of the compiled pinned joins. For each new fact (in the
    facts) and each plan that joins holds for its predicate, it projects
    the rows that _chain extends from (rule, *fact terms), or that row
    alone when no body atom is left after the pin, through the plan field
    at index projection, and appends the keys not in seen, in
    first-occurrence order, to datalog when the plan's rule is datalog and
    to other when not, adding each to seen; a caller that wants one list
    passes it twice. The joins read the facts' live index lists, and a
    call runs to its end before it returns, so no key is read after a
    caller adds facts."""
    for fact in new_facts:
        if fact not in facts:
            continue
        predicate, ft = fact
        for rule, plan in joins.get(predicate, ()):
            arity, repeats, steps, _, _ = plan
            if len(ft) != arity:
                continue
            for i, j in repeats:
                if ft[i] is not ft[j]:
                    break
            else:
                out = datalog if rule.is_datalog else other
                row = (rule, *ft)
                for found in map(plan[projection],
                                 _chain(steps, row, facts) if steps else (row,)):
                    if found not in seen:
                        seen.add(found)
                        out.append(found)


def _discover(rules: RuleSet, facts: FactSet, new_facts: Iterable[Atom] | None,
              datalog: list[tuple], other: list[tuple]) -> None:
    """The (rule, *body image) keys of the loaded triggers, as _pinned_keys
    appends them, at most once per call: when new_facts is None, every
    trigger, rule by rule with the first body atom pinned to each fact of
    its predicate in insertion order, under a seen set per rule, as no two
    facts pinned to one atom give one key; else each trigger that uses a
    new fact (already in the facts), pinned to each body atom of its
    predicate, under a seen set of the call's own."""
    joins = _joins(rules)
    if new_facts is not None:
        _pinned_keys(joins, facts, new_facts, set(), _BODY, datalog, other)
        return
    for rule in rules:
        predicate = rule.body[0].predicate
        pair = joins[predicate][rules.body_index[predicate].index((rule, 0))]
        _pinned_keys({predicate: (pair,)}, facts, facts.candidates(predicate),
                     set(), _BODY, datalog, other)


def discover(
    rules: RuleSet,
    facts: FactSet,
    new_facts: Iterable[Atom] | None = None,
) -> list[tuple]:
    """The (rule, *body image) keys of the loaded triggers, each at most
    once per call: when new_facts is None, every trigger, in the order of
    [(rule, *body image) for rule in rules for each match of
    match_conjunction(rule.body, {}, facts)], the nested loop in body
    order; else each trigger that uses a new fact (already in the facts),
    pinned to each body atom of its predicate, new fact by new fact and,
    per fact, in body-index order.

    The list is complete when it is returned, so facts added later do not
    reach it. The cyclicity saturation takes its rounds from it, and the
    chase and the acyclicity check queue the same keys through `enqueue`.
    Each then pins exactly the facts it added. A pinned trigger uses a
    fact the earlier calls never saw, and a later call pins only facts
    this one never saw, so no key comes back.
    """
    keys: list[tuple] = []
    _discover(rules, facts, new_facts, keys, keys)
    return keys


def frontier_keys(rules: RuleSet, facts: FactSet, new_facts: Iterable[Atom],
                  seen: set[tuple], out: list[tuple]) -> None:
    """Append to out the _pinned_keys (rule, *frontier image) keys of the
    new facts: the over-approximation builds' discovery, with the build's
    set of queued keys as seen. out may be the list the build is reading
    its keys from: keys go only at its end."""
    _pinned_keys(_joins(rules), facts, new_facts, seen, _FRONTIER, out, out)


def disjunct_holds(rule: Rule, disjunct: int, image: tuple[Term, ...],
                   facts: FactSet, out: Sequence[Atom] | None = None) -> bool:
    """True iff head disjunct `disjunct` (1-based) of the rule's trigger
    with this frontier image matches into the facts: the obsolescence rule,
    one disjunct at a time.

    The match runs the disjunct's chain on rows that start with the image:
    a frontier slot, an int, is bound at its position in the image, and a
    symbol slot stands for its existential variable, which may take any
    term of the fact set, the same one in every atom. The chains of the
    rule's existential disjuncts are compiled on its first test and kept
    in rule.chains, so they are freed with the rule. A disjunct without
    existential variables is ground under the image, where it equals its
    output rule.output(disjunct, image), so its atoms are looked up one by
    one instead. A caller that has built that output already passes it as
    `out`.
    """
    if rule.existential[disjunct - 1]:
        if rule.chains is None:
            where = {i: i for i in range(len(rule.frontier))}
            rule.chains = tuple([
                _compile_chain(template, where, len(where))[0]
                if existential else ()
                for template, existential in zip(rule.sk_heads, rule.existential)])
        return next(_chain(rule.chains[disjunct - 1], image, facts),
                    None) is not None
    for atom in rule.output(disjunct, image) if out is None else out:
        if atom not in facts:
            return False
    return True


def is_obsolete(trigger: Trigger, facts: FactSet) -> bool:
    """True iff some original head disjunct matches into the facts; see
    `disjunct_holds`."""
    rule = trigger.rule
    image = trigger.frontier_image()
    for i in range(1, rule.branching + 1):
        if disjunct_holds(rule, i, image, facts):
            return True
    return False


def obsolete_through(chains: Iterable[Chain], image: tuple[Term, ...],
                     new_facts: Iterable[Atom], facts: FactSet) -> bool:
    """True iff some conjunction matches under the image with one of its
    atoms on a new fact (already in the facts): each new fact is pinned to
    each of the conjunctions' _rotations whose first step has its
    predicate. On pinned_head_chains(rule) and a frontier image it is the
    semi-naive step of `is_obsolete`; on a compiled query, of its match."""
    for fact in new_facts:
        predicate = fact.predicate
        for steps in chains:
            if steps[0][0] == predicate and next(
                    _chain(steps, image, facts, 0, fact), None) is not None:
                return True
    return False


class Queues:
    """The trigger keys of a fixpoint loop: datalog keys in one list, the
    others in a second, each read from its own head index. `enqueue`
    discovers keys straight into the two lists of `keys`. Lists only grow,
    and a pop only moves a head, so `mark` and `undo` restore any earlier
    state: the chase's pending siblings come back to their parent's queues
    this way."""

    __slots__ = ("keys", "heads")

    def __init__(self) -> None:
        self.keys: tuple[list[tuple], list[tuple]] = ([], [])
        self.heads = [0, 0]

    def __bool__(self) -> bool:
        """Whether some key is still queued."""
        return self.heads[0] < len(self.keys[0]) or self.heads[1] < len(self.keys[1])

    def mark(self) -> tuple[int, int, int, int]:
        """A point to come back to with `undo`: both lengths and heads."""
        datalog, other = self.keys
        return (len(datalog), len(other), *self.heads)

    def undo(self, mark: tuple[int, int, int, int]) -> None:
        """Drop the keys queued since `mark` and move both heads back."""
        datalog, other = self.keys
        del datalog[mark[0]:]
        del other[mark[1]:]
        self.heads[:] = mark[2:]


def enqueue(queues: Queues, rules: RuleSet, facts: FactSet,
            new_facts: Iterable[Atom] | None = None) -> None:
    """Queue the keys that `discover` returns for the same arguments, in
    its order, datalog keys at the end of the first list and the others at
    the end of the second: the discovery of the chase and the acyclicity
    check, which writes each key straight into its list."""
    datalog, other = queues.keys
    _discover(rules, facts, new_facts, datalog, other)


def pop_active(queues: Queues, facts: FactSet, max_term_depth: int | None = None,
               ) -> tuple[tuple, list[tuple[Atom, ...]] | None] | None:
    """The first key, datalog keys first, that is not obsolete for the
    facts, with the output of each head disjunct; None once both lists are
    read to the end. A key is tested on the frontier image that
    rule.key_frontier reads off it; no Trigger is built. Obsolete keys are
    passed over for good: facts only grow along a branch. An
    existential-free disjunct's output is built once, for its test and the
    caller. No disjunct holds in an empty set, so none is tested there.

    With a max_term_depth, a key whose outputs would hold a term deeper
    than it is returned with None for its outputs. This is the term-depth
    budget of the chase and of the acyclicity check, and the one place
    either tests it, on the same image. Every argument of an output is a
    term of the image or a skolem term f(image), every frontier variable
    occurs in some disjunct, a generating rule has an existential variable
    in some disjunct, and `Rule` admits no empty frontier. So the deepest
    output term is one deeper than the deepest image term when the rule is
    generating, and as deep when not: the test is exact on every pop,
    whatever terms the facts held from the start.
    """
    tested = bool(facts)
    heads = queues.heads
    for q, keys in enumerate(queues.keys):
        at = heads[q]
        while at < len(keys):
            key = keys[at]
            at += 1
            rule = key[0]
            image = rule.key_frontier(key)
            outputs = []
            for i, existential in enumerate(rule.existential, 1):
                out = None if existential else rule.output(i, image)
                if tested and disjunct_holds(rule, i, image, facts, out):
                    break
                outputs.append(out)
            else:
                heads[q] = at
                if max_term_depth is not None:
                    limit = max_term_depth - rule.is_generating
                    for t in image:
                        if t.depth > limit:
                            return key, None
                if rule.is_generating:
                    outputs = [rule.output(i, image) if out is None else out
                               for i, out in enumerate(outputs, 1)]
                return key, outputs
        heads[q] = at
    return None


def compile_query(atoms: Sequence[Atom]) -> tuple[tuple[Chain, ...], tuple[Term, ...]]:
    """A query's _rotations and the image of its distinct ground terms, in
    order of first occurrence, which their rows start with: a ground term
    is bound at its position in the image, and a variable at its first
    occurrence. Query terms must be variables or ground terms, and each
    atom needs one."""
    where = _bound_terms(atoms, "query")
    return _rotations([atoms], where), tuple(where)
