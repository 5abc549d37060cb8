"""Fact storage, conjunction matching and trigger discovery.

`discover` is the trigger discovery behind the fixpoint loops: the chase,
the acyclicity check and the cyclicity saturation take its keys, and the
over-approximation builds their own through `frontier_keys`. All run the
compiled pinned joins. A full call pins each rule's body atom with the
fewest facts, ties to the first, to each of its facts in insertion order;
a semi-naive call pins each new fact to each body atom of its predicate,
new fact by new fact and, per fact, in body-index order. No loop meets a
trigger twice, so none keeps a seen set for triggers. `match_conjunction`
is the planner's backtracking join (most selective atom first, ties in
source order, candidates in insertion order): it joins pinned rests of two
or more atoms, and a full call yields its matches' keys in its order.

A trigger travels from `discover` through its pop as the key (rule, *body
image), the image of rule.body_vars in order. Keys are read off a FactSet,
so they are ground, and `Trigger.of_key` builds a trigger only where
something reads one: a chase vertex's `trigger`, or the saturation's
unblockability test.

Pinning a fact to body atom idx of a rule is a join whose shape depends
only on (rule, idx). A rule set's joins are compiled together on first
use and held by the rule set next to its body index, so they are freed
with it. One runner, `_pinned_keys`, reads the compiled joins and projects
each match onto a key: (rule, *body image) for `discover` and (rule,
*frontier image) for `frontier_keys`, as builds read only the frontier.

The chase and the acyclicity check share the step around it: `enqueue`
queues datalog keys ahead of the others in a `Queues`, and `pop_active`
pops the first key that is not obsolete and returns it with its outputs.
`FactSet` and `Queues` only grow at their ends, so each can `mark` a point
and `undo` back to it: the chase backtracks this way. Obsolescence
is stated once, per head disjunct, in `disjunct_holds`, on the rule's
compiled head templates (Rule.sk_heads) and a frontier image: an
existential-free disjunct is looked up as its output, an existential one
walked atom by atom through the fact index (`_holds`). `pop_active` reads
each popped key's frontier image off the key with rule.key_frontier and
asks each disjunct, passing the disjunct's output when that is the
grounded head, so the one build serves the test and the caller;
`is_obsolete` asks every disjunct of a trigger. `obsolete_through` is the
same walk pinned to new facts, the semi-naive test of the unblockability
builds.

A query match is the same walk: `compile_query` makes a query one
template whose ground terms are int slots into an image and whose
variables are slots that `_holds` binds like symbol slots.

Patterns hold only variables and ground terms. `Rule` ensures this for
bodies and heads (they hold variables only) and `compile_query` for queries
(they may hold ground terms too), so matching looks variables up in the
binding, or a template's other slots up in its own, and compares terms by
identity, which interning makes exact.
"""
from __future__ import annotations

import functools
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .model import (
    Atom,
    Rule,
    RuleError,
    RuleSet,
    SkolemSymbol,
    Substitution,
    Template,
    Term,
    Variable,
)

__all__ = [
    "FactSet",
    "Trigger",
    "Queues",
    "match_conjunction",
    "discover",
    "disjunct_holds",
    "is_obsolete",
    "obsolete_through",
    "enqueue",
    "pop_active",
    "compile_query",
]


class FactSet:
    """Insertion-ordered set of facts, indexed by predicate and first
    argument. Facts are only added, or dropped newest first by `undo`, so
    each index list keeps its facts in insertion order."""

    __slots__ = ("_order", "_by_pred", "_by_pred_arg0")

    def __init__(self, facts: Iterable[Atom] = ()):
        self._order: dict[Atom, None] = {}
        self._by_pred: dict[str, list[Atom]] = {}
        self._by_pred_arg0: dict[tuple[str, Term], list[Atom]] = {}
        for f in facts:
            self.add(f)

    def add(self, fact: Atom) -> bool:
        """Insert one fact; returns True when it was not present before."""
        if not fact.is_ground:
            raise RuleError(f"not a fact: {fact!r}")
        if fact in self._order:
            return False
        self._order[fact] = None
        self._by_pred.setdefault(fact.predicate, []).append(fact)
        self._by_pred_arg0.setdefault((fact.predicate, fact.terms[0]), []).append(fact)
        return True

    def update(self, facts: Iterable[Atom]) -> list[Atom]:
        """Insert many facts; returns the ones that were new, in order."""
        return [f for f in facts if self.add(f)]

    def mark(self) -> int:
        """A point to come back to with `undo`: the number of facts."""
        return len(self._order)

    def undo(self, mark: int) -> None:
        """Drop every fact added since `mark`, newest first. Facts and index
        lists only ever grow at their ends, so each dropped fact is the last
        entry of its two index lists; an index list left empty is deleted,
        which leaves the set as if those facts had never been added."""
        order = self._order
        by_pred = self._by_pred
        by_pred_arg0 = self._by_pred_arg0
        while len(order) > mark:
            fact = order.popitem()[0]
            predicate = fact.predicate
            entries = by_pred[predicate]
            entries.pop()
            if not entries:
                del by_pred[predicate]
            key = (predicate, fact.terms[0])
            entries = by_pred_arg0[key]
            entries.pop()
            if not entries:
                del by_pred_arg0[key]

    def candidates(self, predicate: str, first: Term | None = None) -> Sequence[Atom]:
        if first is not None:
            return self._by_pred_arg0.get((predicate, first), ())
        return self._by_pred.get(predicate, ())

    def count(self, predicate: str, first: Term | None = None) -> int:
        return len(self.candidates(predicate, first))

    def terms(self) -> list[Term]:
        """Distinct argument terms in first-seen order."""
        seen: dict[Term, None] = {}
        for fact in self._order:
            for t in fact.terms:
                if t not in seen:
                    seen[t] = None
        return list(seen)

    def __contains__(self, fact: Atom) -> bool:
        return fact in self._order

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __le__(self, other: "FactSet") -> bool:
        return all(f in other for f in self)

    def __repr__(self) -> str:
        return f"FactSet({len(self)} facts)"


class Trigger:
    """A rule paired with a total substitution for its body variables; equal
    to another with the same rule and body image."""

    __slots__ = ("rule", "substitution")

    def __init__(self, rule: Rule, substitution: Substitution):
        sub = {v: substitution[v] for v in rule.body_vars}
        for v, t in sub.items():
            if not t.is_ground:
                raise RuleError(f"trigger substitution must be ground, {v!r} -> {t!r}")
        self.rule = rule
        self.substitution = sub

    @classmethod
    def of_key(cls, key: tuple) -> "Trigger":
        """The trigger of a ground (rule, *body image) key, unchecked."""
        trigger = cls.__new__(cls)
        rule = trigger.rule = key[0]
        trigger.substitution = dict(zip(rule.body_vars, key[1:]))
        return trigger

    def body_facts(self) -> tuple[Atom, ...]:
        sigma = self.substitution
        return tuple(
            Atom(a.predicate, tuple(sigma[t] for t in a.terms))  # type: ignore[index]
            for a in self.rule.body
        )

    def frontier_image(self) -> tuple[Term, ...]:
        """The image of rule.frontier, in order."""
        return tuple(map(self.substitution.__getitem__, self.rule.frontier))

    def out(self, disjunct: int) -> tuple[Atom, ...]:
        """Skolemized output of one head disjunct (1-based), by Rule.output."""
        return self.rule.output(disjunct, self.frontier_image())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Trigger) and other.rule.id == self.rule.id \
            and other.substitution == self.substitution

    def __hash__(self) -> int:
        return hash((self.rule.id, *self.substitution.values()))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{v.name}/{self.substitution[v]!r}" for v in self.rule.body_vars)
        return f"<{self.rule.id}, [{inner}]>"


def _plan(pattern: Sequence[Atom], facts: FactSet) -> list[Atom]:
    """Order atoms most selective first, ties broken by source order."""
    def cost(entry: tuple[int, Atom]) -> tuple[int, int]:
        src, atom = entry
        first = atom.terms[0]
        if first.is_ground:
            return (facts.count(atom.predicate, first), src)
        return (facts.count(atom.predicate), src)

    return [atom for _, atom in sorted(enumerate(pattern), key=cost)]


def _unify_atom(atom: Atom, fact: Atom, binding: dict[Variable, Term]) -> dict[Variable, Term] | None:
    if atom.predicate != fact.predicate or atom.arity != fact.arity:
        return None
    out = binding
    fresh = False
    for pat, val in zip(atom.terms, fact.terms):
        if pat.__class__ is Variable:
            cur = out.get(pat)
            if cur is None:
                if not fresh:
                    out = dict(out)
                    fresh = True
                out[pat] = val
            elif cur is not val:
                return None
        elif pat is not val:
            return None
    return out


def match_conjunction(
    pattern: Sequence[Atom],
    base: Substitution,
    facts: FactSet,
) -> Iterator[dict[Variable, Term]]:
    """Enumerate extensions of base mapping the pattern into the fact set.

    Pattern terms are variables or ground terms. Yields dictionaries
    covering dom(base) plus every pattern variable. The enumeration order
    is deterministic for identical inputs.
    """
    return _walk(_plan(pattern, facts), 0, dict(base), facts)


def _walk(plan: list[Atom], idx: int, binding: dict[Variable, Term],
          facts: FactSet) -> Iterator[dict[Variable, Term]]:
    """Extend binding over plan[idx:], depth first in candidate order. A
    module-level generator and not a closure: a nested walk refers to itself
    through its cell, and that cycle would keep every fact set it matched
    alive until the next cyclic garbage collection."""
    if idx == len(plan):
        yield dict(binding)
        return
    atom = Atom(plan[idx].predicate,
                tuple([binding.get(t, t) for t in plan[idx].terms]))  # type: ignore[arg-type]
    if atom.is_ground:
        if atom in facts:
            yield from _walk(plan, idx + 1, binding, facts)
        return
    first = atom.terms[0]
    pool = facts.candidates(atom.predicate, first if first.is_ground else None)
    for fact in pool:
        nxt = _unify_atom(atom, fact, binding)
        if nxt is not None:
            yield from _walk(plan, idx + 1, nxt, facts)


class _PinPlan(NamedTuple):
    """The join of a rule's body with one body atom pinned to a fact,
    analysed once per (rule, idx) and run by _pinned_keys.

    repeats pairs a later position of a variable of the pinned atom with its
    first. rest holds the other body atoms. A single one is scanned through
    the index, keyed on the pinned position of its first term (None when
    that term is unbound); bound pairs each later position with the pinned
    position of its variable, and rest_repeats pairs a later occurrence of
    an unbound variable with its first. Body atoms hold variables only, so
    these pairs are the whole join. Two or more rest atoms are joined by
    match_conjunction.

    frontier and body project the join onto rule.frontier and onto
    rule.body_vars, as (image, whole) pairs. image reads a (rule, *image)
    key off (rule, *fact terms, *match terms), the match terms being the
    scanned candidate's or, for two or more rest atoms, the match's body
    image. whole says whether the pinned atom binds every variable, so that
    every match gives the key image((rule, *fact terms)).

    Plans are tuples and not closures: the dozen cells of a closure per plan
    gave the garbage collector enough to scan to slow 512-1024-rule sets by
    a few percent.
    """

    terms: tuple[Term, ...]
    repeats: tuple[tuple[int, int], ...]
    rest: tuple[Atom, ...]
    key: int | None
    bound: tuple[tuple[int, int], ...]
    rest_repeats: tuple[tuple[int, int], ...]
    frontier: tuple[itemgetter, bool]
    body: tuple[itemgetter, bool]


_FRONTIER = _PinPlan._fields.index("frontier")
_BODY = _PinPlan._fields.index("body")


def _compile_pinned(rule: Rule, idx: int) -> _PinPlan:
    """The one compiler of pinned joins: body atom idx of the rule pinned,
    with both projections of its matches."""
    terms = rule.body[idx].terms
    where: dict[Term, int] = {}
    repeats: list[tuple[int, int]] = []
    for i, t in enumerate(terms):
        j = where.setdefault(t, i)
        if j != i:
            repeats.append((i, j))
    rest = rule.body[:idx] + rule.body[idx + 1:]
    key = None
    bound: list[tuple[int, int]] = []
    rest_repeats: list[tuple[int, int]] = []
    # The position in the match terms of each variable the pinned atom
    # leaves unbound: in the one rest atom, or else in the body image.
    slots: dict[Term, int] = {}
    if len(rest) == 1:
        last = rest[0].terms
        key = where.get(last[0])
        for i, t in enumerate(last):
            if t in where:
                if i:
                    bound.append((i, where[t]))
            elif t in slots:
                rest_repeats.append((i, slots[t]))
            else:
                slots[t] = i
    elif rest:
        slots = {v: i for i, v in enumerate(rule.body_vars)}
    # Each body variable's position in (rule, *fact terms, *match terms).
    n = len(terms)
    pos = {v: 1 + where[v] if v in where else 1 + n + slots[v]
           for v in rule.body_vars}
    return _PinPlan(terms, tuple(repeats), rest, key, tuple(bound),
                    tuple(rest_repeats),
                    _projection(tuple([pos[v] for v in rule.frontier]), n),
                    _projection(tuple(pos.values()), n))


@functools.cache
def _projection(positions: tuple[int, ...], n: int) -> tuple[itemgetter, bool]:
    """The (image, whole) pair of a projection onto the variables at these
    positions of (rule, *n fact terms, *match terms). Position 0 is the
    rule, so an empty frontier's key is the rule alone. Equal pairs are
    shared: a pair and a getter per plan gave the garbage collector enough
    to scan to slow 512-1024-rule sets by a few percent."""
    image = itemgetter(0, *positions) if positions else itemgetter(slice(1))
    return image, max(positions, default=0) <= n


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
                 projection: int) -> Iterator[tuple]:
    """The one runner of the compiled pinned joins. For each new fact (in
    the facts) and each plan that joins holds for its predicate, it
    projects the matches of match_conjunction(rule.body, base, facts),
    where base maps the pinned atom to the fact, through the plan field at
    index projection, and yields the keys not in seen, in first-occurrence
    order, adding each to seen. Keys are read straight off the pinned fact
    and the scanned candidate, which the facts' live index lists hold."""
    for fact in new_facts:
        if fact not in facts:
            continue
        ft = fact.terms
        for rule, plan in joins.get(fact.predicate, ()):
            terms, repeats, rest, _, _, _, _, _ = plan
            if len(ft) != len(terms):
                continue
            for i, j in repeats:
                if ft[i] != ft[j]:
                    break
            else:
                image, whole = plan[projection]
                if whole:
                    # Every match of the rest gives this one key: a seen key
                    # needs no join, and an unseen one only the first match.
                    found = image((rule, *ft))
                    if found in seen or rest and next(
                            _scan(rule, plan, ft, facts), None) is None:
                        continue
                    seen.add(found)
                    yield found
                else:
                    for ct in _scan(rule, plan, ft, facts):
                        found = image((rule, *ft, *ct))
                        if found not in seen:
                            seen.add(found)
                            yield found


def _scan(rule: Rule, plan: _PinPlan, ft: tuple[Term, ...],
          facts: FactSet) -> Iterator[tuple[Term, ...]]:
    """The match terms of each match of a plan's rest atoms that joins the
    pinned fact's terms ft: a single rest atom's candidate terms, read
    through the index, or the body image of a match of several."""
    terms, _, rest, key, bound, rest_repeats, _, _ = plan
    if len(rest) > 1:
        for sub in match_conjunction(rest, dict(zip(terms, ft)), facts):
            yield tuple(map(sub.__getitem__, rule.body_vars))
        return
    atom = rest[0]
    arity = len(atom.terms)
    for cand in facts.candidates(atom.predicate, None if key is None else ft[key]):
        ct = cand.terms
        if len(ct) != arity:
            continue
        for i, j in bound:
            if ct[i] != ft[j]:
                break
        else:
            for i, j in rest_repeats:
                if ct[i] != ct[j]:
                    break
            else:
                yield ct


def _least_keys(rules: RuleSet, facts: FactSet) -> Iterator[tuple]:
    """Rule by rule, the body atom of least (facts.count(predicate), index)
    pinned to each fact of its predicate, in insertion order. _plan puts
    that atom first, as no first term of a body is bound; _scan reads one
    rest atom in _walk's candidate order and plans a longer rest again in
    the same relative order. So the keys come in match_conjunction's order."""
    joins = _joins(rules)
    seen: set[tuple] = set()
    for rule in rules:
        count, idx = min((facts.count(atom.predicate), i)
                         for i, atom in enumerate(rule.body))
        if count:
            predicate = rule.body[idx].predicate
            pair = joins[predicate][rules.body_index[predicate].index((rule, idx))]
            yield from _pinned_keys({predicate: (pair,)}, facts,
                                    facts.candidates(predicate), seen, _BODY)


def discover(
    rules: RuleSet,
    facts: FactSet,
    new_facts: Iterable[Atom] | None = None,
) -> Iterator[tuple]:
    """The (rule, *body image) keys of the loaded triggers, as _pinned_keys
    finds them under a seen set of the call's own, at most once per call:
    when new_facts is None, every trigger, in the order of [(rule, *body
    image) for rule in rules for each match of match_conjunction(rule.body,
    {}, facts)] (_least_keys); else each trigger that uses a new fact
    (already in the facts), pinned to each body atom of its predicate.

    The chase, the acyclicity check and the cyclicity saturation each
    consume a call before adding facts, as the joins read the facts' live
    index lists, and then pin exactly the facts they added. A pinned
    trigger uses a fact the earlier calls never saw, and a later call pins
    only facts this one never saw, so no key comes back.
    """
    if new_facts is None:
        return _least_keys(rules, facts)
    return _pinned_keys(_joins(rules), facts, new_facts, set(), _BODY)


def frontier_keys(rules: RuleSet, facts: FactSet, new_facts: Iterable[Atom],
                  seen: set[tuple]) -> Iterator[tuple]:
    """The _pinned_keys (rule, *frontier image) keys of the new facts: the
    over-approximation builds' discovery, with the build's set of queued
    keys as seen."""
    return _pinned_keys(_joins(rules), facts, new_facts, seen, _FRONTIER)


def disjunct_holds(rule: Rule, disjunct: int, image: tuple[Term, ...],
                   facts: FactSet, out: Sequence[Atom] | None = None) -> bool:
    """True iff head disjunct `disjunct` (1-based) of the rule's trigger
    with this frontier image matches into the facts: the obsolescence rule,
    one disjunct at a time.

    The match is read off the disjunct's template in rule.sk_heads: a
    frontier slot must hold the image's term, and a symbol slot stands for
    its existential variable, which may take any term of the fact set, the
    same one in every atom (_holds). A disjunct without existential
    variables is ground under the image, where it equals its output
    rule.output(disjunct, image), so its atoms are looked up one by one
    instead. A caller that has built that output already passes it as
    `out`.
    """
    if rule.heads[disjunct - 1].existential_vars:
        return _holds(rule.sk_heads[disjunct - 1], image, {}, facts)
    for atom in rule.output(disjunct, image) if out is None else out:
        if atom not in facts:
            return False
    return True


def _holds(atoms: Template, image: tuple[Term, ...],
           bound: dict[SkolemSymbol | Variable, Term], facts: FactSet,
           pool: Sequence[Atom] | None = None) -> bool:
    """Whether the template atoms map into the facts with each int slot s
    on image[s] and each other slot, a symbol or a query variable, on one
    term throughout, extending bound, the terms of the slots met so far.

    The first atom's candidates are pool when given, else read through the
    (predicate, first argument) index when its first slot is an int or a
    bound slot, else all facts of its predicate. The answer is a boolean,
    so the atom order does not change it, and terms are compared by
    identity, which interning makes exact.
    """
    predicate, slots = atoms[0]
    rest = atoms[1:]
    if pool is None:
        first = slots[0]
        pool = facts.candidates(predicate, image[first] if first.__class__ is int
                                else bound.get(first))  # type: ignore[arg-type]
    arity = len(slots)
    for fact in pool:
        terms = fact.terms
        if len(terms) != arity:
            continue
        binding = bound
        for s, t in zip(slots, terms):
            if s.__class__ is int:
                if image[s] is not t:  # type: ignore[index]
                    break
            else:
                held = binding.get(s)  # type: ignore[arg-type]
                if held is None:
                    if binding is bound:
                        binding = dict(bound)
                    binding[s] = t  # type: ignore[index]
                elif held is not t:
                    break
        else:
            if not rest or _holds(rest, image, binding, facts):
                return True
    return False


def is_obsolete(trigger: Trigger, facts: FactSet) -> bool:
    """True iff some original head disjunct matches into the facts; see
    `disjunct_holds`."""
    rule = trigger.rule
    image = trigger.frontier_image()
    for i in range(1, rule.branching + 1):
        if disjunct_holds(rule, i, image, facts):
            return True
    return False


def obsolete_through(templates: Sequence[Template], image: tuple[Term, ...],
                     new_facts: Iterable[Atom], facts: FactSet) -> bool:
    """True iff some template holds (`_holds`) under the image with one of
    its atoms on a new fact (already in the facts). Each new fact is pinned
    to each template atom of its predicate, and `_holds` walks the others.
    On rule.sk_heads and a frontier image it is the semi-naive step of
    `is_obsolete`; on a compiled query, of its match."""
    for fact in new_facts:
        predicate = fact.predicate
        for template in templates:
            for j, atom in enumerate(template):
                if atom[0] == predicate and _holds(
                        (atom, *template[:j], *template[j + 1:]) if j else template,
                        image, {}, facts, (fact,)):
                    return True
    return False


class Queues:
    """The trigger keys of a fixpoint loop: datalog keys in one list, the
    others in a second, each read from its own head index. Lists only grow,
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


def enqueue(queues: Queues, keys: Iterable[tuple]) -> None:
    """Queue datalog keys in the first list, the others in the second."""
    lists = queues.keys
    for key in keys:
        lists[not key[0].is_datalog].append(key)


def pop_active(queues: Queues,
               facts: FactSet) -> tuple[tuple, list[tuple[Atom, ...]]] | None:
    """The first key, datalog keys first, that is not obsolete for the
    facts, with the output of each head disjunct; None once both lists are
    read to the end. A key is tested on the frontier image that
    rule.key_frontier reads off it; no Trigger is built. Obsolete keys are
    passed over for good: facts only grow along a branch. An
    existential-free disjunct's output is built once, for its test and the
    caller. No disjunct holds in an empty set, so none is tested there.
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
            for i, head in enumerate(rule.heads, 1):
                out = None if head.existential_vars else rule.output(i, image)
                if tested and disjunct_holds(rule, i, image, facts, out):
                    break
                outputs.append(out)
            else:
                heads[q] = at
                return key, [
                    rule.output(i, image) if out is None else out
                    for i, out in enumerate(outputs, 1)]
        heads[q] = at
    return None


def compile_query(atoms: Sequence[Atom]) -> tuple[Template, tuple[Term, ...]]:
    """A query as one template and the image of its distinct ground terms:
    a ground term is an int slot into the image, a variable a slot keyed
    by itself, which `_holds` binds as it binds a symbol slot. Query terms
    must be variables or ground terms."""
    where: dict[Term, int] = {}
    template = []
    for atom in atoms:
        for t in atom.terms:
            if not (t.is_ground or t.__class__ is Variable):
                raise RuleError(f"query term is neither a variable nor ground: {t!r}")
        template.append((atom.predicate, tuple([
            t if t.__class__ is Variable else where.setdefault(t, len(where))
            for t in atom.terms])))
    return tuple(template), tuple(where)
