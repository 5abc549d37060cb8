"""Restricted chase over disjunctive existential rules.

Chase trees follow the usual discipline: a vertex is expanded by a trigger
that is loaded and not obsolete for its label, a non-datalog trigger fires
only once every datalog rule is satisfied, expansion creates one child per
head disjunct, and triggers are consumed from FIFO queues so every loaded
trigger is eventually applied or found obsolete on every branch (fairness).
A branch takes its triggers by the trigger step it shares with the
acyclicity check: `matcher.discover` finds their keys, `matcher.enqueue`
queues datalog keys apart from the others, and `matcher.pop_active` tests
each key it pops on its frontier image and returns the trigger of the
first key not obsolete for the label it would extend, datalog first, with
the outputs its children add.
Labels only grow along a branch, so a trigger found obsolete stays
obsolete and is dropped for good, and the test at the pop is exact. Each
child pins only the facts its disjunct added, new fact by new fact and,
per fact, in body-index order, so a branch meets each trigger once.
`run_chase` and `entails` share one expansion loop; `entails` also unifies
each fact a child adds with the query atoms of its predicate, joins the
other query atoms with `matcher.match_conjunction`, closes the branches
that match and stops at the first saturated branch that does not.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .matcher import (FactSet, Queues, Trigger, compile_query, discover,
                      enqueue, match_conjunction, pop_active, query_matched)
from .model import Atom, Query, Rule, RuleSet

__all__ = [
    "HeadChoice",
    "ChaseBudget",
    "ChaseVertex",
    "ChaseTree",
    "IncompleteTreeError",
    "run_chase",
    "results",
    "entails",
]

COMPLETE = "complete"
BUDGET_EXHAUSTED = "budget-exhausted"

# The ChaseBudget limits, as ChaseTree.exhausted names them.
VERTICES = "vertices"
DEPTH = "depth"
TERM_DEPTH = "term-depth"


class IncompleteTreeError(RuntimeError):
    """Raised when an operation needs a fully expanded chase tree."""


class HeadChoice:
    """Total map from rules to one of their head disjuncts (1-based)."""

    __slots__ = ("choices",)

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

    @classmethod
    def uniform(cls, rules: RuleSet, i: int) -> "HeadChoice":
        """hc_i: pick disjunct i where available, else the last one."""
        if i < 1:
            raise ValueError("head choice index must be >= 1")
        return cls(rules, {r.id: min(i, r.branching) for r in rules})

    def choice(self, rule: Rule) -> int:
        return self.choices[rule.id]

    def out(self, trigger: Trigger) -> tuple[Atom, ...]:
        return trigger.out(self.choice(trigger.rule))

    def signature(self) -> tuple[tuple[str, int], ...]:
        return tuple(sorted(self.choices.items()))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HeadChoice) and other.choices == self.choices

    def __repr__(self) -> str:
        inner = ", ".join(f"{rid}:{i}" for rid, i in sorted(self.choices.items()))
        return f"HeadChoice({inner})"


@dataclass(frozen=True)
class ChaseBudget:
    max_vertices: int | None = 100_000
    max_depth: int | None = None
    max_term_depth: int | None = 8


@dataclass
class ChaseVertex:
    id: int
    parent: int | None
    depth: int
    # Trigger applied at the parent to create this vertex, with the disjunct
    # whose output was added; None at the root.
    trigger: Trigger | None
    disjunct: int | None
    new_facts: tuple[Atom, ...]
    children: list[int] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children


class ChaseTree:
    def __init__(self, rules: RuleSet, database: tuple[Atom, ...]):
        self.rules = rules
        self.database = database
        self.vertices: list[ChaseVertex] = []
        self.status = COMPLETE
        self.exhausted: str | None = None  # the budget that stopped it, if any

    def _stop(self, budget: str) -> "ChaseTree":
        self.status = BUDGET_EXHAUSTED
        self.exhausted = budget
        return self

    @property
    def root(self) -> ChaseVertex:
        return self.vertices[0]

    def leaves(self) -> list[ChaseVertex]:
        return [v for v in self.vertices if v.is_leaf]

    def to_dot(self) -> str:
        from .ruleio import Namer

        namer = Namer(self.rules)
        out = ["digraph chase {", '  node [shape=box, fontname="monospace"];']
        for v in self.vertices:
            added = "\\n".join(namer.atom(a) for a in v.new_facts) or "(nothing new)"
            out.append(f'  v{v.id} [label="{added}"];')
            if v.parent is not None:
                assert v.trigger is not None
                label = f"{namer.trigger(v.trigger)} #{v.disjunct}"
                out.append(f'  v{v.parent} -> v{v.id} [label="{label}"];')
        out.append("}")
        return "\n".join(out)


@dataclass
class _Branch:
    """An open branch; a fork copies its label and its trigger queues."""

    vertex: int
    facts: FactSet
    queues: Queues

    def fork(self) -> "_Branch":
        return _Branch(self.vertex, self.facts.copy(),
                       (deque(self.queues[0]), deque(self.queues[1])))


def _expand(
    rules: RuleSet,
    database: Iterable[Atom],
    budget: ChaseBudget | None,
    query: Query | None,
) -> tuple[ChaseTree, bool]:
    """The one expansion loop: depth-first, first disjunct first.

    With a query, a vertex whose facts match it is a closed leaf: it is
    neither discovered from nor expanded, since every label below it would
    match too. The search then stops at the first saturated branch, which
    refutes the query; the flag returned says whether that happened.
    Without a query every branch runs until it is saturated.
    """
    budget = budget or ChaseBudget()
    db = FactSet()
    seed: list[Atom] = []
    for fact in database:
        rules.check_fact(fact)
        if db.add(fact):
            seed.append(fact)
    tree = ChaseTree(rules, tuple(seed))
    root = ChaseVertex(0, None, 0, None, None, tuple(seed))
    tree.vertices.append(root)

    pins = None
    if query is not None:
        pins = compile_query(query.atoms)
        for _ in match_conjunction(query.atoms, {}, db):
            return tree, False

    # A non-generating rule's outputs hold only terms of its parent's label,
    # which the database and earlier generating outputs supplied. So only
    # generating outputs are scanned for the term-depth budget, unless the
    # database itself holds a term deeper than it.
    max_term_depth = budget.max_term_depth
    scan_all = max_term_depth is not None and any(
        t.depth > max_term_depth for fact in seed for t in fact.terms)

    start = _Branch(0, db, (deque(), deque()))
    enqueue(start.queues, discover(rules, db))
    stack: list[_Branch] = [start]

    while stack:
        branch = stack.pop()
        popped = pop_active(branch.queues, branch.facts)
        if popped is None:
            if pins is not None:
                return tree, True
            continue
        trigger, outputs = popped
        vertex = tree.vertices[branch.vertex]
        if budget.max_depth is not None and vertex.depth >= budget.max_depth:
            return tree._stop(DEPTH), False
        fanout = trigger.rule.branching
        if budget.max_vertices is not None and \
                len(tree.vertices) + fanout > budget.max_vertices:
            return tree._stop(VERTICES), False
        if max_term_depth is not None and (
                scan_all or trigger.rule.is_generating):
            for out in outputs:
                for atom in out:
                    if any(t.depth > max_term_depth for t in atom.terms):
                        return tree._stop(TERM_DEPTH), False
        children: list[_Branch] = []
        for i in range(1, fanout + 1):
            child = branch if i == fanout else branch.fork()
            new = child.facts.update(outputs[i - 1])
            cv = ChaseVertex(len(tree.vertices), vertex.id, vertex.depth + 1,
                             trigger, i, tuple(new))
            tree.vertices.append(cv)
            vertex.children.append(cv.id)
            if pins is not None and query_matched(pins, new, child.facts):
                continue
            child.vertex = cv.id
            enqueue(child.queues, discover(rules, child.facts, new))
            children.append(child)
        # First disjunct is explored first.
        stack.extend(reversed(children))
    return tree, False


def run_chase(
    rules: RuleSet,
    database: Iterable[Atom],
    budget: ChaseBudget | None = None,
) -> ChaseTree:
    """Build one restricted chase tree; depth-first, first disjunct first.

    The returned tree carries status "complete" when every branch ended in a
    vertex satisfying all rules, or "budget-exhausted" when the vertex,
    depth or term-depth limit stopped the expansion; `exhausted` then names
    that limit.
    """
    return _expand(rules, database, budget, None)[0]


def results(tree: ChaseTree) -> list[frozenset[Atom]]:
    """Result sets, one per branch, duplicates removed (order preserved)."""
    if tree.status != COMPLETE:
        raise IncompleteTreeError(
            "chase tree is not complete; results are undefined")
    out: list[frozenset[Atom]] = []
    seen: set[frozenset[Atom]] = set()
    for leaf in tree.leaves():
        acc: set[Atom] = set()
        cur: int | None = leaf.id
        while cur is not None:
            v = tree.vertices[cur]
            acc.update(v.new_facts)
            cur = v.parent
        frozen = frozenset(acc)
        if frozen not in seen:
            seen.add(frozen)
            out.append(frozen)
    return out


def entails(
    rules: RuleSet,
    database: Iterable[Atom],
    query: Query,
    budget: ChaseBudget | None = None,
) -> str:
    """Decide certain entailment of a boolean conjunctive query.

    The query is matched while the chase runs. Labels only grow along a
    branch, so a branch is closed as soon as its facts match the query.
    Returns "yes" as soon as every open branch has matched, "no" at the
    first saturated branch that refutes it (its label is a finite model),
    and "unknown" when a budget ran out first. Budgets count as in
    run_chase, but closed branches are not expanded, so "unknown" comes up
    less often than on the full tree.
    """
    tree, refuted = _expand(rules, database, budget, query)
    if tree.status != COMPLETE:
        return "unknown"
    return "no" if refuted else "yes"
