"""Restricted chase over disjunctive existential rules.

Chase trees follow the usual discipline: a vertex is expanded by a trigger
that is loaded and not obsolete for its label, a non-datalog trigger fires
only once every datalog rule is satisfied, expansion creates one child per
head disjunct, and triggers are consumed from FIFO queues so every loaded
trigger is eventually applied or found obsolete on every branch (fairness).
A branch takes its triggers by the trigger step it shares with the
acyclicity check: `matcher.enqueue` discovers their keys straight into
the branch's queues, datalog keys apart from the others, and
`matcher.pop_active` tests each key it pops on its frontier image and
returns the first key not obsolete for the label it would extend, datalog
first, with the outputs its children add, or with None when they would
pass the term-depth budget. A vertex keeps that key; its
`trigger` is built from it only when read.
Labels only grow along a branch, so a trigger found obsolete stays
obsolete and is passed over for good, and the test at the pop is exact.
Each child pins only the facts its disjunct added, new fact by new fact
and, per fact, in body-index order, so a branch meets each trigger once.
The search is depth-first with a trail, as in Prolog's backtracking: one
FactSet, the insertion-ordered dict of the facts with its index,
holds the label of the branch being extended, and one `Queues` its keys;
a fork copies neither. Both are marked before a fork and undone to the
marks when a later sibling resumes, and each child's output enters the
label through one `FactSet.update` call. A lone child, the one child of a
single-disjunct trigger, takes no marks, since nothing resumes there.
`run_chase` and `entails` share one expansion loop. `entails` compiles
the query into join chains (`matcher.compile_query`), tests each vertex
through the facts it adds (`matcher.obsolete_through`), the root's being
the database, closes the branches that match and stops at the first
saturated branch that does not.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .matcher import (FactSet, Queues, Trigger, compile_query, enqueue,
                      obsolete_through, pop_active)
from .model import Atom, Query, RuleSet, gc_paused

__all__ = [
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


@dataclass(frozen=True)
class ChaseBudget:
    max_vertices: int | None = 100_000
    max_depth: int | None = None
    max_term_depth: int | None = 8


@dataclass(slots=True)
class ChaseVertex:
    id: int
    parent: int | None
    depth: int
    # Key (rule, *body image) of the trigger applied at the parent to create
    # this vertex, with the disjunct whose output was added; None at the root.
    key: tuple | None
    disjunct: int | None
    new_facts: tuple[Atom, ...]
    children: list[int] = field(default_factory=list)

    @property
    def trigger(self) -> Trigger | None:
        """The trigger of `key`, built on each read."""
        return None if self.key is None else Trigger(self.key)

    @property
    def is_leaf(self) -> bool:
        return not self.children


class ChaseTree:
    def __init__(self, rules: RuleSet):
        self.rules = rules
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


def _expand(
    rules: RuleSet,
    database: Iterable[Atom],
    budget: ChaseBudget | None,
    query: Query | None,
) -> tuple[ChaseTree, bool]:
    """The one expansion loop: depth-first, first disjunct first.

    The search keeps one label and one Queues, the branch being extended.
    Expanding a vertex allocates all of its children at once, and fixes
    each child's new facts, the facts of its disjunct's output that the
    parent's label lacks, before any of them is added. The first child goes
    on at once. Each later one waits as a pending sibling: its vertex, which
    holds its new facts, and the parent's marks of the label and the
    queues. Resuming a sibling undoes both to those marks, adds its new
    facts, and discovers the triggers that they load. So vertex ids, new
    facts and the order in which branches are explored do not depend on
    when a sibling resumes.

    With a query, a child whose new facts complete a match is a closed
    leaf: the match is tested when the child goes on or resumes, and a
    closed child is neither discovered from nor expanded, since every label
    below it would match too. The search then stops at the first saturated
    branch, which refutes the query; the flag returned says whether that
    happened. Without a query every branch runs until it is saturated.
    """
    budget = budget or ChaseBudget()
    database = tuple(database)
    for fact in database:
        rules.check_fact(fact)
    facts = FactSet()
    seed = tuple(facts.update(database))
    tree = ChaseTree(rules)
    vertex = ChaseVertex(0, None, 0, None, None, seed)
    tree.vertices.append(vertex)

    if query is not None:
        query_chains, query_image = compile_query(query.atoms)
        # An empty query holds in every label, and another in the root's
        # iff some match maps an atom to a fact of the database.
        if not query_chains or obsolete_through(query_chains, query_image, seed, facts):
            return tree, False

    max_vertices, max_depth = budget.max_vertices, budget.max_depth
    max_term_depth = budget.max_term_depth
    queues = Queues()
    enqueue(queues, rules, facts)
    pending: list[tuple[ChaseVertex, int, tuple[int, int, int, int]]] = []

    while True:
        popped = pop_active(queues, facts, max_term_depth)
        if popped is None:
            if query is not None:
                return tree, True
            vertex = None
        else:
            key, outputs = popped
            rule = key[0]
            if max_depth is not None and vertex.depth >= max_depth:
                return tree._stop(DEPTH), False
            first = len(tree.vertices)
            if max_vertices is not None and first + rule.branching > max_vertices:
                return tree._stop(VERTICES), False
            if outputs is None:
                return tree._stop(TERM_DEPTH), False
            parent = vertex
            depth = parent.depth + 1
            # Later disjuncts' facts are read off the parent's label before
            # the first disjunct's are added to it, and the marks a waiting
            # sibling resumes from are taken then too.
            later = [tuple(dict.fromkeys([f for f in out if f not in facts]))
                     for out in outputs[1:]] if rule.branching > 1 else ()
            if later:
                fact_mark, queue_mark = facts.mark(), queues.mark()
            vertex = ChaseVertex(first, parent.id, depth, key, 1,
                                 tuple(facts.update(outputs[0])))
            tree.vertices.append(vertex)
            parent.children.append(first)
            if later:
                tree.vertices.extend(
                    ChaseVertex(first + i - 1, parent.id, depth, key, i, new)
                    for i, new in enumerate(later, 2))
                parent.children.extend(range(first + 1, len(tree.vertices)))
                # The first child goes on at once, the others wait their
                # turn, second child on top.
                pending.extend((sibling, fact_mark, queue_mark)
                               for sibling in reversed(tree.vertices[first + 1:]))
        while vertex is None or (query is not None and obsolete_through(
                query_chains, query_image, vertex.new_facts, facts)):
            if not pending:
                return tree, False
            vertex, fact_mark, queue_mark = pending.pop()
            facts.undo(fact_mark)
            queues.undo(queue_mark)
            facts.update(vertex.new_facts)
        enqueue(queues, rules, facts, vertex.new_facts)


@gc_paused
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


@gc_paused
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
