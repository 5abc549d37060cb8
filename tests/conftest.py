"""Shared rule sets, a seeded rule-set generator, naive reference oracles,
and helpers that only tests call.

The oracles re-implement the saturation definitions as direct enumerations
over the full substitution space. They are slow on purpose: the point is
that they share no indexing or delta logic with the engines under test.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import random
import sys
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import pytest

from chase_sentinel.approx import (ReversibilityCertificate, birth_facts,
                                   check_reversible, skeleton)
from chase_sentinel.chase import (
    COMPLETE,
    ChaseTree,
    ChaseVertex,
    results,
    run_chase,
)
from chase_sentinel.matcher import (
    FactSet,
    HeadChoice,
    Queues,
    Trigger,
    _BODY,
    _compile_pinned,
    _pinned_keys,
    enqueue,
    is_obsolete,
    pop_active,
)
from chase_sentinel.model import (
    Atom,
    Constant,
    ConstantMapping,
    FunctionalTerm,
    Rule,
    RuleError,
    RuleSet,
    Term,
    Variable,
    constant,
    functional,
    is_cyclic,
    is_k_cyclic,
    is_rho_cyclic,
    skolem_symbol,
    star,
    subterms,
    uc_constant,
)
from chase_sentinel.ruleio import Namer, ParseError, parse, render
from chase_sentinel.termination import (MFA, NOT_DETECTED, RESOURCE_EXHAUSTED,
                                        RMFA_LIKE, TERMINATING, SearchBudget,
                                        critical_instance)

# ---------------------------------------------------------------------------
# Canonical rule sets

BIKE_RULES = """\
Engine(X) -> IsIn(X, V), Bike(V) | Spare(X) .
Bike(X) -> Has(X, W), Engine(W) .
IsIn(X, Y) -> Has(Y, X) .
Has(X, Y) -> IsIn(Y, X) .
"""

UC_STAR_RULES = """\
R(X, Y) -> R(Y, U) .
R(X, Y) -> S(Y, V) .
R(X, Y) -> T(Y, W) .
S(X, Y), T(X, Y) -> R(X, Y) .
"""

GUARD_RULES = """\
P(X, Y) -> R(X, U), S(Y, U) .
R(X, Y) -> T(Y, V) .
R(X, Y), S(X, Y) -> T(Y, X) .
T(X, Y) -> P(Y, Y) .
"""

COLOUR_RULES = """\
Cl1(X), Cl2(Y) -> Red(X, U), Red(Y, U) .
Cl1(X), Red(X, Z) -> Gr(X, V), Blu(Z, V) .
Red(Y, Z), Blu(Z, W), Gr(X, W) -> Gr(Y, Y) .
Red(Y, Z), Blu(Z, W), Gr(X, W) -> Blu(Z, Y) .
Red(Y, Z), Blu(Z, W), Gr(X, W) -> Cl1(Y) .
Cl2(Y), Gr(Y, W) -> Cl2(W) .
"""

COND3_RULES = """\
A(X) -> P(X, U) .
B(X) -> Q(X, V) .
C(X) -> S(X, W) .
Q(X, Y) -> T(X) .
P(X, Y) -> T(Y) | R(X, Y, Z) .
"""


def rules_from(text: str) -> RuleSet:
    return parse(text).rules


def presentation_text(rules: RuleSet, seed: object = None,
                      prefix: str = "S") -> str:
    """The rules rendered with every predicate renamed to prefix and a
    number. With a seed, in one presentation shuffle drawn from
    random.Random(seed): the rule order, the body atoms of each rule and the
    numbering of the predicates are permuted. Disjunct order, and the atom
    order within a disjunct, are kept, since RPC_s's uniform head choices
    read disjunct order. Parsing the text gives the rules their ids anew."""
    rng = random.Random(seed)
    order, predicates = list(rules), list(rules.predicates)
    if seed is not None:
        rng.shuffle(order)
        rng.shuffle(predicates)
    name = {p: f"{prefix}{j}" for j, p in enumerate(predicates)}

    def renamed(atoms: Iterable[Atom]) -> list[Atom]:
        return [Atom(name[a.predicate], a.terms) for a in atoms]

    shuffled = []
    for i, rule in enumerate(order, start=1):
        body = renamed(rule.body)
        if seed is not None:
            rng.shuffle(body)
        shuffled.append(Rule(f"r{i}", body, [renamed(h.atoms) for h in rule.heads]))
    return render(RuleSet(shuffled))


def bike_subset(n: int) -> RuleSet:
    """The first n bike rules, ids r1..rn."""
    lines = BIKE_RULES.splitlines()[:n]
    return rules_from("\n".join(lines) + "\n")


@pytest.fixture
def bike4() -> RuleSet:
    return bike_subset(4)


@pytest.fixture
def bike3() -> RuleSet:
    return bike_subset(3)


@pytest.fixture
def bike2() -> RuleSet:
    return bike_subset(2)


@pytest.fixture
def uc_star() -> RuleSet:
    return rules_from(UC_STAR_RULES)


@pytest.fixture
def guard_rules() -> RuleSet:
    return rules_from(GUARD_RULES)


@pytest.fixture
def colour() -> RuleSet:
    return rules_from(COLOUR_RULES)


@pytest.fixture
def cond3() -> RuleSet:
    return rules_from(COND3_RULES)


# ---------------------------------------------------------------------------
# Random rule sets

def random_rule_set(rng: random.Random, max_rules: int = 4) -> RuleSet:
    """A small random rule set: <= max_rules rules over <= 3-ary predicates,
    at most two disjuncts per head. Re-rolls drafts the parser rejects."""
    while True:
        n_preds = rng.randint(2, 4)
        arity = {f"P{i}": rng.randint(1, 3) for i in range(n_preds)}
        names = sorted(arity)
        lines = []
        for _ in range(rng.randint(1, max_rules)):
            body = []
            used: set[str] = set()
            for _ in range(rng.randint(1, 2)):
                p = rng.choice(names)
                args = [rng.choice(("X", "Y", "Z")) for _ in range(arity[p])]
                used.update(args)
                body.append(f"{p}({', '.join(args)})")
            pool = sorted(used) + ["U", "V"]
            heads = []
            for _ in range(rng.randint(1, 2)):
                atoms = []
                for _ in range(rng.randint(1, 2)):
                    p = rng.choice(names)
                    args = [rng.choice(pool) for _ in range(arity[p])]
                    atoms.append(f"{p}({', '.join(args)})")
                heads.append(", ".join(atoms))
            lines.append(f"{', '.join(body)} -> {' | '.join(heads)} .")
        try:
            return rules_from("\n".join(lines) + "\n")
        except (ParseError, RuleError):
            continue


@functools.cache
def perfbench_module(name: str):
    """perfbench/<name>.py, loaded by path as module perfbench_<name>: the
    benchmark's directory is not a package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def bench_text(i: int) -> str:
    """The text of structure i of the benchmark's classify-random corpus,
    with 8, 12 or 16 rules by i mod 3, as perfbench/generators.py draws it
    with shape seed i."""
    return perfbench_module("generators").random_rule_set(
        random.Random(f"classify-random-corpus/{i}"), random.Random(i),
        (8, 12, 16)[i % 3]).text


def bench_rule_set(i: int) -> RuleSet:
    """Structure i of the benchmark's classify-random corpus."""
    return rules_from(bench_text(i))


def trigger_of(rule: Rule, substitution: Mapping[Variable, Term]) -> Trigger:
    """The trigger of the rule under a substitution of its body variables,
    which must be ground: the check that `Trigger(key)` leaves to the fact
    sets keys are read off."""
    image = [substitution[v] for v in rule.body_vars]
    for v, t in zip(rule.body_vars, image):
        if not t.is_ground:
            raise RuleError(f"trigger substitution must be ground, {v!r} -> {t!r}")
    return Trigger((rule, *image))


def sample_triggers(rules: RuleSet, depth_cap: int = 3,
                    limit: int = 24) -> list[Trigger]:
    """A few loaded triggers per rule, grown from each generating rule's
    frozen body database plus one round of its own output."""
    from chase_sentinel.cyclicity import rule_database

    out = []
    for rho in rules:
        if not rho.is_generating:
            continue
        seed = rule_database(rho)
        facts = FactSet(seed.body_facts())
        facts.update(seed.out(1))
        for rule in rules:
            for sub in _naive_matches(rule.body, facts):
                lam = trigger_of(rule, sub)
                if max((t.depth for t in lam.frontier_image()), default=0) \
                        <= depth_cap:
                    out.append(lam)
                if len(out) >= limit:
                    return out
    return out


# ---------------------------------------------------------------------------
# Naive oracles

def apply_term(sigma: dict[Variable, Term], t: Term) -> Term:
    """t with every variable in dom(sigma) replaced, also inside functional
    terms: the substitution that Rule.output's templates compile away."""
    if t.is_ground:
        return t
    if isinstance(t, Variable):
        return sigma.get(t, t)
    assert isinstance(t, FunctionalTerm)
    return functional(t.symbol, tuple(apply_term(sigma, a) for a in t.args))


def apply_atom(sigma: dict[Variable, Term], atom: Atom) -> Atom:
    if atom.is_ground:
        return atom
    return Atom(atom.predicate, tuple(apply_term(sigma, t) for t in atom.terms))


def apply_atoms(sigma: dict[Variable, Term],
                atoms: Iterable[Atom]) -> tuple[Atom, ...]:
    return tuple(apply_atom(sigma, a) for a in atoms)


def oracle_matches(trigger: Trigger,
                   facts: FactSet) -> Iterator[tuple[int, tuple[Atom, ...]]]:
    """Every match of a head disjunct into the facts, by brute force: for
    each disjunct (1-based) and each assignment of its existential variables
    to terms of the fact set, the disjunct and its atoms under that
    assignment, when they all hold."""
    pool = list(dict.fromkeys(t for a in facts for t in a.terms))
    for i, head in enumerate(trigger.rule.heads, 1):
        base = dict(trigger.substitution)
        exvars = [v for v in head.existential_vars]
        for combo in itertools.product(pool, repeat=len(exvars)):
            sigma = dict(base)
            sigma.update(zip(exvars, combo))
            atoms = tuple(apply_atom(sigma, a) for a in head.atoms)
            if all(a in facts for a in atoms):
                yield i, atoms


def oracle_obsolete(trigger: Trigger, facts: FactSet) -> bool:
    """Obsoleteness by brute force: some head disjunct has a match in
    `oracle_matches`."""
    return next(oracle_matches(trigger, facts), None) is not None


def _oracle_abstract(kind: str, skel: frozenset[Term],
                     uc_names: set[Constant], t: Term) -> Term:
    if t in skel:
        return t
    if kind == "uc":
        if isinstance(t, FunctionalTerm):
            return uc_constant(t.symbol)
        if t in uc_names:
            return t
    return star()


def _naive_matches(body: Sequence[Atom], facts: Iterable[Atom],
                   base: dict | None = None) -> list[dict[Variable, Term]]:
    """Every extension of base (empty by default) mapping the body atoms
    into the facts, found by a nested loop over each predicate's facts in
    iteration order, one body atom at a time in written order. A variable
    binds on its first occurrence; any other term matches only itself."""
    by_predicate: dict[str, list[Atom]] = {}
    for fact in facts:
        by_predicate.setdefault(fact.predicate, []).append(fact)
    subs: list[dict[Variable, Term]] = [dict(base or {})]
    for atom in body:
        extended = []
        for sub in subs:
            for fact in by_predicate.get(atom.predicate, ()):
                if len(fact.terms) != len(atom.terms):
                    continue
                ext = dict(sub)
                if all((ext.setdefault(v, t) if isinstance(v, Variable) else v) is t
                       for v, t in zip(atom.terms, fact.terms)):
                    extended.append(ext)
        subs = extended
    return subs


def naive_over_approx(rules: RuleSet, pivot: Trigger, kind: str,
                      hc=None) -> set[Atom]:
    """Direct reading of the over-approximation closure, one item at a time.

    kind is "star" or "uc". With hc the exclusion compares the chosen
    output against the pivot's for triggers of any rule; without it the
    head is read conjunctively and only pivot-rule triggers whose outputs
    all coincide with the pivot's are excluded. Each round loads every
    trigger whose body maps into the facts of the round before.
    """
    skel = skeleton(pivot, rules)
    uc_names = {uc_constant(s) for r in rules for s in r.sk_symbols}

    def habs(atom: Atom) -> Atom:
        return Atom(atom.predicate, tuple(
            _oracle_abstract(kind, skel, uc_names, t) for t in atom.terms))

    facts: set[Atom] = set()
    base = {t for t in skel if isinstance(t, Constant)} | {star()}
    for pred, n in rules.predicates.items():
        for combo in itertools.product(sorted(base, key=str), repeat=n):
            facts.add(Atom(pred, combo))
    facts.update(birth_facts(pivot, rules))

    if hc is not None:
        pivot_out = frozenset(hc.out(pivot))
    else:
        pivot_outs = tuple(frozenset(o) for o in outputs(pivot))

    changed = True
    while changed:
        changed = False
        derived: list[Atom] = []
        for rule in rules:
            for sub in _naive_matches(rule.body, facts):
                lam = trigger_of(rule, sub)
                if hc is not None:
                    out = hc.out(lam)
                    if frozenset(out) == pivot_out:
                        continue
                    derived += [habs(a) for a in out]
                else:
                    outs = outputs(lam)
                    if rule.id == pivot.rule.id and tuple(
                            frozenset(o) for o in outs) == pivot_outs:
                        continue
                    derived += [habs(a) for o in outs for a in o]
        for a in derived:
            if a not in facts:
                facts.add(a)
                changed = True
    return facts


def naive_saturation(rules: RuleSet, rho, hc=None,
                     depth_cap: int = 3) -> set[Atom]:
    """Fixpoint of chosen outputs over loaded triggers with cyclic-free,
    depth-capped substitution ranges. No unblockability, no injectivity,
    no early stop; the reference for the stubbed saturation engines."""
    from chase_sentinel.cyclicity import rule_database

    seed = rule_database(rho)
    facts: set[Atom] = set(seed.body_facts())
    facts.update(hc.out(seed) if hc is not None else seed.out(1))

    deterministic_only = hc is None
    changed = True
    while changed:
        changed = False
        pool = sorted({t for a in facts for t in a.terms}, key=str)
        for rule in rules:
            if deterministic_only and not rule.is_deterministic:
                continue
            for combo in itertools.product(pool, repeat=len(rule.body_vars)):
                if any(is_cyclic(t) for t in combo):
                    continue
                if any(t.depth > depth_cap for t in combo):
                    continue
                lam = trigger_of(rule, dict(zip(rule.body_vars, combo)))
                if not all(f in facts for f in lam.body_facts()):
                    continue
                out = hc.out(lam) if hc is not None else lam.out(1)
                for a in out:
                    if a not in facts:
                        facts.add(a)
                        changed = True
    return facts


def reference_acyclic(rules: RuleSet, k: int, budget: SearchBudget,
                      mode: str) -> tuple[str, int, int, Term | None]:
    """check_acyclic without its deadline and with the watch on every
    argument: every pop, of any rule, scans its whole output for the term
    depth bound and tests every argument of every new fact for a k-cyclic
    term, and the blocking set of the default mode leaves out each new fact
    whose arguments are all the special constant. Returns (result, applied,
    facts, first k-cyclic term), the reference for check_acyclic, whose
    bound matcher.pop_active reads off each pop's frontier image and whose
    watch tests only what a generating pop can add."""
    assert mode in (RMFA_LIKE, MFA)
    facts = FactSet(critical_instance(rules))
    blocking = FactSet()
    applied = 0
    queues = Queues()
    enqueue(queues, rules, facts)
    while queues:
        if budget.max_triggers is not None and applied >= budget.max_triggers:
            return RESOURCE_EXHAUSTED, applied, len(facts), None
        popped = pop_active(queues, blocking)
        if popped is None:
            break
        output = [atom for out in popped[1] for atom in out]
        if budget.max_term_depth is not None and any(
                t.depth > budget.max_term_depth for atom in output for t in atom.terms):
            return RESOURCE_EXHAUSTED, applied, len(facts), None
        applied += 1
        new = facts.update(output)
        if mode == RMFA_LIKE:
            blocking.update([atom for atom in new
                             if any(t is not star() for t in atom.terms)])
        for atom in new:
            for t in atom.terms:
                if is_k_cyclic(t, k):
                    return NOT_DETECTED, applied, len(facts), t
        if new:
            enqueue(queues, rules, facts, new)
    return TERMINATING, applied, len(facts), None


def rematch_saturation(rules: RuleSet, rho, hc=None, budget=None) -> list[Trigger]:
    """The triggers a saturation applies, in order, with blocking switched
    off: every round re-matches every rule against all facts, drops the
    triggers of earlier rounds and applies the rest sorted on rule position
    and canonical substitution, until a round finds none or an output holds
    a rho-cyclic term. The reference for the semi-naive rounds of the
    stubbed saturation engines; injectivity and budgets are as theirs."""
    from chase_sentinel.cyclicity import rule_database

    budget = budget or SearchBudget()
    seed = rule_database(rho)
    facts = FactSet(seed.body_facts())
    applied: list[Trigger] = []

    def apply(trigger: Trigger) -> bool:
        applied.append(trigger)
        out = hc.out(trigger) if hc is not None else trigger.out(1)
        facts.update(out)
        return any(is_rho_cyclic(t, rho)
                   for a in out for x in a.terms for t in subterms(x))

    processed = {seed}
    if apply(seed):
        return applied
    while True:
        candidates = []
        for position, rule in enumerate(rules):
            if hc is None and not rule.is_deterministic:
                continue
            for sub in _naive_matches(rule.body, facts):
                trigger = trigger_of(rule, sub)
                if trigger not in processed:
                    key = tuple(repr(sub[v]) for v in rule.body_vars)
                    candidates.append(((position, key), trigger))
        if not candidates:
            return applied
        candidates.sort(key=lambda c: c[0])
        for _, trigger in candidates:
            processed.add(trigger)
            image = list(trigger.substitution.values())
            if any(is_cyclic(t) for t in image):
                continue
            if budget.max_term_depth is not None and \
                    any(t.depth > budget.max_term_depth for t in image):
                continue
            if trigger.rule.id == rho.id and len(set(image)) != len(image):
                continue
            if budget.max_triggers is not None and \
                    len(applied) >= budget.max_triggers:
                return applied
            if apply(trigger):
                return applied


def notion_pairs(rules: RuleSet, notion: str):
    """The (head choice, pivot) pairs of a cyclicity notion, lazily and in
    its search order: DRPC takes each deterministic generating rule with no
    head choice; RPC_s takes hc_1..hc_b, and RPC every head choice
    lexicographic in rule order, each with every generating rule in rule
    order."""
    from chase_sentinel.cyclicity import DRPC, RPC_S

    if notion == DRPC:
        family = [None]
    elif notion == RPC_S:
        b = max((r.branching for r in rules), default=1)
        family = (HeadChoice.uniform(rules, i) for i in range(1, b + 1))
    else:
        family = (HeadChoice(rules, dict(zip((r.id for r in rules), combo)))
                  for combo in itertools.product(
                      *(range(1, r.branching + 1) for r in rules)))
    for hc in family:
        for rho in rules:
            if rho.is_generating and (hc is not None or rho.is_deterministic):
                yield hc, rho


def _pair_saturation(rules: RuleSet, hc, rho, budget):
    """One saturation of the pair to its end, on a fresh rule set of the
    same rules, so with fresh unblockability answers."""
    from chase_sentinel.cyclicity import drpc_fact_set, rpc_fact_set

    fresh = RuleSet(rules.rules)
    if hc is None:
        return drpc_fact_set(fresh, rho, budget)
    return rpc_fact_set(fresh, hc, rho, budget)


def naive_rpc(rules: RuleSet, budget=None, notion: str = "RPC"):
    """A cyclicity notion as the restart form of `check`'s round schedule.
    Round k saturates every pair still pending, in the notion's order, from
    scratch under max_triggers = 4 * 2**(k-1) (or the budget's own cap,
    when lower); a pair is pending after a round when it stopped at that
    quota. A run under a smaller trigger cap is a prefix of one under a
    larger cap, so this finds the pair, witness and number of pairs started
    that resuming each suspended saturation finds. Untimed budgets only.
    Returns (result, witness, saturations)."""
    from dataclasses import replace

    from chase_sentinel.cyclicity import CYCLIC, extract_prefix

    budget = budget or SearchBudget()
    assert budget.deadline is None
    pending = notion_pairs(rules, notion)
    runs = 0
    truncated = False
    for k in itertools.count(1):
        quota = 4 * 2 ** (k - 1)
        last = budget.max_triggers is not None and quota >= budget.max_triggers
        cap = replace(budget, max_triggers=budget.max_triggers if last else quota)
        stopped = []
        for hc, rho in pending:
            if k == 1:
                runs += 1
            run = _pair_saturation(rules, hc, rho, cap)
            if run.cyclic_term is not None:
                return CYCLIC, extract_prefix(run), runs
            if not last and run.truncated and len(run.provenance) == quota:
                stopped.append((hc, rho))
            else:
                truncated = truncated or run.truncated
        if not stopped:
            return (RESOURCE_EXHAUSTED if truncated else NOT_DETECTED), None, runs
        pending = stopped


def in_order_check(rules: RuleSet, notion: str, budget=None):
    """A cyclicity notion as its pairs saturated one after another, each to
    its end, in the notion's order, up to the first cyclic one. Returns
    (result, witness)."""
    from chase_sentinel.cyclicity import CYCLIC, extract_prefix

    truncated = False
    for hc, rho in notion_pairs(rules, notion):
        run = _pair_saturation(rules, hc, rho, budget)
        if run.cyclic_term is not None:
            return CYCLIC, extract_prefix(run)
        truncated = truncated or run.truncated
    return (RESOURCE_EXHAUSTED if truncated else NOT_DETECTED), None


def terms_of(facts) -> set[Term]:
    """Every subterm appearing in some fact of the collection."""
    acc: set[Term] = set()
    for a in facts:
        for t in a.terms:
            acc.update(subterms(t))
    return acc


def naive_entails(rules: RuleSet, database, query, budget=None) -> str:
    """Entailment read off the whole chase tree: "yes" when every result
    set admits a match, "no" when one does not, "unknown" when the tree is
    not complete. The reference for query-directed `entails`."""
    tree = run_chase(rules, database, budget)
    if tree.status != COMPLETE:
        return "unknown"
    for result in results(tree):
        if not _naive_matches(query.atoms, result):
            return "no"
    return "yes"


# ---------------------------------------------------------------------------
# Helpers only tests call

def hc_branch(tree: ChaseTree, hc: HeadChoice) -> list[ChaseVertex]:
    """The unique root-to-leaf path that always follows hc's disjunct."""
    path = [tree.root]
    while path[-1].children:
        vertex = path[-1]
        first_child = tree.vertices[vertex.children[0]]
        assert first_child.trigger is not None
        wanted = hc.choice(first_child.trigger.rule)
        step = None
        for cid in vertex.children:
            child = tree.vertices[cid]
            if child.disjunct == wanted:
                step = child
                break
        assert step is not None, "children must cover every disjunct"
        path.append(step)
    return path


def label(tree: ChaseTree, vertex_id: int) -> FactSet:
    """Phi(v): the database plus everything added on the path to v."""
    path: list[ChaseVertex] = []
    cur: int | None = vertex_id
    while cur is not None:
        v = tree.vertices[cur]
        path.append(v)
        cur = v.parent
    facts = FactSet()
    for v in reversed(path):
        facts.update(v.new_facts)
    return facts


def trace_lines(tree: ChaseTree) -> list[str]:
    """One line per vertex: its parent, the trigger and disjunct that made
    it, and the facts it added."""
    namer = Namer(tree.rules)
    lines = []
    for v in tree.vertices:
        if v.trigger is None:
            origin = "database"
        else:
            origin = f"{namer.trigger(v.trigger)} disjunct {v.disjunct}"
        added = "; ".join(namer.atom(a) for a in v.new_facts) or "-"
        parent = "-" if v.parent is None else str(v.parent)
        lines.append(f"vertex {v.id} parent {parent} via {origin}: {added}")
    return lines


def outputs(trigger: Trigger) -> tuple[tuple[Atom, ...], ...]:
    """The output of every head disjunct, in order."""
    return tuple(trigger.out(i) for i in range(1, trigger.rule.branching + 1))


def deeper_than(key: tuple, bound: int) -> bool:
    """Whether some atom of the outputs of the key's trigger holds a term
    deeper than bound: the term-depth budget's test, scanned atom by atom."""
    return any(t.depth > bound for out in outputs(Trigger(key))
               for fact in out for t in fact.terms)


def deep_term(depth: int) -> Term:
    """A functional term of this depth over the constant a."""
    t: Term = constant("a")
    for _ in range(depth - 1):
        t = functional(skolem_symbol("db", 1, "Y", 1), (t,))
    return t


def map_atom(g: ConstantMapping, atom: Atom) -> Atom:
    """The constant mapping applied to every term of the atom."""
    return Atom(atom.predicate, tuple(g.apply(t) for t in atom.terms))


def is_loaded(trigger: Trigger, facts: FactSet) -> bool:
    """True iff every instantiated body atom is present."""
    return all(f in facts for f in trigger.body_facts())


def satisfies(facts: FactSet, rule: Rule) -> bool:
    """True iff every loaded trigger of the rule is obsolete."""
    for sub in _naive_matches(rule.body, facts):
        if not is_obsolete(trigger_of(rule, sub), facts):
            return False
    return True


def match_pinned(rule: Rule, idx: int, fact: Atom,
                 facts: FactSet) -> list[dict[Variable, Term]]:
    """The substitutions of the join of the rule's body with atom idx pinned
    to fact, compiled on the spot and run alone by the runner behind
    `discover`, under the body projection and a fresh seen set."""
    one = {rule.body[idx].predicate: [(rule, _compile_pinned(rule, idx))]}
    keys: list[tuple] = []
    _pinned_keys(one, facts, [fact], set(), _BODY, keys, keys)
    return [dict(zip(rule.body_vars, key[1:])) for key in keys]


def queue_keys(queues: Queues, keys: Iterable[tuple]) -> None:
    """Append hand-made keys to the queues as `enqueue` appends the keys it
    discovers: datalog keys to the first list, the others to the second."""
    datalog, other = queues.keys
    for key in keys:
        (datalog if key[0].is_datalog else other).append(key)


class NotReversibleError(ValueError):
    def __init__(self, certificate: ReversibilityCertificate):
        super().__init__(certificate.detail)
        self.certificate = certificate


def transport_trigger(rules: RuleSet, trigger: Trigger, g: ConstantMapping) -> Trigger:
    """Apply g to the trigger's substitution; g must be reversible for the
    trigger's skeleton."""
    certificate = check_reversible(g, skeleton(trigger, rules))
    if not certificate.reversible:
        raise NotReversibleError(certificate)
    moved = {v: g.apply(t) for v, t in trigger.substitution.items()}
    return trigger_of(trigger.rule, moved)
