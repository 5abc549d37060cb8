import collections
import gc
import itertools
import json
import random
import tracemalloc

import pytest

from chase_sentinel.chase import (
    BUDGET_EXHAUSTED,
    COMPLETE,
    DEPTH,
    TERM_DEPTH,
    VERTICES,
    ChaseBudget,
    IncompleteTreeError,
    _expand,
    entails,
    results,
    run_chase,
)
from chase_sentinel.matcher import HeadChoice, is_obsolete
from chase_sentinel.model import (Atom, Query, RuleError, constant,
                                  functional, variable)
from chase_sentinel.ruleio import parse

import chase_trees
from conftest import (bench_rule_set, deep_term, deeper_than, hc_branch, is_loaded,
                      label, naive_entails, perfbench_module, random_rule_set,
                      rules_from, satisfies, trace_lines)
from test_engine_check import sweep_cases, wide_databases


def atom(pred, *names):
    return Atom(pred, tuple(constant(n) for n in names))


def test_bike_rules_chase_shape_and_results(bike4):
    tree = run_chase(bike4, [atom("Engine", "d")])
    assert tree.status == COMPLETE
    assert len(tree.vertices) == 4
    assert len(tree.leaves()) == 2

    d = constant("d")
    f_v = next(s for s in bike4.by_id["r1"].sk_symbols if s.var == "V")
    fvd = functional(f_v, (d,))
    spare_side = frozenset({atom("Engine", "d"), atom("Spare", "d")})
    bike_side = frozenset({
        atom("Engine", "d"),
        Atom("IsIn", (d, fvd)),
        Atom("Bike", (fvd,)),
        Atom("Has", (fvd, d)),
    })
    assert set(results(tree)) == {spare_side, bike_side}


def test_bike_entailment(bike4):
    db = [atom("Engine", "d")]
    assert entails(bike4, db, Query((atom("Engine", "d"),))) == "yes"
    assert entails(bike4, db, Query((atom("Spare", "d"),))) == "no"
    # Every branch houses some bike or some spare part, but which one is
    # branch-dependent, so neither alone is entailed.
    assert entails(bike4, db, Query((Atom("Bike", (variable("X"),)),))) == "no"


def test_datalog_rules_fire_before_generating_ones():
    rules = rules_from("A(X) -> B(X, U) .\nA(X) -> B(X, X) .\n")
    tree = run_chase(rules, [atom("A", "a")])
    assert tree.status == COMPLETE
    [result] = results(tree)
    # The datalog copy fired first, which made the generating trigger
    # obsolete at dequeue time: no skolem term in the result.
    assert result == {atom("A", "a"), atom("B", "a", "a")}


def test_obsolete_triggers_are_dropped_at_dequeue():
    rules = rules_from("A(X) -> R(X, U) .\nB(X) -> R(X, X) .\n")
    tree = run_chase(rules, [atom("A", "a"), atom("B", "a")])
    [result] = results(tree)
    assert result == {atom("A", "a"), atom("B", "a"), atom("R", "a", "a")}


def test_disjunction_branches_once_per_disjunct():
    rules = rules_from("A(X) -> B(X) | C(X) | D(X) .\n")
    tree = run_chase(rules, [atom("A", "a")])
    assert len(tree.root.children) == 3
    assert {frozenset(r) for r in results(tree)} == {
        frozenset({atom("A", "a"), atom("B", "a")}),
        frozenset({atom("A", "a"), atom("C", "a")}),
        frozenset({atom("A", "a"), atom("D", "a")}),
    }


def test_duplicate_results_are_merged():
    rules = rules_from("A(X) -> B(X) | B(X) .\n")
    tree = run_chase(rules, [atom("A", "a")])
    assert len(tree.leaves()) == 2
    assert results(tree) == [frozenset({atom("A", "a"), atom("B", "a")})]


def test_max_vertices_budget():
    rules = rules_from("A(X) -> R(X, Y), A(Y) .\n")
    tree = run_chase(rules, [atom("A", "a")],
                     ChaseBudget(max_vertices=6, max_term_depth=None))
    assert tree.status == BUDGET_EXHAUSTED
    assert tree.exhausted == VERTICES
    with pytest.raises(IncompleteTreeError):
        results(tree)


def test_max_depth_budget():
    rules = rules_from("A(X) -> R(X, Y), A(Y) .\n")
    tree = run_chase(rules, [atom("A", "a")],
                     ChaseBudget(max_depth=5, max_term_depth=None))
    assert tree.status == BUDGET_EXHAUSTED
    assert tree.exhausted == DEPTH
    assert max(v.depth for v in tree.vertices) == 5


def test_max_term_depth_budget():
    rules = rules_from("A(X) -> R(X, Y), A(Y) .\n")
    tree = run_chase(rules, [atom("A", "a")], ChaseBudget(max_term_depth=3))
    assert tree.status == BUDGET_EXHAUSTED
    assert tree.exhausted == TERM_DEPTH
    # The chase never derives B(a), so only the budget stops the search.
    assert entails(rules, [atom("A", "a")],
                   Query((atom("B", "a"),)),
                   ChaseBudget(max_term_depth=3)) == "unknown"
    # A(a) holds at the root, which closes the only branch before any budget
    # is reached: a sound "yes" where the full tree gave "unknown".
    assert entails(rules, [atom("A", "a")],
                   Query((atom("A", "a"),)),
                   ChaseBudget(max_term_depth=3)) == "yes"


def test_term_depth_budget_trips_on_a_copied_deep_database_term():
    # A database term deeper than the budget trips it once a datalog rule
    # copies it, as the term is then in the pop's frontier image; a term
    # that no rule copies does not.
    deep = deep_term(5)
    budget = ChaseBudget(max_term_depth=3)
    copied = run_chase(rules_from("A(X) -> B(X) .\n"), [Atom("A", (deep,))], budget)
    assert copied.status == BUDGET_EXHAUSTED
    assert copied.exhausted == TERM_DEPTH
    kept = run_chase(rules_from("A(X) -> B(X) .\n"),
                     [Atom("A", (constant("a"),)), Atom("C", (deep,))], budget)
    assert kept.status == COMPLETE
    assert Atom("B", (constant("a"),)) in results(kept)[0]


def first_deep_pop(tree, bound):
    """The key and first child id of the first pop of the tree whose
    outputs hold a term deeper than bound, or None when no pop's do. A pop
    is a block of children that share a parent and a key, in vertex-id
    order, and its outputs are scanned by conftest.deeper_than."""
    for (_, key), block in itertools.groupby(tree.vertices[1:],
                                             lambda v: (v.parent, v.key)):
        if deeper_than(key, bound):
            return key, next(block).id
    return None


def _rows(vertices):
    return [(v.id, v.parent, v.depth, v.key, v.disjunct, v.new_facts)
            for v in vertices]


def _check_cut(full, cut, bound):
    """cut, a run under term depth bound, against full, the same run
    without it: cut must be full up to full's first_deep_pop and stop there
    on the term-depth budget, or be full itself when no pop of full is deep.
    Returns the key of that pop, or None."""
    deep = first_deep_pop(full, bound)
    if deep is None:
        assert _rows(cut.vertices) == _rows(full.vertices)
        assert [v.children for v in cut.vertices] == [v.children for v in full.vertices]
        assert (cut.status, cut.exhausted) == (full.status, full.exhausted)
        return None
    key, first = deep
    assert _rows(cut.vertices) == _rows(full.vertices[:first])
    assert (cut.status, cut.exhausted) == (BUDGET_EXHAUSTED, TERM_DEPTH)
    return key


def term_depth_cases(sets, structures, seeds):
    """(key, rules) of the first `sets` sample sets of
    tests/test_engine_check.py, the given classify-random structures and
    the 64-rule generator sets of the given seeds."""
    generators = perfbench_module("generators")
    for i, rules in sweep_cases(sets):
        yield f"set-{i}", rules
    for i in structures:
        yield f"structure-{i}", bench_rule_set(i)
    for s in seeds:
        yield f"seed-{s}", rules_from(generators.random_rule_set(
            random.Random(s), random.Random(0), 64).text)


def check_term_depth_bound(cases) -> collections.Counter:
    """The chase's term-depth budget against first_deep_pop. Each case is
    chased from 3 wide databases; in about half of them each argument
    is, with probability 0.3, a term one or two deeper than the bound. With
    V vertices and bound d drawn per database, run_chase under
    ChaseBudget(V, max_term_depth=d) must be the run under
    max_term_depth=None cut at that run's first deep pop (see
    _check_cut), and so must the query-directed run of a random query;
    entails must then answer "unknown", or, when no pop is deep, what it
    answers without the bound. Returns counts of the trees that stopped on
    a generating pop, on a non-generating one, which copies a deep
    database term, and on no pop."""
    seen: collections.Counter = collections.Counter()
    consts = [constant(n) for n in ("a", "b", "c")]
    for key, rules in cases:
        rng = random.Random(f"term-depth/{key}")
        for db in wide_databases(key, rules, 3):
            bound = rng.randint(1, 4)
            if rng.random() < 0.5:
                db = [Atom(fact.predicate, tuple(
                    deep_term(bound + rng.randint(1, 2)) if rng.random() < 0.3 else t
                    for t in fact.terms)) for fact in db]
            vertices = rng.choice((50, 300))
            unbounded = ChaseBudget(max_vertices=vertices, max_term_depth=None)
            bounded = ChaseBudget(max_vertices=vertices, max_term_depth=bound)
            stop = _check_cut(run_chase(rules, db, unbounded),
                              run_chase(rules, db, bounded), bound)
            seen["no trip" if stop is None else
                 "generating" if stop[0].is_generating else "copied"] += 1
            query = _random_query(rng, rules, consts, None)
            stop = _check_cut(_expand(rules, db, unbounded, query)[0],
                              _expand(rules, db, bounded, query)[0], bound)
            want = "unknown" if stop else entails(rules, db, query, unbounded)
            assert entails(rules, db, query, bounded) == want, (key, db, query)
    return seen


def test_term_depth_budget_stops_at_the_first_deep_pop():
    # The first 300 sample sets, structures 0-29 and 64-rule seeds 1-8;
    # CI runs the first 3,000 sets.
    seen = check_term_depth_bound(term_depth_cases(300, range(30), range(1, 9)))
    assert seen["generating"] >= 300 and seen["copied"] >= 35, seen
    assert seen["no trip"] >= 550, seen


def _random_instances(rng, count):
    """count rule sets of up to 8 rules, each with 2-8 facts over {a, b, c}."""
    consts = [constant(n) for n in ("a", "b", "c")]
    for _ in range(count):
        rules = random_rule_set(rng, max_rules=8)
        preds = sorted(rules.predicates.items())
        db = []
        for _ in range(rng.randint(2, 8)):
            pred, arity = rng.choice(preds)
            db.append(Atom(pred, tuple(rng.choice(consts) for _ in range(arity))))
        yield rules, db


def test_complete_trees_end_in_models_of_the_rules():
    # A discovery step that misses a trigger leaves some leaf label that
    # violates a rule.
    budget = ChaseBudget(max_vertices=400, max_term_depth=3)
    complete = leaves = later_disjuncts = 0
    for rules, db in _random_instances(random.Random(3), 200):
        tree = run_chase(rules, db, budget)
        if tree.status != COMPLETE:
            continue
        complete += 1
        later_disjuncts += sum(v.disjunct > 1 for v in tree.vertices[1:])
        for leaf in tree.leaves():
            facts = label(tree, leaf.id)
            assert all(satisfies(facts, rule) for rule in rules)
            leaves += 1
    assert complete >= 150 and leaves >= 300 and later_disjuncts >= 100


def _check_vertices(tree):
    """Each child comes from a trigger that was loaded and not obsolete at
    its parent, and adds exactly the atoms of its disjunct's output that
    the parent's label lacks, in output order. Returns the children seen."""
    for v in tree.vertices[1:]:
        facts = label(tree, v.parent)
        assert is_loaded(v.trigger, facts)
        assert not is_obsolete(v.trigger, facts)
        out = dict.fromkeys(v.trigger.out(v.disjunct))
        assert v.new_facts == tuple(f for f in out if f not in facts)
    return len(tree.vertices) - 1


def test_every_vertex_adds_its_trigger_output_minus_its_parent_label():
    # Complete and budget-stopped trees alike. A trigger popped with the
    # wrong outputs, or one invented by discovery, fails here.
    rng = random.Random(8)
    stopped = checked = 0
    for rules, db in _random_instances(rng, 300):
        budget = ChaseBudget(max_vertices=rng.choice((4, 12, 400)),
                             max_depth=rng.choice((None, 3)),
                             max_term_depth=rng.randint(1, 3))
        tree = run_chase(rules, db, budget)
        stopped += tree.status != COMPLETE
        checked += _check_vertices(tree)
    assert stopped >= 60 and checked >= 250


def test_benchmark_instances_meet_their_known_answers():
    # Small transitive closures and path colourings from the benchmark's
    # generators, checked against the answers their construction fixes,
    # then cut short by a vertex budget.
    generators = perfbench_module("generators")
    checks = perfbench_module("checks")
    for seed in range(3):
        tc = generators.transitive_closure(random.Random(f"tc/{seed}"), 12)
        colour = generators.path_colouring(random.Random(f"colour/{seed}"), 3, 4)
        for inst, check in (
                (tc, lambda sets: checks.check_closure(sets, tc.names)),
                (colour, lambda sets: checks.check_colouring(
                    sets, colour.names, colour.size))):
            program = parse(inst.text)
            tree = run_chase(program.rules, program.facts)
            assert tree.status == COMPLETE
            assert check(results(tree)) is None
            assert _check_vertices(tree) >= 60
            answers = [entails(program.rules, program.facts, query)
                       for query in program.queries]
            assert answers == [want for _, want in inst.queries]
            cut = run_chase(program.rules, program.facts,
                            ChaseBudget(max_vertices=40))
            assert cut.exhausted == VERTICES
            _check_vertices(cut)


def _random_query(rng, rules, consts, result):
    """One to three atoms. Terms are constants or variables drawn from a
    small pool, so variables repeat; or, when a result set is given, facts
    of it with some terms turned into variables, one per term, so that skolem
    terms become existential witnesses."""
    variables = [variable(n) for n in ("X", "Y", "Z")]
    if result and rng.random() < 0.6:
        facts = rng.sample(sorted(result, key=repr), min(len(result), rng.randint(1, 3)))
        renamed = {}
        atoms = []
        for fact in facts:
            terms = []
            for t in fact.terms:
                if t in consts and rng.random() < 0.5:
                    terms.append(t)
                else:
                    terms.append(renamed.setdefault(t, variable(f"W{len(renamed)}")))
            atoms.append(Atom(fact.predicate, tuple(terms)))
        return Query(tuple(atoms))
    preds = sorted(rules.predicates.items())
    atoms = []
    for _ in range(rng.randint(1, 3)):
        pred, arity = rng.choice(preds)
        atoms.append(Atom(pred, tuple(rng.choice(consts + variables)
                                      for _ in range(arity))))
    return Query(tuple(atoms))


def check_query_directed(count):
    """Query-directed entails against naive_entails on `count` random
    instances, four queries each: whenever the full tree decides under a
    budget, entails gives the same answer under it; and whatever entails
    decides, the full tree under a larger budget confirms whenever it
    completes. Returns the answers entails gave and the counts (agreed,
    confirmed, only_directed): answers checked under the same budget,
    answers confirmed under the larger one, and answers the full tree left
    unknown."""
    rng = random.Random(5)
    consts = [constant(n) for n in ("a", "b", "c")]
    large = ChaseBudget(max_vertices=2000, max_term_depth=4)
    agreed = confirmed = only_directed = 0
    answers = set()
    for rules, db in _random_instances(rng, count):
        tree = run_chase(rules, db, large)
        sets = results(tree) if tree.status == COMPLETE else []
        for _ in range(4):
            budget = ChaseBudget(max_vertices=rng.choice((4, 12, 40, 400)),
                                 max_depth=rng.choice((None, 3, 8)),
                                 max_term_depth=rng.randint(1, 3))
            query = _random_query(rng, rules, consts,
                                  rng.choice(sets) if sets else None)
            directed = entails(rules, db, query, budget)
            oracle = naive_entails(rules, db, query, budget)
            if oracle != "unknown":
                assert directed == oracle, (rules, db, query, budget)
                agreed += 1
            if directed == "unknown":
                continue
            answers.add(directed)
            only_directed += oracle == "unknown"
            reference = naive_entails(rules, db, query, large)
            if reference != "unknown":
                assert directed == reference, (rules, db, query, budget)
                confirmed += 1
    return answers, (agreed, confirmed, only_directed)


def test_query_directed_entailment_agrees_with_the_full_tree():
    answers, (agreed, confirmed, only_directed) = check_query_directed(150)
    assert answers == {"yes", "no"}
    assert agreed >= 350 and confirmed >= 400 and only_directed >= 60


def test_forks_keep_no_copy_of_their_parent_label():
    # The transitive closure of a 100-edge chain, 5,050 facts, then eight
    # two-way disjunctions below it: 256 branches, with up to eight pending
    # siblings at once. A pending sibling holds its own new facts and its
    # parent's marks, not a copy of the label, so the forks add little to
    # the peak memory of the same chase without them.
    rules = ("E(X, Y) -> T(X, Y) .\n"
             "T(X, Y), E(Y, Z) -> T(X, Z) .\n"
             "S(X) -> R(X) | B(X) .\n")
    chain = "".join(f"E(n{i}, n{i + 1}) .\n" for i in range(100))

    def peak(starts):
        text = rules + chain + "".join(f"S(s{i}) .\n" for i in range(starts))
        program = parse(text)
        gc.collect()
        tracemalloc.start()
        try:
            tree = run_chase(program.rules, program.facts)
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tree.status == COMPLETE and len(tree.leaves()) == 2 ** starts
        return top

    assert peak(8) <= 1.3 * peak(0)


def test_entailment_with_query_variables():
    rules = rules_from("A(X) -> R(X, U) .\n")
    q = Query((Atom("R", (variable("X"), variable("Y"))),))
    assert entails(rules, [atom("A", "a")], q) == "yes"
    q2 = Query((Atom("R", (variable("X"), variable("X"))),))
    assert entails(rules, [atom("A", "a")], q2) == "no"


def test_hc_branch_follows_the_chosen_disjunct(bike4):
    tree = run_chase(bike4, [atom("Engine", "d")])
    first = hc_branch(tree, HeadChoice.uniform(bike4, 1))
    second = hc_branch(tree, HeadChoice.uniform(bike4, 2))
    assert first[-1].is_leaf and second[-1].is_leaf
    spare = {atom("Engine", "d"), atom("Spare", "d")}
    union_second = {f for v in second for f in v.new_facts}
    assert union_second == spare
    union_first = {f for v in first for f in v.new_facts}
    assert atom("Spare", "d") not in union_first


def test_dot_and_trace_render(bike4):
    tree = run_chase(bike4, [atom("Engine", "d")])
    dot = tree.to_dot()
    assert dot.startswith("digraph")
    assert dot.count("->") >= 3
    lines = trace_lines(tree)
    assert lines and any("Engine(d)" in line for line in lines)


def test_facts_are_validated_against_rule_arities(bike4):
    with pytest.raises(Exception):
        run_chase(bike4, [atom("Engine", "d", "e")])


def test_database_facts_must_be_ground(bike4):
    # run_chase and entails both check each database fact with
    # RuleSet.check_fact before it enters the root's label, and a fact
    # needs a term even when the rules do not use its predicate.
    loose = Atom("Engine", (variable("X"),))
    query = Query((atom("Engine", "d"),))
    for call in (lambda db: run_chase(bike4, db),
                 lambda db: entails(bike4, db, query)):
        for bad in (loose, Atom("Unused", ())):
            with pytest.raises(RuleError, match="not a fact") as raised:
                call([atom("Engine", "d"), bad])
            assert raised.traceback[-1].name == "check_fact"


def test_chase_trees_and_acyclicity_counts_replay_golden_fixture():
    """tests/data/chase_trees_golden.json holds what the order of
    matcher.discover decides: the run_chase tree of every corpus file with
    facts and of four benchmark chase instances, vertex by vertex, and the
    check_acyclic result, applied and facts counts and first cyclic term
    under both modes on classify-random structures 0-29 and stratified set
    512/1. Running tests/chase_trees.py as a script records it again;
    re-record it only together with a CHANGES.md note that names what
    changed."""
    want = json.loads(chase_trees.GOLDEN.read_text(encoding="utf-8"))
    assert len(want["chase"]) == 13 and len(want["acyclicity"]) == 31
    got = chase_trees.outcomes()
    for part in ("chase", "acyclicity"):
        assert sorted(got[part]) == sorted(want[part])
        for name, outcome in want[part].items():
            assert got[part][name] == outcome, (part, name)
