import ast
import gc
import itertools
import os
import random
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest

import chase_sentinel
from chase_sentinel import corpus_dir, model
from chase_sentinel.approx import (birth_facts, is_star_unblockable, skeleton,
                                   unblockability_cache)
from chase_sentinel.chase import ChaseBudget, entails, run_chase
from chase_sentinel.cli import classify_rules
from chase_sentinel.cyclicity import RPC_S, check, rule_database
from chase_sentinel.model import (
    Atom,
    ConstantMapping,
    FunctionalTerm,
    Query,
    Rule,
    RuleError,
    RuleSet,
    SkolemSymbol,
    constant,
    db_constant,
    functional,
    gc_paused,
    is_k_cyclic,
    is_rho_cyclic,
    skolem_symbol,
    star,
    subterms,
    uc_constant,
    variable,
)
from chase_sentinel.ruleio import ParseError, parse, render
from chase_sentinel.termination import (TERMINATING, WEAKLY_ACYCLIC, SearchBudget,
                                        check_acyclic, critical_instance)

from conftest import (apply_atom, apply_atoms, apply_term, bench_text,
                      bike_subset, perfbench_module, random_rule_set,
                      rules_from, sample_triggers, trigger_of)
from test_termination import watch_cases


def test_terms_are_interned():
    a, b, x = constant("a"), constant("b"), variable("X")
    assert a is constant("a")
    assert x is variable("X")
    f = skolem_symbol("r1", 1, "Y", 1)
    assert f is skolem_symbol("r1", 1, "Y", 1)
    assert functional(f, (a,)) is functional(f, (a,))

    # Every way of reaching a term hands out the factory's object.
    program = parse("A(X) -> R(X, Y) .\nA(a) .\n")
    rule = program.rules.rules[0]
    assert rule.body[0].terms[0] is x
    assert program.facts[0].terms[0] is a
    f_y = next(iter(rule.sk_symbols))
    assert f_y is skolem_symbol("r1", 1, "Y", 1)
    assert apply_term({x: a}, functional(f, (x,))) is functional(f, (a,))
    assert ConstantMapping({a: b}).apply(functional(f, (a,))) is functional(f, (b,))
    (out,) = trigger_of(rule, {x: a}).out(1)
    assert out.terms[0] is a
    assert out.terms[1] is functional(f_y, (a,))


def test_terms_are_built_only_through_the_factories():
    # Interning decides term identity, so a term class called directly makes
    # a term that equals no interned one. Only the factories may call them;
    # uc_constant is the second factory of constants.
    factories = {("Constant", "constant"), ("Constant", "uc_constant"),
                 ("Variable", "variable"), ("FunctionalTerm", "functional"),
                 ("SkolemSymbol", "skolem_symbol")}
    classes = {cls for cls, _ in factories}
    package = Path(chase_sentinel.__file__).parent
    calls = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # ast.walk visits outer functions first, so inner ones overwrite.
        owner = {node: func.name for func in ast.walk(tree)
                 if isinstance(func, ast.FunctionDef) for node in ast.walk(func)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            name = callee.id if isinstance(callee, ast.Name) else \
                getattr(callee, "attr", None)
            if name in classes:
                calls.append((path.name, owner.get(node), name, node.lineno))
    allowed = {("model.py", factory, cls) for cls, factory in factories}
    stray = sorted({(f, cls, line) for f, where, cls, line in calls
                    if (f, where, cls) not in allowed})
    assert not stray
    assert {(f, where, cls) for f, where, cls, _ in calls} >= allowed


# The package's modules, each with the modules it may load: itself and the
# layers below it, model -> {matcher, ruleio} -> {chase, termination,
# approx} -> cyclicity -> cli.
_LAYERS = {
    "model": {"model"},
    "matcher": {"model", "matcher"},
    "ruleio": {"model", "ruleio"},
    "chase": {"model", "matcher", "chase"},
    "termination": {"model", "matcher", "termination"},
    "approx": {"model", "matcher", "approx"},
    "cyclicity": {"model", "matcher", "termination", "approx", "cyclicity"},
    "cli": {"model", "matcher", "ruleio", "chase", "termination", "approx",
            "cyclicity", "cli"},
}


@pytest.mark.parametrize("module", sorted(_LAYERS))
def test_each_module_loads_only_the_layers_below_it(module):
    # Imported alone in a fresh interpreter, under -W error.
    code = (f"import sys, chase_sentinel.{module}; "
            "print(*(m for m in sys.modules if m.startswith('chase_sentinel.')))")
    src = str(Path(chase_sentinel.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    loaded = {m.removeprefix("chase_sentinel.") for m in out.split()}
    assert module in loaded and loaded <= _LAYERS[module]


def test_symbol_identity_includes_arity():
    # Independent rule sets reuse ids and variable names freely; the same
    # textual symbol with a different argument count must stay distinct,
    # and so must its fresh constant c_f, which shares the name and leads
    # back to its own symbol.
    one = skolem_symbol("r1", 1, "Y", 1)
    two = skolem_symbol("r1", 1, "Y", 2)
    assert one is not two
    assert one != two
    c_one, c_two = uc_constant(one), uc_constant(two)
    assert c_one is not c_two
    assert uc_constant(one) is c_one and uc_constant(two) is c_two
    assert c_one.symbol is one and c_two.symbol is two
    assert repr(c_one) == repr(c_two) == "__uc_r1_1_Y"
    assert constant("a").symbol is None and star().symbol is None


def test_intern_tables_forget_dropped_rule_sets():
    # The table holds terms and symbols weakly. Every skolem symbol of 60
    # distinct generator sets and a 512-rule stratified set is dead once
    # its set is parsed, classified and dropped, so nothing the checks keep,
    # such as a rule's compiled head chains, holds one. The first set also
    # runs entails and an untimed RPC_s check, so that its head chains, whole
    # and pinned, are compiled. Symbols that something outside the test
    # held before a set was parsed, which the set shares, are left out. A
    # term and a symbol still held are the ones their factories return, and
    # a dropped term's key is gone.
    generators = perfbench_module("generators")
    texts = [generators.random_rule_set(random.Random(i), random.Random(i), 16).text
             for i in range(1, 61)]
    texts.append(generators.stratified_rule_set(
        random.Random("stratified/512"), 512).text)
    symbols: list[weakref.ref] = []
    kept = gone = None
    for text in texts:
        gc.collect()
        held = {s for r in list(model._TABLE.values())
                if isinstance(s := r(), SkolemSymbol)}
        rules = parse(text).rules
        symbols.extend(weakref.ref(s) for s in rules.symbol_index if s not in held)
        del held
        classify_rules(rules, timeout=0.05)
        if kept is None:
            rule = next(r for r in rules if r.is_generating)
            query = Query((rule.heads[0].atoms[0],))
            entails(rules, critical_instance(rules), query,
                    ChaseBudget(max_vertices=200))
            check(rules, "RPC_s")
            assert any(r.chains for r in rules)
            assert any(r.pinned_chains for r in rules)
            symbol = min(rules.symbol_index, key=repr)
            image = tuple(constant(f"kept{j}") for j in range(symbol.arity))
            term = functional(symbol, image)
            kept = symbol, image, term
            # A dropped term's key, which holds its parts but not the term.
            gone = (symbol, (term,) * symbol.arity)
            functional(*gone)
    del rules, rule
    gc.collect()
    symbol, image, term = kept
    alive = [s for r in symbols if (s := r()) is not None and s is not symbol]
    assert len(symbols) >= 500 and not alive, (len(symbols), alive[:5])
    assert skolem_symbol(symbol.rule_id, symbol.disjunct, symbol.var,
                         symbol.arity) is symbol
    assert functional(symbol, image) is term
    assert gone not in model._TABLE


def test_term_depth_counts_nestings():
    a = constant("a")
    f = skolem_symbol("r1", 1, "Y", 1)
    assert a.depth == 1
    assert functional(f, (a,)).depth == 2
    assert functional(f, (functional(f, (a,)),)).depth == 3


def _root_to_leaf_symbols(t):
    """The skolem symbols on each root-to-leaf path of t, root first."""
    if t.__class__ is not FunctionalTerm:
        yield []
        return
    for arg in t.args:
        for path in _root_to_leaf_symbols(arg):
            yield [t.symbol, *path]


def test_functional_term_fields_match_a_naive_recomputation():
    # A functional term computes depth, groundness and _nest in one pass
    # over its arguments' fields. Random nested terms over symbols of arity
    # 1-3, ordinary, fresh and variable leaves must give the fields read
    # off the whole term: the longest path, every leaf ground, and per
    # symbol its most occurrences on one root-to-leaf path.
    rng = random.Random(43)
    symbols = [skolem_symbol(f"nest{i}", 1, "Y", arity)
               for i, arity in enumerate((1, 2, 3, 1, 2))]
    leaves = [constant("a"), constant("b"), variable("X"),
              uc_constant(symbols[0]), star()]
    pool = list(leaves)
    seen = Counter()
    for _ in range(3000):
        symbol = rng.choice(symbols)
        args = tuple(rng.choice(rng.choices((leaves, pool[-12:], pool),
                                            (3, 5, 2))[0])
                     for _ in range(symbol.arity))
        t = functional(symbol, args)
        if t.depth < 7:
            pool.append(t)
        paths = list(_root_to_leaf_symbols(t))
        assert t.depth == max(map(len, paths)) + 1
        assert t.is_ground == all(leaf.is_ground for leaf in subterms(t)
                                  if leaf.__class__ is not FunctionalTerm)
        assert dict(t._nest) == {s: max(path.count(s) for path in paths)
                                 for s in {s for path in paths for s in path}}
        seen["ground" if t.is_ground else "open"] += 1
        seen["shallow" if t.depth <= 3 else "deep"] += 1
        seen["repeat"] += max(t._nest.values()) >= 3
    assert seen["ground"] >= 1200 and seen["open"] >= 1200, seen
    assert seen["shallow"] >= 700 and seen["deep"] >= 1800, seen
    assert seen["repeat"] >= 600, seen


def test_cyclicity_measures():
    a = constant("a")
    f = skolem_symbol("r1", 1, "Y", 1)
    g = skolem_symbol("r2", 1, "Z", 1)
    fa = functional(f, (a,))
    gfa = functional(g, (fa,))
    fgfa = functional(f, (gfa,))
    assert not is_k_cyclic(fa, 1)
    assert not is_k_cyclic(gfa, 1)
    assert is_k_cyclic(fgfa, 1)
    assert not is_k_cyclic(fgfa, 2)
    assert is_k_cyclic(functional(f, (fgfa,)), 2)
    with pytest.raises(ValueError):
        is_k_cyclic(fa, 0)


def test_rho_cyclic_requires_rule_symbol_at_root_and_below():
    rules = rules_from("A(X) -> R(X, Y), A(Y) .\nB(X) -> S(X, Z) .\n")
    r1, r2 = rules.rules
    f = next(iter(r1.sk_symbols))
    g = next(iter(r2.sk_symbols))
    a = constant("a")
    ffa = functional(f, (functional(f, (a,)),))
    gfa = functional(g, (functional(f, (a,)),))
    fga = functional(f, (functional(g, (a,)),))
    assert is_rho_cyclic(ffa, r1)
    assert not is_rho_cyclic(gfa, r1)
    assert not is_rho_cyclic(fga, r1)
    assert not is_rho_cyclic(a, r1)


def test_subterms_closure():
    a, b = constant("a"), constant("b")
    f = skolem_symbol("r1", 1, "U", 2)
    t = functional(f, (a, functional(f, (a, b))))
    assert set(subterms(t)) == {t, a, b, functional(f, (a, b))}
    # Left-to-right preorder, each subterm once: the first cyclic term a
    # saturation reports depends on this order.
    g = skolem_symbol("r2", 1, "V", 2)
    u = functional(g, (functional(f, (b, a)), t))
    assert list(subterms(u)) == [u, functional(f, (b, a)), b, a, t,
                                 functional(f, (a, b))]


def test_frontier_in_body_occurrence_order():
    rules = rules_from("R(Y, X), S(X, Z) -> T(X, Y, U) .\n")
    rule = rules.rules[0]
    assert rule.body_vars == (variable("Y"), variable("X"), variable("Z"))
    assert rule.frontier == (variable("Y"), variable("X"))


def test_existential_variables_are_the_head_variables_not_in_the_body():
    x, y, u, v = (variable(n) for n in "XYUV")
    rule = Rule("r1", [Atom("A", (x, y))],
                [[Atom("B", (x, v)), Atom("C", (u, y, v))], [Atom("D", (y,))]])
    assert [h.existential_vars for h in rule.heads] == [(v, u), ()]
    assert [h.atoms for h in rule.heads] == [
        (Atom("B", (x, v)), Atom("C", (u, y, v))), (Atom("D", (y,)),)]
    assert rule.is_generating and not rule.is_deterministic


def test_skolemized_heads_use_frontier_arguments():
    rules = bike_subset(2)
    r1 = rules.by_id["r1"]
    f_v = next(iter(r1.sk_symbols))
    assert f_v.var == "V" and f_v.arity == 1
    # One template per disjunct: a slot is a frontier position or a symbol.
    assert r1.sk_heads == ((("IsIn", (0, f_v)), ("Bike", (f_v,))),
                           (("Spare", (0,)),))
    d = constant("d")
    fvd = functional(f_v, (d,))
    assert r1.output(1, (d,)) == (Atom("IsIn", (d, fvd)), Atom("Bike", (fvd,)))
    assert r1.output(2, (d,)) == (Atom("Spare", (d,)),)
    assert trigger_of(r1, {variable("X"): d}).out(1) == r1.output(1, (d,))


def _construction_sets():
    """300 small sets from conftest.random_rule_set and two 512-rule
    stratified sets from the benchmark's generator."""
    rng = random.Random(4321)
    sets = [random_rule_set(rng) for _ in range(300)]
    stratified = perfbench_module("generators").stratified_rule_set
    sets += [rules_from(stratified(random.Random(f"stratified/{seed}"), 512).text)
             for seed in (1, 2)]
    return sets


def frontier_images(n: int) -> list[tuple]:
    """Ground images of a frontier of n variables: distinct constants, one
    constant throughout, skolem terms, and skolem terms alternating with a
    constant, so that repeated and nested arguments are covered."""
    a, b = constant("a"), constant("b")
    g = skolem_symbol("g", 1, "Y", 2)
    skolem = tuple(functional(g, (a, constant(f"c{j}"))) for j in range(n))
    return [tuple(constant(f"c{j}") for j in range(n)), (a,) * n, skolem,
            tuple(b if j % 2 else t for j, t in enumerate(skolem))]


def test_skolemized_heads_match_the_reference():
    # The reference skolemizes a disjunct on a ground frontier image: each
    # frontier variable maps to its image term and each existential y to
    # f_y(image). key_frontier must read the same frontier off a body
    # image key.
    for rules in _construction_sets():
        for rule in rules:
            n = len(rule.frontier)
            for i, h in enumerate(rule.heads, start=1):
                for image in frontier_images(n):
                    sigma = dict(zip(rule.frontier, image))
                    sigma.update({y: functional(skolem_symbol(rule.id, i, y.name, n),
                                                image)
                                  for y in h.existential_vars})
                    assert rule.output(i, image) == apply_atoms(sigma, h.atoms), \
                        (rule, i, image)
            # The frontier image of a (rule, *body image) key.
            body_image = {v: constant(f"c{j}") for j, v in enumerate(rule.body_vars)}
            assert rule.key_frontier((rule, *body_image.values())) == \
                tuple(map(body_image.__getitem__, rule.frontier)), rule


def test_parsing_interns_no_non_ground_skolem_term():
    # Rules hold skolem symbols in templates, not the terms f(frontier): a
    # fresh interpreter parses a 512-rule stratified set and then counts the
    # live non-ground functional terms in the intern table, whose entries
    # are weak references.
    code = (
        "import random, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from generators import stratified_rule_set\n"
        "from chase_sentinel.model import _TABLE, FunctionalTerm\n"
        "from chase_sentinel.ruleio import parse\n"
        "text = stratified_rule_set(random.Random('stratified/512'), 512).text\n"
        "rules = parse(text).rules\n"
        "print(sum(r.is_generating for r in rules), sum(\n"
        "    t.__class__ is FunctionalTerm and not t.is_ground\n"
        "    for t in [r() for r in list(_TABLE.values())] if t is not None))\n")
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code, str(root / "perfbench")],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(Path(chase_sentinel.__file__)
                                            .resolve().parents[1])))
    assert proc.returncode == 0, proc.stderr
    generating, non_ground = map(int, proc.stdout.split())
    assert generating >= 100
    assert non_ground == 0


def test_rule_attributes_survive_a_render_round_trip():
    def attributes(rule):
        return (rule.id, rule.frontier, rule.body_vars, rule.is_datalog,
                rule.is_deterministic, rule.is_generating, rule.sk_symbols)

    for rules in _construction_sets():
        again = parse(render(rules)).rules
        assert list(map(attributes, again)) == list(map(attributes, rules))


def test_a_weakly_acyclic_verdict_compiles_no_rule():
    # classify answers the 512-rule stratified set at the weak acyclicity
    # rung, which reads only the syntax, and neither its report nor the
    # rule set rendered back through a Namer names a symbol, so no rule is
    # compiled (a compiled rule is a plain Rule), no skolem symbol of the
    # set is interned and no body index is built. Symbols that something
    # outside the test already held are left out. The first fixpoint,
    # check_acyclic, compiles every rule and builds the body index.
    generate = perfbench_module("generators").stratified_rule_set
    text = generate(random.Random("stratified/512/1"), 512).text
    gc.collect()
    held = set(model._TABLE)
    rules = rules_from(text)
    fresh = {(rule.id, i, y.name, len(rule.frontier))
             for rule in rules for i, h in enumerate(rule.heads, start=1)
             for y in h.existential_vars} - held
    (verdict,) = classify_rules(rules).notion_results
    assert (verdict.result, verdict.stats["rung"]) == (TERMINATING, WEAKLY_ACYCLIC)
    assert render(rules) == text
    assert not any(type(rule) is Rule for rule in rules)
    assert len(fresh) >= 100 and not fresh & set(model._TABLE)
    # Nor is the rule set's body index built: only the matcher reads it.
    assert "body_index" not in vars(rules)
    check_acyclic(rules, k=2)
    assert all(type(rule) is Rule for rule in rules)
    assert fresh <= set(model._TABLE)
    assert "body_index" in vars(rules)


def test_fixpoints_leave_no_rule_with_a_lookup_hook():
    # The hot loops read rule slots once per key, and CPython 3.11
    # specialises those reads only on a class without __getattr__. So after
    # each kind of fixpoint, each on a freshly parsed set, no class of any
    # rule's type may define one. The chase starts from the first rule's
    # database, so some rules never fire and are compiled only because
    # every fixpoint compiles the whole set.
    def hooked(rules: RuleSet) -> list:
        return [rule for rule in rules
                if any("__getattr__" in vars(c) for c in type(rule).__mro__)]

    def unblockability_build(rules: RuleSet) -> None:
        cache = unblockability_cache(rules)
        for lam in sample_triggers(rules):
            is_star_unblockable(rules, lam)
            if cache.builds:
                return
        raise AssertionError("no unblockability build ran")

    budget = SearchBudget(max_triggers=3000, max_term_depth=6)
    operations = [
        lambda rules: run_chase(rules, rule_database(rules.rules[0]).body_facts(),
                                ChaseBudget(max_vertices=200)),
        lambda rules: check_acyclic(rules, k=2, budget=budget),
        lambda rules: check(rules, RPC_S, budget),
        unblockability_build,
    ]
    for i in range(0, 120, 20):
        for operation in operations:
            rules = rules_from(bench_text(i))
            operation(rules)
            assert not hooked(rules), (i, operation)


def test_rule_construction_errors():
    # Rules built directly, not parsed: one case per check, and where a
    # rule breaks two checks, the one named is the first in this order.
    x, y, u = variable("X"), variable("Y"), variable("U")
    a = constant("a")
    cases = [
        ([Atom("A", (x,))], [[Atom("B", (x, u))], [Atom("B", (x, a))]],
         "rule r1: rules are constant- and function-free, found a in B(?X, a)"),
        ([Atom("A", (x,))], [[Atom("B", (x, u))], [Atom("B", (u, y))]],
         "rule r1: existential variable reused across disjuncts"),
        ([], [[Atom("B", (x,))]], "rule r1: empty body"),
        ([Atom("A", (x,))], [[]], "rule r1: empty head"),
        ([Atom("P", ())], [[Atom("Q", ())]], "rule r1: atom P() has no terms"),
        ([Atom("A", (x,))], [[Atom("B", (x,)), Atom("Q", ())]],
         "rule r1: atom Q() has no terms"),
    ]
    for body, heads, message in cases:
        with pytest.raises(RuleError) as err:
            Rule("r1", body, heads)
        assert str(err.value) == message


def test_rule_errors_name_the_first_fault():
    # Rules that break two checks in different atoms: the message names the
    # check that comes first, in the order empty body, empty head, an atom
    # with no terms, a term that is not a variable, an existential variable
    # in two disjuncts, a generating rule without a frontier; between two
    # atoms with no terms, or two bad terms, the one read first.
    x, y, u = variable("X"), variable("Y"), variable("U")
    a, b = constant("a"), constant("b")
    fx = functional(skolem_symbol("g", 1, "Y", 1), (x,))
    cases = [
        ([], [[Atom("Q", ())]], "rule r1: empty body"),
        ([Atom("P", ())], [[Atom("B", (x,))], []], "rule r1: empty head"),
        ([Atom("A", (x, a))], [[Atom("B", (x,))], [Atom("Q", ())]],
         "rule r1: atom Q() has no terms"),
        ([Atom("A", (x,)), Atom("P", ())], [[Atom("B", (b,))]],
         "rule r1: atom P() has no terms"),
        ([Atom("A", (x,)), Atom("P", ())], [[Atom("Q", ())]],
         "rule r1: atom P() has no terms"),
        ([Atom("A", (x,)), Atom("C", (x, a))], [[Atom("B", (fx, b))]],
         "rule r1: rules are constant- and function-free, found a in C(?X, a)"),
        ([Atom("A", (x, b)), Atom("C", (a, x))], [[Atom("B", (x,))]],
         "rule r1: rules are constant- and function-free, found b in A(?X, b)"),
        ([Atom("A", (x,))], [[Atom("B", (x, b))], [Atom("B", (a, x)), Atom("C", (b,))]],
         "rule r1: rules are constant- and function-free, found b in B(?X, b)"),
        ([Atom("A", (x,))], [[Atom("B", (x, u))], [Atom("C", (fx,))]],
         "rule r1: rules are constant- and function-free, "
         "found f[g.1.Y](?X) in C(f[g.1.Y](?X))"),
        ([Atom("A", (x,))], [[Atom("B", (x, a))], [Atom("B", (u,))], [Atom("C", (u,))]],
         "rule r1: rules are constant- and function-free, found a in B(?X, a)"),
        ([Atom("A", (x,))], [[Atom("B", (u,))], [Atom("C", (u,))], [Atom("Q", ())]],
         "rule r1: atom Q() has no terms"),
        ([Atom("A", (x,))], [[Atom("B", (u,))], [Atom("C", (u, y))]],
         "rule r1: existential variable reused across disjuncts"),
    ]
    for body, heads, message in cases:
        with pytest.raises(RuleError) as err:
            Rule("r1", body, heads)
        assert str(err.value) == message
        assert naive_rule("r1", body, heads) == message


def naive_rule(rule_id: str, body, heads):
    """What Rule(rule_id, body, heads) holds, derived term by term in
    reading order: body_vars, frontier, the (existential variables, atoms)
    pair of each disjunct, sk_heads, sk_symbols, the frontier image that
    key_frontier reads off the key (None, *body image) whose body image is
    one distinct constant per body variable, and the two indexes of the
    rule's own RuleSet: symbol_index, the (rule id, disjunct) of each
    symbol, and body_index, the (rule id, position) of each body atom per
    predicate; or, for both, the message of the RuleError that rejects
    that RuleSet, whose one check on a single rule is that each predicate
    keeps the arity it is first read with, body first. When the rule
    breaks a check of Rule,
    the message of its RuleError instead: the first failing check, in the
    order of test_rule_errors_name_the_first_fault."""
    heads = [list(h) for h in heads]
    atoms = [*body, *itertools.chain.from_iterable(heads)]
    if not body:
        return f"rule {rule_id}: empty body"
    if not heads or not all(heads):
        return f"rule {rule_id}: empty head"
    for atom in atoms:
        if not atom.terms:
            return f"rule {rule_id}: atom {atom!r} has no terms"
    for atom in atoms:
        for t in atom.terms:
            if not isinstance(t, model.Variable):
                return (f"rule {rule_id}: rules are constant- and function-free, "
                        f"found {t!r} in {atom!r}")
    body_vars: list = []
    for t in itertools.chain.from_iterable(atom.terms for atom in body):
        if t not in body_vars:
            body_vars.append(t)
    existentials: list[list] = []
    for h in heads:
        ex: list = []
        for t in itertools.chain.from_iterable(atom.terms for atom in h):
            if t not in body_vars and t not in ex:
                ex.append(t)
        if any(y in earlier for earlier in existentials for y in ex):
            return f"rule {rule_id}: existential variable reused across disjuncts"
        existentials.append(ex)
    frontier = [v for v in body_vars
                if any(v in atom.terms for h in heads for atom in h)]
    if any(existentials) and not frontier:
        return (f"rule {rule_id}: a generating rule needs a body variable that is "
                f"shared with the head (skolem symbols have arity >= 1)")
    symbols = [{y: skolem_symbol(rule_id, i, y.name, len(frontier)) for y in ex}
               for i, ex in enumerate(existentials, start=1)]
    sk_heads = tuple(
        tuple((atom.predicate, tuple(frontier.index(t) if t in frontier else sym[t]
                                     for t in atom.terms))
              for atom in h)
        for h, sym in zip(heads, symbols))
    image = [constant(f"k{j}") for j in range(len(body_vars))]
    parts = {
        "body_vars": tuple(body_vars),
        "frontier": tuple(frontier),
        "heads": [(tuple(ex), tuple(h)) for ex, h in zip(existentials, heads)],
        "sk_heads": sk_heads,
        "sk_symbols": frozenset(f for sym in symbols for f in sym.values()),
        "key_frontier": tuple(image[body_vars.index(v)] for v in frontier),
        "symbol_index": {f: (rule_id, i) for i, sym in enumerate(symbols, start=1)
                         for f in sym.values()},
        "body_index": {},
    }
    for position, atom in enumerate(body):
        parts["body_index"].setdefault(atom.predicate, []).append((rule_id, position))
    arities: dict = {}
    for atom in atoms:
        known = arities.setdefault(atom.predicate, len(atom.terms))
        if known != len(atom.terms):
            parts["symbol_index"] = parts["body_index"] = (
                f"predicate {atom.predicate} used with arities {known} and "
                f"{len(atom.terms)}")
            break
    return parts


def rule_parts(rule: Rule) -> dict:
    """The attributes of rule that naive_rule derives."""
    image = [constant(f"k{j}") for j in range(len(rule.body_vars))]
    return {
        "body_vars": rule.body_vars,
        "frontier": rule.frontier,
        "heads": [(h.existential_vars, h.atoms) for h in rule.heads],
        "sk_heads": rule.sk_heads,
        "sk_symbols": rule.sk_symbols,
        "key_frontier": rule.key_frontier((None, *image)),
        "symbol_index": own_symbol_index(rule),
        "body_index": own_body_index(rule),
    }


def own_symbol_index(rule: Rule) -> dict | str:
    """The (rule id, disjunct) of each symbol in the symbol_index of
    RuleSet([rule]), or the message of the RuleError that rejects it."""
    try:
        rules = RuleSet([rule])
    except RuleError as exc:
        return str(exc)
    return {f: (r.id, d) for f, (r, d) in rules.symbol_index.items()}


def own_body_index(rule: Rule) -> dict | str:
    """The (rule id, position) of each body atom, per predicate, in the
    body_index of RuleSet([rule]), or the message of the RuleError that
    rejects it."""
    try:
        rules = RuleSet([rule])
    except RuleError as exc:
        return str(exc)
    return {p: [(r.id, i) for r, i in pins] for p, pins in rules.body_index.items()}


def random_rule_drafts(rng: random.Random, n: int, faults: float):
    """n (rule id, body, heads) drafts: 1-3 body atoms over B0-B2 and X, Y,
    Z and W, so variables repeat, and 1-3 disjuncts of 1-3 atoms over H0-H2,
    the body's variables and the disjunct's own existential variables. Each
    predicate takes one arity of 1-3 per draft, so a draft that Rule
    accepts is one that a parsed program can hold. With probability
    `faults` a draft then takes one or two faults: a constant, a ground or
    non-ground functional term, an atom with no terms, an existential
    variable of another disjunct, a disjunct that shares no body variable,
    or a copy of an atom with one more term, which gives its predicate a
    second arity."""
    g = skolem_symbol("g", 1, "Y", 1)
    for i in range(n):
        arity = {f"{kind}{k}": rng.randint(1, 3) for kind in "BH" for k in range(3)}

        def draw_atom(kind: str, pool) -> Atom:
            predicate = f"{kind}{rng.randint(0, 2)}"
            return Atom(predicate, tuple(variable(rng.choice(pool))
                                         for _ in range(arity[predicate])))

        body = [draw_atom("B", "XYZW") for _ in range(rng.randint(1, 3))]
        names = sorted({t.name for atom in body for t in atom.terms})
        heads = []
        for d in range(1, rng.randint(1, 3) + 1):
            pool = names + [f"U{d}", f"V{d}"]
            heads.append([draw_atom("H", pool) for _ in range(rng.randint(1, 3))])
        for _ in range(rng.randint(1, 2) if rng.random() < faults else 0):
            atoms = rng.choice([body, *heads])
            j = rng.randrange(len(atoms))
            terms = list(atoms[j].terms)
            kind = rng.choice(("constant", "functional", "nullary", "reuse",
                               "no frontier", "arity"))
            if kind == "no frontier":
                d = rng.randrange(len(heads))
                heads[d] = [Atom("H9", (variable(f"U{d + 1}"),))]
                continue
            if kind == "arity":
                if terms:
                    atoms.append(Atom(atoms[j].predicate, (*terms, terms[0])))
                continue
            if kind == "nullary":
                terms = []
            elif terms:
                terms[rng.randrange(len(terms))] = (
                    constant(rng.choice("ab")) if kind == "constant"
                    else variable(f"U{rng.randint(1, len(heads))}") if kind == "reuse"
                    else functional(g, (rng.choice((constant("a"), variable("X"))),)))
            atoms[j] = Atom(atoms[j].predicate, tuple(terms))
        yield f"r{i}", body, heads


# The checks of naive_rule that a draft with a body and disjuncts can fail,
# by the word after the rule id in their messages.
ERROR_KINDS = {"atom": "no terms", "rules": "not a variable",
               "existential": "reused", "a": "no frontier"}


# The reads that compile a rule (Rule._compile): check_rules_against_reference
# makes each in turn the first read of a rule it builds. The last compiles
# only a rule that its own RuleSet accepts.
FIRST_READS = (
    lambda rule: rule.key_frontier,
    lambda rule: rule.sk_symbols,
    lambda rule: rule.output(1, frontier_images(len(rule.frontier))[0]),
    own_symbol_index,
)


def check_rules_against_reference(drafts) -> Counter:
    """Rule on each (rule id, body, heads) draft against naive_rule: the same
    attributes, or a RuleError with the same message. A rule is compiled on
    its first read of a compiled part, so each rule built is first read
    through the next of FIRST_READS in turn, and only then compared. Each
    rule built must also give, on every disjunct, the substitution
    reference's output (conftest.apply_atoms) for each of its
    frontier_images, with every atom of type Atom. Returns counts of the
    rules built, by number of disjuncts, with repeated body variables, by
    the first read that compiled them and whose own RuleSet rejects them,
    of the outputs compared, and of the errors, by the check that
    failed."""
    seen: Counter = Counter()
    for rule_id, body, heads in drafts:
        expected = naive_rule(rule_id, body, heads)
        try:
            rule = Rule(rule_id, body, heads)
        except RuleError as exc:
            assert str(exc) == expected, (rule_id, body, heads)
            seen["error " + ERROR_KINDS[str(exc).split(" ")[2]]] += 1
            continue
        assert type(rule) is not Rule, rule
        turn = seen["built"] % len(FIRST_READS)
        first = FIRST_READS[turn](rule)
        seen[f"compiled by read {turn}"] += type(rule) is Rule
        parts = rule_parts(rule)
        assert parts == expected, (rule_id, body, heads)
        seen["rule set rejects"] += isinstance(parts["body_index"], str)
        assert FIRST_READS[turn](rule) == first, rule
        n = len(rule.frontier)
        for image in frontier_images(n):
            for i, h in enumerate(rule.heads, start=1):
                sigma = dict(zip(rule.frontier, image))
                sigma.update({y: functional(skolem_symbol(rule_id, i, y.name, n), image)
                              for y in h.existential_vars})
                out = rule.output(i, image)
                assert out == apply_atoms(sigma, h.atoms), (rule, i, image)
                assert all(type(atom) is Atom for atom in out), (rule, i, image)
                seen["outputs"] += 1
        seen["built"] += 1
        seen[f"{rule.branching} disjuncts"] += 1
        terms = [t for atom in body for t in atom.terms]
        seen["repeats"] += len(set(terms)) < len(terms)
    return seen


def test_rules_match_the_naive_derivation():
    seen = check_rules_against_reference(
        random_rule_drafts(random.Random(41), 3000, faults=0.3))
    assert min(seen[f"{d} disjuncts"] for d in (1, 2, 3)) >= 500, seen
    assert seen["repeats"] >= 1000, seen
    assert min(seen["error " + kind] for kind in ERROR_KINDS.values()) >= 20, seen
    assert seen["outputs"] >= 16000, seen
    # Each draft keeps one arity per predicate, so most rules built reach
    # their own RuleSet's indexes, and the arity fault still gets some
    # rejected there.
    assert min(seen[f"compiled by read {t}"] for t in range(len(FIRST_READS))) \
        >= 400, seen
    assert seen["rule set rejects"] >= 50, seen
    # The rules of the 400 sample sets and of every ninth structure; CI
    # runs the first 3,000 sets and the six stratified sets.
    seen = check_rules_against_reference(
        (rule.id, rule.body, [h.atoms for h in rule.heads])
        for rules in watch_cases(400, range(0, 90, 9), False) for rule in rules)
    assert seen["built"] >= 800 and seen["outputs"] >= 4000, seen
    assert min(seen[f"compiled by read {t}"] for t in range(len(FIRST_READS))) \
        >= 200, seen


def test_generating_rule_needs_frontier():
    with pytest.raises(ParseError):
        rules_from("A(X) -> B(U) .\n")


def test_rule_set_rejects_duplicate_ids_and_arity_clashes():
    # The parser catches both within one source; RuleSet guards rules
    # combined programmatically from separate programs.
    first = rules_from("A(X) -> B(X) .\n")
    second = rules_from("B(X) -> A(X) .\n")
    with pytest.raises(RuleError) as err:
        RuleSet(list(first) + list(second))
    assert str(err.value) == "duplicate rule id r1"
    clash = rules_from("C(X, Y) -> C(Y, X) .\n")
    renamed = [Rule("r9", r.body, [h.atoms for h in r.heads]) for r in first]
    merged = RuleSet(list(clash) + renamed)
    assert set(merged.by_id) == {"r1", "r9"}
    bad = rules_from("B(X, Y) -> B(Y, X) .\n")
    with pytest.raises(RuleError) as err:
        RuleSet(renamed + [Rule("r8", r.body, [h.atoms for h in r.heads])
                           for r in bad])
    assert str(err.value) == "predicate B used with arities 1 and 2"


def test_rule_set_names_the_first_clash():
    # RuleSet reads the rules in order, each one's id first and then its
    # body and its disjuncts, and names the first clash it reads.
    x, y = variable("X"), variable("Y")
    cases = [
        # A body clash is read before a head clash of the same rule.
        ([("r1", [Atom("A", (x,))], [[Atom("B", (x,))]]),
          ("r2", [Atom("C", (x,)), Atom("A", (x, y))], [[Atom("B", (x, y))]])],
         "predicate A used with arities 1 and 2"),
        # The first disjunct's clash is read before the second's.
        ([("r1", [Atom("A", (x,))], [[Atom("B", (x,))], [Atom("C", (x,))]]),
          ("r2", [Atom("D", (x,))], [[Atom("C", (x, x))], [Atom("B", (x, x))]])],
         "predicate C used with arities 1 and 2"),
        # The arity that a predicate is first read with is named first,
        # within one rule too.
        ([("r1", [Atom("A", (x, y)), Atom("A", (x,))], [[Atom("B", (x,))]])],
         "predicate A used with arities 2 and 1"),
        # An earlier rule's clash is read before a later duplicate id, and a
        # duplicate id before the clashes of its own rule.
        ([("r1", [Atom("A", (x,))], [[Atom("B", (x,))]]),
          ("r2", [Atom("B", (x, y))], [[Atom("A", (x, y))]]),
          ("r1", [Atom("A", (x,))], [[Atom("B", (x,))]])],
         "predicate B used with arities 1 and 2"),
        ([("r1", [Atom("A", (x,))], [[Atom("B", (x,))]]),
          ("r1", [Atom("B", (x, y))], [[Atom("A", (x, y))]])],
         "duplicate rule id r1"),
    ]
    for drafts, message in cases:
        with pytest.raises(RuleError) as err:
            RuleSet([Rule(*draft) for draft in drafts])
        assert str(err.value) == message


def test_substitution_application():
    x, y = variable("X"), variable("Y")
    a = constant("a")
    f = skolem_symbol("r1", 1, "U", 1)
    sigma = {x: a, y: functional(f, (a,))}
    assert apply_term(sigma, x) == a
    assert apply_atom(sigma, Atom("R", (x, y))) == Atom(
        "R", (a, functional(f, (a,))))


def test_constant_mapping_rewrites_inside_functional_terms():
    a, b = constant("a"), constant("b")
    f = skolem_symbol("r1", 1, "U", 2)
    g = ConstantMapping({a: b})
    assert g.apply(functional(f, (a, b))) == functional(f, (b, b))
    assert g.apply(b) == b
    assert g.apply_power(a, 3) == b


def test_constant_mapping_power_grows_terms():
    a = constant("a")
    f = skolem_symbol("r1", 1, "U", 1)
    g = ConstantMapping({a: functional(f, (a,))})
    assert g.apply_power(a, 4).depth == 5


def test_constant_mapping_domain_checked():
    x = variable("X")
    with pytest.raises(RuleError):
        ConstantMapping({x: constant("a")})


def test_birth_facts_of_term_and_trigger():
    rules = bike_subset(2)
    d = constant("d")
    r1 = rules.by_id["r1"]
    r2 = rules.by_id["r2"]
    f_v = next(iter(r1.sk_symbols))
    fvd = functional(f_v, (d,))
    assert birth_facts(fvd, rules) == frozenset(
        {Atom("IsIn", (d, fvd)), Atom("Bike", (fvd,))})
    lam = trigger_of(r2, {variable("X"): fvd})
    assert birth_facts(lam, rules) == birth_facts(fvd, rules)
    assert birth_facts(d, rules) == frozenset()


def test_skeleton_is_subterm_closed_and_keeps_frontier_constants():
    rules = bike_subset(2)
    d = constant("d")
    r1 = rules.by_id["r1"]
    r2 = rules.by_id["r2"]
    f_v = next(iter(r1.sk_symbols))
    fvd = functional(f_v, (d,))
    lam = trigger_of(r2, {variable("X"): fvd})
    assert skeleton(lam, rules) == frozenset({d, fvd})
    base = trigger_of(r1, {variable("X"): d})
    assert skeleton(base, rules) == frozenset({d})


def test_reserved_constants_are_distinct():
    f = skolem_symbol("r1", 1, "V", 1)
    g = skolem_symbol("r1", 1, "W", 1)
    names = {star(), uc_constant(f), uc_constant(g), db_constant("X")}
    assert len(names) == 4


# ---------------------------------------------------------------------------
# The collector pause

@pytest.fixture
def collections():
    """The generation of each collection that starts during the test, which
    begins just after a full collection."""
    seen: list[int] = []

    def record(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    gc.collect()
    gc.callbacks.append(record)
    try:
        yield seen
    finally:
        gc.callbacks.remove(record)


def test_the_pause_keeps_a_callers_pause(collections):
    inside = []

    @gc_paused
    def operation():
        inside.append(gc.isenabled())

    gc.disable()
    try:
        operation()
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert inside == [False]
    assert collections == []


def test_the_pause_ends_with_a_collection_on_return_and_on_raise(collections):
    @gc_paused
    def operation(fail):
        assert not gc.isenabled()
        if fail:
            raise ValueError("the operation failed")
        return "done"

    assert operation(False) == "done"
    assert gc.isenabled()
    with pytest.raises(ValueError):
        operation(True)
    assert gc.isenabled()
    assert collections == [0, 0]


def test_nested_operations_pause_once(collections):
    inside = []

    @gc_paused
    def inner():
        inside.append(gc.isenabled())

    @gc_paused
    def outer():
        inner()
        inside.append(gc.isenabled())

    outer()
    assert inside == [False, False]
    assert gc.isenabled()
    assert collections == [0]


def test_each_operation_collects_its_own_young_objects(collections):
    # Every public operation runs with the collector paused and ends with
    # one young-generation collection of what it allocated: parsing a
    # 512-rule set allocates tens of thousands of container objects, and
    # the young generation is near empty when it returns.
    stratified = perfbench_module("generators").stratified_rule_set(
        random.Random("stratified/512/1"), 512).text
    program = parse((corpus_dir() / "mixed-database.drls").read_text(encoding="utf-8"))
    rules, facts = program.rules, program.facts
    operations = [
        lambda: parse(stratified),
        lambda: classify_rules(rules),
        lambda: check_acyclic(rules),
        lambda: check(rules, "RPC_s"),
        lambda: run_chase(rules, facts),
        lambda: entails(rules, facts, program.queries[0]),
    ]
    for i, operation in enumerate(operations):
        gc.collect()
        collections.clear()
        operation()
        young = gc.get_count()[0]
        assert young < 100, (i, young)
        assert collections == [0], i


def cyclic_garbage(classify_texts, chase_texts) -> tuple[int, int]:
    """With the cyclic collector off, parse and classify each text of
    classify_texts, untimed, and parse each text of chase_texts, run its
    chase, and run entails on each of its queries and on the first head
    disjunct of each of its rules. Returns the number of operations and
    the number of objects a full collection then finds unreachable, which
    is 0 when reference counting freed all that the operations dropped."""
    classify_texts, chase_texts = list(classify_texts), list(chase_texts)
    gc.collect()
    gc.disable()
    try:
        operations = 0
        for text in classify_texts:
            classify_rules(parse(text).rules)
            operations += 2
        for text in chase_texts:
            program = parse(text)
            run_chase(program.rules, program.facts)
            queries = [*program.queries,
                       *(Query(rule.heads[0].atoms) for rule in program.rules)]
            for query in queries:
                entails(program.rules, program.facts, query)
            operations += 2 + len(queries)
        return operations, gc.collect()
    finally:
        gc.enable()


def test_operations_leave_no_cyclic_garbage():
    # The operations pause the collector because they build no reference
    # cycles: whatever they drop is freed by reference counting. A nested
    # matcher chain that refers to itself, or a generator that holds its own
    # frame, would leave objects in a cycle. Every corpus file and
    # benchmark structures 0-29 are classified, and the corpus files with
    # facts and a small closure and colouring instance are chased. CI runs
    # the check on benchmark-sized inputs.
    generators = perfbench_module("generators")
    corpus = [path.read_text(encoding="utf-8")
              for path in sorted(corpus_dir().glob("*.drls"))]
    chase_texts = [text for text in corpus if parse(text).facts]
    chase_texts += [generators.transitive_closure(random.Random("tc/1"), 20).text,
                    generators.path_colouring(random.Random("colour/1"), 3, 4).text]
    classify_texts = corpus + [bench_text(i) for i in range(30)]
    operations, unreachable = cyclic_garbage(classify_texts, chase_texts)
    assert unreachable == 0
    assert len(chase_texts) >= 9
    assert operations >= 140
