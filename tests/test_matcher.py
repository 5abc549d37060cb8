import collections
import copy
import gc
import pickle
import random
import weakref

import pytest

from chase_sentinel import matcher
from chase_sentinel.matcher import (
    _BODY,
    FactSet,
    Queues,
    Trigger,
    compile_query,
    discover,
    disjunct_holds,
    enqueue,
    frontier_keys,
    _joins,
    _pinned_keys,
    is_obsolete,
    match_conjunction,
    obsolete_through,
    pinned_head_chains,
    pop_active,
)
from chase_sentinel.chase import entails
from chase_sentinel.model import (Atom, Query, RuleError, constant, functional,
                                  skolem_symbol, variable)
from chase_sentinel.termination import critical_instance

from conftest import (_naive_matches, apply_atoms, atom, bike_subset, deep_term,
                      deeper_than, is_loaded,
                      match_pinned, oracle_matches, outputs, perfbench_module,
                      queue_keys, random_rule_set, rules_from, satisfies,
                      trigger_of)
from test_engine_check import bench_cases, sweep_cases, wide_databases


def test_fact_set_basics():
    facts = FactSet()
    assert facts.update([atom("A", "a")]) == [atom("A", "a")]
    assert facts.update([atom("A", "a")]) == []
    new = facts.update([atom("A", "a"), atom("B", "a", "b")])
    assert new == [atom("B", "a", "b")]
    assert atom("A", "a") in facts
    assert len(facts) == 2
    assert set(FactSet([atom("A", "a")])) <= set(facts)


def test_fact_sets_take_only_ground_atoms():
    # Facts enter a FactSet only through update, which the constructor
    # calls too. It checks that each new fact of its batch is ground and
    # has a first term, the index's lookup, before inserting that fact, and
    # keeps the facts it inserted before the bad one, so the set iterates,
    # looks up and undoes as it did before the bad fact.
    loose = Atom("A", (constant("a"), variable("X")))
    ground = atom("A", "a", "b")
    facts = FactSet()
    nullary = Atom("P", ())
    for bad in (loose, nullary):
        with pytest.raises(RuleError, match="not a fact"):
            FactSet([ground, bad])
    deep = Atom("B", (functional(skolem_symbol("q", 1, "Y", 1), (variable("X"),)),))
    for bad in (loose, deep, nullary):
        with pytest.raises(RuleError, match="not a fact"):
            facts.update([ground, ground, bad])
    assert list(facts) == [ground] and facts.candidates("A") == [ground]
    assert loose not in facts and not facts.candidates("B")
    assert nullary not in facts and not facts.candidates("P")
    facts.undo(0)
    assert not facts and not facts.candidates("A")


def test_fact_set_candidates_partition_by_first_argument():
    facts = FactSet([atom("R", "a", "b"), atom("R", "a", "c"),
                     atom("R", "b", "a")])
    assert set(facts.candidates("R", constant("a"))) == {
        atom("R", "a", "b"), atom("R", "a", "c")}
    assert len(facts.candidates("R")) == 3
    assert len(facts.candidates("R", constant("b"))) == 1
    assert facts.candidates("S") == ()


def check_fact_set_trail(runs: int) -> collections.Counter:
    """Random runs of single-fact updates, larger update batches, marks
    and undos, the way the chase forks and resumes: an undo goes back to
    any mark still on the trail, and a mark may be undone to more than
    once. A list of the facts in insertion order is the model. A batch may
    repeat a fact and hold facts already present, and update must return
    exactly the model's new facts, in order. After each step the fact set
    iterates as the model, and after each undo it also equals one rebuilt
    from the model in every lookup, and the queues hold the keys and heads
    they held at the mark. Returns the counts of undos, pops and larger
    batches, and of those batches that repeated a fact or held a present
    one."""
    rng = random.Random(41)
    consts = [constant(n) for n in "abcd"]
    preds = [("P", 1), ("R", 2), ("S", 2)]
    rules = rules_from("P(X) -> R(X, X) .\nR(X, Y) -> S(X, Z) .\n")
    datalog, generating = rules.rules

    def fact():
        pred, arity = rng.choice(preds)
        return Atom(pred, tuple(rng.choices(consts, k=arity)))

    def snapshot(queues):
        return [list(keys) for keys in queues.keys], list(queues.heads)

    seen: collections.Counter = collections.Counter()
    for _ in range(runs):
        facts, queues = FactSet(), Queues()
        model: list[Atom] = []
        trail = []
        for _ in range(rng.randint(5, 40)):
            op = rng.random()
            if op < 0.3:
                f = fact()
                added = facts.update([f])
                assert added == ([] if f in model else [f])
                model += added
            elif op < 0.45:
                batch = [fact() for _ in range(rng.randint(0, 4))]
                if batch or model:
                    batch += rng.choices(batch + model, k=rng.randint(0, 2))
                rng.shuffle(batch)
                new = [f for f in dict.fromkeys(batch) if f not in model]
                assert facts.update(batch) == new
                seen["updates"] += 1
                seen["repeats"] += len(set(batch)) < len(batch)
                seen["present"] += len(new) < len(set(batch))
                model += new
            elif op < 0.6:
                rule = rng.choice((datalog, generating))
                queue_keys(queues, [(rule, *rng.choices(consts, k=len(rule.body_vars)))
                                    for _ in range(rng.randint(1, 3))])
            elif op < 0.7:
                seen["pops"] += pop_active(queues, FactSet()) is not None
            elif op < 0.85 or not trail:
                trail.append((facts.mark(), queues.mark(), list(model),
                              snapshot(queues)))
            else:
                j = rng.randrange(len(trail))
                del trail[j + 1:]
                fact_mark, queue_mark, kept, queued = trail[j]
                facts.undo(fact_mark)
                queues.undo(queue_mark)
                model = list(kept)
                rebuilt = FactSet(kept)
                for pred, _ in preds:
                    assert facts.candidates(pred) == rebuilt.candidates(pred)
                    for t in consts:
                        assert facts.candidates(pred, t) == rebuilt.candidates(pred, t)
                assert snapshot(queues) == queued
                seen["undos"] += 1
            assert list(facts) == model and len(facts) == facts.mark() == len(model)
    return seen


def test_mark_and_undo_restore_fact_sets_and_queues():
    seen = check_fact_set_trail(300)
    assert seen["undos"] >= 800 and seen["pops"] >= 300, seen
    assert min(seen[k] for k in ("updates", "repeats", "present")) >= 300, seen


def test_match_conjunction_joins_and_respects_base():
    rules = rules_from("R(X, Y), R(Y, Z) -> R(X, Z) .\n")
    rule = rules.rules[0]
    facts = FactSet([atom("R", "a", "b"), atom("R", "b", "c"),
                     atom("R", "b", "b")])
    subs = list(match_conjunction(rule.body, {}, facts))
    images = {tuple(s[v] for v in rule.body_vars) for s in subs}
    assert images == {
        (constant("a"), constant("b"), constant("c")),
        (constant("a"), constant("b"), constant("b")),
        (constant("b"), constant("b"), constant("c")),
        (constant("b"), constant("b"), constant("b")),
    }
    pinned = list(match_conjunction(
        rule.body, {variable("X"): constant("b")}, facts))
    assert all(s[variable("X")] == constant("b") for s in pinned)
    assert len(pinned) == 2


def test_match_conjunction_repeated_variables():
    rules = rules_from("R(X, X) -> S(X) .\n")
    facts = FactSet([atom("R", "a", "a"), atom("R", "a", "b")])
    subs = list(match_conjunction(rules.rules[0].body, {}, facts))
    assert [s[variable("X")] for s in subs] == [constant("a")]


def test_match_conjunction_enumerates_like_naive_matches():
    # The public join's contract, checked in exact order against the
    # nested-loop oracle: patterns with constants, a ground functional term
    # and repeated variables, under bases that bind pattern variables and
    # variables outside the pattern. The empty pattern yields dict(base)
    # once, so it never misses.
    rng = random.Random(29)
    a, b, c = (constant(n) for n in "abc")
    fa = functional(skolem_symbol("q", 1, "Y", 1), (a,))
    X, Y, Z, W = (variable(n) for n in "XYZW")
    bases = ({}, {X: a}, {X: fa, Y: b}, {W: c}, {X: b, W: a})
    seen: collections.Counter = collections.Counter()
    for _ in range(600):
        pattern = tuple(Atom(rng.choice("TR"), tuple(
            rng.choice((a, b, fa, X, Y, Z)) for _ in range(2)))
            for _ in range(rng.randint(0, 3)))
        facts = FactSet(Atom(rng.choice("TR"), tuple(
            rng.choice((a, b, c, fa)) for _ in range(2)))
            for _ in range(rng.randint(0, 16)))
        base = rng.choice(bases)
        got = list(match_conjunction(pattern, base, facts))
        assert got == _naive_matches(pattern, facts, base), (pattern, base, list(facts))
        terms = [t for q in pattern for t in q.terms]
        for case, met in (
                ("constant", any(t in (a, b) for t in terms)),
                ("functional", fa in terms),
                ("repeat", any(terms.count(v) > 1 for v in (X, Y, Z))),
                ("base inside", any(v in terms for v in base)),
                ("base outside", any(v not in terms for v in base)),
                ("empty", not pattern)):
            if met:
                seen[case, bool(got)] += 1
    assert min(seen.values()) >= 20 and len(seen) == 11, seen
    assert list(match_conjunction((), {X: a}, FactSet())) == [{X: a}]


def test_trigger_outputs_and_frontier_image():
    rules = bike_subset(2)
    r1 = rules.by_id["r1"]
    d = constant("d")
    lam = trigger_of(r1, {variable("X"): d})
    f_v = next(iter(r1.sk_symbols))
    fvd = functional(f_v, (d,))
    assert lam.body_facts() == (atom("Engine", "d"),)
    assert lam.out(1) == (Atom("IsIn", (d, fvd)), Atom("Bike", (fvd,)))
    assert lam.out(2) == (atom("Spare", "d"),)
    assert outputs(lam) == (lam.out(1), lam.out(2))
    assert lam.frontier_image() == (d,)


def test_triggers_and_atoms_are_the_tuples_they_hold():
    # A trigger is its (rule, *body image) key, and an atom its
    # (predicate, terms) pair; both compare as the tuples, so a trigger's
    # rule is compared by identity and a term by its interned object.
    text = "A(X, Y) -> B(Y, Z) .\n"
    rule = rules_from(text).by_id["r1"]
    a, b = constant("a"), constant("b")
    key = (rule, a, b)
    lam = Trigger(key)
    assert lam == key and hash(lam) == hash(key)
    assert all(x is y for x, y in zip(lam, key, strict=True))
    assert lam.rule is rule and lam.substitution == {variable("X"): a, variable("Y"): b}
    again = rules_from(text).by_id["r1"]
    assert trigger_of(again, lam.substitution) != lam
    assert Atom("B", (b, a)) == ("B", (b, a))
    assert hash(Atom("B", (b, a))) == hash(("B", (b, a)))
    with pytest.raises(RuleError, match="must be ground"):
        trigger_of(rule, {variable("X"): a, variable("Y"): variable("W")})


def test_triggers_round_trip_through_copy_and_pickle():
    # Trigger(key) is the tuple's own constructor, so copies and pickles
    # rebuild a trigger through the tuple's __getnewargs__. A shallow copy
    # holds the same rule and terms, so it equals the trigger. A deep copy
    # and a pickle copy the rule and the terms too, which are then equal to
    # no interned object, so they agree with it in type, rule id, rendering
    # and outputs.
    rule = rules_from("A(X, Y) -> B(Y, Z) .\n").by_id["r1"]
    fb = functional(next(iter(rule.sk_symbols)), (constant("b"),))
    lam = Trigger((rule, constant("a"), fb))
    shallow = copy.copy(lam)
    assert type(shallow) is Trigger and shallow == lam
    assert all(x is y for x, y in zip(shallow, lam, strict=True))
    for again in (copy.deepcopy(lam), pickle.loads(pickle.dumps(lam))):
        assert type(again) is Trigger and len(again) == len(lam)
        assert again.rule is not rule and again.rule.id == rule.id
        assert repr(again) == repr(lam) == "<r1, [X/a, Y/f[r1.1.Z](b)]>"
        assert repr(again.out(1)) == repr(lam.out(1))


def test_is_loaded():
    rules = bike_subset(2)
    lam = trigger_of(rules.by_id["r1"], {variable("X"): constant("d")})
    assert not is_loaded(lam, FactSet())
    assert is_loaded(lam, FactSet([atom("Engine", "d")]))


def test_is_obsolete_matches_any_disjunct_with_any_witness():
    rules = bike_subset(2)
    d = constant("d")
    lam = trigger_of(rules.by_id["r1"], {variable("X"): d})
    base = FactSet([atom("Engine", "d")])
    assert not is_obsolete(lam, base)

    spare = FactSet(list(base))
    spare.update([atom("Spare", "d")])
    assert is_obsolete(lam, spare)

    # The witness may be any term of the set, not only the skolem image.
    wit = FactSet(list(base))
    wit.update([Atom("IsIn", (d, constant("e"))), atom("Bike", "e")])
    assert is_obsolete(lam, wit)

    # Both head atoms must agree on the same witness.
    split = FactSet(list(base))
    split.update([Atom("IsIn", (d, constant("e"))), atom("Bike", "g")])
    assert not is_obsolete(lam, split)


def _chain_cases(rule, idx, fact, facts):
    """The cases of the compiled chain that pinning body atom idx of the
    rule to the fact meets, read off the rule and the facts: the pinned
    atom's repeats failing; no rest; rests of several atoms; each rest atom
    a keyed or unkeyed step by whether an earlier atom binds its first term;
    and, for the first rest atom, a whole step (every term bound) whose
    fact is there or not, and candidates it reads that fail on a bound term
    or else on a repeated unbound one."""
    pinned = rule.body[idx]
    rest = rule.body[:idx] + rule.body[idx + 1:]
    base: dict = {}
    if any(base.setdefault(pat, val) is not val
           for pat, val in zip(pinned.terms, fact.terms)):
        return {"pinned repeat"}
    if not rest:
        return {"no rest"}
    cases = {"multi-step"} if len(rest) > 1 else set()
    bound = set(base)
    for atom in rest:
        cases.add("keyed step" if atom.terms[0] in bound else "unkeyed step")
        bound.update(atom.terms)
    atom = rest[0]
    if all(t in base for t in atom.terms):
        there = Atom(atom.predicate, tuple(base[t] for t in atom.terms)) in facts
        cases.add("whole hit" if there else "whole miss")
    for cand in facts.candidates(atom.predicate, base.get(atom.terms[0])):
        pairs = list(zip(atom.terms, cand.terms))
        binding = dict(base)
        if any(t in base and base[t] is not val for t, val in pairs):
            cases.add("bound miss")
        elif any(binding.setdefault(t, val) is not val for t, val in pairs):
            cases.add("repeat miss")
    return cases


def test_match_pinned_enumerates_like_naive_matches():
    # Bodies of one, two and three atoms cover chains of no step, of one
    # and of two; repeated variables cover the repeat checks. Per pinned
    # atom, the compiled join must give the nested-loop oracle's matches in
    # its order, and the sets that follow must reach every case of the chain.
    rng = random.Random(12)
    consts = [constant(n) for n in ("a", "b", "c")]
    long_bodies = rules_from(
        "P(X, Y), Q(Y, Z), P(Z, X) -> R(X) .\n"
        "P(X, X), Q(X, Y) -> R(Y) .\n"
        "Q(X, Y), P(Y, Y) -> R(X) .\n")
    compared = 0
    cases: set = set()
    for i in range(160):
        if i < 80:
            rules = long_bodies if i % 4 == 0 else random_rule_set(rng)
        else:
            rules = random_rule_set(rng, max_rules=8)
        facts = FactSet()
        preds = sorted(rules.predicates.items())
        for _ in range(rng.randint(4, 14)):
            pred, arity = rng.choice(preds)
            facts.update([Atom(pred, tuple(
                rng.choice(consts) for _ in range(arity)))])
        for fact in list(facts):
            pinned = []
            for rule, idx in rules.body_index.get(fact.predicate, ()):
                base: dict = {}
                clash = any(base.setdefault(pat, val) is not val
                            for pat, val in zip(rule.body[idx].terms, fact.terms))
                expected = [] if clash else _naive_matches(rule.body, facts, base)
                assert match_pinned(rule, idx, fact, facts) == expected
                cases |= _chain_cases(rule, idx, fact, facts)
                pinned += [(rule, *(sub[v] for v in rule.body_vars))
                           for sub in expected]
                compared += 1
            # discover runs the joins the rule set holds, in body_index order,
            # and drops a pair met again through another body atom.
            assert list(discover(rules, facts, [fact])) == list(dict.fromkeys(pinned))
    assert compared >= 1500
    assert cases == {"pinned repeat", "no rest", "whole hit", "whole miss",
                     "keyed step", "unkeyed step", "bound miss", "repeat miss",
                     "multi-step"}

    rules = rules_from("P(X, Y) -> R(X) .\n")
    absent = atom("P", "a", "b")
    assert match_pinned(rules.rules[0], 0, absent, FactSet()) == []


def _frontier_branch(rule, idx, fact, facts):
    """Which part of frontier_keys answers this (rule, idx), read off the
    rule and the facts."""
    pinned = rule.body[idx]
    rest = rule.body[:idx] + rule.body[idx + 1:]
    base: dict = {}
    if any(base.setdefault(pat, val) != val
           for pat, val in zip(pinned.terms, fact.terms)):
        return {"pinned repeat"}
    if not rest:
        return {"no rest"}
    if len(rest) > 1:
        return {"multi-step"}
    atom = rest[0]
    branches = {"scan"}
    for cand in facts.candidates(atom.predicate):
        if all(base.get(t, val) == val for t, val in zip(atom.terms, cand.terms)):
            binding = dict(base)
            if any(binding.setdefault(t, val) != val
                   for t, val in zip(atom.terms, cand.terms)):
                branches.add("rest repeat")
    return branches


def test_frontier_keys_project_the_pinned_joins():
    # Per fact, the build-side runner yields the first occurrences of the
    # (rule, *frontier image) keys of the pinned _naive_matches results,
    # less the keys already seen, and adds them to the seen set, which is
    # carried from fact to fact. The first rule set gives three-atom bodies
    # whose pinned atom binds the frontier, or does not.
    rng = random.Random(13)
    consts = [constant(n) for n in ("a", "b", "c")]
    long_bodies = rules_from(
        "P(X, Y), Q(Y, Z), P(Z, X) -> R(X) .\n"
        "P(X, Y), Q(Y, Z), Q(Z, Z) -> R(Z) .\n"
        "Q(X, Y), P(Y, Y) -> R(X) .\n")
    compared = 0
    branches: set = set()
    for i in range(160):
        rules = long_bodies if i % 4 == 0 else random_rule_set(rng, max_rules=8)
        facts = FactSet()
        preds = sorted(rules.predicates.items())
        for _ in range(rng.randint(4, 14)):
            pred, arity = rng.choice(preds)
            facts.update([Atom(pred, tuple(
                rng.choice(consts) for _ in range(arity)))])
        seen: set = set()
        for fact in list(facts):
            known = set(seen)
            wanted = []
            for rule, idx in rules.body_index.get(fact.predicate, ()):
                base: dict = {}
                clash = any(base.setdefault(pat, val) != val
                            for pat, val in zip(rule.body[idx].terms, fact.terms))
                answer = [] if clash else _naive_matches(rule.body, facts, base)
                branches |= _frontier_branch(rule, idx, fact, facts)
                for sub in answer:
                    key = (rule, *(sub[v] for v in rule.frontier))
                    if key not in known:
                        known.add(key)
                        wanted.append(key)
                compared += 1
            got: list = []
            frontier_keys(rules, facts, [fact], seen, got)
            assert got == wanted
            assert seen == known
    assert compared >= 1500
    assert branches == {"pinned repeat", "no rest", "scan", "rest repeat",
                        "multi-step"}

    # A fact that is not in the facts pins nothing.
    rules = rules_from("P(X, Y) -> R(X) .\n")
    got = []
    frontier_keys(rules, FactSet(), [atom("P", "a", "b")], set(), got)
    assert got == []


def test_body_keys_carry_seen_across_facts():
    # discover's projection of the pinned joins, run with one seen set
    # carried from fact to fact as one discover call carries its own: per
    # fact, the first occurrences of the (rule, *body image) keys of the
    # pinned _naive_matches results, less the keys already seen. Pins whose
    # atom binds the whole body to a key already seen, so that every row
    # they join repeats it, are counted.
    rng = random.Random(14)
    consts = [constant(n) for n in ("a", "b", "c")]
    long_bodies = rules_from(
        "P(X, Y), Q(Y, X) -> R(X) .\n"
        "P(X, Y), Q(X, Y), P(Y, X) -> R(Y) .\n"
        "Q(X, X), P(X, Y) -> R(X) .\n")
    repeated = 0
    for i in range(120):
        rules = long_bodies if i % 4 == 0 else random_rule_set(rng, max_rules=8)
        facts = FactSet()
        preds = sorted(rules.predicates.items())
        for _ in range(rng.randint(4, 14)):
            pred, arity = rng.choice(preds)
            facts.update([Atom(pred, tuple(
                rng.choice(consts) for _ in range(arity)))])
        seen: set = set()
        keys = []
        for fact in list(facts):
            known = set(seen)
            wanted = []
            for rule, idx in rules.body_index.get(fact.predicate, ()):
                base: dict = {}
                if any(base.setdefault(pat, val) != val
                       for pat, val in zip(rule.body[idx].terms, fact.terms)):
                    continue
                if all(v in base for v in rule.body_vars) and \
                        (rule, *(base[v] for v in rule.body_vars)) in known:
                    repeated += 1
                for sub in _naive_matches(rule.body, facts, base):
                    key = (rule, *(sub[v] for v in rule.body_vars))
                    if key not in known:
                        known.add(key)
                        wanted.append(key)
            got: list = []
            _pinned_keys(_joins(rules), facts, [fact], seen, _BODY, got, got)
            assert got == wanted
            assert seen == known
            keys += got
        # One discover call over every fact yields exactly these keys.
        assert list(discover(rules, facts, list(facts))) == keys
    assert repeated >= 100


def test_pop_active_pops_datalog_keys_first_and_drops_obsolete_ones(monkeypatch):
    rules = rules_from(
        "B(X) -> C(X, Y) .\n"
        "A(X) -> D(X) | E(X, Y) .\n"
        "A(X) -> B(X) .\n")
    r1, r2, r3 = rules.rules
    a, b = constant("a"), constant("b")
    database = FactSet([atom("A", "a"), atom("A", "b"), atom("B", "a"),
                        atom("C", "a", "c"), atom("D", "b")])
    keys = list(discover(rules, database))
    assert keys == [(r1, a), (r2, a), (r2, b), (r3, a), (r3, b)]

    def pops(facts, expected):
        queues = Queues()
        enqueue(queues, rules, database)
        assert queues.keys == ([(r3, a), (r3, b)], [(r1, a), (r2, a), (r2, b)])
        for key in expected:
            popped, outs = pop_active(queues, facts)
            assert popped == key
            trigger = Trigger(key)
            assert outs == [trigger.out(i) for i in range(1, key[0].branching + 1)]
        assert pop_active(queues, facts) is None
        assert not queues
        # Popped and passed-over keys stay in the lists; only the heads move.
        assert queues.heads == [2, 3]
        assert queues.keys == ([(r3, a), (r3, b)], [(r1, a), (r2, a), (r2, b)])

    # pop_active tests each disjunct through matcher.disjunct_holds, so a
    # guard in its place sees every test. It must answer some, or it would
    # guard nothing; it must not see one against the empty set, where no
    # disjunct holds.
    tests = []

    def guarded(rule, disjunct, image, facts, out=None):
        if not facts:
            raise AssertionError("a disjunct was tested against the empty set")
        tests.append((rule, disjunct))
        return disjunct_holds(rule, disjunct, image, facts, out)

    monkeypatch.setattr(matcher, "disjunct_holds", guarded)
    # Datalog keys first. B(a) makes r3's key on a obsolete, C(a, c) r1's
    # and D(b) r2's on b: each is dropped and never returned.
    pops(database, [(r3, b), (r2, a)])
    answered = [(r3, 1), (r3, 1), (r1, 1), (r2, 1), (r2, 2), (r2, 1)]
    assert tests == answered
    pops(FactSet(), [(r3, a), (r3, b), (r1, a), (r2, a), (r2, b)])
    assert tests == answered


def test_pinned_joins_are_freed_with_their_rule_set():
    rules = rules_from("P(X, Y), Q(Y, Z) -> R(X, Z) .\n")
    facts = FactSet([atom("P", "a", "b"), atom("Q", "b", "c")])
    # Both new facts pin the one trigger, which is yielded once.
    assert len(list(discover(rules, facts, list(facts)))) == 1
    assert rules.pinned_joins
    ref = weakref.ref(rules)
    del rules
    gc.collect()
    assert ref() is None


def test_satisfies_means_every_loaded_trigger_obsolete():
    rules = rules_from("A(X) -> B(X) .\n")
    rule = rules.rules[0]
    assert satisfies(FactSet([atom("A", "a"), atom("B", "a")]), rule)
    assert not satisfies(FactSet([atom("A", "a")]), rule)
    assert satisfies(FactSet([atom("B", "a")]), rule)


def _obsolescence_cases(n: int):
    """n (rng, rules, facts) cases from one Random(11), rng being that
    generator for the caller's own draws, in three kinds by i % 3:
    a small random set with random facts over {a, b, c}; the same with facts
    grown from triggers; and a 16-rule set shaped like the benchmark's
    stratified sets, heads of arity 2-3, with facts grown from triggers.

    Growing facts puts the body of a trigger over the terms so far into
    them and, now and then, the skolemized output of one of its disjuncts by
    Rule.output, less one atom or with one term swapped at times, so the
    facts hold skolem terms and near misses of the heads. A few random
    facts over the same terms follow."""
    rng = random.Random(11)
    consts = [constant(n) for n in ("a", "b", "c")]
    stratified = perfbench_module("generators").stratified_rule_set
    for i in range(n):
        if i % 3 == 2:
            rules = rules_from(stratified(rng, 16).text)
        else:
            rules = random_rule_set(rng, max_rules=rng.choice((4, 8)))
        preds = sorted(rules.predicates.items())
        terms = list(consts)
        facts = FactSet()
        if i % 3:
            for rule in rng.sample(rules.rules, min(len(rules), 4)):
                sub = {v: rng.choice(terms) for v in rule.body_vars}
                facts.update(apply_atoms(sub, rule.body))
                if rng.random() < 0.3:
                    continue
                out = list(rule.output(rng.randint(1, rule.branching),
                                       tuple(map(sub.__getitem__, rule.frontier))))
                cut = rng.random()
                if cut < 0.2 and len(out) > 1:
                    del out[rng.randrange(len(out))]
                elif cut < 0.4:
                    j = rng.randrange(len(out))
                    args = list(out[j].terms)
                    args[rng.randrange(len(args))] = rng.choice(terms)
                    out[j] = Atom(out[j].predicate, tuple(args))
                facts.update(out)
                terms.extend(t for a in out for t in a.terms if t not in terms)
        for _ in range(rng.randint(2, 8) if i % 3 == 0 else rng.randint(0, 3)):
            pred, arity = rng.choice(preds)
            facts.update([Atom(pred, tuple(rng.choice(terms) for _ in range(arity)))])
        yield rng, rules, facts


def check_obsolescence(n: int) -> collections.Counter:
    """Every loaded trigger of the _obsolescence_cases(n) cases against the
    brute-force oracle_matches: is_obsolete, disjunct_holds on each
    disjunct, and obsolete_through on a random part of the facts as new
    ones. Returns the disjunct tests counted by bucket: (existential,
    atoms, answer) for every disjunct, and ("first", answer) and ("shared",
    answer) for those with a symbol in the first slot of an atom that no
    earlier atom binds, which is scanned without the index, and for those
    with one symbol in two slots."""
    seen: collections.Counter = collections.Counter()
    for rng, rules, facts in _obsolescence_cases(n):
        for key in discover(rules, facts):
            lam = Trigger(key)
            rule = lam.rule
            image = rule.key_frontier(key)
            matches = list(oracle_matches(lam, facts))
            assert is_obsolete(lam, facts) == bool(matches), (rules, facts, lam)
            for d, template in enumerate(rule.sk_heads, 1):
                answer = disjunct_holds(rule, d, image, facts)
                assert answer == any(i == d for i, _ in matches), \
                    (rules, facts, lam, d)
                existential = bool(rule.heads[d - 1].existential_vars)
                seen[existential, len(template), answer] += 1
                symbols = [s for _, slots in template for s in slots
                           if s.__class__ is not int]
                met: set = set()
                for _, slots in template:
                    if slots[0].__class__ is not int and slots[0] not in met:
                        seen["first", answer] += 1
                        break
                    met.update(slots)
                if len(set(symbols)) < len(symbols):
                    seen["shared", answer] += 1
            new = [f for f in facts if rng.random() < 0.4]
            assert obsolete_through(pinned_head_chains(rule), image, new, facts) == any(
                not set(atoms).isdisjoint(new) for _, atoms in matches), \
                (rules, facts, new, lam)
    return seen


def test_is_obsolete_agrees_with_brute_force_on_random_sets():
    # CI's obsolescence sweep runs 3,000 cases. Every bucket must be seen
    # answering both ways: existential-free disjuncts by lookup, existential
    # ones by their compiled chains, from the unindexed scan of a symbol in a
    # first slot and through the binding of a symbol met twice.
    seen = check_obsolescence(300)
    for existential in (False, True):
        for atoms in (1, 2):
            for answer in (False, True):
                assert seen[existential, atoms, answer] >= 40, seen
    for bucket in ("first", "shared"):
        assert seen[bucket, False] >= 100 and seen[bucket, True] >= 100, seen


def test_pop_active_trips_the_term_depth_bound_exactly_on_deep_outputs():
    # Under a bound, pop_active pops the keys it pops without one, in the
    # same order, and returns None for a key's outputs exactly when some
    # atom of some disjunct's output on the key's frontier image holds a
    # term deeper than the bound. The facts hold terms of depth 1-4, so a
    # non-generating key can trip on a deep frontier image too.
    rng = random.Random(13)
    terms = [constant("b"), *map(deep_term, range(1, 5))]
    seen = collections.Counter()
    for _ in range(400):
        rules = random_rule_set(rng, max_rules=8)
        facts = _random_facts(rng, rules, terms, (2, 10))
        bound = rng.randint(0, 4)
        bounded, unbounded = Queues(), Queues()
        enqueue(bounded, rules, facts)
        enqueue(unbounded, rules, facts)
        while (popped := pop_active(unbounded, facts)) is not None:
            key, outs = popped
            deep = deeper_than(key, bound)
            assert pop_active(bounded, facts, bound) == (key, None if deep else outs)
            seen[key[0].is_generating, deep] += 1
        assert pop_active(bounded, facts, bound) is None
    assert min(seen[g, d] for g in (False, True) for d in (False, True)) >= 50, seen


def _three_atom_rule_set(rng: random.Random):
    """1-4 rules whose bodies hold three atoms over P0-P2, of arity 1-3, and
    the variables X, Y, Z and W; each derives H of its first variable."""
    arity = {f"P{i}": rng.randint(1, 3) for i in range(3)}
    lines = []
    for _ in range(rng.randint(1, 4)):
        atoms = [(p, rng.choices("XYZW", k=arity[p]))
                 for p in rng.choices(sorted(arity), k=3)]
        body = ", ".join(f"{p}({', '.join(args)})" for p, args in atoms)
        lines.append(f"{body} -> H({atoms[0][1][0]}) .")
    return rules_from("\n".join(lines) + "\n")


def _random_facts(rng: random.Random, rules, consts, sizes: tuple[int, int]):
    """A fact set over the rules' body predicates with a number of facts
    drawn from the inclusive range sizes, arguments drawn from consts."""
    preds = sorted((p, rules.predicates[p]) for p in rules.body_index)
    return FactSet(Atom(pred, tuple(rng.choice(consts) for _ in range(arity)))
                   for pred, arity in (rng.choice(preds)
                                       for _ in range(rng.randint(*sizes))))


def discovery_order_cases(sets: int, structures, stratified: bool, three: int):
    """(rules, facts) cases for check_discovery_order: the critical instance
    and 3 wide databases of each of the first `sets` sample sets of
    tests/test_engine_check.py and of the given classify-random structures,
    the critical instances of the six stratified sets of 512, 768 and 1024
    rules when `stratified`, and `three` sets of three-atom bodies with
    3-15 facts over {a, b, c} from Random(31)."""
    for key, rules in (*sweep_cases(sets), *bench_cases(structures)):
        yield rules, FactSet(critical_instance(rules))
        for db in wide_databases(key, rules, 3):
            yield rules, FactSet(db)
    if stratified:
        generate = perfbench_module("generators").stratified_rule_set
        for n in (512, 768, 1024):
            for seed in (1, 2):
                text = generate(random.Random(f"stratified/{n}/{seed}"), n).text
                rules = rules_from(text)
                yield rules, FactSet(critical_instance(rules))
    rng = random.Random(31)
    consts = [constant(n) for n in "abc"]
    for _ in range(three):
        rules = _three_atom_rule_set(rng)
        yield rules, _random_facts(rng, rules, consts, (3, 15))


def check_discovery_order(cases) -> collections.Counter:
    """Full-mode discover on each (rules, facts) case must yield exactly the
    keys of _naive_matches' matches, the nested loop in body order, rule by
    rule, in its order. Returns counts of the fact sets, the keys, and the
    bodies of two or more atoms whose least number of candidates is not 0,
    by where that number sits: on tied atoms ("tie"), on one atom that is
    not the first ("moved"), or on the first alone ("first"), so that
    orders a most-selective-first join would change are seen."""
    seen: collections.Counter = collections.Counter()
    for rules, facts in cases:
        expected = [(rule, *map(sub.__getitem__, rule.body_vars))
                    for rule in rules
                    for sub in _naive_matches(rule.body, facts)]
        assert list(discover(rules, facts)) == expected, (rules, list(facts))
        seen["sets"] += 1
        seen["keys"] += len(expected)
        for rule in rules:
            counts = [len(facts.candidates(a.predicate)) for a in rule.body]
            least = min(counts)
            if len(counts) > 1 and least:
                seen["tie" if counts.count(least) > 1 else
                     "moved" if counts.index(least) else "first"] += 1
    return seen


def test_full_discover_enumerates_like_naive_matches():
    # A full call pins each rule's first body atom and must give the
    # nested-loop oracle's matches in body order: on random sets, on the
    # long bodies of test_match_pinned_enumerates_like_naive_matches, whose
    # rests of two atoms are chains of two steps, and on the cases of CI's
    # discovery order sweep, which runs 3,000 sample sets, structures 0-89,
    # the stratified sets and 300 sets of three-atom bodies. Candidate
    # counts tie and differ.
    rng = random.Random(13)
    consts = [constant(n) for n in "abc"]
    long_bodies = rules_from(
        "P(X, Y), Q(Y, Z), P(Z, X) -> R(X) .\n"
        "P(X, X), Q(X, Y) -> R(Y) .\n"
        "Q(X, Y), P(Y, Y) -> R(X) .\n")
    random_cases = []
    for i in range(160):
        rules = long_bodies if i % 4 == 0 else random_rule_set(rng, max_rules=8)
        random_cases.append((rules, _random_facts(rng, rules, consts, (1, 14))))
    seen = check_discovery_order(random_cases)
    assert seen["keys"] >= 500, seen
    assert min(seen[b] for b in ("tie", "moved", "first")) >= 50, seen
    seen = check_discovery_order(discovery_order_cases(300, range(0, 90, 9), False, 30))
    assert seen["sets"] == 4 * 310 + 30 and seen["keys"] >= 4000, seen
    assert min(seen[b] for b in ("tie", "moved", "first")) >= 200, seen


def _split(keys):
    """The keys in queue order: datalog keys, then the others."""
    return ([k for k in keys if k[0].is_datalog],
            [k for k in keys if not k[0].is_datalog])


def _frontier_growth(rules, batches, live: bool):
    """The frontier keys of the batches added one by one, the next batch
    added each time a key is read from the list of keys, as _batches reads
    it, and the rest once the list runs out. With live, frontier_keys
    appends to that list while it is read; else each call's keys are
    collected in a list of their own and then appended. Returns the list,
    the seen set and the facts."""
    facts, seen, added = FactSet(), set(), []
    pending = iter(batches)

    def pin(batch):
        new = facts.update(batch)
        if live:
            frontier_keys(rules, facts, new, seen, added)
        else:
            found = []
            frontier_keys(rules, facts, new, seen, found)
            added.extend(found)

    pin(next(pending))
    for _ in added:
        batch = next(pending, None)
        if batch is None:
            break
        pin(batch)
    for batch in pending:
        pin(batch)
    return added, seen, facts


def check_enqueue_routing(cases) -> collections.Counter:
    """On each (rules, facts) case, with the facts cut at a random point,
    enqueue must add to Queues.keys exactly discover's list for the same
    arguments, datalog keys to the first list and the others to the
    second, each in discover's order, after the keys already queued: a
    hand-made key or two, then a full call on the facts before the cut,
    then a semi-naive one on the facts after it. frontier_keys appending
    into the list being read, as _batches does, must give the keys of
    collect-then-extend, each frontier key over all the facts once.
    Returns the counts of the cases and of the keys queued in each list
    and grown."""
    rng = random.Random(19)
    seen: collections.Counter = collections.Counter()
    for rules, facts in cases:
        ordered = list(facts)
        cut = rng.randint(0, len(ordered))
        queues = Queues()
        rule = rng.choice(rules.rules)
        queue_keys(queues, [(rule, *rng.choices(ordered[0].terms, k=len(rule.body_vars)))
                            for _ in range(rng.randint(0, 2))])
        expected = tuple(map(list, queues.keys))
        grown = FactSet(ordered[:cut])
        for later in (False, True):
            new = grown.update(ordered[cut:]) if later else None
            for queued, keys in zip(expected, _split(discover(rules, grown, new))):
                queued += keys
            enqueue(queues, rules, grown, new)
            assert queues.keys == expected, (rules, ordered, cut)
        seen["sets"] += 1
        seen["datalog"] += len(expected[0])
        seen["other"] += len(expected[1])

        cuts = sorted(rng.sample(range(1, len(ordered)), min(3, len(ordered) - 1)))
        batches = [ordered[i:j] for i, j in zip([0, *cuts], [*cuts, len(ordered)])]
        live, found, final = _frontier_growth(rules, batches, True)
        assert (live, found) == _frontier_growth(rules, batches, False)[:2]
        assert len(set(live)) == len(live) and set(live) == found == {
            (key[0], *key[0].key_frontier(key)) for key in discover(rules, final)}
        seen["grown"] += len(live)
    return seen


def test_enqueue_routes_discovered_keys_in_order():
    # Random sets mixing datalog and non-datalog rules, and the cases of
    # CI's discovery order sweep, which also runs this check on 3,000
    # sample sets and structures 0-89.
    rng = random.Random(29)
    consts = [constant(n) for n in "abc"]
    random_cases = []
    for _ in range(200):
        rules = random_rule_set(rng, max_rules=8)
        random_cases.append((rules, _random_facts(rng, rules, consts, (1, 14))))
    seen = check_enqueue_routing(random_cases)
    assert seen["datalog"] >= 100 and seen["other"] >= 700, seen
    assert seen["grown"] >= 500, seen
    seen = check_enqueue_routing(discovery_order_cases(300, range(0, 90, 9), False, 30))
    assert seen["sets"] == 4 * 310 + 30, seen
    assert seen["datalog"] >= 800 and seen["other"] >= 4000, seen
    assert seen["grown"] >= 3000, seen


def test_semi_naive_discovery_equals_naive_discovery():
    # Pairs over old facts plus pairs pinned to the new ones cover every
    # pair over all facts, and nothing else. No call yields a pair twice,
    # and no later round yields a pair again.
    rng = random.Random(17)
    consts = [constant(n) for n in ("a", "b", "c")]

    def pairs(found):
        found = list(found)
        assert len(set(found)) == len(found)
        return set(found)

    def draw(preds, n):
        return [Atom(pred, tuple(rng.choice(consts) for _ in range(arity)))
                for pred, arity in (rng.choice(preds) for _ in range(n))]

    checked = 0
    for _ in range(80):
        rules = random_rule_set(rng, max_rules=8)
        preds = sorted(rules.predicates.items())
        old = FactSet(draw(preds, rng.randint(1, 8)))
        facts = FactSet(list(old))
        new = facts.update(draw(preds, rng.randint(1, 6)))
        semi = pairs(discover(rules, old)) | pairs(discover(rules, facts, new))
        naive = pairs(discover(rules, facts))
        assert semi == naive
        assert pairs(discover(rules, facts, [])) == set()
        checked += len(naive - pairs(discover(rules, old)))
    assert checked >= 100

    # Chains of rounds, each pinning the facts the previous one added: every
    # pair over the final facts comes up in exactly one round.
    chained = 0
    for _ in range(200):
        rules = random_rule_set(rng, max_rules=8)
        preds = sorted(rules.predicates.items())
        facts = FactSet(draw(preds, rng.randint(1, 4)))
        rounds = [pairs(discover(rules, facts))]
        for _ in range(rng.randint(3, 5)):
            new = facts.update(draw(preds, rng.randint(1, 3)))
            rounds.append(pairs(discover(rules, facts, new)))
        union = set().union(*rounds)
        assert sum(map(len, rounds)) == len(union)
        assert union == pairs(discover(rules, facts))
        chained += len(union)
    assert chained >= 900

    # One new fact pinned to both atoms of a self-join is one trigger.
    rules = rules_from("R(X, Y), R(Y, Z) -> S(X, Z) .\n")
    loop = atom("R", "a", "a")
    assert len(list(discover(rules, FactSet([loop]), [loop]))) == 1


def test_compiled_queries_find_exactly_the_matches_through_new_facts():
    # Queries, unlike rule bodies, hold ground terms: in the pinned atom,
    # next to repeated variables, in the atoms joined after it, repeated
    # across atoms, and functional. The chains of a compiled query, pinned
    # as entails pins them, to the database at the root and to a child's
    # new facts below it, must agree with _naive_matches on the whole fact
    # set and find exactly the matches that need a new fact.
    rng = random.Random(23)
    a, b, c = (constant(n) for n in ("a", "b", "c"))
    fa = functional(skolem_symbol("q", 1, "Y", 1), (a,))
    X, Y = variable("X"), variable("Y")

    def T(*terms):
        return Atom("T", terms)

    def R(*terms):
        return Atom("R", terms)

    queries = [
        (T(a, X), T(X, a)),
        (R(X, X),),
        (R(X, Y), T(Y, b)),
        (T(a, c),),
        (R(X, X), T(X, Y), T(Y, X)),
        (T(X, b), R(b, X)),
        (T(a, X), R(X, a), T(Y, a)),
        (T(fa, X), R(X, fa)),
    ]

    def key(subs):
        return {frozenset(s.items()) for s in subs}

    full = matched = 0
    fresh_by_query = collections.Counter()
    for _ in range(60):
        def draw(n):
            return [Atom(rng.choice("TR"), tuple(rng.choice((a, b, c, fa))
                                                 for _ in range(2)))
                    for _ in range(n)]
        old = FactSet(draw(rng.randint(1, 8)))
        facts = FactSet(list(old))
        new = facts.update(draw(rng.randint(1, 5)))
        for n, atoms in enumerate(queries):
            chains, image = compile_query(atoms)
            # The image holds the ground terms in order of first occurrence.
            # Chain j has one step per atom, atom j's first and then the
            # others in written order.
            assert image == tuple(dict.fromkeys(
                t for q in atoms for t in q.terms if t.is_ground))
            assert [[(p, k) for p, k, *_ in steps] for steps in chains] == [
                [(q.predicate, q.arity) for q in (atoms[j], *atoms[:j], *atoms[j + 1:])]
                for j in range(len(atoms))]
            whole = _naive_matches(atoms, facts)
            # Every match maps some atom to some fact.
            assert obsolete_through(chains, image, list(facts),
                                    facts) == bool(whole)
            full += bool(whole)
            fresh = key(whole) - key(_naive_matches(atoms, old))
            assert obsolete_through(chains, image, new, facts) == bool(fresh)
            matched += bool(fresh)
            fresh_by_query[n] += bool(fresh)
    assert full >= 100 and matched >= 50, (full, matched)
    assert min(fresh_by_query[n] for n in range(len(queries))) >= 1, fresh_by_query


def test_empty_query_is_entailed():
    # The empty conjunction maps into every label, the empty one included.
    rules = rules_from("A(X) -> B(X) .\n")
    assert entails(rules, [atom("A", "a")], Query(())) == "yes"
    assert entails(rules, [], Query(())) == "yes"


def test_query_terms_must_be_variables_or_ground():
    # Matching compares pattern terms by identity, so a query atom holding
    # a functional term with a variable in it is refused, not misread.
    rules = rules_from("A(X) -> B(X) .\n")
    f = skolem_symbol("q", 1, "Y", 1)
    X = variable("X")
    bad = Atom("B", (functional(f, (X,)),))
    with pytest.raises(RuleError):
        compile_query((Atom("A", (X,)), bad))
    with pytest.raises(RuleError):
        entails(rules, [atom("A", "a")], Query((bad,)))
    ground = Atom("B", (functional(f, (constant("a"),)),))
    assert entails(rules, [atom("A", "a")], Query((ground,))) == "no"
    # A keyed step is looked up by its atom's first term, so a query atom
    # with none is refused too.
    nullary = Atom("B", ())
    with pytest.raises(RuleError, match="has no terms"):
        compile_query((Atom("A", (X,)), nullary))
    with pytest.raises(RuleError, match="has no terms"):
        entails(rules, [atom("A", "a")], Query((nullary,)))


def test_pattern_atoms_need_a_term():
    # A keyed step is looked up by its atom's first term, so a pattern atom
    # with none is refused, as every other entry point refuses it, and not
    # read past its end.
    facts = FactSet([atom("A", "a")])
    with pytest.raises(RuleError, match=r"^pattern atom P\(\) has no terms$"):
        list(match_conjunction([Atom("A", (variable("X"),)), Atom("P", ())], {}, facts))


def test_pattern_terms_must_be_variables_or_ground():
    # Matching compares pattern terms by identity, so a functional term
    # with a variable in it would match nothing and be silently misread;
    # it is refused, here too under a base that binds its variable. A
    # ground functional term is matched as any ground term.
    f = skolem_symbol("q", 1, "Y", 1)
    X, Z = variable("X"), variable("Z")
    a = constant("a")
    fa = functional(f, (a,))
    facts = FactSet([atom("A", "a"), Atom("B", (fa,))])
    bad = Atom("B", (functional(f, (X,)),))
    for base in ({}, {X: a}):
        with pytest.raises(RuleError, match="neither a variable nor ground"):
            list(match_conjunction([Atom("A", (Z,)), bad], base, facts))
    assert list(match_conjunction([Atom("B", (fa,)), Atom("A", (Z,))], {}, facts)) \
        == [{Z: a}]
