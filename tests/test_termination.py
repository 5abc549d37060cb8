import collections
import itertools
import random
import time

import pytest

from chase_sentinel.model import Atom, functional, is_k_cyclic, star
from chase_sentinel.termination import (
    MFA,
    NOT_DETECTED,
    RESOURCE_EXHAUSTED,
    RMFA_LIKE,
    SATURATION,
    TERMINATING,
    SearchBudget,
    check_acyclic,
    critical_instance,
    weakly_acyclic,
)

from conftest import (bench_rule_set, perfbench_module, random_rule_set,
                      reference_acyclic, rules_from)
from test_acceptance import TABLE_BUDGET
from test_engine_check import bench_cases, sweep_cases


def test_critical_instance_covers_every_predicate(bike4):
    ci = critical_instance(bike4)
    assert set(ci) == {
        Atom("Engine", (star(),)),
        Atom("Bike", (star(),)),
        Atom("Spare", (star(),)),
        Atom("IsIn", (star(), star())),
        Atom("Has", (star(), star())),
    }


def test_bike_rules_certified_terminating(bike4):
    for k in (1, 2):
        verdict = check_acyclic(bike4, k=k)
        assert verdict.result == "terminating"
        assert verdict.cyclic_term is None
        assert verdict.k == k
    assert verdict.stats["mode"] == RMFA_LIKE
    assert verdict.stats["rung"] == SATURATION
    assert verdict.stats["applied"] >= 1


def test_unblocked_bike_rules_are_not_certified(bike2):
    verdict = check_acyclic(bike2, k=2)
    assert verdict.result == "not-detected"
    assert is_k_cyclic(verdict.cyclic_term, 2)
    f_v = next(iter(bike2.by_id["r1"].sk_symbols))
    assert verdict.cyclic_term.symbol == f_v
    assert verdict.cyclic_term.depth == 6


def test_self_loop_is_k_cyclic_for_every_k():
    rules = rules_from("A(X) -> R(X, Y), A(Y) .\n")
    for k in (1, 2, 3):
        verdict = check_acyclic(rules, k=k)
        assert verdict.result == "not-detected"
        assert verdict.cyclic_term.depth == k + 2
    # The fresh term lands in argument 1 of the first loop and in argument
    # 2 of the second, so a watch that skips a position misses it there and
    # runs into the trigger budget instead.
    for text in ("P(X, Y) -> P(Z, X) .\n", "P(X, Y) -> P(Y, Z) .\n"):
        rules = rules_from(text)
        (symbol,) = rules.rules[0].sk_symbols
        for mode, k in itertools.product((RMFA_LIKE, MFA), (1, 2, 3)):
            verdict = check_acyclic(rules, k=k, mode=mode,
                                    budget=SearchBudget(max_triggers=200))
            assert verdict.result == "not-detected", (text, mode, k)
            term = star()
            for _ in range(k + 1):
                term = functional(symbol, (term,))
            assert verdict.cyclic_term is term
            assert verdict.stats["applied"] == k + 1


def test_datalog_rules_terminate_trivially():
    rules = rules_from("Edge(X, Y) -> Path(X, Y) .\n"
                       "Path(X, Y), Edge(Y, Z) -> Path(X, Z) .\n")
    verdict = check_acyclic(rules)
    assert verdict.result == "terminating"


def test_blocked_diamond_terminates(guard_rules):
    assert check_acyclic(guard_rules).result == "terminating"


def test_colour_rules_evade_the_check(colour):
    # Not caught by the never-termination notions either; the combined
    # classification stays open.
    assert check_acyclic(colour, k=2).result == "not-detected"


def test_mfa_mode_is_coarser_than_the_default(bike4):
    assert check_acyclic(bike4, mode=RMFA_LIKE).result == "terminating"
    coarse = check_acyclic(bike4, mode=MFA)
    assert coarse.result == "not-detected"
    assert coarse.stats["mode"] == MFA


def test_mode_and_k_are_validated(bike4):
    with pytest.raises(ValueError):
        check_acyclic(bike4, mode="wfa")
    with pytest.raises(ValueError):
        check_acyclic(bike4, k=0)


def test_budgets_surface_as_resource_exhaustion(bike4):
    tight = check_acyclic(bike4, budget=SearchBudget(max_triggers=1))
    assert tight.result == "resource-exhausted"
    timed = check_acyclic(bike4, budget=SearchBudget(deadline=time.monotonic() - 1.0))
    assert timed.result == "resource-exhausted"
    shallow = check_acyclic(
        rules_from("A(X) -> R(X, Y), A(Y) .\n"),
        k=5, budget=SearchBudget(max_term_depth=3))
    assert shallow.result == "resource-exhausted"


def test_mfa_certificate_implies_a_smaller_default_certificate():
    # Blocking only drops triggers, so the default saturation stays inside
    # the MFA one: when MFA reaches a fixpoint without a k-cyclic term, so
    # does the default mode, applying no more triggers and deriving no more
    # facts. Checked on generated sets of up to 8 rules and on the
    # benchmark's 8-16-rule structures.
    rng = random.Random(1)
    sets = [random_rule_set(rng, max_rules=8) for _ in range(400)]
    sets += [bench_rule_set(i) for i in range(60)]
    certified = 0
    for rules in sets:
        coarse = check_acyclic(rules, mode=MFA)
        if coarse.result != "terminating":
            continue
        certified += 1
        fine = check_acyclic(rules, mode=RMFA_LIKE)
        assert fine.result == "terminating", rules
        assert fine.stats["applied"] <= coarse.stats["applied"], rules
        assert fine.stats["facts"] <= coarse.stats["facts"], rules
    assert certified >= 200


def watch_cases(sets: int, structures, stratified: bool):
    """The first `sets` sample sets of tests/test_engine_check.py, the
    given classify-random structures and, when `stratified`, the six
    stratified sets of 512, 768 and 1024 rules."""
    for _, rules in (*sweep_cases(sets), *bench_cases(structures)):
        yield rules
    if stratified:
        generate = perfbench_module("generators").stratified_rule_set
        for n in (512, 768, 1024):
            for seed in (1, 2):
                yield rules_from(generate(random.Random(f"stratified/{n}/{seed}"), n).text)


def check_acyclic_watch(cases) -> collections.Counter:
    """check_acyclic on each rule set of cases, in both modes with k = 2
    and term depth bounds 2, 3 and 8, against conftest.reference_acyclic,
    whose watch scans every argument of every pop. The result, the applied
    and fact counts and the first k-cyclic term must agree. Returns counts
    of the sets and rules compared, the depth trips and the k-cyclic
    verdicts."""
    seen: collections.Counter = collections.Counter()
    for rules in cases:
        seen["sets"] += 1
        seen["rules"] += len(rules)
        for mode, depth in itertools.product((RMFA_LIKE, MFA), (2, 3, 8)):
            budget = SearchBudget(max_term_depth=depth)
            verdict = check_acyclic(rules, budget=budget, mode=mode)
            got = (verdict.result, verdict.stats["applied"],
                   verdict.stats["facts"], verdict.cyclic_term)
            assert got == reference_acyclic(rules, 2, budget, mode), (mode, depth, rules)
            seen["depth trips"] += verdict.result == RESOURCE_EXHAUSTED
            seen["k-cyclic"] += verdict.result == NOT_DETECTED
    return seen


def test_the_watch_tests_exactly_what_a_generating_pop_adds():
    # The first 400 sample sets and every ninth structure; CI runs the
    # first 3,000 sets and the six stratified sets.
    seen = check_acyclic_watch(watch_cases(400, range(0, 90, 9), False))
    assert seen["depth trips"] >= 450 and seen["k-cyclic"] >= 180, seen
    # A bound below the special constant's depth trips on the first pop,
    # of a datalog rule too.
    for text in ("A(X) -> B(X) .\n", "A(X) -> R(X, Y), A(Y) .\n"):
        rules = rules_from(text)
        for mode in (RMFA_LIKE, MFA):
            budget = SearchBudget(max_term_depth=0)
            verdict = check_acyclic(rules, budget=budget, mode=mode)
            assert verdict.result == RESOURCE_EXHAUSTED
            assert (verdict.result, verdict.stats["applied"], verdict.stats["facts"],
                    verdict.cyclic_term) == reference_acyclic(rules, 2, budget, mode)


def naive_weakly_acyclic(rules) -> bool:
    """Weak acyclicity read off the whole position graph: every edge of
    every rule, and a special edge (u, v) lies on a cycle iff u can be
    reached from v, found by a search from v. A special edge runs from
    every body position of every frontier variable, since a skolem term
    takes the whole frontier."""
    normal, special = set(), set()
    for rule in rules:
        at = collections.defaultdict(list)
        for p, terms in rule.body:
            for i, t in enumerate(terms):
                at[t].append((p, i))
        frontier = [u for x in rule.frontier for u in at[x]]
        for h in rule.heads:
            for p, terms in h.atoms:
                for j, t in enumerate(terms):
                    if t in at:
                        normal.update((u, (p, j)) for u in at[t])
                    else:
                        special.update((u, (p, j)) for u in frontier)
    succ = collections.defaultdict(set)
    for u, v in normal | special:
        succ[u].add(v)
    for u, v in special:
        seen, todo = {v}, [v]
        while todo:
            for w in succ[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        if u in seen:
            return False
    return True


def check_weak_acyclicity(cases) -> tuple[int, list]:
    """weakly_acyclic on each (key, rules) case, and on each weakly acyclic
    one check_acyclic in mfa mode with k = 2 under the table budget.
    Returns the number of weakly acyclic sets and the keys of those that
    mfa does not certify. Weak acyclicity is contained in MFA (Cuenca Grau
    et al., JAIR 2013), so the list must be empty while the sets' terms stay
    within the budget's depth."""
    weak, uncertified = 0, []
    for key, rules in cases:
        if weakly_acyclic(rules):
            weak += 1
            if check_acyclic(rules, k=2, budget=TABLE_BUDGET,
                             mode=MFA).result != TERMINATING:
                uncertified.append(key)
    return weak, uncertified


def test_weakly_acyclic_sets_are_mfa_certified():
    # The first 400 sample sets and the 512-rule stratified set of the
    # chase tree fixture; CI runs the first 3,000 sample sets.
    generate = perfbench_module("generators").stratified_rule_set
    stratified = rules_from(generate(random.Random("stratified/512/1"), 512).text)
    weak, uncertified = check_weak_acyclicity(
        [*sweep_cases(400), ("stratified-512-1", stratified)])
    assert uncertified == []
    assert weak >= 140


def test_weak_acyclicity_agrees_with_the_whole_position_graph():
    # The first 400 sample sets and every structure of 0-119, none of which
    # is weakly acyclic.
    cases = [rules for _, rules in sweep_cases(400)]
    cases += [bench_rule_set(i) for i in range(120)]
    answers = collections.Counter()
    for rules in cases:
        answer = weakly_acyclic(rules)
        assert answer == naive_weakly_acyclic(rules), rules
        answers[answer] += 1
    assert answers[True] >= 140 and answers[False] >= 350


@pytest.mark.parametrize("text, weak", [
    # A datalog cycle has no special edge.
    ("Edge(X, Y) -> Path(X, Y) .\nPath(X, Y), Edge(Y, Z) -> Path(X, Z) .\n", True),
    # A and B form a cycle of predicates, but the null lands in B's second
    # position, which no rule reads back.
    ("A(X) -> B(X, Y) .\nB(X, Y) -> A(X) .\n", True),
    ("A(X) -> R(X, Y), A(Y) .\n", False),
    ("P(X, Y) -> P(Y, Z) .\n", False),
    # The trap: the null of disjunct 1 takes the frontier variable Y, which
    # only disjunct 2 mentions. The special edge from P1's position to
    # itself closes a cycle, so a rule that drew special edges only from
    # each disjunct's own variables would call this set weakly acyclic.
    ("P1(Y) -> P1(V) | P1(Y), P0(Y, U, Y) .\n", False),
])
def test_special_edges_start_at_the_whole_frontier(text, weak):
    rules = rules_from(text)
    assert weakly_acyclic(rules) is weak
    assert naive_weakly_acyclic(rules) is weak
    mfa = check_acyclic(rules, k=2, budget=TABLE_BUDGET, mode=MFA).result
    assert mfa == (TERMINATING if weak else NOT_DETECTED)


def test_weak_acyclicity_runs_on_graphs_deeper_than_the_recursion_limit():
    # A ring of 3,000 predicates, each copying the one before, and a rule
    # that hangs a null off the ring: weakly acyclic when the null leaves
    # the ring, not when it travels round to the frontier's position.
    ring = "".join(f"P{i}(X, Y) -> P{(i + 1) % 3000}(X, Y) .\n" for i in range(3000))
    assert weakly_acyclic(rules_from(ring + "P0(X, Y) -> Q(Y, Z) .\n"))
    assert not weakly_acyclic(rules_from(ring + "P0(X, Y) -> P1(Y, Z) .\n"))
