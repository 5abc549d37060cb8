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
    SearchBudget,
    check_acyclic,
    critical_instance,
)

from conftest import (bench_rule_set, perfbench_module, random_rule_set,
                      reference_acyclic, rules_from)
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
