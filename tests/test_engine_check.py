"""Verdicts checked against the chase engine.

A `cyclic` witness proves that the restricted chase from the pivot's rule
database has no finite tree, so `run_chase` from there must stop on a
budget. A `terminating` verdict proves the opposite for every database, so
`run_chase` from a few small databases must complete. On that side a budget
trip is strong evidence, not a proof: a finite chase may still outgrow term
depth 10 or 3,000 vertices. The engine is fair, so a trip does not come from
its order of triggers.

`refute_terminating` chases certified sets from wide databases, which
hold more facts over more constants than the engine check's, and counts
only a term-depth trip as a refutation.
"""
import random

import pytest

from chase_sentinel import corpus_dir
from chase_sentinel.chase import (BUDGET_EXHAUSTED, COMPLETE, TERM_DEPTH, VERTICES,
                                  ChaseBudget, run_chase)
from chase_sentinel.cyclicity import CYCLIC, check, rule_database
from chase_sentinel.model import Atom, constant
from chase_sentinel.ruleio import parse
from chase_sentinel.termination import (MFA, RMFA_LIKE, TERMINATING, SearchBudget,
                                        check_acyclic)

from conftest import bench_rule_set, random_rule_set, rules_from

CYCLIC_BUDGET = ChaseBudget(max_vertices=500, max_term_depth=6)
TERMINATING_BUDGET = ChaseBudget(max_vertices=3000, max_term_depth=10)
WIDE_BUDGET = ChaseBudget(max_vertices=3000, max_term_depth=12)


def _databases(rng: random.Random, rules, sizes: tuple[int, int]):
    """3 databases over {a, b, c} of rules' predicates, with a number of
    facts drawn from the inclusive range sizes."""
    consts = [constant(name) for name in ("a", "b", "c")]
    preds = sorted(rules.predicates.items())
    databases = []
    for _ in range(3):
        db = []
        for _ in range(rng.randint(*sizes)):
            pred, arity = rng.choice(preds)
            db.append(Atom(pred, tuple(rng.choice(consts) for _ in range(arity))))
        databases.append(db)
    return databases


def wide_databases(key, rules, n: int):
    """n databases drawn from Random(f"wide/{key}"), each of 3-15 facts
    whose predicate is one of rules' and whose arguments are drawn from
    {a, b, c, d}, all uniformly."""
    rng = random.Random(f"wide/{key}")
    consts = [constant(name) for name in ("a", "b", "c", "d")]
    preds = sorted(rules.predicates.items())
    for _ in range(n):
        db = []
        for _ in range(rng.randint(3, 15)):
            pred, arity = rng.choice(preds)
            db.append(Atom(pred, tuple(rng.choice(consts) for _ in range(arity))))
        yield db


def refute_terminating(cases, n: int) -> tuple[list, int]:
    """Chase each (key, rules) case, a set certified terminating, from its
    n wide databases under WIDE_BUDGET, up to the first that refutes it.

    A term-depth trip refutes the certificate: on sets this small, a term
    nested 12 deep is strong evidence of a chain of nulls that never stops.
    A vertex trip does not: bench structures 34 and 36 trip at 5,000
    vertices, yet their chases complete. Returns the keys refuted and the
    number of vertex trips."""
    refuted, vertex_trips = [], 0
    for key, rules in cases:
        for db in wide_databases(key, rules, n):
            exhausted = run_chase(rules, db, WIDE_BUDGET).exhausted
            if exhausted == TERM_DEPTH:
                refuted.append(key)
                break
            vertex_trips += exhausted == VERTICES
    return refuted, vertex_trips


def refute_certificates(cases, mode: str, n: int) -> tuple[int, list, int]:
    """refute_terminating on the (key, rules) cases that check_acyclic
    certifies in mode; returns the number certified, the keys refuted and
    the number of vertex trips."""
    certified = [(key, rules) for key, rules in cases
                 if check_acyclic(rules, k=2, mode=mode).result == TERMINATING]
    return len(certified), *refute_terminating(certified, n)


def sweep_cases(n: int):
    """The first n sample sets, keyed by their index."""
    return ((i, rules) for i, (rules, _) in enumerate(_sample(n)))


def bench_cases(structures):
    """The given classify-random structures, keyed by their number."""
    return ((i, bench_rule_set(i)) for i in structures)


def _sample(n: int = 400):
    """Fixed-seed small rule sets, each with 3 databases of 2-8 facts."""
    rng = random.Random(777)
    for _ in range(n):
        rules = random_rule_set(rng)
        yield rules, _databases(rng, rules, (2, 8))


def _assert_terminates(rules, databases) -> None:
    for db in databases:
        tree = run_chase(rules, db, TERMINATING_BUDGET)
        assert tree.status == COMPLETE, (rules, db, tree.exhausted)


def _bench_sample(structures):
    """Classify-random structures, each with 3 databases of 3-10 facts
    drawn from Random(f"db/{i}")."""
    for i in structures:
        rules = bench_rule_set(i)
        yield rules, _databases(random.Random(f"db/{i}"), rules, (3, 10))


def _check_verdicts(cases) -> tuple[int, int]:
    """Check the DRPC and RPC_s witnesses and the MFA certificates of the
    (rules, databases) cases against the chase; returns (witnesses,
    certified)."""
    budget = SearchBudget(max_triggers=300, max_term_depth=4)
    witnesses = certified = 0
    for rules, databases in cases:
        for notion in ("DRPC", "RPC_s"):
            verdict = check(rules, notion, budget=budget)
            if verdict.result == CYCLIC:
                witnesses += 1
                db = rule_database(verdict.witness.rho).body_facts()
                tree = run_chase(rules, db, CYCLIC_BUDGET)
                assert tree.status == BUDGET_EXHAUSTED, (rules, notion)
        if check_acyclic(rules, k=2, mode=MFA).result == TERMINATING:
            certified += 1
            _assert_terminates(rules, databases)
    return witnesses, certified


def check_cyclic_and_mfa_verdicts(n: int) -> tuple[int, int]:
    """_check_verdicts on the first n sample sets."""
    return _check_verdicts(_sample(n))


def check_bench_structures(structures) -> tuple[int, int]:
    """_check_verdicts on the given classify-random structures."""
    return _check_verdicts(_bench_sample(structures))


def test_cyclic_witnesses_and_mfa_certificates_agree_with_the_chase():
    witnesses, certified = check_cyclic_and_mfa_verdicts(400)
    # the sample must exercise both halves
    assert witnesses >= 40 and certified >= 200


def test_benchmark_structure_verdicts_agree_with_the_chase():
    # Every ninth structure; CI runs structures 0-89 (82 witnesses and 6
    # certificates there). rmfa-like is left out: ROADMAP item 1.
    witnesses, certified = check_bench_structures(range(0, 90, 9))
    assert witnesses >= 8 and certified >= 2


def test_rmfc_regression_merged_colours_is_not_certified():
    # rmfc-regression.drls closes from its own database, where the two
    # starting colours sit on distinct constants, but with both on one
    # constant every branch is infinite. A blocking rule that also blocks
    # datalog triggers certifies the set, so it is a trap for any change to
    # the acyclicity modes: neither may certify it, and its chase from
    # Cl1(a), Cl2(a) must trip the budget.
    path = corpus_dir() / "rmfc-regression.drls"
    program = parse(path.read_text(encoding="utf-8"))
    for mode in (RMFA_LIKE, MFA):
        assert check_acyclic(program.rules, k=2, mode=mode).result != TERMINATING, mode
    a = constant("a")
    tree = run_chase(program.rules, [Atom("Cl1", (a,)), Atom("Cl2", (a,))],
                     TERMINATING_BUDGET)
    assert tree.status == BUDGET_EXHAUSTED


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_rmfa_like_certificates_agree_with_the_chase():
    # The default mode reads disjunction conjunctively, so a fact from one
    # disjunct can block a trigger on a branch that chose another. The
    # one-rule set is the smallest case: the first disjunct's chain from
    # P0(a, b, c) never ends, yet the mode certifies the set.
    one_rule = rules_from("P0(Y, Z, X) -> P0(Z, X, V) | P1(Z, U) .\n")
    a, b, c = (constant(n) for n in ("a", "b", "c"))
    cases = [(one_rule, [[Atom("P0", (a, b, c))]]), *_sample()]
    for rules, databases in cases:
        if check_acyclic(rules, k=2).result == TERMINATING:
            _assert_terminates(rules, databases)


def test_mfa_certificates_survive_wide_databases():
    # 10 wide databases per set on the first 400 sample sets, and 20 on
    # every ninth benchmark structure; CI runs the 3,000-set sweep and
    # structures 0-89.
    certified, refuted, _ = refute_certificates(sweep_cases(400), MFA, 10)
    assert refuted == []
    assert certified >= 250
    certified, refuted, _ = refute_certificates(bench_cases(range(0, 90, 9)), MFA, 20)
    assert refuted == []
    assert certified >= 2


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_rmfa_like_certificates_survive_wide_databases():
    # The default mode certifies sample sets whose chase from a wide
    # database nests a term past depth 12.
    certified, refuted, _ = refute_certificates(sweep_cases(400), RMFA_LIKE, 10)
    assert certified >= 300
    assert refuted == []
