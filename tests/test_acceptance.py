"""End-to-end acceptance suite: one test per shipped guarantee.

Each test freezes one externally visible behaviour of the analyzer, from
exact chase results on the bundled rule families through the randomized
theorem-shaped property suites. Golden values are spelled out inline so a
regression points straight at the guarantee it broke.
"""
import dataclasses
import functools
import itertools
import json
import random
import time
from collections import Counter

import pytest

import chase_sentinel.cyclicity as cyc
from chase_sentinel.approx import (
    STAR,
    UC,
    build_over_approx,
    check_reversible,
    is_star_unblockable,
    is_uc_unblockable,
    skeleton,
)
from chase_sentinel.chase import (
    BUDGET_EXHAUSTED,
    COMPLETE,
    ChaseBudget,
    entails,
    results,
    run_chase,
)
from chase_sentinel.cli import classify_rules
from chase_sentinel.cyclicity import (
    CYCLIC,
    DRPC,
    NOT_DETECTED,
    RPC_S,
    check,
    rpc_fact_set,
    rule_database,
    unroll_prefix,
)
from chase_sentinel.matcher import (
    FactSet,
    HeadChoice,
    is_obsolete,
    match_conjunction,
)
from chase_sentinel.model import (
    Atom,
    ConstantMapping,
    Query,
    constant,
    db_constant,
    functional,
    is_rho_cyclic,
    star,
    subterms,
    uc_constant,
    variable,
)
from chase_sentinel.termination import (MFA, RESOURCE_EXHAUSTED, RMFA_LIKE,
                                        TERMINATING, SearchBudget, check_acyclic)

from conftest import (
    bench_rule_set,
    bike_pivot,
    bike_subset,
    is_loaded,
    map_atom,
    naive_over_approx,
    naive_saturation,
    oracle_obsolete,
    perfbench_module,
    random_rule_set,
    rules_from,
    sample_triggers,
    trigger_of,
)
import generality
from test_engine_check import bench_cases, sweep_cases

X, Y = variable("X"), variable("Y")


def sk(rule, var):
    return next(s for s in rule.sk_symbols if s.var == var)


def test_criterion_01_bike_chase_results_and_entailment(bike4):
    t0 = time.monotonic()
    engine_d = Atom("Engine", (constant("d"),))
    tree = run_chase(bike4, [engine_d])
    assert tree.status == COMPLETE

    d = constant("d")
    fvd = functional(sk(bike4.by_id["r1"], "V"), (d,))
    spare_side = frozenset({engine_d, Atom("Spare", (d,))})
    bike_side = frozenset({
        engine_d,
        Atom("IsIn", (d, fvd)),
        Atom("Bike", (fvd,)),
        Atom("Has", (fvd, d)),
    })
    assert set(results(tree)) == {spare_side, bike_side}

    assert entails(bike4, [engine_d], Query((engine_d,))) == "yes"
    assert entails(bike4, [engine_d], Query((Atom("Spare", (d,)),))) == "no"
    assert time.monotonic() - t0 < 1.0


def test_criterion_02_classify_reports_the_bike_regeneration_witness(bike2):
    t0 = time.monotonic()
    report = classify_rules(bike2)
    assert report.combined == "never-terminating"

    verdict = next(v for v in report.notion_results
                   if getattr(v, "notion", None) == "RPC_s")
    assert verdict.result == CYCLIC
    prefix = verdict.witness
    c_x = db_constant("X")
    f_v = sk(bike2.by_id["r1"], "V")
    f_w = sk(bike2.by_id["r2"], "W")
    fv_x = functional(f_v, (c_x,))
    fw_fv_x = functional(f_w, (fv_x,))

    assert [t.rule.id for t in prefix.triggers] == ["r1", "r2", "r1"]
    assert prefix.triggers[0].substitution == {X: c_x}
    assert prefix.triggers[1].substitution == {X: fv_x}
    assert prefix.triggers[2].substitution == {X: fw_fv_x}
    assert dict(prefix.g.items()) == {c_x: fw_fv_x}
    assert prefix.cyclic_term == functional(f_v, (fw_fv_x,))
    assert time.monotonic() - t0 < 5.0


def test_criterion_03_blocking_depends_on_the_closing_rule(bike4):
    two, three = bike_subset(2), bike_subset(3)
    assert is_uc_unblockable(two, HeadChoice.uniform(two, 1), bike_pivot(two))
    assert not is_uc_unblockable(
        three, HeadChoice.uniform(three, 1), bike_pivot(three))
    assert check(bike4, "RPC_s").result == NOT_DETECTED


def test_criterion_04_over_approximation_golden_sets():
    rules = bike_subset(2)
    pivot = bike_pivot(rules)
    hc1 = HeadChoice.uniform(rules, 1)

    d = constant("d")
    f_v = sk(rules.by_id["r1"], "V")
    f_w = sk(rules.by_id["r2"], "W")
    fvd = functional(f_v, (d,))
    c_v, c_w = uc_constant(f_v), uc_constant(f_w)

    expected = set()
    for pred, arity in rules.predicates.items():
        for combo in itertools.product((d, star()), repeat=arity):
            expected.add(Atom(pred, combo))
    expected |= {Atom("IsIn", (d, fvd)), Atom("Bike", (fvd,))}
    expected |= {
        Atom("IsIn", (star(), c_v)),
        Atom("Bike", (c_v,)),
        Atom("IsIn", (c_w, c_v)),
        Atom("Has", (star(), c_w)),
        Atom("Has", (d, c_w)),
        Atom("Has", (c_v, c_w)),
        Atom("Engine", (c_w,)),
    }

    with_hc = build_over_approx(rules, pivot, UC, hc1)
    assert set(with_hc.facts) == expected

    conj = build_over_approx(rules, pivot, UC)
    assert set(conj.facts) == expected | {Atom("Spare", (c_w,))}

    collapse = ConstantMapping({c_v: star(), c_w: star()})
    collapsed = {map_atom(collapse, a) for a in expected}
    for hc in (hc1, None):
        approx = build_over_approx(rules, pivot, STAR, hc)
        assert set(approx.facts) == collapsed


def test_criterion_05_uc_and_star_unblockability_separate(uc_star):
    r1 = uc_star.by_id["r1"]
    c_y = db_constant("Y")
    lam = trigger_of(r1, {X: c_y, Y: functional(next(iter(r1.sk_symbols)), (c_y,))})
    assert is_uc_unblockable(uc_star, HeadChoice.uniform(uc_star, 1), lam)
    assert not is_star_unblockable(uc_star, lam)


def test_criterion_06_reversibility_counterexamples(guard_rules, cond3):
    r1 = guard_rules.by_id["r1"]
    f_u = next(iter(r1.sk_symbols))
    f_v = next(iter(guard_rules.by_id["r2"].sk_symbols))
    c_x, c_y = db_constant("X"), db_constant("Y")
    fu = functional(f_u, (c_x, c_y))
    skel = skeleton(trigger_of(r1, {X: c_x, Y: fu}), guard_rules)
    assert skel == frozenset({c_x, c_y, fu})
    image = functional(f_v, (fu,))
    cert = check_reversible(ConstantMapping({c_x: image, c_y: image}), skel)
    assert not cert.reversible and cert.violated == 2

    g_u = next(iter(cond3.by_id["r1"].sk_symbols))
    g_v = next(iter(cond3.by_id["r2"].sk_symbols))
    g_w = next(iter(cond3.by_id["r3"].sk_symbols))
    c, d = constant("c"), constant("d")
    fud = functional(g_u, (d,))
    g = ConstantMapping({c: functional(g_w, (functional(g_v, (fud,)),)), d: d})
    cert = check_reversible(g, {c, d, fud})
    assert not cert.reversible and cert.violated == 3


def test_criterion_07_injectivity_guard_blocks_the_diamond(guard_rules):
    assert check(guard_rules, "RPC_s").result == NOT_DETECTED

    hc1 = HeadChoice.uniform(guard_rules, 1)
    r1 = guard_rules.by_id["r1"]
    unguarded = rpc_fact_set(guard_rules, hc1, r1, injectivity_guard=False)
    assert unguarded.cyclic_term is not None
    assert is_rho_cyclic(unguarded.cyclic_term, r1)


def test_criterion_08_colour_rules_diverge_only_on_merged_constants(colour):
    assert check(colour, "DRPC").result == NOT_DETECTED
    assert check(colour, "RPC_s").result == NOT_DETECTED

    a, b = constant("a"), constant("b")
    tree = run_chase(colour, [Atom("Cl1", (a,)), Atom("Cl2", (b,))])
    assert tree.status == COMPLETE
    t = functional(sk(colour.by_id["r1"], "U"), (a, b))
    s = functional(sk(colour.by_id["r2"], "V"), (a, t))
    [result] = results(tree)
    assert result == frozenset({
        Atom("Cl1", (a,)), Atom("Cl1", (b,)), Atom("Cl2", (b,)),
        Atom("Red", (a, t)), Atom("Red", (b, t)),
        Atom("Gr", (a, a)), Atom("Gr", (b, b)), Atom("Gr", (a, s)),
        Atom("Blu", (t, a)), Atom("Blu", (t, b)), Atom("Blu", (t, s)),
    })

    c = constant("c")
    merged = [Atom("Cl1", (c,)), Atom("Cl2", (c,))]
    for depth in (10, 20, 40):
        tree = run_chase(colour, merged,
                         ChaseBudget(max_depth=depth, max_term_depth=None))
        assert tree.status == BUDGET_EXHAUSTED


def _all_head_choices(rules):
    ids = [r.id for r in rules]
    ranges = [range(1, r.branching + 1) for r in rules]
    for combo in itertools.product(*ranges):
        yield HeadChoice(rules, dict(zip(ids, combo)))


def _assert_witness_grows(prefix, i):
    """Clause (d): three unrolls of the witness replay loaded from the
    pivot's rule database, and the deepest term of each block is deeper
    than the one before."""
    rolled = unroll_prefix(prefix, 3)
    block = len(prefix.triggers) - 1
    assert len(rolled) == 1 + 3 * block
    replay = FactSet(rule_database(prefix.rho).body_facts())
    for lam in rolled:
        assert is_loaded(lam, replay), f"set {i}: replay not loaded"
        replay.update(lam.out(
            1 if prefix.hc is None else prefix.hc.choice(lam.rule)))
    maxes = [
        max(max(t.depth for t in lam.substitution.values())
            for lam in rolled[1 + j * block:1 + (j + 1) * block])
        for j in range(3)
    ]
    assert maxes[0] < maxes[1] < maxes[2], \
        f"set {i}: term depth not strictly growing: {maxes}"


def test_criterion_09_theorem_shaped_property_suites():
    t0 = time.monotonic()
    rng = random.Random(424242)
    budget = SearchBudget(max_triggers=300, max_term_depth=4)
    cases = star_hits = drpc_cyclic = rpcs_cyclic = witnesses = 0
    mfa_terminating = rmfa_terminating = 0

    for i in range(520):
        rules = random_rule_set(rng)
        cases += 1

        rpcs = check(rules, "RPC_s", budget=budget)
        drpc = check(rules, "DRPC", budget=budget)
        acyclic = check_acyclic(rules, k=2, mode=MFA)
        # the mode classify runs
        rmfa = check_acyclic(rules, k=2)
        if rpcs.result == CYCLIC:
            rpcs_cyclic += 1

        # (b) a deterministic-rule certificate is also a head-choice one
        if drpc.result == CYCLIC:
            drpc_cyclic += 1
            assert rpcs.result == CYCLIC, f"set {i}: DRPC cyclic, RPC_s not"

        # (c) a proof of termination and a proof of divergence never coexist
        # in either acyclicity mode
        for verdict in (acyclic, rmfa):
            assert not (verdict.result == TERMINATING and
                        CYCLIC in (rpcs.result, drpc.result)), \
                f"set {i}: {verdict.stats['mode']} terminating and cyclic"
        mfa_terminating += acyclic.result == TERMINATING
        rmfa_terminating += rmfa.result == TERMINATING

        # (a) star-unblockable implies uc-unblockable under every head choice
        for lam in sample_triggers(rules, limit=6):
            if is_star_unblockable(rules, lam):
                star_hits += 1
                for hc in _all_head_choices(rules):
                    assert is_uc_unblockable(rules, hc, lam), \
                        f"set {i}: star-unblockable trigger blocked under {hc}"

        # (d) every witness prefix replays loaded and keeps growing
        for verdict in (rpcs, drpc):
            if verdict.witness is not None:
                witnesses += 1
                _assert_witness_grows(verdict.witness, i)

    elapsed = time.monotonic() - t0
    assert cases >= 500
    assert elapsed < 60.0
    # the generator must actually exercise every suite
    assert star_hits >= 150
    assert drpc_cyclic >= 20
    assert rpcs_cyclic >= 30
    assert witnesses >= 50
    assert mfa_terminating >= 300
    assert rmfa_terminating >= 400


@functools.cache
def _bench_verdicts():
    """DRPC, RPC_s, mfa and rmfa-like verdicts of classify-random
    structures 0-89, under criterion 09's budget; one pass shared by the
    two tests below."""
    budget = SearchBudget(max_triggers=300, max_term_depth=4)
    out = []
    for i in range(90):
        rules = bench_rule_set(i)
        out.append((i, check(rules, "DRPC", budget=budget),
                    check(rules, "RPC_s", budget=budget),
                    check_acyclic(rules, k=2, mode=MFA),
                    check_acyclic(rules, k=2)))
    return out


def test_criterion_09_suites_on_benchmark_structures():
    drpc_cyclic = rpcs_cyclic = mfa_terminating = witnesses = 0
    for i, drpc, rpcs, mfa, _ in _bench_verdicts():
        # (b) a deterministic-rule certificate is also a head-choice one
        if drpc.result == CYCLIC:
            drpc_cyclic += 1
            assert rpcs.result == CYCLIC, f"set {i}: DRPC cyclic, RPC_s not"
        rpcs_cyclic += rpcs.result == CYCLIC
        # (c) in mfa mode, a proof of termination never meets a cyclic one
        if mfa.result == TERMINATING:
            mfa_terminating += 1
            assert CYCLIC not in (rpcs.result, drpc.result), \
                f"set {i}: mfa terminating and cyclic"
        # (d) every witness prefix replays loaded and keeps growing
        for verdict in (rpcs, drpc):
            if verdict.witness is not None:
                witnesses += 1
                _assert_witness_grows(verdict.witness, i)
    assert drpc_cyclic >= 20
    assert rpcs_cyclic >= 50
    assert mfa_terminating >= 5
    assert witnesses >= 70


def test_criterion_09_clause_c_on_stratified_sets():
    # (c) on the benchmark's levelled 128-rule sets, seeds 1-5, which
    # terminate by construction: the mfa saturation certifies each, and
    # neither DRPC nor RPC_s finds a witness within 2,000 triggers per pair.
    stratified = perfbench_module("generators").stratified_rule_set
    budget = SearchBudget(max_triggers=2000)
    for seed in range(1, 6):
        rules = rules_from(stratified(random.Random(f"stratified/128/{seed}"), 128).text)
        assert check_acyclic(rules, k=2, mode=MFA).result == TERMINATING, seed
        for notion in ("DRPC", "RPC_s"):
            assert check(rules, notion, budget=budget).result != CYCLIC, (seed, notion)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_criterion_09_rmfa_like_clause_on_benchmark_structures():
    # (c) in the mode classify runs; structure 54 is judged both
    # rmfa-like terminating and cyclic.
    for i, drpc, rpcs, _, rmfa in _bench_verdicts():
        assert not (rmfa.result == TERMINATING and
                    CYCLIC in (rpcs.result, drpc.result)), \
            f"set {i}: rmfa-like terminating and cyclic"


# ROADMAP item 19's table budget, with no deadline, so every verdict below
# is deterministic.
TABLE_BUDGET = SearchBudget(max_triggers=3000, max_term_depth=6)


def cross_notion_conflicts(mode: str, cases, notions=(DRPC, RPC_S),
                           seconds: float | None = None) -> tuple[int, int, list]:
    """The (key, rules) cases that check_acyclic certifies in mode, counted,
    the comparisons decided on them and the keys of those that a notion of
    notions finds cyclic, all under TABLE_BUDGET; with seconds, each
    cyclicity check also gets a deadline that far ahead. A set the mode does
    not certify cannot conflict, so only certified sets are checked for
    cyclicity, with every notion. A comparison is decided when the notion's
    check does not run out of budget."""
    certified, decided, conflicts = 0, 0, []
    for key, rules in cases:
        if check_acyclic(rules, k=2, budget=TABLE_BUDGET, mode=mode).result \
                != TERMINATING:
            continue
        certified += 1
        answers = []
        for notion in notions:
            budget = TABLE_BUDGET if seconds is None else dataclasses.replace(
                TABLE_BUDGET, deadline=time.monotonic() + seconds)
            answers.append(check(rules, notion, budget).result)
        decided += sum(answer != RESOURCE_EXHAUSTED for answer in answers)
        if CYCLIC in answers:
            conflicts.append(key)
    return certified, decided, conflicts


def generality_order_violations(cases, seconds: float | None = None
                                ) -> tuple[Counter, list]:
    """DRPC ⊆ RPC_s ⊆ RPC as a relation on (key, rules) cases: every
    notion's check runs under TABLE_BUDGET, with seconds a deadline that
    far ahead of each check, and a notion is compared with the next on a
    case only when neither check ran out of budget. Returns the counts of
    cyclic verdicts per notion and of decided comparisons, and the
    (key, notion, containing notion) of each comparison where the first
    finds the case cyclic and the second does not. RPC_s ⊆ RPC is proved
    (test_generality_record_orders_the_notions); DRPC ⊆ RPC_s is only
    observed, so a violation of it is a finding to look at, not a proof of
    a fault."""
    seen: Counter = Counter()
    violations = []
    for key, rules in cases:
        answers = {}
        for notion in (DRPC, RPC_S, cyc.RPC):
            budget = TABLE_BUDGET if seconds is None else dataclasses.replace(
                TABLE_BUDGET, deadline=time.monotonic() + seconds)
            answers[notion] = check(rules, notion, budget).result
            seen[notion] += answers[notion] == CYCLIC
        for notion, containing in ((DRPC, RPC_S), (RPC_S, cyc.RPC)):
            if RESOURCE_EXHAUSTED in (answers[notion], answers[containing]):
                continue
            seen["decided"] += 1
            if answers[notion] == CYCLIC != answers[containing]:
                violations.append((key, notion, containing))
    return seen, violations


def test_sample_sets_keep_the_generality_order():
    # ROADMAP item 24: DRPC ⊆ RPC_s ⊆ RPC on the first 300 sample sets,
    # with no deadline, so every comparison is decided; CI's "Generality
    # order sweep" runs all 3,000 with a 1 s deadline per check. 18, 29
    # and 30 sets were cyclic.
    seen, violations = generality_order_violations(sweep_cases(300))
    assert violations == [] and seen["decided"] == 600
    assert seen[DRPC] >= 15 and seen[RPC_S] >= 25 and seen[cyc.RPC] >= 25


def test_no_certified_structure_is_found_cyclic():
    # ROADMAP item 19: no rule set is both acyclicity-terminating and DRPC-
    # or RPC_s-cyclic, on structures 0-119. rmfa-like certifies structure
    # 54, which RPC_s finds cyclic (ROADMAP item 1); any other conflict is
    # new and fails here. CI runs the relation, with RPC, on the first
    # 3,000 sample sets.
    certified, decided, conflicts = cross_notion_conflicts(MFA, bench_cases(range(120)))
    assert certified >= 9 and decided == 2 * certified and conflicts == []
    certified, _, conflicts = cross_notion_conflicts(RMFA_LIKE, bench_cases(range(120)))
    assert certified >= 27 and set(conflicts) <= {54}


def test_generality_record_replays_golden_fixture():
    """tests/data/generality_golden.json holds each notion's verdict word
    on structures 0-119 under the table budget: the paper's generality
    table. This replays every column but RPC, the slowest; CI replays RPC
    too. Running tests/generality.py as a script records it again;
    re-record it only together with a CHANGES.md note that names each
    verdict that moved."""
    want = json.loads(generality.GOLDEN.read_text(encoding="utf-8"))
    assert len(want) == 120
    assert all(sorted(row) == sorted(generality.COLUMNS) for row in want.values())
    columns = [column for column in generality.COLUMNS if column != cyc.RPC]
    assert generality.outcomes(columns) == {
        name: {column: row[column] for column in columns}
        for name, row in want.items()}


def test_generality_record_orders_the_notions():
    """The inclusions between notions, read off the generality fixture.

    RPC_s ⊆ RPC is proved: RPC_s searches the uniform head choices, which
    are head choices, so every (head choice, pivot) pair RPC_s finds cyclic
    is one that RPC searches too. The trigger budget is per saturation and
    a pair saturates as it does alone, so with no deadline RPC finds that
    pair or an earlier one cyclic. `mfa` ⊆ `rmfa-like` is proved as well:
    blocking only drops triggers, so the `rmfa-like` saturation stays
    inside the `mfa` one and, under the same budget, reaches its fixpoint
    whenever `mfa` does, with no k-cyclic term. DRPC ⊆ RPC_s is only
    observed: DRPC abstracts
    with the special constant and RPC_s with unique constants, and DRPC's
    pivots are deterministic, so no argument here makes it hold on every
    rule set; it is pinned on these 120 structures and fails loudly if a
    change breaks it. The counts were 35 ⊆ 75 ⊆ 79 and 9 ⊆ 27."""
    table = json.loads(generality.GOLDEN.read_text(encoding="utf-8"))

    def having(column: str, word: str) -> set[str]:
        return {name for name, row in table.items() if row[column] == word}

    drpc, rpcs, rpc = (having(notion, CYCLIC) for notion in (DRPC, RPC_S, cyc.RPC))
    mfa, rmfa_like = (having(mode, TERMINATING) for mode in (MFA, RMFA_LIKE))
    assert rpcs <= rpc
    assert drpc <= rpcs
    assert mfa <= rmfa_like
    assert drpc and mfa


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_rmfa_like_does_not_certify_a_cyclic_structure():
    # Structure 54, rmfa-like's one conflict on structures 0-119.
    certified, _, conflicts = cross_notion_conflicts(RMFA_LIKE, bench_cases([54]))
    assert (certified, conflicts) == (1, [])


def test_criterion_10_oracle_equivalence(monkeypatch):
    rng = random.Random(777)
    approx_cases = 0
    for i in range(40):
        rules = random_rule_set(rng)
        hcs = [None, HeadChoice.uniform(rules, 1), HeadChoice.uniform(rules, 2)]
        for pivot in sample_triggers(rules, depth_cap=2, limit=3):
            if not pivot.rule.is_generating:
                continue
            for hc in hcs:
                for kind in (STAR, UC):
                    got = set(build_over_approx(rules, pivot, kind, hc).facts)
                    assert got == naive_over_approx(rules, pivot, kind, hc), \
                        (i, kind, hc)
                    approx_cases += 1
    assert approx_cases >= 300

    # saturation with blocking and injectivity switched off is the plain
    # depth-capped fixpoint of chosen outputs
    monkeypatch.setattr(cyc, "is_uc_unblockable", lambda *a, **k: True)
    monkeypatch.setattr(cyc, "is_star_unblockable", lambda *a, **k: True)
    rng = random.Random(778)
    exact = containments = 0
    budget = SearchBudget(max_triggers=None, max_term_depth=3)
    for i in range(40):
        rules = random_rule_set(rng, max_rules=3)
        for rho in rules:
            if not rho.is_generating:
                continue
            for hc in (HeadChoice.uniform(rules, 1),
                       HeadChoice.uniform(rules, 2)):
                run = cyc.rpc_fact_set(rules, hc, rho, budget,
                                       injectivity_guard=False)
                want = naive_saturation(rules, rho, hc, depth_cap=3)
                got = set(run.facts)
                if run.cyclic_term is None:
                    assert got == want, (i, rho.id, hc)
                    exact += 1
                else:
                    # the engine stops at the first cyclic term; the full
                    # fixpoint extends it and is itself cyclic
                    assert got <= want, (i, rho.id, hc)
                    pool = {t for a in want for x in a.terms
                            for t in subterms(x)}
                    assert any(is_rho_cyclic(t, rho) for t in pool), (i, rho.id)
                    containments += 1
    assert exact >= 50 and containments >= 10

    # obsoleteness against the brute-force witness enumerator, on fact sets
    # with functional terms
    monkeypatch.undo()
    rng = random.Random(779)
    consts = [constant(n) for n in ("a", "b", "c")]
    checked = 0
    for _ in range(80):
        rules = random_rule_set(rng)
        facts = FactSet()
        preds = sorted(rules.predicates.items())
        for _ in range(rng.randint(2, 6)):
            pred, arity = rng.choice(preds)
            facts.update([Atom(pred, tuple(
                rng.choice(consts) for _ in range(arity)))])
        for rule in rules:
            if rule.is_generating:
                for sub in itertools.islice(
                        match_conjunction(rule.body, {}, facts), 2):
                    facts.update(trigger_of(rule, sub).out(1))
                break
        if len({t for fact in facts for t in fact.terms}) > 12:
            continue
        for rule in rules:
            for sub in match_conjunction(rule.body, {}, facts):
                lam = trigger_of(rule, sub)
                assert is_obsolete(lam, facts) == oracle_obsolete(lam, facts)
                checked += 1
    assert checked >= 100
