import itertools
import json
import random
import time

import pytest

import chase_sentinel.cyclicity as cyc
from chase_sentinel import corpus_dir
from chase_sentinel.cyclicity import (
    AppliedTrigger,
    CYCLIC,
    InternalInconsistencyError,
    NOT_DETECTED,
    RESOURCE_EXHAUSTED,
    check,
    drpc_fact_set,
    extract_prefix,
    rpc_fact_set,
    rule_database,
    unroll_prefix,
)
from chase_sentinel.matcher import FactSet, HeadChoice
from chase_sentinel.model import (
    Atom,
    ConstantMapping,
    RuleSet,
    constant,
    db_constant,
    functional,
    is_rho_cyclic,
    variable,
)
from chase_sentinel.ruleio import parse
from chase_sentinel.termination import SearchBudget

import bench_cyclicity
from conftest import (bench_rule_set, bike_subset, in_order_check, is_loaded,
                      naive_rpc, random_rule_set, rematch_saturation, rules_from,
                      trigger_of)


X, Y = variable("X"), variable("Y")


def bike_symbols(rules):
    f_v = next(iter(rules.by_id["r1"].sk_symbols))
    f_w = next(iter(rules.by_id["r2"].sk_symbols))
    return f_v, f_w


def test_rule_database_one_constant_per_variable():
    rules = rules_from(
        "Engine(X) -> IsIn(X, V), Bike(V) | Spare(X) .\n"
        "P(X, Y) -> R(X, U), S(Y, U) .\n"
        "Q(X, X) -> R(X, U) .\n")
    r1, r2, r3 = rules.rules
    assert set(rule_database(r1).body_facts()) == {
        Atom("Engine", (db_constant("X"),))}
    assert set(rule_database(r2).body_facts()) == {
        Atom("P", (db_constant("X"), db_constant("Y")))}
    assert set(rule_database(r3).body_facts()) == {
        Atom("Q", (db_constant("X"), db_constant("X")))}


def test_rpc_saturation_finds_the_bike_regeneration(bike2):
    hc1 = HeadChoice.uniform(bike2, 1)
    run = rpc_fact_set(bike2, hc1, bike2.by_id["r1"])
    f_v, f_w = bike_symbols(bike2)
    c_x = db_constant("X")
    assert run.cyclic_term == functional(
        f_v, (functional(f_w, (functional(f_v, (c_x,)),)),))
    prefix = extract_prefix(run)
    assert [t.rule.id for t in prefix.triggers] == ["r1", "r2", "r1"]
    assert prefix.triggers[0].substitution == {X: c_x}
    assert prefix.triggers[1].substitution == {X: functional(f_v, (c_x,))}
    assert prefix.triggers[2].substitution == {
        X: functional(f_w, (functional(f_v, (c_x,)),))}
    assert dict(prefix.g.items()) == {
        c_x: functional(f_w, (functional(f_v, (c_x,)),))}


def test_rpc_saturation_blocked_by_the_closing_rules(bike4):
    hc1 = HeadChoice.uniform(bike4, 1)
    for rho_id in ("r1", "r2"):
        run = rpc_fact_set(bike4, hc1, bike4.by_id[rho_id])
        assert run.cyclic_term is None
        assert not run.truncated


def test_rpc_saturation_rejects_non_generating_rules(bike4):
    hc1 = HeadChoice.uniform(bike4, 1)
    with pytest.raises(ValueError):
        rpc_fact_set(bike4, hc1, bike4.by_id["r3"])


def test_injectivity_guard_separates_the_diamond(guard_rules):
    hc1 = HeadChoice.uniform(guard_rules, 1)
    r1 = guard_rules.by_id["r1"]
    r2 = guard_rules.by_id["r2"]

    for rho in (r1, r2):
        run = rpc_fact_set(guard_rules, hc1, rho)
        assert run.cyclic_term is None

    unguarded = rpc_fact_set(guard_rules, hc1, r1, injectivity_guard=False)
    assert unguarded.cyclic_term is not None
    assert is_rho_cyclic(unguarded.cyclic_term, r1)
    f_u = next(iter(r1.sk_symbols))
    f_v = next(iter(r2.sk_symbols))
    s = functional(f_v, (functional(f_u, (db_constant("X"),
                                          db_constant("Y"))),))
    assert unguarded.cyclic_term == functional(f_u, (s, s))

    # The second generating rule never reapplies to its own output, guard
    # or no guard.
    assert rpc_fact_set(
        guard_rules, hc1, r2, injectivity_guard=False).cyclic_term is None


def test_drpc_skips_disjunctive_rules(bike2):
    run = drpc_fact_set(bike2, bike2.by_id["r2"])
    assert run.cyclic_term is None
    assert not run.truncated
    with pytest.raises(ValueError):
        drpc_fact_set(bike2, bike2.by_id["r1"])


def test_drpc_on_the_self_loop():
    rules = rules_from("A(X) -> R(X, Y), A(Y) .\n")
    rho = rules.rules[0]
    run = drpc_fact_set(rules, rho)
    f_y = next(iter(rho.sk_symbols))
    c_x = db_constant("X")
    assert run.cyclic_term == functional(f_y, (functional(f_y, (c_x,)),))
    prefix = extract_prefix(run)
    assert [t.rule.id for t in prefix.triggers] == ["r1", "r1"]
    assert dict(prefix.g.items()) == {c_x: functional(f_y, (c_x,))}


def test_drpc_watch_reads_both_argument_positions():
    # The fresh term lands in argument 1 of the first loop and in argument
    # 2 of the second, so a watch that skips a position misses it there and
    # runs into the trigger budget instead.
    for text, x in (("P(X, Y) -> P(Z, X) .\n", "X"),
                    ("P(X, Y) -> P(Y, Z) .\n", "Y")):
        rules = rules_from(text)
        rho = rules.by_id["r1"]
        (f_z,) = rho.sk_symbols
        run = drpc_fact_set(rules, rho, SearchBudget(max_triggers=200))
        assert run.cyclic_term is functional(
            f_z, (functional(f_z, (db_constant(x),)),)), text
        assert len(run.provenance) == 2 and not run.truncated


def test_check_rpcs_on_the_bike_rules(bike2):
    verdict = check(bike2, "RPC_s")
    assert verdict.result == CYCLIC
    assert verdict.notion == "RPC_s"
    assert verdict.witness is not None
    assert len(verdict.witness.triggers) == 3
    assert verdict.stats["saturations"] >= 1
    assert verdict.stats["elapsed_ms"] >= 0


def test_check_rpc_full_enumeration(bike2, bike4):
    assert check(bike2, "rpc").result == CYCLIC
    verdict = check(bike4, "RPC")
    assert verdict.result == NOT_DETECTED
    assert verdict.witness is None


def test_check_is_negative_on_the_terminating_sets(bike4, guard_rules, colour):
    for rules in (bike4, guard_rules, colour):
        assert check(rules, "RPC_s").result == NOT_DETECTED
        assert check(rules, "DRPC").result == NOT_DETECTED


def test_check_drpc_on_the_two_rule_loop():
    rules = rules_from("A(X) -> R(X, Y) .\nR(X, Y) -> A(Y) .\n")
    verdict = check(rules, "DRPC")
    assert verdict.result == CYCLIC
    assert verdict.notion == "DRPC"
    prefix = verdict.witness
    assert [t.rule.id for t in prefix.triggers] == ["r1", "r2", "r1"]
    f_y = next(iter(rules.by_id["r1"].sk_symbols))
    c_x = db_constant("X")
    assert prefix.cyclic_term == functional(f_y, (functional(f_y, (c_x,)),))
    assert check(rules, "RPC_s").result == CYCLIC


def test_check_separates_uc_from_star(uc_star):
    rpcs = check(uc_star, "RPC_s")
    assert rpcs.result == CYCLIC
    prefix = rpcs.witness
    assert [t.rule.id for t in prefix.triggers] == ["r1", "r1"]
    c_x, c_y = db_constant("X"), db_constant("Y")
    f_u = next(iter(uc_star.by_id["r1"].sk_symbols))
    assert prefix.triggers[1].substitution == {
        X: c_y, Y: functional(f_u, (c_y,))}
    assert dict(prefix.g.items()) == {
        c_x: c_y, c_y: functional(f_u, (c_y,))}
    assert prefix.cyclic_term == functional(f_u, (functional(f_u, (c_y,)),))

    assert check(uc_star, "DRPC").result == NOT_DETECTED


def test_check_rejects_unknown_notions(bike2):
    with pytest.raises(ValueError):
        check(bike2, "weak")


def test_budget_exhaustion_is_a_verdict(bike2):
    tight = check(bike2, "RPC_s", SearchBudget(max_triggers=2))
    assert tight.result == RESOURCE_EXHAUSTED
    assert tight.witness is None
    shallow = check(bike2, "RPC_s", SearchBudget(max_term_depth=2))
    assert shallow.result == RESOURCE_EXHAUSTED
    timed = check(bike2, "RPC_s", SearchBudget(deadline=time.monotonic() - 1.0))
    assert timed.result == RESOURCE_EXHAUSTED
    assert timed.stats["saturations"] == 0


def test_a_saturation_suspended_past_its_deadline_truncates_on_resume(bike2):
    # The deadline is absolute: a saturation suspended after its seed until
    # the deadline has passed, as check suspends a pair between rounds,
    # truncates when resumed, without applying another trigger.
    hc1, rho = HeadChoice.uniform(bike2, 1), bike2.by_id["r1"]
    untimed = rpc_fact_set(bike2, hc1, rho)
    assert len(untimed.provenance) > 1
    run = cyc._pair_run(bike2, rho, hc1)
    steps = cyc._saturate(run, SearchBudget(deadline=time.monotonic() + 0.05))
    next(steps)
    assert len(run.provenance) == 1
    time.sleep(0.1)
    for _ in steps:
        pass
    assert run.truncated
    assert run.provenance == untimed.provenance[:1]
    assert run.cyclic_term is None


def test_unroll_repeats_with_mapping_powers(bike2):
    verdict = check(bike2, "RPC_s")
    prefix = verdict.witness
    assert unroll_prefix(prefix, 1) == list(prefix.triggers)

    rolled = unroll_prefix(prefix, 3)
    assert len(rolled) == 1 + 2 * 3
    replay = FactSet(rule_database(prefix.rho).body_facts())
    depths = []
    for trigger in rolled:
        assert is_loaded(trigger, replay)
        replay.update(prefix.hc.out(trigger))
        depths.append(max(t.depth for t in trigger.frontier_image()))
    assert depths[1::2] == sorted(depths[1::2])
    assert depths[-1] > depths[1]

    with pytest.raises(ValueError):
        unroll_prefix(prefix, 0)


def test_extract_prefix_requires_a_cyclic_run(bike4):
    hc1 = HeadChoice.uniform(bike4, 1)
    run = rpc_fact_set(bike4, hc1, bike4.by_id["r1"])
    with pytest.raises(ValueError):
        extract_prefix(run)


def test_extract_prefix_traps_corrupted_logs(bike2):
    hc1 = HeadChoice.uniform(bike2, 1)
    run = rpc_fact_set(bike2, hc1, bike2.by_id["r1"])
    assert run.cyclic_term is not None
    entry = run.provenance[1]
    bad = trigger_of(entry.trigger.rule, {X: db_constant("Y")})
    run.provenance[1] = AppliedTrigger(bad, entry.new)
    with pytest.raises(InternalInconsistencyError):
        extract_prefix(run)
    # The whole log renamed to other constants replays among itself, but
    # its seed is not the rule database.
    run = rpc_fact_set(bike2, hc1, bike2.by_id["r1"])
    rename = ConstantMapping({db_constant(v.name): db_constant(v.name + "_o")
                              for v in run.rho.body_vars})
    run.provenance = [
        AppliedTrigger(
            trigger_of(a.trigger.rule, {v: rename.apply(t)
                                     for v, t in a.trigger.substitution.items()}),
            tuple(Atom(f.predicate, tuple(rename.apply(t) for t in f.terms))
                  for f in a.new))
        for a in run.provenance]
    with pytest.raises(InternalInconsistencyError,
                       match="prefix trigger 0 is not loaded"):
        extract_prefix(run)


def test_extract_prefix_checks_the_reported_cyclic_term(bike2):
    # The reported term wrapped once more in its own symbol is still
    # rho-cyclic, but no argument of the final output.
    run = rpc_fact_set(bike2, HeadChoice.uniform(bike2, 1), bike2.by_id["r1"])
    t = run.cyclic_term
    assert is_rho_cyclic(t, run.rho)
    extract_prefix(run)
    run.cyclic_term = functional(t.symbol, (t, *t.args[1:]))
    assert is_rho_cyclic(run.cyclic_term, run.rho)
    with pytest.raises(InternalInconsistencyError, match="reported cyclic term"):
        extract_prefix(run)


def test_semi_naive_rounds_apply_the_triggers_of_full_rematching(monkeypatch):
    # With blocking stubbed out, every hc_1, hc_2 and DRPC saturation of
    # random sets of up to 8 rules, and of the first twelve benchmark
    # structures of 8 to 16 rules, applies the triggers that re-matching
    # every rule each round applies, in the same order.
    monkeypatch.setattr(cyc, "is_uc_unblockable", lambda *a, **k: True)
    monkeypatch.setattr(cyc, "is_star_unblockable", lambda *a, **k: True)
    rng = random.Random(91)
    sample = [random_rule_set(rng, max_rules=8) for _ in range(150)]
    sample += [bench_rule_set(i) for i in range(12)]
    budget = SearchBudget(max_triggers=100, max_term_depth=4)
    runs = bench_runs = cyclic = truncated = long_runs = 0
    for i, rules in enumerate(sample):
        for rho in rules:
            if not rho.is_generating:
                continue
            cases = [(HeadChoice.uniform(rules, 1), "hc_1"),
                     (HeadChoice.uniform(rules, 2), "hc_2")]
            if rho.is_deterministic:
                cases.append((None, "DRPC"))
            for hc, label in cases:
                if hc is None:
                    run = cyc.drpc_fact_set(rules, rho, budget)
                else:
                    run = cyc.rpc_fact_set(rules, hc, rho, budget)
                got = [a.trigger for a in run.provenance]
                assert got == rematch_saturation(rules, rho, hc, budget), \
                    (i, rho.id, label)
                runs += 1
                bench_runs += i >= 150
                cyclic += run.cyclic_term is not None
                truncated += len(got) == budget.max_triggers
                long_runs += len(got) > len(rules) + 1
    assert runs - bench_runs >= 700 and bench_runs >= 300
    assert cyclic >= 100 and truncated >= 10 and long_runs >= 100


def rpc_sample():
    """60 small sets with a disjunctive rule, then the first six 8-rule
    benchmark structures with one to three disjunctive rules."""
    rng = random.Random(17)
    sets = 0
    while sets < 60:
        rules = random_rule_set(rng, max_rules=6)
        if not all(r.is_deterministic for r in rules):
            sets += 1
            yield rules
    bench = (bench_rule_set(i) for i in itertools.count(0, 3))
    yield from itertools.islice(
        (rules for rules in bench
         if 1 <= sum(not r.is_deterministic for r in rules) <= 3), 6)


def test_rpc_is_the_full_enumeration():
    # check saturates the notion's (head choice, pivot) pairs in rounds of
    # doubling trigger quotas, resuming each suspended saturation; the
    # restart form of that schedule, with fresh unblockability answers for
    # every saturation, gives the same result, witness and pairs started.
    # RPC on small sets, DRPC and RPC_s on the benchmark structures.
    # A witness of more than 4 triggers came from a resumed saturation: 3
    # of them today, one RPC and two RPC_s, among 28 cyclic bench verdicts.
    budget = SearchBudget(max_triggers=200)
    sets = cyclic = resumed = 0
    for sets, rules in enumerate(rpc_sample(), start=1):
        verdict = check(rules, "rpc", budget)
        result, witness, runs = naive_rpc(rules, budget)
        assert (verdict.result, verdict.witness) == (result, witness), sets
        assert verdict.stats["saturations"] == runs, sets
        cyclic += result == CYCLIC
        resumed += witness is not None and len(witness.triggers) > 4
    assert sets == 66 and cyclic >= 12
    cyclic = 0
    for i in range(30):
        rules = bench_rule_set(i)
        for notion in (cyc.DRPC, cyc.RPC_S):
            verdict = check(rules, notion, bench_cyclicity.BUDGET)
            result, witness, runs = naive_rpc(rules, bench_cyclicity.BUDGET, notion)
            assert (verdict.result, verdict.witness, verdict.stats["saturations"]) \
                == (result, witness, runs), (i, notion)
            cyclic += result == CYCLIC
            resumed += witness is not None and len(witness.triggers) > 4
    assert cyclic >= 25 and resumed >= 3


def replay_witness(prefix):
    """Three unrolls of the witness, replayed from the pivot's rule
    database: every trigger must be loaded when its turn comes."""
    facts = FactSet(rule_database(prefix.rho).body_facts())
    for trigger in unroll_prefix(prefix, 3):
        assert is_loaded(trigger, facts)
        facts.update(trigger.out(1) if prefix.hc is None else prefix.hc.out(trigger))


def check_schedule_agreement(structures):
    """On each benchmark structure, untimed under the fixture's budget, the
    round schedule of DRPC and RPC_s gives the result of saturating the
    pairs one after another, and each witness replays. Returns the number
    of cyclic verdicts and of those whose witness is not the in-order
    search's."""
    cyclic = moved = 0
    for i in structures:
        rules = bench_rule_set(i)
        for notion in (cyc.DRPC, cyc.RPC_S):
            verdict = check(rules, notion, bench_cyclicity.BUDGET)
            result, witness = in_order_check(rules, notion, bench_cyclicity.BUDGET)
            assert verdict.result == result, (i, notion)
            if verdict.witness is not None:
                replay_witness(verdict.witness)
                cyclic += 1
                moved += verdict.witness != witness
    return cyclic, moved


def test_round_schedule_agrees_with_the_in_order_search():
    # 28 cyclic verdicts on structures 0-29 today, every witness the
    # in-order one; CI runs structures 0-89.
    cyclic, _ = check_schedule_agreement(range(30))
    assert cyclic >= 25


def test_one_cache_serves_drpc_and_rpcs():
    # Every star question of RPC_s on structure 11, each asked before a
    # unique-constants build, was built by DRPC already: two checks on one
    # rule set share its cache, so the RPC_s check builds nothing and gives
    # the verdict it gives on a rule set of its own.
    rules = bench_rule_set(11)
    alone = check(RuleSet(rules.rules), cyc.RPC_S, bench_cyclicity.BUDGET)
    drpc = check(rules, cyc.DRPC, bench_cyclicity.BUDGET)
    shared = check(rules, cyc.RPC_S, bench_cyclicity.BUDGET)
    assert (shared.result, shared.witness) == (alone.result, alone.witness)
    assert alone.stats["approx_builds"] == drpc.stats["approx_builds"] == 3
    assert shared.stats["approx_builds"] == 0
    assert shared.stats["unblockability_cache_hits"] == \
        alone.stats["unblockability_cache_hits"] + 3
    assert shared.stats["unblockability_star_answers"] == \
        alone.stats["unblockability_star_answers"] == 3
    # The stats count each call's own work.
    cache = rules.unblockability
    assert cache.builds == 3 and cache.star_answers == 3


def test_repeated_checks_on_one_rule_set_match_fresh_rule_sets(monkeypatch):
    # A rule set keeps the unblockability answers of every check on it. Two
    # checks per notion on one rule set, DRPC before RPC_s as classify runs
    # them, give the verdicts and witnesses that a check on a fresh rule set
    # of the same rules gives. A second check asks the first one's questions
    # again, and answers every non-datalog one from the cache.
    questions = 0

    def counted(ask):
        def wrapper(*args):
            nonlocal questions
            questions += not args[-1].rule.is_datalog
            return ask(*args)
        return wrapper

    monkeypatch.setattr(cyc, "is_star_unblockable", counted(cyc.is_star_unblockable))
    monkeypatch.setattr(cyc, "is_uc_unblockable", counted(cyc.is_uc_unblockable))
    corpus = [parse(path.read_text(encoding="utf-8")).rules
              for path in sorted(corpus_dir().glob("*.drls"))]
    sets = built = hits = cyclic = 0
    for rules in itertools.chain(corpus, map(bench_rule_set, range(40))):
        sets += 1
        for notion in (cyc.DRPC, cyc.RPC_S):
            fresh = check(RuleSet(rules.rules), notion, bench_cyclicity.BUDGET)
            questions = 0
            first = check(rules, notion, bench_cyclicity.BUDGET)
            asked, questions = questions, 0
            second = check(rules, notion, bench_cyclicity.BUDGET)
            for verdict in (first, second):
                assert (verdict.result, verdict.witness,
                        verdict.stats["saturations"]) == \
                    (fresh.result, fresh.witness, fresh.stats["saturations"]), \
                    (sets, notion)
            assert questions == asked
            assert (second.stats["approx_builds"], second.stats["approx_triggers"],
                    second.stats["unblockability_star_answers"]) == (0, 0, 0)
            assert second.stats["unblockability_cache_hits"] == asked
            built += first.stats["approx_builds"]
            hits += asked
            cyclic += fresh.result == CYCLIC
    # 650 builds, 1,785 second-check hits and 42 cyclic verdicts today.
    assert sets == 53
    assert built >= 550 and hits >= 1300 and cyclic >= 30


def test_witnesses_hash_and_repeat_across_checks():
    # A witness is a frozen dataclass and hashes through its fields, the
    # head choice and the constant mapping among them. Two checks of one
    # rule set give equal witnesses with equal hashes, and the witnesses of
    # distinct (rule set, notion) pairs are distinct.
    witnesses = set()
    found = {cyc.DRPC: 0, cyc.RPC_S: 0}
    for path in sorted(corpus_dir().glob("*.drls")):
        rules = parse(path.read_text(encoding="utf-8")).rules
        for notion in found:
            first, second = (check(rules, notion, bench_cyclicity.BUDGET).witness
                             for _ in range(2))
            assert first == second and hash(first) == hash(second), (path, notion)
            if first is not None:
                witnesses.update((first, second))
                found[notion] += 1
    assert len(witnesses) == sum(found.values())
    assert found == {cyc.DRPC: 2, cyc.RPC_S: 6}


def test_bench_verdicts_replay_golden_fixture():
    """tests/data/bench_cyclicity_golden.json holds the DRPC and RPC_s
    verdicts of classify-random corpus structures 0-29 under one trigger
    and term-depth budget, with the times cut: results, witnesses and the
    unblockability counters. Running tests/bench_cyclicity.py as a script
    records it again; re-record it only together with a CHANGES.md note
    that names what changed."""
    want = json.loads(bench_cyclicity.GOLDEN.read_text(encoding="utf-8"))
    assert len(want) == 30
    got = bench_cyclicity.outcomes()
    assert sorted(got) == sorted(want)
    for name, runs in want.items():
        assert got[name] == runs, name
