import gc
import itertools
import random
import weakref

import pytest

from chase_sentinel import approx as approx_module
from chase_sentinel.approx import (
    STAR,
    UC,
    UnblockabilityCache,
    _is_unblockable,
    _fill,
    _Seed,
    _seed,
    _seed_blocks,
    birth_facts,
    build_over_approx,
    check_reversible,
    is_star_unblockable,
    is_uc_unblockable,
    skeleton,
    unblockability_cache,
)
from chase_sentinel.cli import classify_rules
from chase_sentinel.matcher import FactSet, HeadChoice, discover, is_obsolete
from chase_sentinel.model import (
    _TABLE,
    Atom,
    Constant,
    ConstantMapping,
    constant,
    db_constant,
    functional,
    star,
    subterms,
    uc_constant,
    variable,
)

from conftest import (
    NotReversibleError,
    _oracle_abstract,
    bench_rule_set,
    bench_text,
    bike_pivot,
    bike_subset,
    map_atom,
    naive_over_approx,
    random_rule_set,
    rules_from,
    sample_triggers,
    transport_trigger,
    trigger_of,
)
from test_model import _construction_sets, frontier_images


def bike_abstraction(kind):
    """The oracle abstraction around the bike pivot's skeleton, and the
    bike symbols f_V and f_W."""
    rules = bike_subset(2)
    skel = skeleton(bike_pivot(rules), rules)
    uc_names = {uc_constant(s) for r in rules for s in r.sk_symbols}
    f_v = next(s for s in rules.by_id["r1"].sk_symbols if s.var == "V")
    f_w = next(s for s in rules.by_id["r2"].sk_symbols if s.var == "W")
    return (lambda t: _oracle_abstract(kind, skel, uc_names, t)), f_v, f_w


def test_star_abstraction_maps_skeleton_to_itself_rest_to_star():
    abstract, f_v, f_w = bike_abstraction(STAR)
    d = constant("d")
    fvd = functional(f_v, (d,))
    assert abstract(d) == d
    assert abstract(fvd) == fvd
    assert abstract(constant("e")) == star()
    assert abstract(functional(f_w, (fvd,))) == star()


def test_uc_abstraction_names_fresh_terms_per_symbol():
    abstract, f_v, f_w = bike_abstraction(UC)
    d = constant("d")
    fvd = functional(f_v, (d,))
    assert abstract(fvd) == fvd
    assert abstract(functional(f_w, (fvd,))) == uc_constant(f_w)
    assert abstract(functional(f_v, (constant("e"),))) == uc_constant(f_v)
    assert abstract(uc_constant(f_w)) == uc_constant(f_w)
    assert abstract(constant("e")) == star()


def test_hc_set_is_contained_in_the_conjunctive_set():
    rules = bike_subset(2)
    pivot = bike_pivot(rules)
    for kind in (UC, STAR):
        conj = build_over_approx(rules, pivot, kind)
        for i in (1, 2):
            hc = HeadChoice.uniform(rules, i)
            with_hc = build_over_approx(rules, pivot, kind, hc)
            assert set(with_hc.facts) <= set(conj.facts)


def test_over_approximation_matches_naive_oracle_on_bike_pivot():
    rules = bike_subset(2)
    pivot = bike_pivot(rules)
    hc1 = HeadChoice.uniform(rules, 1)
    assert set(build_over_approx(rules, pivot, UC, hc1).facts) == \
        naive_over_approx(rules, pivot, "uc", hc1)
    assert set(build_over_approx(rules, pivot, STAR).facts) == \
        naive_over_approx(rules, pivot, "star")


def loaded_keys(rules, facts, variables):
    """The (rule id, image) keys of the triggers loaded in the facts, with
    the image taken on rule.<variables>."""
    keys = set()
    for rule, *image in discover(rules, facts):
        sub = dict(zip(rule.body_vars, image))
        keys.add((rule.id, tuple(sub[v] for v in getattr(rule, variables))))
    return keys


def small_rule_sets():
    rng = random.Random(5)
    sets = 0
    while sets < 10:
        rules = random_rule_set(rng, max_rules=8)
        if len(rules) >= 5:
            sets += 1
            yield rules


# classify-random corpus structures of 8, 12 and 16 rules: those among the
# first 30 whose twelve oracle comparisons below take under half a second
# on a 2-core x86 host. The others take 0.5-1.3 s each, and structure 8
# takes 8 s.
BENCH_STRUCTURES = (0, 3, 4, 5, 6, 9, 10, 11, 12, 13, 14, 15, 17, 18, 19, 21,
                    23, 25, 26, 27, 28, 29)


def test_over_approximation_matches_naive_oracle_on_larger_rule_sets():
    # Sets of five to eight rules, each with two pivots whose frontier holds
    # a skolem term (so skeleton terms reach the head slots) and one without;
    # then benchmark-scale sets with one pivot of each sort.
    counts = dict.fromkeys(("small", "bench", "births_in_seed", "merged",
                            "blocked", "unblockable", "stopped",
                            "seed_answered"), 0)
    bench = map(bench_rule_set, BENCH_STRUCTURES)
    for scale, rule_sets, deep_pivots in (("small", small_rule_sets(), 2),
                                          ("bench", bench, 1)):
        for rules in rule_sets:
            pivots = sample_triggers(rules, depth_cap=2)
            deep = [p for p in pivots
                    if any(t.depth > 1 for t in p.frontier_image())]
            shallow = [p for p in pivots if p not in deep]
            hcs = [None, HeadChoice.uniform(rules, 1), HeadChoice.uniform(rules, 2)]
            for pivot in deep[:deep_pivots] + shallow[:1]:
                for hc in hcs:
                    for kind in (STAR, UC):
                        approx = build_over_approx(rules, pivot, kind, hc)
                        got = set(approx.facts)
                        naive = naive_over_approx(rules, pivot, kind, hc)
                        assert got == naive, (scale, rules, pivot, kind, hc)
                        # The build queued each (rule, frontier image) key
                        # of a trigger loaded in its result once.
                        keys = loaded_keys(rules, approx.facts, "frontier")
                        assert approx.triggers == len(keys)
                        counts[scale] += 1
                        if not pivot.rule.is_datalog:
                            # An unblockability build that stops at the
                            # first batch blocking the pivot answers as the
                            # whole fixpoint does. A UC question asks the
                            # star question first; it is asked here
                            # beforehand, so that the counts below see the
                            # UC build alone.
                            cache = UnblockabilityCache()
                            if kind == UC:
                                _is_unblockable(rules, STAR, None, pivot, cache)
                            builds, triggers = cache.builds, cache.triggers
                            unblockable = _is_unblockable(
                                rules, kind, hc, pivot, cache)
                            assert unblockable == (
                                not is_obsolete(pivot, FactSet(naive))), \
                                (scale, rules, pivot, kind, hc)
                            counts["unblockable" if unblockable
                                   else "blocked"] += 1
                            # A build that queued fewer keys than the
                            # fixpoint has stopped at a batch before its end.
                            counts["stopped"] += (
                                cache.builds == builds + 1 and
                                cache.triggers - triggers < approx.triggers)
                            # A disjunct over constants only: the seed
                            # blocks the pivot, and no build ran.
                            counts["seed_answered"] += cache.builds == 0
                        if scale == "bench":
                            # No birth fact outside the seed's universe: the
                            # seed's keys alone start the fixpoint.
                            counts["births_in_seed"] += not birth_facts(pivot, rules)
                            # A body variable outside the frontier made
                            # several loaded triggers share one key.
                            counts["merged"] += len(loaded_keys(
                                rules, approx.facts, "body_vars")) > len(keys)
    assert counts["small"] >= 120
    assert counts["bench"] >= 260
    assert counts["births_in_seed"] >= 120
    assert counts["merged"] >= 250
    assert counts["blocked"] >= 260
    assert counts["unblockable"] >= 80
    assert counts["stopped"] >= 50
    assert counts["seed_answered"] >= 200


def assert_seeds_fresh(rules):
    """Each seed the rule set keeps equals one built from scratch over its
    universe: facts in the same order, the same index lists, and the same
    keys; no build's trail is left. Returns the number of seeds."""
    for universe, seed in rules.seeds.items():
        fresh = _Seed(rules, universe)
        assert list(seed.facts) == list(fresh.facts), universe
        assert len(seed.facts) == len(fresh.facts)
        for predicate in rules.predicates:
            assert list(seed.facts.candidates(predicate)) == \
                list(fresh.facts.candidates(predicate))
            for t in universe:
                assert list(seed.facts.candidates(predicate, t)) == \
                    list(fresh.facts.candidates(predicate, t))
        assert seed.keys == fresh.keys and seed.queued == fresh.queued
        assert seed.added == [] and seed.size == fresh.size
    return len(rules.seeds)


def test_builds_restore_their_kept_seeds(monkeypatch):
    # A build adds the pivot's birth facts and its fixpoint to the kept seed
    # of its universe and its owner undoes them on every exit. After whole
    # classify runs, each kept seed must be as built.
    seeds = 0
    for i in range(30):
        rules = bench_rule_set(i)
        classify_rules(rules)
        seeds += assert_seeds_fresh(rules)
    # 61 kept seeds today.
    assert seeds >= 55

    # Three ways out of a build, on the pivots of structure 0 that star
    # blocks but not at the seed: stopped at the first blocking batch, a
    # consumer that raises, and a drained build followed by another.
    rules = bench_rule_set(0)
    stopped = raised = 0
    for pivot in sample_triggers(rules):
        if pivot.rule.is_datalog:
            continue
        cache = UnblockabilityCache()
        whole = build_over_approx(rules, pivot, STAR)
        kept = list(whole.facts)
        if _is_unblockable(rules, STAR, None, pivot, cache) or cache.builds == 0:
            continue
        stopped += cache.triggers < whole.triggers
        assert_seeds_fresh(rules)

        calls = []

        def failing(*args):
            calls.append(args)
            if len(calls) == 2:
                raise KeyError("consumer")
            return False

        with monkeypatch.context() as patched:
            patched.setattr(approx_module, "obsolete_through", failing)
            with pytest.raises(KeyError):
                _is_unblockable(rules, STAR, None, pivot, UnblockabilityCache())
        raised += len(calls) == 2
        assert_seeds_fresh(rules)

        build_over_approx(rules, pivot, STAR, HeadChoice.uniform(rules, 1))
        assert list(whole.facts) == kept
        assert_seeds_fresh(rules)
    assert stopped >= 2 and raised >= 2


def warm_seed_checks(structures) -> tuple[int, int]:
    """Build over every (sample trigger, STAR or UC, no head choice, hc_1 or
    hc_2) of each classify-random structure, the first eight sample
    triggers of depth at most 2 taken, on one rule set, in a seeded
    shuffled order, so that most builds start from a seed an earlier build
    kept. Each result must equal, as a fact set and in its key count, the
    same build on a freshly parsed copy of the text and naive_over_approx,
    and no later build may change an earlier result. Returns the number of
    builds and of those that started from a kept seed."""
    builds = warm = 0
    for i in structures:
        text = bench_text(i)
        rules = rules_from(text)
        hcs = [None, HeadChoice.uniform(rules, 1), HeadChoice.uniform(rules, 2)]
        cases = [(pivot, kind, hc)
                 for pivot in sample_triggers(rules, depth_cap=2, limit=8)
                 for kind in (STAR, UC) for hc in hcs]
        random.Random(f"warm/{i}").shuffle(cases)
        results = []
        for pivot, kind, hc in cases:
            kept = len(rules.seeds)
            got = build_over_approx(rules, pivot, kind, hc)
            warm += len(rules.seeds) == kept
            fresh_rules = rules_from(text)
            fresh = build_over_approx(fresh_rules, trigger_of(
                fresh_rules.by_id[pivot.rule.id], pivot.substitution), kind, hc)
            facts = set(got.facts)
            assert facts == set(fresh.facts) and got.triggers == fresh.triggers, \
                (i, pivot, kind, hc)
            assert facts == naive_over_approx(rules, pivot, kind, hc), \
                (i, pivot, kind, hc)
            results.append((got, list(got.facts)))
            builds += 1
        for got, facts in results:
            assert list(got.facts) == facts, i
    return builds, warm


def test_warm_seeds_give_fresh_results():
    # 384 builds, 360 of them from a kept seed, today; CI runs structures
    # 0-89.
    builds, warm = warm_seed_checks(BENCH_STRUCTURES[1:9])
    assert builds >= 380 and warm >= 340


def sk(rules, rule_id, var):
    return next(s for s in rules.by_id[rule_id].sk_symbols if s.var == var)


# r1 puts the skolem term f_U(c) into the pivots' skeletons.
EXCLUSION_RULES = """\
A(X) -> E(X, U) .
E(X, Y) -> B(Y) | C(Y, W) .
F(X, Y) -> B(Y) .
E(X, Y) -> F(X, Y) .
E(X, Y) -> R(Y, Qexcl) .
E(X, Y) -> R(Y, Qkept) .
E(X, Y), A(Z) -> E(Z, Y) .
E(X, Y) -> S(Y) | T(X, Y) .
"""


def exclusion_case(pivot_rule, text=EXCLUSION_RULES):
    rules = rules_from(text)
    c = constant("c")
    fuc = functional(sk(rules, "r1", "U"), (c,))
    pivot = trigger_of(rules.by_id[pivot_rule],
                    {variable("X"): c, variable("Y"): fuc})
    return rules, pivot, fuc


@pytest.mark.parametrize("kind", ["star", "uc"])
def test_head_choice_excludes_other_rules_with_the_pivot_output(kind):
    # The chosen disjunct B(Y) of the pivot has no existential, so r3's
    # trigger on F(c, f_U(c)) has exactly the pivot's output and is
    # excluded although it belongs to another rule. Read conjunctively,
    # only pivot-rule triggers are excluded and r3 contributes B(f_U(c)).
    rules, pivot, fuc = exclusion_case("r2")
    hc1 = HeadChoice.uniform(rules, 1)
    with_hc = set(build_over_approx(rules, pivot, kind, hc1).facts)
    assert Atom("F", (constant("c"), fuc)) in with_hc
    assert Atom("B", (fuc,)) not in with_hc
    assert with_hc == naive_over_approx(rules, pivot, kind, hc1)
    conj = set(build_over_approx(rules, pivot, kind).facts)
    assert Atom("B", (fuc,)) in conj
    assert conj == naive_over_approx(rules, pivot, kind)


@pytest.mark.parametrize("kind", ["star", "uc"])
def test_uninterned_skolem_terms_are_abstracted_not_excluded(kind):
    # r6 shares the pivot's body image. Under star its abstracted output
    # equals the pivot's, so the build compares raw outputs and builds the
    # skolem term f_Qkept(f_U(c)) for that; it equals no pivot term, so the
    # trigger is kept and the slot becomes the replacement. The build keeps
    # no term it built only to compare: the intern table holds none before
    # the build and none after it. The symbol is renamed per case, so that
    # no other test (nor the oracle run of this one) has built the term.
    var = f"Qkept{kind}"
    rules, pivot, fuc = exclusion_case(
        "r5", EXCLUSION_RULES.replace("Qkept", var))
    kept = sk(rules, "r6", var)
    key = (kept, (fuc,))
    assert key not in _TABLE
    replacement = star() if kind == "star" else uc_constant(kept)
    hc1 = HeadChoice.uniform(rules, 1)
    got = set(build_over_approx(rules, pivot, kind, hc1).facts)
    assert key not in _TABLE
    assert Atom("R", (fuc, replacement)) in got
    assert got == naive_over_approx(rules, pivot, kind, hc1)


@pytest.mark.parametrize("kind", ["star", "uc"])
def test_conjunctive_exclusion_needs_every_disjunct(kind):
    # r7 copies f_U(c) to E(*, f_U(c)); the r8 trigger there has the pivot's
    # first output S(f_U(c)) but not its second, T(c, f_U(c)), so it is not
    # excluded and S(f_U(c)) is derived although the pivot is excluded.
    rules, pivot, fuc = exclusion_case("r8")
    got = set(build_over_approx(rules, pivot, kind).facts)
    assert Atom("S", (fuc,)) in got
    assert Atom("T", (star(), fuc)) in got
    assert got == naive_over_approx(rules, pivot, kind)


def test_fill_with_the_skolem_terms_is_the_output():
    # When each symbol's known term over an image is its skolem term over
    # that image, _fill builds what Rule.output builds, atom for atom and
    # type for type, on the rules and images of
    # test_model.test_skolemized_heads_match_the_reference.
    compared = 0
    for rules in _construction_sets():
        for rule in rules:
            for image in frontier_images(len(rule.frontier)):
                fills = {s: ({image: functional(s, image)}, star())
                         for s in rule.sk_symbols}
                for i, template in enumerate(rule.sk_heads, start=1):
                    filled, out = _fill(template, image, fills), rule.output(i, image)
                    assert filled == out, (rule, i, image)
                    assert list(map(type, filled)) == list(map(type, out)), \
                        (rule, i, image)
                    compared += 1
    assert compared >= 8000, compared


def test_star_unblockability_of_the_bike_pivot():
    rules = bike_subset(2)
    assert is_star_unblockable(rules, bike_pivot(rules))


def test_datalog_triggers_are_always_unblockable():
    rules = bike_subset(4)
    r3 = rules.by_id["r3"]
    lam = trigger_of(r3, {variable("X"): constant("d"),
                       variable("Y"): constant("e")})
    assert is_star_unblockable(rules, lam)
    for i in (1, 2):
        assert is_uc_unblockable(rules, HeadChoice.uniform(rules, i), lam)


def test_star_unblockability_implies_uc_unblockability():
    # The argument behind _is_unblockable's star step, on whole fixpoints:
    # collapsing every per-symbol constant to the special constant maps the
    # UC set under hc_1 and hc_2 into the conjunctive star set, so a pivot
    # the star set leaves unblocked is unblocked under UC too.
    counts = dict.fromkeys(("star_unblockable", "uc_only", "blocked"), 0)
    bench = map(bench_rule_set, BENCH_STRUCTURES)
    for rules in itertools.chain(small_rule_sets(), bench):
        collapse = ConstantMapping(
            {uc_constant(s): star() for r in rules for s in r.sk_symbols})
        hcs = [HeadChoice.uniform(rules, i) for i in (1, 2)]
        for pivot in sample_triggers(rules, depth_cap=2):
            if pivot.rule.is_datalog:
                continue
            star_facts = build_over_approx(rules, pivot, STAR).facts
            star_unblockable = not is_obsolete(pivot, star_facts)
            for hc in hcs:
                uc_facts = build_over_approx(rules, pivot, UC, hc).facts
                assert {map_atom(collapse, a) for a in uc_facts} <= \
                    set(star_facts), (rules, pivot, hc)
                uc_unblockable = not is_obsolete(pivot, uc_facts)
                if star_unblockable:
                    assert uc_unblockable, (rules, pivot, hc)
                    counts["star_unblockable"] += 1
                else:
                    counts["uc_only" if uc_unblockable else "blocked"] += 1
    # 114, 11 and 1,125 today.
    assert counts["star_unblockable"] >= 100
    assert counts["uc_only"] >= 8
    assert counts["blocked"] >= 1000


def test_star_step_skips_pivots_with_abstract_constants_in_their_skeleton():
    # The pivot's skeleton holds the special constant, so a collapsed UC
    # image could hit a skeleton lookup that the image itself misses, and
    # the star build may not answer for it: its UC answer comes from its
    # own UC build, and no star question is asked.
    rules = bike_subset(2)
    hc1 = HeadChoice.uniform(rules, 1)
    f_v = next(s for s in rules.by_id["r1"].sk_symbols if s.var == "V")
    lam = trigger_of(rules.by_id["r2"],
                  {variable("X"): functional(f_v, (star(),))})
    assert star() in skeleton(lam, rules)
    cache = unblockability_cache(rules)
    answer = is_uc_unblockable(rules, hc1, lam)
    assert answer == (not is_obsolete(lam, build_over_approx(
        rules, lam, UC, hc1).facts))
    assert (cache.builds, cache.star_answers) == (1, 0)
    assert [key[0] for key in cache.entries] == [UC]

    # The same trigger on a fresh constant takes the star step.
    lam_d = trigger_of(rules.by_id["r2"],
                    {variable("X"): functional(f_v, (constant("d"),))})
    assert is_uc_unblockable(rules, hc1, lam_d) == answer
    assert cache.star_answers == 1


def uc_refinement_checks(structures) -> tuple[int, int, int]:
    """Check the answers of _is_unblockable, each with a fresh cache,
    against the pivot's obsolescence for the whole fixpoint, for the sample
    triggers of the given classify-random structures: the star answer, and
    the UC answer under hc_1 and hc_2, which asks the star build first.
    Returns the number of UC checks, of star checks and of UC answers that
    the star build gave."""
    checks = star_checks = star_answers = 0
    for i in structures:
        rules = bench_rule_set(i)
        hcs = [HeadChoice.uniform(rules, j) for j in (1, 2)]
        for pivot in sample_triggers(rules):
            if pivot.rule.is_datalog:
                continue
            assert _is_unblockable(rules, STAR, None, pivot, UnblockabilityCache()) == (
                not is_obsolete(pivot, build_over_approx(
                    rules, pivot, STAR).facts)), (i, pivot)
            star_checks += 1
            for hc in hcs:
                cache = UnblockabilityCache()
                assert _is_unblockable(rules, UC, hc, pivot, cache) == (
                    not is_obsolete(pivot, build_over_approx(
                        rules, pivot, UC, hc).facts)), (i, pivot, hc)
                checks += 1
                star_answers += cache.star_answers
    return checks, star_checks, star_answers


def test_uc_answers_equal_whole_fixpoint_answers():
    # 364 UC checks, 182 star checks and 22 star answers today; CI runs
    # structures 0-89.
    checks, star_checks, star_answers = uc_refinement_checks(range(0, 90, 9))
    assert checks >= 350 and star_checks >= 175 and star_answers >= 20


def test_seed_blocks_iff_the_seed_makes_the_pivot_obsolete():
    # _seed_blocks is the seed half of the unblockability test, read off the
    # pivot alone, and must be exact: on the sample triggers of every ninth
    # classify-random structure it must equal the pivot's obsolescence for
    # the kept seed over its universe.
    answers = {True: 0, False: 0}
    for i in range(0, 90, 9):
        rules = bench_rule_set(i)
        for pivot in sample_triggers(rules):
            if pivot.rule.is_datalog:
                continue
            blocks = _seed_blocks(pivot)
            assert blocks == is_obsolete(
                pivot, _seed(rules, skeleton(pivot, rules)).facts), (i, pivot)
            answers[blocks] += 1
    # 156 blocked and 26 not today.
    assert answers[True] >= 150 and answers[False] >= 25


def test_unblockability_cache_canonicalizes_constant_renamings():
    rules = bike_subset(2)
    hc1 = HeadChoice.uniform(rules, 1)
    cache = unblockability_cache(rules)
    r1 = rules.by_id["r1"]
    f_v = next(iter(r1.sk_symbols))
    lam_d = trigger_of(rules.by_id["r2"],
                    {variable("X"): functional(f_v, (constant("d"),))})
    lam_e = trigger_of(rules.by_id["r2"],
                    {variable("X"): functional(f_v, (constant("e"),))})

    def uc_entries():
        return [key for key in cache.entries if key[0] == UC]

    assert is_uc_unblockable(rules, hc1, lam_d)
    assert len(uc_entries()) == 1
    # The star build answered the UC question, so it is the only build.
    assert (cache.builds, cache.hits, cache.star_answers) == (1, 0, 1)
    built = build_over_approx(rules, lam_d, STAR)
    assert cache.triggers == built.triggers > 0
    assert is_uc_unblockable(rules, hc1, lam_e)
    assert len(uc_entries()) == 1
    assert (cache.builds, cache.hits, cache.star_answers) == (1, 1, 1)
    assert cache.triggers == built.triggers

    # Z is a body variable outside the frontier: the two triggers differ
    # only there, so they share one entry although their body images are
    # no constant renaming of each other.
    rules = rules_from("A(X, Z) -> R(X, W) .")
    cache = unblockability_cache(rules)
    c, d = constant("c"), constant("d")
    rule = rules.by_id["r1"]
    lam_cc = trigger_of(rule, {variable("X"): c, variable("Z"): c})
    lam_cd = trigger_of(rule, {variable("X"): c, variable("Z"): d})
    assert is_star_unblockable(rules, lam_cc) == is_star_unblockable(rules, lam_cd)
    assert len(cache.entries) == 1
    # X maps to a constant, so R(c, *) is a seed fact and the answer needs
    # no build.
    assert (cache.builds, cache.hits) == (0, 1)


def test_unblockability_cache_keys_abstract_constants_as_themselves():
    # A frontier constant replaced by the special constant changes the
    # build's universe, which always holds the special constant, so the two
    # triggers may differ in answer; the rule set's cache must not rename
    # one into the other. The pairs are every sample trigger of structures
    # 0-29 with one of its frontier constants sent to the special constant;
    # each member's fresh answer comes from a cache of its own.
    pairs = differ = 0
    for i in range(30):
        rules = bench_rule_set(i)
        for lam in sample_triggers(rules):
            if lam.rule.is_datalog:
                continue
            constants = {c for t in lam.frontier_image() for c in subterms(t)
                         if isinstance(c, Constant)}
            for c in sorted(constants, key=repr):
                g = ConstantMapping({c: star()})
                starred = trigger_of(lam.rule, {v: g.apply(t)
                                             for v, t in lam.substitution.items()})
                fresh = [_is_unblockable(rules, STAR, None, t,
                                         UnblockabilityCache())
                         for t in (lam, starred)]
                shared = [is_star_unblockable(rules, t) for t in (lam, starred)]
                assert shared == fresh, (i, lam, starred)
                pairs += 1
                differ += fresh[0] != fresh[1]
    # 828 pairs today; two differ in answer, in structures 1 and 16.
    assert pairs >= 800 and differ >= 2


def test_unblockability_cache_is_freed_with_its_rule_set():
    rules = bike_subset(2)
    assert rules.unblockability is None
    assert is_star_unblockable(rules, bike_pivot(rules))
    assert rules.unblockability.builds == 1
    cache = weakref.ref(rules.unblockability)
    ref = weakref.ref(rules)
    del rules
    gc.collect()
    assert ref() is None and cache() is None


def test_reversibility_condition_one():
    g = ConstantMapping({})
    cert = check_reversible(g, {constant("e")})
    assert not cert.reversible and cert.violated == 1


def test_reversibility_condition_two(guard_rules):
    r1 = guard_rules.by_id["r1"]
    r2 = guard_rules.by_id["r2"]
    f_u = next(iter(r1.sk_symbols))
    f_v = next(iter(r2.sk_symbols))
    c_x, c_y = db_constant("X"), db_constant("Y")
    fu = functional(f_u, (c_x, c_y))
    lam = trigger_of(r1, {variable("X"): c_x, variable("Y"): fu})
    skel = skeleton(lam, guard_rules)
    assert skel == frozenset({c_x, c_y, fu})
    image = functional(f_v, (fu,))
    cert = check_reversible(ConstantMapping({c_x: image, c_y: image}), skel)
    assert not cert.reversible and cert.violated == 2
    # The first term, in repr order, whose image an earlier term has, with
    # the first such earlier term.
    assert cert.detail == ("condition 2: g(__db_X) = g(__db_Y) = "
                           "f[r2.1.V](f[r1.1.U](__db_X, __db_Y))")


def test_reversibility_condition_three(cond3):
    f_u = next(iter(cond3.by_id["r1"].sk_symbols))
    f_v = next(iter(cond3.by_id["r2"].sk_symbols))
    f_w = next(iter(cond3.by_id["r3"].sk_symbols))
    c, d = constant("c"), constant("d")
    fud = functional(f_u, (d,))
    g = ConstantMapping({c: functional(f_w, (functional(f_v, (fud,)),)), d: d})
    cert = check_reversible(g, {c, d, fud})
    assert not cert.reversible and cert.violated == 3


def test_reversibility_identity_and_closure_check():
    cert = check_reversible(
        ConstantMapping({constant("a"): constant("a")}), {constant("a")})
    assert cert.reversible and cert.violated is None
    rules = bike_subset(2)
    f_v = next(iter(rules.by_id["r1"].sk_symbols))
    with pytest.raises(ValueError):
        check_reversible(ConstantMapping({}),
                         {functional(f_v, (constant("d"),))})


def test_transport_applies_the_mapping_to_the_substitution():
    rules = bike_subset(2)
    r1 = rules.by_id["r1"]
    f_v = next(iter(r1.sk_symbols))
    f_w = next(iter(rules.by_id["r2"].sk_symbols))
    c_x = db_constant("X")
    lam = trigger_of(r1, {variable("X"): c_x})
    g = ConstantMapping({c_x: functional(f_w, (functional(f_v, (c_x,)),))})
    moved = transport_trigger(rules, lam, g)
    assert moved.rule is r1
    assert moved.substitution[variable("X")] == \
        functional(f_w, (functional(f_v, (c_x,)),))

    identity = ConstantMapping({c_x: c_x})
    assert transport_trigger(rules, lam, identity) == lam


def test_transport_rejects_non_reversible_mappings(guard_rules):
    r1 = guard_rules.by_id["r1"]
    r2 = guard_rules.by_id["r2"]
    f_u = next(iter(r1.sk_symbols))
    f_v = next(iter(r2.sk_symbols))
    c_x, c_y = db_constant("X"), db_constant("Y")
    fu = functional(f_u, (c_x, c_y))
    lam = trigger_of(r1, {variable("X"): c_x, variable("Y"): fu})
    image = functional(f_v, (fu,))
    with pytest.raises(NotReversibleError) as err:
        transport_trigger(guard_rules, lam,
                          ConstantMapping({c_x: image, c_y: image}))
    assert err.value.certificate.violated == 2


def test_transport_preserves_uc_unblockability_on_the_bike_set():
    rules = bike_subset(2)
    hc1 = HeadChoice.uniform(rules, 1)
    pivot = bike_pivot(rules)
    assert is_uc_unblockable(rules, hc1, pivot)
    d = constant("d")
    f_v = next(iter(rules.by_id["r1"].sk_symbols))
    f_w = next(iter(rules.by_id["r2"].sk_symbols))
    for image in (constant("e"),
                  functional(f_w, (functional(f_v, (d,)),))):
        g = ConstantMapping({d: image})
        moved = transport_trigger(rules, pivot, g)
        assert is_uc_unblockable(rules, hc1, moved)
