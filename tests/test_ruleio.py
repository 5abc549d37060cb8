import json

import pytest

from chase_sentinel.model import (Atom, Rule, RuleSet, constant, functional,
                                  uc_constant, variable)
from chase_sentinel.ruleio import Namer, ParseError, parse, render

from conftest import BIKE_RULES, trigger_of
from parse_texts import GOLDEN, outcome


FULL_PROGRAM = BIKE_RULES + "\nEngine(d) .\n? Spare(d) .\n"


def test_parse_splits_rules_facts_queries():
    prog = parse(FULL_PROGRAM)
    assert [r.id for r in prog.rules] == ["r1", "r2", "r3", "r4"]
    assert prog.facts == (Atom("Engine", (constant("d"),)),)
    assert len(prog.queries) == 1
    assert prog.queries[0].atoms == (Atom("Spare", (constant("d"),)),)


def test_comments_and_blank_lines_are_ignored():
    prog = parse("% intro\n\nA(X) -> B(X) .  % trailing\n% outro\nA(a) .\n")
    assert len(prog.rules) == 1
    assert prog.facts == (Atom("A", (constant("a"),)),)


def test_disjunction_and_conjunction_structure():
    prog = parse("A(X) -> B(X), C(X) | D(X) .\n")
    rule = prog.rules.rules[0]
    assert len(rule.heads) == 2
    assert [a.predicate for a in rule.heads[0].atoms] == ["B", "C"]
    assert [a.predicate for a in rule.heads[1].atoms] == ["D"]
    assert rule.is_deterministic is False
    assert rule.is_datalog is False


def test_datalog_flags():
    prog = parse("A(X) -> B(X) .\nA(X) -> C(X, U) .\nA(X) -> B(X) | C(X, U) .\n")
    flags = [(r.is_datalog, r.is_deterministic, r.is_generating)
             for r in prog.rules]
    assert flags == [(True, True, False), (False, True, True),
                     (False, False, True)]


def test_parse_errors_carry_position():
    # One case per raise site, with the exact text. Columns count code
    # points from 1, so a tab or a \r is one column.
    cases = [
        ("A(a) -> B(a) .", "line 1, column 1: rule r1: rules are constant- "
         "and function-free, found a in A(a)"),
        ("A(X) .", "line 1, column 1: fact A contains a variable"),
        ("A(X) -> B(X)", "line 1, column 13: expected '.', found 'end of input'"),
        ("A(X) -> B(U) .", "line 1, column 1: rule r1: a generating rule needs "
         "a body variable that is shared with the head (skolem symbols have "
         "arity >= 1)"),
        ("A(X) -> B(X) .\nA(X, Y) -> B(X) .",
         "line 2, column 1: predicate A used with arity 2, previously 1"),
        ("A(X) @ B(X) .", "line 1, column 6: unexpected character '@'"),
        ("A(X) -> B(X) .\r\n\t% note\r\n\t\tA(X) -> B(X) @",
         "line 3, column 16: unexpected character '@'"),
        ("A(X) - B(X) .", "line 1, column 6: unexpected character '-'"),
        ("A(X) -> B(1X) .", "line 1, column 11: unexpected character '1'"),
        ("A(X) -> B(²X) .", "line 1, column 11: unexpected character '²'"),
        ("A(é) .\nÉ(X) -> B(X) @", "line 2, column 14: unexpected character '@'"),
        ("A(X) -> B(_x) .", "line 1, column 11: identifier '_x' is reserved"),
        ("_P(X) -> B(X) .", "line 1, column 1: identifier '_P' is reserved"),
        ("A(X) -> | B(X) .", "line 1, column 9: empty head disjunct"),
        ("A(X) -> B(X) | .", "line 1, column 16: empty head disjunct"),
        ("A(a), B(a) .", "line 1, column 1: a fact is a single atom"),
        ("A(X) -> B(X, U) | C(X, U) .",
         "line 1, column 1: rule r1: existential variable reused across disjuncts"),
        ("A(X) B(X) .", "line 1, column 6: expected '->' or '.', found 'B'"),
        ("A(X)", "line 1, column 5: expected '->' or '.', found 'end of input'"),
        ("A X", "line 1, column 3: expected '(', found 'X'"),
        ("A(X) -> B(X) . -> C(X) .",
         "line 1, column 16: expected a predicate name, found '->'"),
        ("A(X) -> B(X) % no dot",
         "line 1, column 14: expected '.', found 'end of input'"),
        ("A(X) -> B(X)\n% no dot",
         "line 2, column 1: expected '.', found 'end of input'"),
    ]
    for text, message in cases:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message, text


def test_query_variables_allowed():
    prog = parse("R(X, Y) -> R(Y, X) .\n? R(X, Y) .\n")
    q = prog.queries[0]
    assert q.atoms[0].terms == (variable("X"), variable("Y"))


def test_render_round_trip():
    prog = parse(FULL_PROGRAM)
    again = parse(render(prog.rules))
    assert [r.id for r in again.rules] == [r.id for r in prog.rules]
    for a, b in zip(again.rules, prog.rules):
        assert a.body == b.body
        assert a.heads == b.heads


def test_namer_pretty_prints_symbols_terms_triggers():
    prog = parse(BIKE_RULES)
    names = Namer(prog.rules)
    r1 = prog.rules.by_id["r1"]
    r2 = prog.rules.by_id["r2"]
    f_v = next(iter(r1.sk_symbols))
    t = functional(f_v, (constant("d"),))
    assert names.symbol(f_v) == "f_V"
    assert names.term(t) == "f_V(d)"
    lam = trigger_of(r2, {variable("X"): t})
    assert names.trigger(lam) == "<r2, [X/f_V(d)]>"
    assert names.substitution(lam.substitution) == "[X/f_V(d)]"


def test_namer_disambiguates_same_variable_across_rules():
    prog = parse("A(X) -> B(X, U) .\nC(X) -> D(X, U) .\n")
    names = Namer(prog.rules)
    syms = sorted(
        (s for r in prog.rules for s in r.sk_symbols),
        key=lambda s: s.rule_id)
    rendered = {names.symbol(s) for s in syms}
    assert len(rendered) == 2


def test_namer_names_per_symbol_constants_as_their_symbols():
    # Rule ids made by hand may hold "_", which the constant's name joins
    # with its disjunct and variable; the name must still follow the symbol.
    X, V, U = variable("X"), variable("V"), variable("U")
    mine = Rule("my_rule", [Atom("A", (X,))], [[Atom("R", (X, V))]])
    names = Namer(RuleSet([mine]))
    f_v = next(iter(mine.sk_symbols))
    assert (names.symbol(f_v), names.term(uc_constant(f_v))) == ("f_V", "c_V")
    # Two symbols on U are named with their rule and disjunct, both ways.
    other = Rule("my_other", [Atom("B", (X,))],
                 [[Atom("S", (X, U))], [Atom("S", (X, X))]])
    yours = Rule("your_rule", [Atom("C", (X,))], [[Atom("T", (X, U))]])
    names = Namer(RuleSet([mine, other, yours]))
    on_u = (*other.sk_symbols, *yours.sk_symbols)
    assert {names.symbol(s) for s in on_u} == {"f_my_other_1_U", "f_your_rule_1_U"}
    assert {names.term(uc_constant(s)) for s in on_u} == \
        {"c_my_other_1_U", "c_your_rule_1_U"}


def test_parser_replays_golden_fixture():
    """tests/data/parse_golden.json holds 2,000 texts and what parsing each
    gives: the exact ParseError text, or the rule ids, rendered rules, facts
    and queries. The texts are `parse_texts.texts("parse-golden", 2000)`:
    mutated corpus windows, generated rule sets and token soup; running
    tests/parse_texts.py as a script records them again."""
    cases = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(cases) == 2000
    assert sum(not want.startswith("error: ") for _, want in cases) >= 500
    wrong = [(text, want) for text, want in cases if outcome(text) != want]
    assert not wrong, wrong[:3]
