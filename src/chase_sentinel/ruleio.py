"""Parsing and rendering of rule programs.

The surface syntax is line oriented and deliberately small:

    % comment until end of line
    Engine(X) -> IsIn(X, V), Bike(V) | Spare(X) .
    IsIn(X, Y) -> Has(Y, X) .
    Engine(d) .
    ? Spare(d) .

Identifiers starting with an upper-case letter are variables, identifiers
starting with a lower-case letter are constants, and identifiers starting
with an underscore are reserved for internal use and rejected. Head
variables that do not occur in the rule body are existential. Facts must be
ground, rules must be constant-free, and every predicate must keep one arity
across the whole program.
"""
from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Iterable, Sequence

from .model import (
    Atom,
    Constant,
    FunctionalTerm,
    HeadDisjunct,
    Query,
    Rule,
    RuleError,
    RuleSet,
    SkolemSymbol,
    Term,
    Variable,
    DB_PREFIX,
    STAR_NAME,
    UC_PREFIX,
    constant,
    is_reserved_name,
    variable,
)

__all__ = ["ParseError", "SourceProgram", "parse", "render", "Namer"]


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class SourceProgram:
    rules: RuleSet
    facts: tuple[Atom, ...]
    queries: tuple[Query, ...]


# ---------------------------------------------------------------------------
# Tokenizer

_PUNCT = {"(": "LPAREN", ")": "RPAREN", ",": "COMMA", ".": "DOT", "|": "PIPE", "?": "QMARK"}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "-" and i + 1 < n and text[i + 1] == ">":
            tokens.append(_Token("ARROW", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in _PUNCT:
            tokens.append(_Token(_PUNCT[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isalpha() or ch == "_":
            start = i
            start_col = col
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            tokens.append(_Token("IDENT", text[start:i], line, start_col))
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.arities: dict[str, int] = {}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.column)
        return tok

    def parse_term(self) -> Term:
        tok = self.expect("IDENT", "a term")
        if is_reserved_name(tok.text):
            raise ParseError(f"identifier {tok.text!r} is reserved", tok.line, tok.column)
        if tok.text[0].isupper():
            return variable(tok.text)
        return constant(tok.text)

    def parse_atom(self) -> tuple[Atom, _Token]:
        name = self.expect("IDENT", "a predicate name")
        if is_reserved_name(name.text):
            raise ParseError(f"identifier {name.text!r} is reserved", name.line, name.column)
        self.expect("LPAREN", "'('")
        terms = [self.parse_term()]
        while self.peek().kind == "COMMA":
            self.next()
            terms.append(self.parse_term())
        self.expect("RPAREN", "')'")
        known = self.arities.setdefault(name.text, len(terms))
        if known != len(terms):
            raise ParseError(
                f"predicate {name.text} used with arity {len(terms)}, "
                f"previously {known}", name.line, name.column)
        return Atom(name.text, terms), name

    def parse_conjunction(self) -> tuple[list[Atom], _Token]:
        atom, first = self.parse_atom()
        atoms = [atom]
        while self.peek().kind == "COMMA":
            self.next()
            atoms.append(self.parse_atom()[0])
        return atoms, first

    def parse_program(self) -> SourceProgram:
        rules: list[Rule] = []
        facts: list[Atom] = []
        queries: list[Query] = []
        while True:
            tok = self.peek()
            if tok.kind == "EOF":
                break
            if tok.kind == "QMARK":
                self.next()
                atoms, _ = self.parse_conjunction()
                self.expect("DOT", "'.'")
                queries.append(Query(tuple(atoms)))
                continue
            atoms, first = self.parse_conjunction()
            tok = self.next()
            if tok.kind == "DOT":
                if len(atoms) != 1:
                    raise ParseError("a fact is a single atom", first.line, first.column)
                fact = atoms[0]
                if not fact.is_ground:
                    raise ParseError(f"fact {fact.predicate} contains a variable",
                                     first.line, first.column)
                facts.append(fact)
                continue
            if tok.kind != "ARROW":
                raise ParseError(f"expected '->' or '.', found {tok.text!r}",
                                 tok.line, tok.column)
            heads = [self.parse_head(first)]
            while self.peek().kind == "PIPE":
                self.next()
                heads.append(self.parse_head(first))
            self.expect("DOT", "'.'")
            rules.append(self.build_rule(atoms, heads, first, len(rules) + 1))
        try:
            rule_set = RuleSet(rules)
        except RuleError as exc:
            raise ParseError(str(exc), 1, 1) from exc
        for fact in facts:
            rule_set.check_fact(fact)
        return SourceProgram(rule_set, tuple(facts), tuple(queries))

    def parse_head(self, origin: _Token) -> list[Atom]:
        tok = self.peek()
        if tok.kind in ("DOT", "PIPE"):
            raise ParseError("empty head disjunct", tok.line, tok.column)
        atoms, _ = self.parse_conjunction()
        return atoms

    def build_rule(self, body: list[Atom], heads: list[list[Atom]],
                   origin: _Token, index: int) -> Rule:
        body_vars = {t for a in body for t in a.terms if isinstance(t, Variable)}
        disjuncts: list[HeadDisjunct] = []
        for head_atoms in heads:
            evars: list[Variable] = []
            seen: set[Variable] = set()
            for atom in head_atoms:
                for t in atom.terms:
                    if isinstance(t, Variable) and t not in body_vars and t not in seen:
                        seen.add(t)
                        evars.append(t)
            disjuncts.append(HeadDisjunct(tuple(evars), tuple(head_atoms)))
        try:
            return Rule(f"r{index}", body, disjuncts)
        except RuleError as exc:
            raise ParseError(str(exc), origin.line, origin.column) from exc


def parse(text: str) -> SourceProgram:
    """Parse a program; raises ParseError with line and column on bad input."""
    return _Parser(text).parse_program()


# ---------------------------------------------------------------------------
# Rendering

class Namer:
    """Readable names for terms, abbreviating where unambiguous.

    Skolem symbols print as f_<var> when only one symbol of the rule set uses
    that existential variable name, else as f_<ruleId>_<i>_<var>. The special
    constant prints as *, rule-database constants as c_<var>, and the fresh
    constants of the unique-constants abstraction as c_<var> with the same
    disambiguation scheme as symbols.
    """

    def __init__(self, rules: RuleSet | None = None):
        counts: dict[str, int] = {}
        if rules is not None:
            for sym in rules.symbol_index:
                counts[sym.var] = counts.get(sym.var, 0) + 1
        self._var_counts = counts

    def symbol(self, sym: SkolemSymbol) -> str:
        if self._var_counts.get(sym.var, 2) == 1:
            return f"f_{sym.var}"
        return f"f_{sym.rule_id}_{sym.disjunct}_{sym.var}"

    def term(self, t: Term) -> str:
        if isinstance(t, Constant):
            name = t.name
            if name == STAR_NAME:
                return "*"
            if name.startswith(DB_PREFIX):
                return "c_" + name[len(DB_PREFIX):]
            if name.startswith(UC_PREFIX):
                rule_id, disjunct, var = name[len(UC_PREFIX):].split("_", 2)
                if self._var_counts.get(var, 2) == 1:
                    return f"c_{var}"
                return f"c_{rule_id}_{disjunct}_{var}"
            return name
        if isinstance(t, Variable):
            return t.name
        assert isinstance(t, FunctionalTerm)
        args = ", ".join(self.term(a) for a in t.args)
        return f"{self.symbol(t.symbol)}({args})"

    def atom(self, a: Atom) -> str:
        return f"{a.predicate}({', '.join(self.term(t) for t in a.terms)})"

    def substitution(self, sigma) -> str:
        inner = ", ".join(
            f"{x.name}/{self.term(t)}"
            for x, t in sorted(sigma.items(), key=lambda kv: kv[0].name))
        return f"[{inner}]"

    def trigger(self, trigger) -> str:
        return f"<{trigger.rule.id}, {self.substitution(trigger.substitution)}>"


def _render_rule(rule: Rule, namer: Namer) -> str:
    body = ", ".join(namer.atom(a) for a in rule.body)
    heads = " | ".join(
        ", ".join(namer.atom(a) for a in h.atoms) for h in rule.heads)
    return f"{body} -> {heads} ."


def render(obj) -> str:
    """Render a program (or one of its pieces) back to surface syntax."""
    if isinstance(obj, SourceProgram):
        namer = Namer(obj.rules)
        out = io.StringIO()
        for rule in obj.rules:
            out.write(_render_rule(rule, namer) + "\n")
        for fact in obj.facts:
            out.write(namer.atom(fact) + " .\n")
        for query in obj.queries:
            out.write("? " + ", ".join(namer.atom(a) for a in query.atoms) + " .\n")
        return out.getvalue()
    if isinstance(obj, RuleSet):
        namer = Namer(obj)
        return "\n".join(_render_rule(r, namer) for r in obj) + "\n"
    if isinstance(obj, Rule):
        return _render_rule(obj, Namer())
    if isinstance(obj, Query):
        return "? " + ", ".join(Namer().atom(a) for a in obj.atoms) + " ."
    if isinstance(obj, Atom):
        return Namer().atom(obj)
    raise TypeError(f"cannot render {obj!r}")
