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

One regular expression splits the text into (kind, text, offset) tokens.
A ParseError names a 1-based line and column; both are worked out from the
offending token's offset only when the error is raised.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

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

__all__ = ["ParseError", "SourceProgram", "parse", "parse_query", "render", "Namer"]


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

# Whitespace and comments match no group. An identifier matches \w+ and is
# then checked to start with a letter or "_": the class [^\W\d] would also
# start one with a numeric such as "²". BAD takes any character left over.
_TOKEN = re.compile(r"""
    [ \t\r\n]+ | %[^\n]*
  | (?P<ARROW>->) | (?P<LPAREN>\() | (?P<RPAREN>\)) | (?P<COMMA>,)
  | (?P<DOT>\.) | (?P<PIPE>\|) | (?P<QMARK>\?)
  | (?P<IDENT>\w+) | (?P<BAD>.)
""", re.VERBOSE)

_Token = tuple[str, str, int]  # kind, text, offset into the source


def _error(text: str, message: str, offset: int) -> ParseError:
    """The ParseError at `offset`: a 1-based line and a 1-based column that
    counts characters, so a tab is one column."""
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1,
                      offset - line_start + 1)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        word = m.group()
        if kind == "BAD" or (kind == "IDENT" and not (word[0].isalpha() or word[0] == "_")):
            raise _error(text, f"unexpected character {word[0]!r}", m.start())
        tokens.append((kind, word, m.start()))
    # A comment that ends the text moves no column, so an error at end of
    # input points at the comment's start.
    comment = text.find("%", text.rfind("\n") + 1)
    tokens.append(("EOF", "", len(text) if comment < 0 else comment))
    return tokens


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.arities: dict[str, int] = {}

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.next()
        if tok[0] != kind:
            found = tok[1] or "end of input"
            raise _error(self.text, f"expected {what}, found {found!r}", tok[2])
        return tok

    def parse_term(self) -> Term:
        _, name, offset = self.expect("IDENT", "a term")
        if is_reserved_name(name):
            raise _error(self.text, f"identifier {name!r} is reserved", offset)
        if name[0].isupper():
            return variable(name)
        return constant(name)

    def parse_atom(self) -> tuple[Atom, int]:
        _, name, offset = self.expect("IDENT", "a predicate name")
        if is_reserved_name(name):
            raise _error(self.text, f"identifier {name!r} is reserved", offset)
        self.expect("LPAREN", "'('")
        terms = [self.parse_term()]
        while self.peek() == "COMMA":
            self.next()
            terms.append(self.parse_term())
        self.expect("RPAREN", "')'")
        known = self.arities.setdefault(name, len(terms))
        if known != len(terms):
            raise _error(self.text, f"predicate {name} used with arity {len(terms)}, "
                         f"previously {known}", offset)
        return Atom(name, terms), offset

    def parse_conjunction(self) -> tuple[list[Atom], int]:
        atom, start = self.parse_atom()
        atoms = [atom]
        while self.peek() == "COMMA":
            self.next()
            atoms.append(self.parse_atom()[0])
        return atoms, start

    def parse_program(self) -> SourceProgram:
        rules: list[Rule] = []
        facts: list[Atom] = []
        queries: list[Query] = []
        while True:
            kind = self.peek()
            if kind == "EOF":
                break
            if kind == "QMARK":
                self.next()
                atoms, _ = self.parse_conjunction()
                self.expect("DOT", "'.'")
                queries.append(Query(tuple(atoms)))
                continue
            atoms, start = self.parse_conjunction()
            kind, word, offset = self.next()
            if kind == "DOT":
                if len(atoms) != 1:
                    raise _error(self.text, "a fact is a single atom", start)
                fact = atoms[0]
                if not fact.is_ground:
                    raise _error(self.text, f"fact {fact.predicate} contains a variable",
                                 start)
                facts.append(fact)
                continue
            if kind != "ARROW":
                raise _error(self.text, f"expected '->' or '.', found {word!r}", offset)
            heads = [self.parse_head()]
            while self.peek() == "PIPE":
                self.next()
                heads.append(self.parse_head())
            self.expect("DOT", "'.'")
            rules.append(self.build_rule(atoms, heads, start, len(rules) + 1))
        try:
            rule_set = RuleSet(rules)
        except RuleError as exc:
            raise _error(self.text, str(exc), 0) from exc
        for fact in facts:
            rule_set.check_fact(fact)
        return SourceProgram(rule_set, tuple(facts), tuple(queries))

    def parse_head(self) -> list[Atom]:
        kind, _, offset = self.tokens[self.pos]
        if kind in ("DOT", "PIPE"):
            raise _error(self.text, "empty head disjunct", offset)
        atoms, _ = self.parse_conjunction()
        return atoms

    def build_rule(self, body: list[Atom], heads: list[list[Atom]],
                   offset: int, index: int) -> Rule:
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
            raise _error(self.text, str(exc), offset) from exc


def parse(text: str) -> SourceProgram:
    """Parse a program; raises ParseError with line and column on bad input."""
    return _Parser(text).parse_program()


def parse_query(text: str) -> Query:
    """Parse one query as typed: a conjunction with an optional leading '?'
    and an optional trailing '.'. Error columns count in `text` itself. A
    text with no atoms between the two gives a query with no atoms."""
    parser = _Parser(text)
    if parser.peek() == "QMARK":
        parser.next()
    atoms: list[Atom] = []
    if parser.peek() not in ("DOT", "EOF"):
        atoms, _ = parser.parse_conjunction()
    if parser.peek() != "EOF":
        parser.expect("DOT", "'.'")
    parser.expect("EOF", "end of input")
    return Query(tuple(atoms))


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

    def __init__(self, rules: RuleSet):
        counts: dict[str, int] = {}
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


def render(rules: RuleSet) -> str:
    """Render a rule set back to surface syntax, one rule a line."""
    namer = Namer(rules)
    return "\n".join(_render_rule(r, namer) for r in rules) + "\n"
