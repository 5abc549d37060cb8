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
variables that do not occur in the rule body are existential; the parser
hands each rule's body and disjuncts to `model.Rule` as atoms, and the rule
works them out. Facts must be ground, rules must be constant-free, and every
predicate must keep one arity across the whole program.

One regular expression, run once with findall, splits the text into a flat
list of token strings: each match skips whitespace and comments and keeps
"->", an identifier or any other single character, and the empty string
marks the end of input. Each distinct token is checked once, before any
parsing, so every token left is punctuation or an identifier. Offsets are
not kept: a ParseError names a 1-based line and column, worked out only
when it is raised, by running the same pattern again up to the failing token.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .model import (
    Atom,
    Constant,
    FunctionalTerm,
    Query,
    Rule,
    RuleError,
    RuleSet,
    SkolemSymbol,
    Term,
    Variable,
    DB_PREFIX,
    STAR_NAME,
    constant,
    gc_paused,
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

# The group is empty only at the end of the text. An identifier must start
# with a letter or "_": [^\W\d] would also start one with a numeric like "²".
_TOKEN = re.compile(r"(?:[ \t\r\n]+|%[^\n]*)*(->|\w+|.|)")
_PUNCT = frozenset(("->", "(", ")", ",", ".", "|", "?", ""))


def _error(text: str, message: str, index: int) -> ParseError:
    """The ParseError at token `index`: a 1-based line and a 1-based column
    that counts characters, so a tab is one column."""
    m = next(itertools.islice(_TOKEN.finditer(text), index, None))
    offset = m.start(1)
    # A comment that ends the text moves no column, so an error at end of
    # input points at the comment's start.
    if not m.group(1) and (comment := text.find("%", text.rfind("\n") + 1)) >= 0:
        offset = comment
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1,
                      offset - line_start + 1)


def _tokenize(text: str) -> list[str]:
    """Every token of the text, "" last; the first bad one is reported."""
    tokens = _TOKEN.findall(text)
    bad = {w for w in set(tokens)
           if w not in _PUNCT and not (w[0].isalpha() or w[0] == "_")}
    if bad:
        index = next(i for i, word in enumerate(tokens) if word in bad)
        raise _error(text, f"unexpected character {tokens[index][0]!r}", index)
    return tokens


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    """Walks the token list by index; every token is valid, so one that is
    not punctuation is an identifier."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.arities: dict[str, int] = {}
        self.terms: dict[str, Term] = {}

    def expected(self, what: str, index: int) -> ParseError:
        found = self.tokens[index] or "end of input"
        return _error(self.text, f"expected {what}, found {found!r}", index)

    def expect_dot(self) -> None:
        if self.tokens[self.pos] != ".":
            raise self.expected("'.'", self.pos)
        self.pos += 1

    def parse_atom(self) -> Atom:
        tokens, i = self.tokens, self.pos
        name = tokens[i]
        known = self.arities.get(name)
        if known is None:
            if name in _PUNCT:
                raise self.expected("a predicate name", i)
            if is_reserved_name(name):
                raise _error(self.text, f"identifier {name!r} is reserved", i)
        if tokens[i + 1] != "(":
            raise self.expected("'('", i + 1)
        terms = []
        j = i + 2
        while True:
            word = tokens[j]
            term = self.terms.get(word)
            if term is None:
                if word in _PUNCT:
                    raise self.expected("a term", j)
                if is_reserved_name(word):
                    raise _error(self.text, f"identifier {word!r} is reserved", j)
                term = self.terms[word] = (
                    variable(word) if word[0].isupper() else constant(word))
            terms.append(term)
            j += 2
            if tokens[j - 1] != ",":
                break
        if tokens[j - 1] != ")":
            raise self.expected("')'", j - 1)
        self.pos = j
        if known is None:
            self.arities[name] = len(terms)
        elif known != len(terms):
            raise _error(self.text, f"predicate {name} used with arity {len(terms)}, "
                         f"previously {known}", i)
        return Atom(name, terms)

    def parse_conjunction(self) -> list[Atom]:
        atoms = [self.parse_atom()]
        while self.tokens[self.pos] == ",":
            self.pos += 1
            atoms.append(self.parse_atom())
        return atoms

    def parse_program(self) -> SourceProgram:
        tokens = self.tokens
        rules: list[Rule] = []
        facts: list[Atom] = []
        queries: list[Query] = []
        while tokens[self.pos]:
            start = self.pos
            if tokens[start] == "?":
                self.pos += 1
                atoms = self.parse_conjunction()
                self.expect_dot()
                queries.append(Query(tuple(atoms)))
                continue
            atoms = self.parse_conjunction()
            i = self.pos
            self.pos += 1
            if tokens[i] == ".":
                if len(atoms) != 1:
                    raise _error(self.text, "a fact is a single atom", start)
                fact = atoms[0]
                if not fact.is_ground:
                    raise _error(self.text, f"fact {fact.predicate} contains a variable",
                                 start)
                facts.append(fact)
                continue
            if tokens[i] != "->":
                raise self.expected("'->' or '.'", i)
            heads = [self.parse_head()]
            while tokens[self.pos] == "|":
                self.pos += 1
                heads.append(self.parse_head())
            self.expect_dot()
            rules.append(self.build_rule(atoms, heads, start, len(rules) + 1))
        try:
            rule_set = RuleSet(rules)
        except RuleError as exc:
            raise _error(self.text, str(exc), 0) from exc
        for fact in facts:
            rule_set.check_fact(fact)
        return SourceProgram(rule_set, tuple(facts), tuple(queries))

    def parse_head(self) -> list[Atom]:
        if self.tokens[self.pos] in (".", "|"):
            raise _error(self.text, "empty head disjunct", self.pos)
        return self.parse_conjunction()

    def build_rule(self, body: list[Atom], heads: list[list[Atom]],
                   start: int, index: int) -> Rule:
        try:
            return Rule(f"r{index}", body, heads)
        except RuleError as exc:
            raise _error(self.text, str(exc), start) from exc


@gc_paused
def parse(text: str) -> SourceProgram:
    """Parse a program; raises ParseError with line and column on bad input."""
    return _Parser(text).parse_program()


def parse_query(text: str) -> Query:
    """Parse one query as typed: a conjunction with an optional leading '?'
    and an optional trailing '.'. Error columns count in `text` itself. A
    text with no atoms between the two gives a query with no atoms."""
    parser = _Parser(text)
    tokens = parser.tokens
    parser.pos = int(tokens[0] == "?")
    atoms = parser.parse_conjunction() if tokens[parser.pos] not in (".", "") else []
    if tokens[parser.pos]:
        parser.expect_dot()
    if tokens[parser.pos]:
        raise parser.expected("end of input", parser.pos)
    return Query(tuple(atoms))


# ---------------------------------------------------------------------------
# Rendering

class Namer:
    """Readable names for terms, abbreviating where unambiguous.

    Skolem symbols print as f_<var> when only one symbol of the rule set uses
    that existential variable name, else as f_<ruleId>_<i>_<var>. The special
    constant prints as *, rule-database constants as c_<var>, and the fresh
    constant c_f of the unique-constants abstraction as its symbol f does,
    with c for f.
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
            if t.symbol is not None:
                return "c" + self.symbol(t.symbol)[1:]
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
