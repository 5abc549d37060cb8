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
list of token strings. Each match skips whitespace (space, tab, carriage
return and newline) and comments (from "%" to the end of the line), then
keeps "->", an identifier (a run of characters that are alphanumeric by
str.isalnum, or "_") or any other single character, and at the end of the
text the empty string, which marks the end of input. A match that skips
to the end keeps one empty string and the end itself another, so a text
that ends in whitespace or a comment ends in two. Each distinct token is
checked once, before any parsing, so every token left is punctuation or
an identifier that starts with a letter or "_". Offsets are not kept: a
ParseError names a 1-based line and column, worked out only when it is
raised, by running the same pattern again up to the failing token.

The parser walks the token list by index. Each conjunction is read in
one loop, atom after atom, with no call per atom or per term, and each
rule's disjuncts in one loop of parse_program; every check runs where
its token is read, so the first fault in reading order is the one
reported.
"""
from __future__ import annotations

import functools
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
    new_atom,
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
# The skip reads whitespace, then each comment with the whitespace after
# it, so the regex engine tries no alternation per skipped character.
_TOKEN = re.compile(r"[ \t\r\n]*(?:%[^\n]*[ \t\r\n]*)*(->|\w+|.|)")
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

    def parse_conjunction(self) -> list[Atom]:
        """The atoms of a conjunction, read in one loop with no call per
        atom: a predicate name, "(", terms separated by ",", ")", and a ","
        before each further atom. Each atom is checked in reading order:
        its name, "(", each term, ")" and then the predicate's arity."""
        tokens, arities, known_terms = self.tokens, self.arities, self.terms
        atoms = []
        i = self.pos
        while True:
            name = tokens[i]
            known = arities.get(name)
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
                term = known_terms.get(word)
                if term is None:
                    if word in _PUNCT:
                        raise self.expected("a term", j)
                    if is_reserved_name(word):
                        raise _error(self.text, f"identifier {word!r} is reserved", j)
                    term = known_terms[word] = (
                        variable(word) if word[0].isupper() else constant(word))
                terms.append(term)
                j += 2
                if tokens[j - 1] != ",":
                    break
            if tokens[j - 1] != ")":
                raise self.expected("')'", j - 1)
            if known is None:
                arities[name] = len(terms)
            elif known != len(terms):
                raise _error(self.text, f"predicate {name} used with arity {len(terms)}, "
                             f"previously {known}", i)
            atoms.append(new_atom((name, tuple(terms))))
            if tokens[j] != ",":
                self.pos = j
                return atoms
            i = j + 1

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
            heads = []
            while True:
                if tokens[self.pos] in (".", "|"):
                    raise _error(self.text, "empty head disjunct", self.pos)
                heads.append(self.parse_conjunction())
                if tokens[self.pos] != "|":
                    break
                self.pos += 1
            self.expect_dot()
            try:
                rules.append(Rule(f"r{len(rules) + 1}", atoms, heads))
            except RuleError as exc:
                raise _error(self.text, str(exc), start) from exc
        return SourceProgram(RuleSet(rules), tuple(facts), tuple(queries))


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
        self._rules = rules

    @functools.cached_property
    def _var_counts(self) -> dict[str, int]:
        """The number of symbols per existential variable name, counted when
        the first symbol is named: reading symbol_index compiles every rule,
        which a report that names no symbol never needs."""
        counts: dict[str, int] = {}
        for sym in self._rules.symbol_index:
            counts[sym.var] = counts.get(sym.var, 0) + 1
        return counts

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
        """A mapping of variables or constants to terms, sorted by name."""
        inner = ", ".join(
            f"{self.term(x)}/{self.term(t)}"
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
