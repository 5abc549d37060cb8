"""Core symbolic vocabulary, the bottom layer: it imports no other module
of the package.

Terms, atoms, rules, rule sets, constant mappings, skolemization, and the
term-level measures (depth, subterm cyclicity) that the rest of the
package builds on. Terms and skolem symbols are interned: the
factories `constant`, `variable`, `functional`, `skolem_symbol` and
`uc_constant` are the only way to build them, and they compare and hash by
identity. One intern table records them all, and holds each weakly: an
object is rebuilt only after nothing holds it, so identity equality stays
exact, and memory does not grow with the number of rule sets a process has
seen. Nothing else keeps a record of the terms built so far. Caches keyed
by terms hold their keys and are freed with their owner. An atom has no
identity of its own: it is the tuple (predicate, terms), so it compares
and hashes as a tuple, which interning makes exact. The package builds
every atom through `new_atom`, the tuple constructor bound to `Atom`,
which runs no Python frame; `Atom(predicate, terms)`, the NamedTuple's
generated constructor, runs one and stays the public way in. The per-key
kernels that fill templates (`Rule.output`, `approx._fill`) are plain
loops, not comprehensions, for the same reason: CPython 3.11 runs each
comprehension in a frame of its own (PEP 709 inlines them only from 3.12).
`gc_paused` is the collector pause that parsing, the checks and the chase
run in.
"""
from __future__ import annotations

import functools
import gc
import weakref
from dataclasses import dataclass
from operator import itemgetter
from typing import (TYPE_CHECKING, Callable, Iterator, Mapping, NamedTuple,
                    Sequence, TypeVar)

if TYPE_CHECKING:
    from .approx import UnblockabilityCache, _Seed

__all__ = [
    "STAR_NAME",
    "UC_PREFIX",
    "DB_PREFIX",
    "Term",
    "Constant",
    "Variable",
    "FunctionalTerm",
    "SkolemSymbol",
    "Atom",
    "Query",
    "HeadDisjunct",
    "Template",
    "Rule",
    "RuleSet",
    "ConstantMapping",
    "RuleError",
    "constant",
    "variable",
    "functional",
    "skolem_symbol",
    "star",
    "uc_constant",
    "db_constant",
    "is_reserved_name",
    "subterms",
    "is_cyclic",
    "is_k_cyclic",
    "is_rho_cyclic",
    "gc_paused",
]

# Reserved constant namespaces for the special constant, the fresh per-symbol
# constants of the unique-constants abstraction, and rule-database constants.
# The parser rejects identifiers starting with "_", so user input can never
# collide with these.
STAR_NAME = "__star"
UC_PREFIX = "__uc_"
DB_PREFIX = "__db_"


class RuleError(ValueError):
    """A rule violates a structural invariant."""


# ---------------------------------------------------------------------------
# Terms

class Term:
    """Base class for constants, variables, and functional terms.

    Terms are interned: the factories `constant`, `variable`,
    `functional` and `uc_constant` return the one object per term, so
    equality and hashing are the built-in identity ones. A term built by
    calling a class directly equals no interned term. The intern table
    holds a term weakly, so a term is rebuilt only after nothing holds it:
    whoever can compare two terms holds both, and so sees the one object.
    Atoms are tuples of terms and compare as tuples, term by term through
    this identity equality.
    Caches keyed by terms (`RuleSet._birth_cache`, `RuleSet.seeds`,
    `RuleSet.unblockability`) hold their keys and are freed with their
    rule set. ``depth`` is 1 for non-functional terms, else 1 + the maximal
    argument depth. ``_nest`` maps every skolem symbol occurring in the
    term to the maximal number of its occurrences on one root-to-leaf path,
    which makes the cyclicity predicates O(#symbols).
    """

    __slots__ = ("depth", "is_ground", "_nest", "__weakref__")

    depth: int
    is_ground: bool
    _nest: Mapping["SkolemSymbol", int]


class Constant(Term):
    """A constant; ``symbol`` is f for the fresh constant c_f of
    `uc_constant`, and None for every other constant."""

    __slots__ = ("name", "symbol")

    symbol: SkolemSymbol | None

    def __init__(self, name: str, symbol: SkolemSymbol | None = None):
        self.name = name
        self.symbol = symbol
        self.depth = 1
        self.is_ground = True
        self._nest = _EMPTY_NEST

    def __repr__(self) -> str:
        return self.name


class Variable(Term):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self.depth = 1
        self.is_ground = False
        self._nest = _EMPTY_NEST

    def __repr__(self) -> str:
        return f"?{self.name}"


class SkolemSymbol:
    """Function symbol unique for one (rule, disjunct, existential variable);
    interned by `skolem_symbol` like the terms."""

    __slots__ = ("rule_id", "disjunct", "var", "arity", "__weakref__")

    def __init__(self, rule_id: str, disjunct: int, var: str, arity: int):
        self.rule_id = rule_id
        self.disjunct = disjunct
        self.var = var
        self.arity = arity

    def __repr__(self) -> str:
        return f"f[{self.rule_id}.{self.disjunct}.{self.var}]"


class FunctionalTerm(Term):
    __slots__ = ("symbol", "args")

    def __init__(self, symbol: SkolemSymbol, args: tuple[Term, ...]):
        if len(args) != symbol.arity or not args:
            raise RuleError(
                f"symbol {symbol!r} expects {symbol.arity} arguments, got {len(args)}"
            )
        self.symbol = symbol
        self.args = args
        # One pass over the arguments, with no generator frame per field.
        depth, ground, nest = 0, True, {}
        for a in args:
            depth = a.depth if a.depth > depth else depth
            ground = ground and a.is_ground
            for sym, count in a._nest.items():
                if count > nest.get(sym, 0):
                    nest[sym] = count
        nest[symbol] = nest.get(symbol, 0) + 1
        self.depth, self.is_ground, self._nest = depth + 1, ground, nest

    def __repr__(self) -> str:
        return f"{self.symbol!r}({', '.join(map(repr, self.args))})"


_EMPTY_NEST: Mapping[SkolemSymbol, int] = {}
_T = TypeVar("_T")

# The intern table, the one record of terms and skolem symbols, and the
# only place that decides their identity: both must be built through the
# five factories below and never by calling their classes. Term keys are
# pairs and symbol keys 4-tuples, so the two never collide. Each value is
# an _Entry, a weak reference to the one object for its key, so an object
# is rebuilt only after nothing holds it. When it dies, _drop deletes its
# entry, unless a newer object took the key in the meantime. A key holds
# the terms and symbol it is made of, which the object holds anyway.
class _Entry(weakref.ref):
    __slots__ = ("key",)


_TABLE: dict[tuple, _Entry] = {}


def _drop(entry: _Entry) -> None:
    if _TABLE.get(entry.key) is entry:
        del _TABLE[entry.key]


def _find(key: tuple):
    """The live object interned under key, or None."""
    r = _TABLE.get(key)
    return None if r is None else r()


def _intern(key: tuple, obj: _T) -> _T:
    entry = _TABLE[key] = _Entry(obj, _drop)
    entry.key = key
    return obj


def constant(name: str) -> Constant:
    key = ("c", name)
    return _find(key) or _intern(key, Constant(name))


def variable(name: str) -> Variable:
    key = ("v", name)
    return _find(key) or _intern(key, Variable(name))


def skolem_symbol(rule_id: str, disjunct: int, var: str, arity: int) -> SkolemSymbol:
    # Arity is part of the identity: independent rule sets reuse rule ids and
    # variable names freely, and only coincide on a symbol when the frontier
    # size agrees too. Resolution back to a rule always goes through one
    # rule set's symbol index, never through the shared table.
    key = (rule_id, disjunct, var, arity)
    return _find(key) or _intern(key, SkolemSymbol(rule_id, disjunct, var, arity))


def functional(symbol: SkolemSymbol, args: Sequence[Term]) -> FunctionalTerm:
    args = tuple(args)
    key = (symbol, args)
    return _find(key) or _intern(key, FunctionalTerm(symbol, args))


def star() -> Constant:
    return constant(STAR_NAME)


def uc_constant(symbol: SkolemSymbol) -> Constant:
    """The fresh constant c_f, one per skolem symbol. Symbols that differ
    only in arity get constants of the same name, which are distinct. The
    constant holds its symbol; the symbol does not point back."""
    key = ("uc", symbol)
    return _find(key) or _intern(key, Constant(
        f"{UC_PREFIX}{symbol.rule_id}_{symbol.disjunct}_{symbol.var}", symbol))


def db_constant(var_name: str) -> Constant:
    """The fresh constant c_x of a rule database."""
    return constant(f"{DB_PREFIX}{var_name}")


def is_reserved_name(name: str) -> bool:
    return name.startswith("_")


def subterms(t: Term) -> Iterator[Term]:
    """Yield t and every subterm once, in left-to-right preorder."""
    seen: set[Term] = set()
    stack = [t]
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        yield cur
        if isinstance(cur, FunctionalTerm):
            stack.extend(reversed(cur.args))


# ---------------------------------------------------------------------------
# Atoms and substitutions

class Atom(NamedTuple):
    """Predicate applied to a tuple of terms; a fact is a variable-free
    atom. An atom is the (predicate, terms) pair and equals it."""

    predicate: str
    terms: tuple[Term, ...]

    @property
    def arity(self) -> int:
        return len(self.terms)

    @property
    def is_ground(self) -> bool:
        return all(t.is_ground for t in self.terms)

    def __repr__(self) -> str:
        return f"{self.predicate}({', '.join(map(repr, self.terms))})"


# The package's one way to build an atom: new_atom((predicate, terms)) is
# Atom(predicate, terms) without the generated __new__'s Python frame.
new_atom = functools.partial(tuple.__new__, Atom)

Substitution = Mapping[Variable, Term]


class ConstantMapping:
    """Partial map from constants to ground terms, applied syntactically.

    Application replaces every occurrence of every mapped constant, also
    inside functional terms.
    """

    __slots__ = ("mapping",)

    def __init__(self, mapping: Mapping[Constant, Term]):
        for c, t in mapping.items():
            if not isinstance(c, Constant):
                raise RuleError(f"constant mapping domain must be constants, got {c!r}")
            if not t.is_ground:
                raise RuleError(f"constant mapping range must be ground, got {t!r}")
        self.mapping = dict(mapping)

    def apply(self, t: Term) -> Term:
        if isinstance(t, Constant):
            return self.mapping.get(t, t)
        if isinstance(t, FunctionalTerm):
            return functional(t.symbol, tuple(self.apply(a) for a in t.args))
        return t

    def apply_power(self, t: Term, j: int) -> Term:
        for _ in range(j):
            t = self.apply(t)
        return t

    def items(self):
        return self.mapping.items()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConstantMapping) and other.mapping == self.mapping

    def __hash__(self) -> int:
        return hash(frozenset(self.mapping.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{c!r} -> {t!r}" for c, t in sorted(
            self.mapping.items(), key=lambda kv: kv[0].name))
        return f"{{{inner}}}"


# ---------------------------------------------------------------------------
# Rules

class HeadDisjunct(NamedTuple):
    """One head disjunct of a rule: its existential variables, in order of
    first occurrence, and its atoms."""

    existential_vars: tuple[Variable, ...]
    atoms: tuple[Atom, ...]


# A head disjunct compiled for a frontier image, one (predicate, slots) pair
# per atom. A slot is an int, a position in the image, or the skolem symbol
# of an existential variable, which takes one term throughout.
Template = tuple[tuple[str, tuple[int | SkolemSymbol, ...]], ...]


@dataclass(frozen=True)
class Query:
    """Boolean conjunctive query; every variable is existential."""

    atoms: tuple[Atom, ...]


class Rule:
    """One disjunctive existential rule, built from its body atoms and the
    atoms of each head disjunct.

    Bodies and heads are constant- and function-free, and each of their
    atoms has at least one term. A disjunct's existential variables are its
    variables that do not occur in the body, in order of first occurrence;
    no two disjuncts share one. The frontier lists the body variables
    shared with some head, ordered by first occurrence in the body; skolem
    terms take exactly this tuple as arguments.

    The skolemized heads are compiled once into sk_heads, one Template per
    disjunct. A slot is the position of a frontier variable in the
    frontier or the skolem symbol f of an existential one. `output` fills a
    template from a ground frontier image, a symbol slot with f(image), so
    no non-ground skolem term is built; over-approximation builds fill the
    same templates with abstracted terms. Obsolescence matches the same
    templates: a frontier slot must hold the image's term and a symbol slot
    stands for its existential variable, so obsolescence is tested on a
    frontier image alone. key_frontier, compiled next to them, reads that
    image off a (rule, *body image) key. The matcher compiles the templates
    into join chains on first use, held in chains and pinned_chains.
    existential says, per disjunct, whether it has existential variables.

    Construction reads each atom's terms once, into the distinct terms of
    the body and of each disjunct, and derives all of the above from
    those. The scans that name an offending atom in a RuleError run only
    once a fault is seen, so a well-formed rule never pays for them. The
    checks come in a fixed order: an empty body, an empty head, an atom
    with no terms, a term that is not a variable, an existential variable
    in two disjuncts, a generating rule without a frontier.
    """

    __slots__ = (
        "id",
        "body",
        "heads",
        "body_vars",
        "frontier",
        "branching",
        "existential",
        "is_deterministic",
        "is_generating",
        "is_datalog",
        "sk_heads",
        "sk_symbols",
        "key_frontier",
        "chains",
        "pinned_chains",
    )

    def __init__(self, rule_id: str, body: Sequence[Atom],
                 heads: Sequence[Sequence[Atom]]):
        body = tuple(body)
        head_atoms = tuple(map(tuple, heads))
        if not body:
            raise RuleError(f"rule {rule_id}: empty body")
        if not head_atoms or not all(head_atoms):
            raise RuleError(f"rule {rule_id}: empty head")
        # One pass over the atoms: the distinct terms of the body and of
        # each disjunct, in order of first occurrence, which everything
        # below reads. A fault, an atom with no terms or a distinct term
        # that is not a variable, is only detected here: _atom_fault then
        # scans the atoms again to name the first faulty atom.
        body_vars = {t: None for _, terms in body for t in terms}
        head_terms = [{t: None for _, terms in atoms for t in terms}
                      for atoms in head_atoms]
        head_vars = set().union(*head_terms)
        for atoms in (body, *head_atoms):
            for _, terms in atoms:
                if not terms:
                    raise _atom_fault(rule_id, body, head_atoms)
        for terms in (body_vars, head_vars):
            for t in terms:
                if t.__class__ is not Variable:
                    raise _atom_fault(rule_id, body, head_atoms)
        self.id = rule_id
        self.body = body
        self.body_vars = tuple(body_vars)  # type: ignore[arg-type]
        self.frontier = tuple([v for v in body_vars if v in head_vars])
        arity = len(self.frontier)
        existentials = [tuple([t for t in terms if t not in body_vars])
                        for terms in head_terms]
        used_existentials = set().union(*existentials)
        if len(used_existentials) < sum(map(len, existentials)):
            raise RuleError(
                f"rule {rule_id}: existential variable reused across disjuncts"
            )
        if used_existentials and not arity:
            raise RuleError(
                f"rule {rule_id}: a generating rule needs a body variable that is "
                f"shared with the head (skolem symbols have arity >= 1)"
            )

        # Each disjunct's template: a frontier variable's slot is its
        # position in the frontier, an existential one's its skolem symbol.
        position: dict[Variable, int | SkolemSymbol] = {
            v: i for i, v in enumerate(self.frontier)}
        disjuncts: list[HeadDisjunct] = []
        sk_heads: list[Template] = []
        symbols: list[SkolemSymbol] = []
        for i, (atoms, evars) in enumerate(zip(head_atoms, existentials), start=1):
            slot = position
            if evars:
                slot = dict(position)
                for y in evars:
                    sym = slot[y] = skolem_symbol(rule_id, i, y.name, arity)
                    symbols.append(sym)
            disjuncts.append(HeadDisjunct(evars, atoms))  # type: ignore[arg-type]
            get = slot.__getitem__
            sk_heads.append(tuple([(predicate, tuple(map(get, terms)))
                                   for predicate, terms in atoms]))
        self.heads = tuple(disjuncts)
        self.sk_heads = tuple(sk_heads)
        self.sk_symbols = frozenset(symbols)
        self.branching = len(self.heads)
        self.existential = tuple(map(bool, existentials))
        self.is_deterministic = self.branching == 1
        self.is_generating = bool(used_existentials)
        self.is_datalog = self.is_deterministic and not self.is_generating
        # The frontier is a subsequence of body_vars, whose key positions
        # start at 1. A run of consecutive positions, the empty one
        # included, is read as a slice, so that the getter returns a tuple
        # for every frontier size.
        at = [i for i, v in enumerate(self.body_vars, 1) if v in head_vars]
        start = at[0] if at else 1
        if not at or at[-1] - start == arity - 1:
            self.key_frontier = itemgetter(slice(start, start + arity))
        else:
            self.key_frontier = itemgetter(*at)
        self.chains = self.pinned_chains = None

    def output(self, disjunct: int, image: tuple[Term, ...]) -> tuple[Atom, ...]:
        """The skolemized output of one head disjunct (1-based) for a
        ground frontier image.

        It runs once per applied trigger in every fixpoint, so it is one
        loop that builds each atom through `new_atom`: on CPython 3.11 a
        call runs one Python frame, and `functional`'s per symbol slot,
        where comprehensions and Atom's own constructor would add one per
        atom."""
        out = []
        for predicate, slots in self.sk_heads[disjunct - 1]:
            terms = []
            for s in slots:
                if s.__class__ is int:
                    terms.append(image[s])  # type: ignore[index]
                else:
                    terms.append(functional(s, image))  # type: ignore[arg-type]
            out.append(new_atom((predicate, tuple(terms))))
        return tuple(out)

    def __repr__(self) -> str:
        return f"Rule({self.id})"


def _atom_fault(rule_id: str, body: tuple[Atom, ...],
                head_atoms: tuple[tuple[Atom, ...], ...]) -> RuleError:
    """The error of a rule with an atom that has no terms or a term that
    is not a variable. It names the first atom with no terms, or else the
    first term that is not a variable and the atom it occurs in first,
    reading the body and then each disjunct in order."""
    nullary = next((a for atoms in (body, *head_atoms) for a in atoms
                    if not a.terms), None)
    if nullary is not None:
        return RuleError(f"rule {rule_id}: atom {nullary!r} has no terms")
    atom, t = next((a, t) for atoms in (body, *head_atoms) for a in atoms
                   for t in a.terms if t.__class__ is not Variable)
    return RuleError(f"rule {rule_id}: rules are constant- and function-free, "
                     f"found {t!r} in {atom!r}")


class RuleSet:
    """An ordered set of rules with derived indexes and its own caches."""

    def __init__(self, rules: Sequence[Rule]):
        self.rules = tuple(rules)
        self.by_id: dict[str, Rule] = {}
        self.predicates: dict[str, int] = {}
        self.symbol_index: dict[SkolemSymbol, tuple[Rule, int]] = {}
        self.body_index: dict[str, list[tuple[Rule, int]]] = {}
        for rule in self.rules:
            if rule.id in self.by_id:
                raise RuleError(f"duplicate rule id {rule.id}")
            self.by_id[rule.id] = rule
            for atoms in (rule.body, *[h.atoms for h in rule.heads]):
                for predicate, terms in atoms:
                    known = self.predicates.setdefault(predicate, len(terms))
                    if known != len(terms):
                        raise RuleError(
                            f"predicate {predicate} used with arities "
                            f"{known} and {len(terms)}"
                        )
            for sym in rule.sk_symbols:
                self.symbol_index[sym] = (rule, sym.disjunct)
            for idx, atom in enumerate(rule.body):
                self.body_index.setdefault(atom.predicate, []).append((rule, idx))
        # The compiled pinned joins of body_index, per predicate, filled on
        # first use by matcher's runner; approx's UnblockabilityCache, made
        # on first use; approx's kept build seeds, one per universe, made
        # on first use and restored by each build; and approx's birth facts
        # of each term. All are freed with the rule set.
        self.pinned_joins: dict[str, list] = {}
        self.unblockability: UnblockabilityCache | None = None
        self.seeds: dict[tuple[Term, ...], _Seed] = {}
        self._birth_cache: dict[Term, frozenset[Atom]] = {}

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def check_fact(self, fact: Atom) -> None:
        if not fact.terms or not fact.is_ground:
            raise RuleError(f"not a fact: {fact!r}")
        known = self.predicates.get(fact.predicate)
        if known is not None and known != fact.arity:
            raise RuleError(
                f"predicate {fact.predicate} used with arities {known} and {fact.arity}"
            )


# ---------------------------------------------------------------------------
# Term measures

def is_cyclic(t: Term) -> bool:
    """True iff some subterm f(s) has f occurring again inside s."""
    return any(count >= 2 for count in t._nest.values())


def is_k_cyclic(t: Term, k: int) -> bool:
    """True iff one root-to-leaf path carries the same symbol k + 1 times."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return any(count >= k + 1 for count in t._nest.values())


def is_rho_cyclic(t: Term, rho: Rule) -> bool:
    """True iff t = f(s) with f from sk(rho) and an sk(rho) symbol inside s."""
    if not isinstance(t, FunctionalTerm):
        return False
    if t.symbol not in rho.sk_symbols:
        return False
    return any(
        sym in arg._nest for arg in t.args for sym in rho.sk_symbols
    )


# ---------------------------------------------------------------------------
# Operations

_F = TypeVar("_F", bound=Callable)


def gc_paused(fn: _F) -> _F:
    """Run fn with the cyclic garbage collector paused, and collect on exit.

    The fixpoints only add facts and terms and build no reference cycles,
    so the collector's passes over their growing heaps find nothing. The
    pause is process-wide while fn runs. On exit, by return or by raise,
    the collector is on again and collects the young objects fn left, so
    an operation pays for its own allocations. A caller that paused the
    collector keeps it paused, and nested operations pause it once.
    """
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
            gc.collect(0)
    return paused  # type: ignore[return-value]
