"""Output checks that do not trust the engine.

Each check reads the program's answer and compares it with facts fixed by
the input's construction, using plain Python sets and tuples. A check
returns None when the output is right and a one-line reason otherwise.
"""
from __future__ import annotations

from typing import Sequence

__all__ = ["replay_witness", "check_closure", "check_colouring", "plain_atoms"]


def _term(t) -> object:
    """A constant becomes its name; a functional term becomes
    (rule id, disjunct, existential variable, argument tuple)."""
    symbol = getattr(t, "symbol", None)
    if symbol is None:
        return t.name
    return (symbol.rule_id, symbol.disjunct, symbol.var,
            tuple(_term(a) for a in t.args))


def _frontier(rule) -> list:
    """Body variables shared with some head, in order of first occurrence
    in the body: the argument list of every skolem term of the rule."""
    head_vars = {v for h in rule.heads for a in h.atoms for v in a.terms}
    seen: list = []
    for atom in rule.body:
        for v in atom.terms:
            if v in head_vars and v not in seen:
                seen.append(v)
    return seen


def _fire(rule, disjunct: int, sub: dict) -> list[tuple]:
    """Facts of one head disjunct under sub; an existential y becomes the
    skolem term of (rule, disjunct, y) over the frontier images."""
    frontier = tuple(sub[v] for v in _frontier(rule))
    out = []
    for atom in rule.heads[disjunct - 1].atoms:
        args = tuple(
            sub[v] if v in sub else (rule.id, disjunct, v.name, frontier)
            for v in atom.terms)
        out.append((atom.predicate, args))
    return out


def _subterms(t) -> list:
    out = [t]
    if isinstance(t, tuple):
        for a in t[3]:
            out.extend(_subterms(a))
    return out


def _rho_cyclic(t, symbols: set) -> bool:
    """t = f(s) with f a skolem symbol of rho and one of them inside s."""
    if not isinstance(t, tuple) or t[:3] not in symbols:
        return False
    return any(isinstance(s, tuple) and s[:3] in symbols
               for a in t[3] for s in _subterms(a))


def replay_witness(prefix, unroll_prefix) -> str | None:
    """Replay three blocks of a never-termination witness.

    Starting from the database of the pivot rule rho (its body over the seed
    trigger's constants), every trigger of `unroll_prefix(prefix, 3)` must
    be loaded when it fires, and the outputs of the last block must carry a
    rho-cyclic term.
    """
    triggers = unroll_prefix(prefix, 3)
    rho = prefix.rho

    def choice(rule) -> int:
        return 1 if prefix.hc is None else prefix.hc.choice(rule)

    def plain(trigger) -> dict:
        return {v: _term(t) for v, t in trigger.substitution.items()}

    seed = plain(triggers[0])
    facts = {(a.predicate, tuple(seed[v] for v in a.terms)) for a in rho.body}
    block = len(prefix.triggers) - 1
    last_outputs: list[tuple] = []
    for pos, trigger in enumerate(triggers):
        sub = plain(trigger)
        for atom in trigger.rule.body:
            fact = (atom.predicate, tuple(sub[v] for v in atom.terms))
            if fact not in facts:
                return f"witness trigger {pos} ({trigger.rule.id}) is not loaded"
        out = _fire(trigger.rule, choice(trigger.rule), sub)
        facts.update(out)
        if pos >= len(triggers) - block:
            last_outputs.extend(out)
    symbols = {(rho.id, d, v.name)
               for d, h in enumerate(rho.heads, start=1)
               for v in {t for a in h.atoms for t in a.terms}
               if all(v not in a.terms for a in rho.body)}
    if not any(_rho_cyclic(t, symbols)
               for _, args in last_outputs for arg in args
               for t in _subterms(arg)):
        return "last witness block carries no rho-cyclic term"
    return None


def plain_atoms(result) -> set[tuple]:
    """Result set as (predicate, args) with constants by name and every
    other term as None."""
    return {(a.predicate, tuple(getattr(t, "name", None) for t in a.terms))
            for a in result}


def check_closure(results: Sequence, names: Sequence[str]) -> str | None:
    """One result set whose T facts are exactly the pairs i < j of the
    chain names[0] -> ... -> names[n]."""
    if len(results) != 1:
        return f"closure: {len(results)} result sets, expected 1"
    n = len(names) - 1
    want = {(names[i], names[j]) for i in range(n + 1) for j in range(i + 1, n + 1)}
    got = {args for p, args in plain_atoms(results[0]) if p == "T"}
    if got != want:
        return f"closure: {len(got)} T facts, expected {len(want)} = n(n+1)/2"
    return None


def check_colouring(results: Sequence, names: Sequence[str], m: int) -> str | None:
    """2^m result sets, each a proper red/blue colouring of the m paths
    with V on every node and a Mark witness on exactly the red nodes, and
    no colouring repeated."""
    if len(results) != 2 ** m:
        return f"colouring: {len(results)} result sets, expected {2 ** m}"
    per_path = len(names) // m
    seen = set()
    for result in results:
        atoms = plain_atoms(result)
        red = {args[0] for p, args in atoms if p == "Red"}
        blue = {args[0] for p, args in atoms if p == "Blue"}
        marked = {args[0] for p, args in atoms if p == "Mark" and args[1] is None}
        if red & blue or red | blue != set(names) or marked != red:
            return "colouring: a result set is not a colouring with marks on red"
        if {args[0] for p, args in atoms if p == "V"} != set(names):
            return "colouring: a node lacks V"
        for p in range(m):
            path = names[p * per_path:(p + 1) * per_path]
            if any((a in red) == (b in red) for a, b in zip(path, path[1:])):
                return "colouring: two adjacent nodes share a colour"
        seen.add(frozenset(red))
    if len(seen) != 2 ** m:
        return f"colouring: {len(seen)} distinct colourings, expected {2 ** m}"
    return None
