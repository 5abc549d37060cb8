"""Seeded rule-file texts for the parser, and what parsing each one gives.

`texts(seed, n)` draws n texts from `random.Random(seed)`, in three kinds
taken in turn:

- a window of one to four lines of a corpus file, mutated one to three
  times;
- a generated rule set: `conftest.random_rule_set` rendered, or a small
  perfbench `random_rule_set` or `stratified_rule_set`, sometimes with a
  fact and a query, and mutated half of the time;
- soup: atoms over a few predicates, variables and constants joined by
  random punctuation, or pieces of ALPHABET joined with or without spaces,
  mostly the syntax's own pieces.

A mutation inserts a piece of ALPHABET, deletes one to three characters or
replaces one character by a piece. ALPHABET holds the syntax's tokens,
identifiers (reserved, upper, lower and starting with a digit), tabs, `\\r`,
`\\r\\n`, a lone `-` and `>`, digits, `é`, `É`, `中`, `²`, `Ⅻ`, `٣`, a
combining accent, `\\xa0`, `\\f`, and comments with and without a newline, so
a text often ends in a comment.

`outcome(text)` is the exact `ParseError` text, or the rule ids, `render`
of the rules and the facts and queries as `Namer` prints them.

Run as a script to record the outcomes of `texts(GOLDEN_SEED, GOLDEN_COUNT)`
into GOLDEN (this rewrites the fixture, so do it only when the parser is
meant to change what it accepts or reports):

    PYTHONPATH=src python tests/parse_texts.py
"""
from __future__ import annotations

import json
import random
from pathlib import Path

from chase_sentinel.ruleio import Namer, ParseError, parse, render

from conftest import perfbench_module, random_rule_set

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "data" / "parse_golden.json"
GOLDEN_SEED = "parse-golden"
GOLDEN_COUNT = 2000

# Named, not globbed, so that a corpus file added later leaves the draw as
# it was recorded.
CORPUS_FILES = (
    "bike-engine-isin.drls", "bike-engine-loop.drls", "datalog-only.drls",
    "disjunctive-choice.drls", "example1.drls", "guarded-loop.drls",
    "mixed-database.drls", "reversibility-guard.drls", "rmfc-regression.drls",
    "self-loop.drls", "two-rule-loop.drls", "uc-vs-star.drls",
)

SYNTAX = (
    "->", "(", ")", ",", ".", "|", "?", " ", "\t", "\r", "\r\n", "\n",
    "% c", "% c\n", "%", "X", "Y", "U", "a", "b", "é", "É", "中", "_x", "_P",
    "A", "P0", "P1",
)
EXOTIC = ("-", ">", "0", "7", "1X", "²X", "Ⅻ", "٣", "\u0301", "\xa0", "\f", "@")
ALPHABET = SYNTAX + EXOTIC


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(text))
        op = rng.randrange(3)
        if op == 0:
            text = text[:at] + rng.choice(ALPHABET) + text[at:]
        elif op == 1:
            text = text[:at] + text[at + rng.randint(1, 3):]
        else:
            text = text[:at] + rng.choice(ALPHABET) + text[at + 1:]
    return text


def _corpus_window(rng: random.Random, corpus: list[list[str]]) -> str:
    lines = rng.choice(corpus)
    start = rng.randrange(len(lines))
    return _mutate(rng, "".join(lines[start:start + rng.randint(1, 4)]))


def _generated(rng: random.Random) -> str:
    kind = rng.randrange(4)
    generators = perfbench_module("generators")
    if kind < 2:
        text = render(random_rule_set(rng, 3))
    elif kind == 2:
        text = generators.random_rule_set(rng, rng, 2).text
    else:
        text = generators.stratified_rule_set(rng, 2).text
    if rng.random() < 0.3:
        predicate = text[:text.index("(")]
        text += f"{predicate}(a) .\n? {predicate}(X) .\n"
    return _mutate(rng, text) if rng.random() < 0.5 else text


def _soup(rng: random.Random) -> str:
    if rng.random() < 0.5:
        parts = []
        for _ in range(rng.randint(1, 6)):
            terms = ", ".join(rng.choice(("X", "Y", "U", "a", "b"))
                              for _ in range(rng.randint(1, 3)))
            parts.append(f"{rng.choice(('A', 'B', 'P0'))}({terms})")
            parts.append(rng.choice((" -> ", ", ", " | ", " .\n", " .\n? ")))
        return "".join(parts)
    sep = rng.choice(("", " "))
    return sep.join(rng.choice(EXOTIC if rng.random() < 0.1 else SYNTAX)
                    for _ in range(rng.randint(1, 24)))


def texts(seed: object, n: int) -> list[str]:
    rng = random.Random(seed)
    corpus_dir = HERE.parent / "src" / "chase_sentinel" / "corpus"
    corpus = [(corpus_dir / name).read_text(encoding="utf-8").splitlines(keepends=True)
              for name in CORPUS_FILES]
    draw = (lambda: _corpus_window(rng, corpus), lambda: _generated(rng),
            lambda: _soup(rng))
    return [draw[i % 3]() for i in range(n)]


def outcome(text: str) -> str:
    try:
        program = parse(text)
    except ParseError as exc:
        return f"error: {exc}"
    namer = Namer(program.rules)
    ids = " ".join(rule.id for rule in program.rules)
    facts = "; ".join(namer.atom(a) for a in program.facts)
    queries = "; ".join(", ".join(namer.atom(a) for a in q.atoms)
                        for q in program.queries)
    return (f"ids: {ids}\n{render(program.rules)}facts: {facts}\n"
            f"queries: {queries}")


def main() -> None:
    cases = [[text, outcome(text)] for text in texts(GOLDEN_SEED, GOLDEN_COUNT)]
    GOLDEN.parent.mkdir(exist_ok=True)
    with GOLDEN.open("w", encoding="utf-8") as f:
        f.write("[\n")
        f.write(",\n".join(json.dumps(case, ensure_ascii=True) for case in cases))
        f.write("\n]\n")


if __name__ == "__main__":
    main()
