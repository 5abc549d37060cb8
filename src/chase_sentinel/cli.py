"""Command line front end.

Four subcommands: `classify` runs the termination pipeline on one rule set,
`chase` executes the restricted chase and prints its result sets, `entails`
answers a boolean conjunctive query, and `batch` classifies a directory of
rule files into a summary table.

Exit codes: 0 on successful analysis, 1 on an internal soundness violation
(a rule set judged both terminating and never-terminating, which would
falsify a theorem and is surfaced loudly), 2 on parse errors, 3 on I/O
errors. `batch` gives a file with a violation an error row, in the table
and the CSV, analyses the other files, and then exits 1. The environment
variable CHASE_SENTINEL_LOG selects a logging level (DEBUG, INFO, ...) for
trace output on stderr.
"""
from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .chase import (BUDGET_EXHAUSTED, DEPTH, TERM_DEPTH, VERTICES, ChaseBudget,
                    entails, results, run_chase)
from .cyclicity import CYCLIC, CyclicityPrefix, check
from .model import Atom, Query, Rule, RuleSet, gc_paused
from .ruleio import Namer, ParseError, SourceProgram, parse, parse_query
from .termination import (RMFA_LIKE, TERMINATING, WEAKLY_ACYCLIC,
                          AcyclicityVerdict, SearchBudget, check_acyclic,
                          weakly_acyclic)

__all__ = ["main", "ClassificationReport", "SoundnessViolationError"]

log = logging.getLogger("chase_sentinel")

EXIT_OK = 0
EXIT_SOUNDNESS = 1
EXIT_PARSE = 2
EXIT_IO = 3

NEVER_TERMINATING = "never-terminating"
UNKNOWN = "unknown"

SCHEMA_VERSION = 1

_PIPELINE = ("acyclic", "drpc", "rpcs")


class SoundnessViolationError(RuntimeError):
    """Raised when verdicts certify both termination and its negation."""


class CommandError(Exception):
    """User-facing failure with an exit code."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


@dataclass
class ClassificationReport:
    file: str
    notion_results: list
    combined: str
    timings: dict


def _combined_verdict(notion_results: Sequence) -> str:
    """The combined verdict, read off the result words: only the
    acyclicity check says terminating, and only a cyclicity check cyclic."""
    words = {v.result for v in notion_results}
    cyclic, terminating = CYCLIC in words, TERMINATING in words
    if cyclic and terminating:
        raise SoundnessViolationError(
            "rule set judged both never-terminating and terminating")
    if cyclic:
        return NEVER_TERMINATING
    if terminating:
        return TERMINATING
    return UNKNOWN


# ---------------------------------------------------------------------------
# Input loading

def _load_program(path: str) -> SourceProgram:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CommandError(f"{path}: {exc.strerror or exc}", EXIT_IO)
    try:
        return parse(text)
    except ParseError as exc:
        raise CommandError(f"{path}: {exc}", EXIT_PARSE)


def _check_arities(arities: dict[str, int], where: str,
                   atoms: Iterable[Atom]) -> None:
    """Record each atom's predicate arity in arities; a predicate recorded
    with another arity is a usage error that names where."""
    for atom in atoms:
        known = arities.setdefault(atom.predicate, atom.arity)
        if known != atom.arity:
            raise CommandError(
                f"{where}: predicate {atom.predicate} used with arity "
                f"{atom.arity}, previously {known}", EXIT_PARSE)


def _load_rules_and_data(rules_path: str, data_path: str | None,
                         ) -> tuple[RuleSet, list[Atom], dict[str, int]]:
    """The rules file and the optional data file combined, with the arity
    of every predicate they use. Both files may mix rules and facts, and a
    predicate keeps one arity across both. Rule ids are assigned per file,
    so the second file's rules are renumbered past the first file's when
    their ids clash."""
    arities: dict[str, int] = {}
    rules: list[Rule] = []
    facts: list[Atom] = []
    for path in filter(None, (rules_path, data_path)):
        program = _load_program(path)
        _check_arities(arities, path, (
            atom for rule in program.rules
            for atoms in (rule.body, *(h.atoms for h in rule.heads))
            for atom in atoms))
        _check_arities(arities, path, program.facts)
        extra = list(program.rules)
        ids = {r.id for r in rules}
        if any(r.id in ids for r in extra):
            offset = len(rules)
            extra = [Rule(f"r{offset + i}", r.body, [h.atoms for h in r.heads])
                     for i, r in enumerate(extra, start=1)]
        rules.extend(extra)
        facts.extend(program.facts)
    return RuleSet(rules), facts, arities


# ---------------------------------------------------------------------------
# Report rendering

def _witness_json(prefix: CyclicityPrefix, namer: Namer) -> dict:
    head_choice = None
    if prefix.hc is not None:
        head_choice = {rid: i for rid, i in prefix.hc.signature()}
    return {
        "rule": prefix.rho.id,
        "headChoice": head_choice,
        "triggers": [
            {
                "rule": t.rule.id,
                "substitution": {
                    v.name: namer.term(x) for v, x in t.substitution.items()
                },
            }
            for t in prefix.triggers
        ],
        "gLambda": {namer.term(c): namer.term(t) for c, t in prefix.g.items()},
        "cyclicTerm": namer.term(prefix.cyclic_term),
    }


def _witness_lines(prefix: CyclicityPrefix, namer: Namer) -> list[str]:
    lines = [f"  rule: {prefix.rho.id}"]
    if prefix.hc is not None:
        chosen = ", ".join(f"{rid}:{i}" for rid, i in prefix.hc.signature())
        lines.append(f"  head choice: {chosen}")
    lines.append("  triggers:")
    for t in prefix.triggers:
        lines.append(f"    {namer.trigger(t)}")
    lines.append(f"  g: {namer.substitution(prefix.g)}")
    lines.append(f"  cyclic term: {namer.term(prefix.cyclic_term)}")
    return lines


def _verdict_json(v, namer: Namer) -> dict:
    if isinstance(v, AcyclicityVerdict):
        term = namer.term(v.cyclic_term) if v.cyclic_term is not None else None
        return {"notion": "acyclic", "k": v.k, "result": v.result,
                "cyclicTerm": term, "stats": v.stats}
    witness = _witness_json(v.witness, namer) if v.witness is not None else None
    return {"notion": v.notion, "result": v.result, "witness": witness,
            "stats": v.stats}


def _verdict_lines(v, namer: Namer) -> list[str]:
    if isinstance(v, AcyclicityVerdict):
        label = f"acyclic k={v.k} ({v.stats['mode']})"
        line = f"{label}: {v.result}  [{v.stats['elapsed_ms']} ms]"
        if v.cyclic_term is not None:
            line += f"  first k-cyclic term: {namer.term(v.cyclic_term)}"
        return [line]
    lines = [f"{v.notion}: {v.result}  [{v.stats['elapsed_ms']} ms]"]
    if v.witness is not None:
        lines.extend(_witness_lines(v.witness, namer))
    return lines


def _report_json(report: ClassificationReport, namer: Namer) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "file": report.file,
        "combined": report.combined,
        "notionResults": [_verdict_json(v, namer) for v in report.notion_results],
        "timings": report.timings,
    }


# ---------------------------------------------------------------------------
# classify

def _acyclic(rules: RuleSet, k: int, budget: SearchBudget) -> AcyclicityVerdict:
    """The acyclicity stage: a weakly acyclic rule set is terminating with
    no saturation, and any other goes on to `check_acyclic`. The verdict's
    `elapsed_ms` covers both rungs."""
    start = time.monotonic()
    if weakly_acyclic(rules):
        stats = {"mode": RMFA_LIKE, "rung": WEAKLY_ACYCLIC, "applied": 0, "facts": 0}
        verdict = AcyclicityVerdict(k, TERMINATING, None, stats)
    else:
        verdict = check_acyclic(rules, k, budget)
    verdict.stats["elapsed_ms"] = round((time.monotonic() - start) * 1000.0, 3)
    return verdict


def _run_stages(rules: RuleSet, stages: Sequence[str], k: int,
                deadline: float | None, term_depth: int) -> Iterator:
    """Run the stages in order and yield each one's verdict. Every stage
    gets the same budget, so its absolute deadline bounds the stages
    together, not each one."""
    budget = SearchBudget(max_term_depth=term_depth, deadline=deadline)
    for stage in stages:
        if stage == "acyclic":
            verdict = _acyclic(rules, k, budget)
        else:
            verdict = check(rules, stage, budget)
        log.info("%s: %s", stage, verdict.result)
        yield verdict


@gc_paused
def classify_rules(
    rules: RuleSet,
    *,
    notion: str | None = None,
    k: int = 2,
    timeout: float | None = None,
    term_depth: int = 8,
) -> ClassificationReport:
    """Run the requested notion, or the full pipeline, over one rule set.

    The pipeline runs the cheap acyclicity check first and stops at the
    first definitive verdict: terminating short-circuits the cyclicity
    notions, a cyclic verdict ends the run. A cyclicity stage saturates its
    (head choice, pivot) pairs in rounds of doubling trigger quotas, resuming
    the pairs that reached the quota, so a short witness is not kept waiting
    behind long saturations. The timeout, in seconds, bounds the whole run:
    it sets one absolute deadline that every stage and saturation reads. An
    unblockability build in progress is not interrupted, so a run can end a
    little after the deadline.
    """
    start = time.monotonic()
    deadline = None if timeout is None else start + timeout
    stages = (notion,) if notion is not None else _PIPELINE
    notion_results: list = []
    for verdict in _run_stages(rules, stages, k, deadline, term_depth):
        notion_results.append(verdict)
        if verdict.result in (TERMINATING, CYCLIC):
            break

    combined = _combined_verdict(notion_results)
    total_ms = round((time.monotonic() - start) * 1000.0, 3)
    return ClassificationReport("", notion_results, combined, {"totalMs": total_ms})


def cmd_classify(args: argparse.Namespace) -> int:
    program = _load_program(args.file)
    report = classify_rules(
        program.rules,
        notion=args.notion,
        k=args.k,
        timeout=args.timeout,
        term_depth=args.term_depth,
    )
    report.file = args.file
    namer = Namer(program.rules)
    if args.as_json:
        print(json.dumps(_report_json(report, namer), indent=2))
        return EXIT_OK
    for verdict in report.notion_results:
        for line in _verdict_lines(verdict, namer):
            print(line)
    print(f"combined: {report.combined}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# chase

# How a stopped chase could go on.
_BUDGET_HINTS = {VERTICES: "raise --max-vertices", DEPTH: "raise --max-depth",
                 TERM_DEPTH: "the chase may not terminate, see classify"}


def cmd_chase(args: argparse.Namespace) -> int:
    rules, facts, _ = _load_rules_and_data(args.rules, args.data)
    budget = ChaseBudget(max_vertices=args.max_vertices, max_depth=args.max_depth)
    tree = run_chase(rules, facts, budget)
    if args.dot:
        try:
            Path(args.dot).write_text(tree.to_dot(), encoding="utf-8")
        except OSError as exc:
            raise CommandError(f"{args.dot}: {exc.strerror or exc}", EXIT_IO)
    namer = Namer(rules)
    print(f"status: {tree.status}")
    print(f"vertices: {len(tree.vertices)}")
    if tree.status == BUDGET_EXHAUSTED:
        print(f"budget-exhausted: {tree.exhausted} budget tripped; no result sets; "
              f"{_BUDGET_HINTS[tree.exhausted]}")
        return EXIT_OK
    result_sets = results(tree)
    print(f"results: {len(result_sets)}")
    for i, result in enumerate(result_sets, start=1):
        print(f"result {i}:")
        for fact in sorted(namer.atom(a) for a in result):
            print(f"  {fact}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entails

def _parse_query(text: str) -> Query:
    try:
        query = parse_query(text)
    except ParseError as exc:
        raise CommandError(f"query: {exc}", EXIT_PARSE)
    if not query.atoms:
        raise CommandError("query: empty query", EXIT_PARSE)
    return query


def cmd_entails(args: argparse.Namespace) -> int:
    rules, facts, arities = _load_rules_and_data(args.rules, args.data)
    query = _parse_query(args.query)
    _check_arities(arities, "query", query.atoms)
    budget = ChaseBudget(max_vertices=args.max_vertices, max_depth=args.max_depth)
    print(entails(rules, facts, query, budget))
    return EXIT_OK


# ---------------------------------------------------------------------------
# batch

_BUCKET_RANGES = [(0, 0, "0"), (1, 4, "1-4"), (5, 19, "5-19"),
                  (20, 99, "20-99"), (100, None, "100+")]


def _bucket(rules: RuleSet) -> str:
    shape = "det" if all(r.is_deterministic for r in rules) else "disj"
    generating = sum(1 for r in rules if r.is_generating)
    for low, high, label in _BUCKET_RANGES:
        if generating >= low and (high is None or generating <= high):
            return f"{shape} {label}"
    raise AssertionError("unreachable")


@dataclass
class BatchRow:
    """One file's row; `stages` holds the result of each stage of
    _PIPELINE, in its order."""

    file: str
    bucket: str
    stages: tuple[str, ...]
    combined: str
    ms: int
    error: str | None = None
    violation: bool = False


def _analyze_file(path: Path, k: int, timeout: float | None,
                  term_depth: int) -> BatchRow:
    start = time.monotonic()

    def elapsed() -> int:
        return int(round((time.monotonic() - start) * 1000.0))

    try:
        program = _load_program(str(path))
    except CommandError as exc:
        return BatchRow(path.name, "-", ("-",) * len(_PIPELINE), "error",
                        elapsed(), error=str(exc))
    rules = program.rules
    deadline = None if timeout is None else start + timeout
    verdicts = list(_run_stages(rules, _PIPELINE, k, deadline, term_depth))
    fields = (path.name, _bucket(rules), tuple(v.result for v in verdicts))
    try:
        combined = _combined_verdict(verdicts)
    except SoundnessViolationError as exc:
        log.error("%s: internal soundness violation: %s", path.name, exc)
        return BatchRow(*fields, "error", elapsed(),
                        error=f"internal soundness violation: {exc}",
                        violation=True)
    log.info("%s: %s", path.name, combined)
    return BatchRow(*fields, combined, elapsed())


_COLUMNS = ("file", "bucket", *_PIPELINE, "combined", "ms")


def _cells(row: BatchRow) -> list[str]:
    return [row.file, row.bucket, *row.stages, row.combined, str(row.ms)]


def _format_table(rows: list[BatchRow]) -> list[str]:
    cells = [list(_COLUMNS)] + [_cells(r) for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(_COLUMNS))]
    lines = []
    for row in cells:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    for r in rows:
        if r.error is not None:
            lines.append(f"error {r.file}: {r.error}")
    return lines


def _format_summary(rows: list[BatchRow]) -> list[str]:
    analyzed = [r for r in rows if r.error is None]
    counts: dict[str, dict[str, int]] = {}
    for r in analyzed:
        per = counts.setdefault(r.bucket, {TERMINATING: 0, NEVER_TERMINATING: 0,
                                           UNKNOWN: 0})
        per[r.combined] += 1
    lines = ["", "summary:"]
    for bucket in sorted(counts):
        per = counts[bucket]
        lines.append(
            f"  {bucket}: terminating {per[TERMINATING]}, "
            f"never-terminating {per[NEVER_TERMINATING]}, "
            f"unknown {per[UNKNOWN]}")
    errors = len(rows) - len(analyzed)
    lines.append(f"  total: {len(analyzed)} analyzed, {errors} failed")
    return lines


def cmd_batch(args: argparse.Namespace) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        raise CommandError(f"{args.dir}: not a directory", EXIT_IO)
    files = sorted(directory.glob("*.drls"))

    rows = [_analyze_file(f, args.k, args.timeout, args.term_depth)
            for f in files]

    for line in _format_table(rows):
        print(line)
    for line in _format_summary(rows):
        print(line)

    if args.csv:
        try:
            with open(args.csv, "w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle)
                writer.writerow(_COLUMNS)
                writer.writerows(_cells(r) for r in rows)
        except OSError as exc:
            raise CommandError(f"{args.csv}: {exc.strerror or exc}", EXIT_IO)

    if any(r.violation for r in rows):
        return EXIT_SOUNDNESS
    analyzed = sum(1 for r in rows if r.error is None)
    if files and analyzed == 0:
        return EXIT_IO
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point

def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an integer of at least `low`."""
    def parse_int(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse_int.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse_int


def _positive_float(text: str) -> float:
    """An argparse type: a number greater than 0."""
    value = float(text)
    if not value > 0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be greater than 0, got {text}")
    return value


_positive_float.__name__ = "float"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chase-sentinel",
        description="Termination analysis and chase execution for disjunctive "
                    "existential rule sets.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify one rule set")
    p.add_argument("file", help="rule file (.drls)")
    p.add_argument("--notion", choices=["rpcs", "rpc", "drpc", "acyclic"],
                   help="run a single notion instead of the default pipeline")
    p.add_argument("--k", type=_int_at_least(1), default=2,
                   help="nesting bound for the acyclicity check (default 2)")
    p.add_argument("--timeout", type=_positive_float, default=None, metavar="SECS",
                   help="wall-time bound of the whole run, all stages together")
    p.add_argument("--term-depth", type=_int_at_least(1), default=8, dest="term_depth",
                   metavar="INT", help="term depth budget (default 8)")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="emit a JSON report")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("chase", help="run the restricted chase")
    p.add_argument("rules", help="rule file; may also hold facts")
    p.add_argument("data", nargs="?", default=None, help="optional fact file")
    p.add_argument("--max-vertices", type=_int_at_least(1), default=100_000,
                   metavar="N")
    p.add_argument("--max-depth", type=_int_at_least(0), default=None, metavar="N")
    p.add_argument("--dot", default=None, metavar="FILE",
                   help="write the chase tree in dot format")
    p.set_defaults(func=cmd_chase)

    p = sub.add_parser("entails", help="decide boolean conjunctive query entailment")
    p.add_argument("rules", help="rule file")
    p.add_argument("data", help="fact file")
    p.add_argument("--query", required=True, metavar="CONJUNCTION",
                   help='e.g. "Spare(d)" or "Has(d, Y), Engine(Y)"')
    p.add_argument("--max-vertices", type=_int_at_least(1), default=100_000,
                   metavar="N")
    p.add_argument("--max-depth", type=_int_at_least(0), default=None, metavar="N")
    p.set_defaults(func=cmd_entails)

    p = sub.add_parser("batch", help="classify every .drls file in a directory")
    p.add_argument("dir")
    p.add_argument("--k", type=_int_at_least(1), default=2)
    p.add_argument("--timeout", type=_positive_float, default=None, metavar="SECS",
                   help="wall-time bound of each file, all stages together")
    p.add_argument("--term-depth", type=_int_at_least(1), default=8, dest="term_depth",
                   metavar="INT")
    p.add_argument("--csv", default=None, metavar="FILE")
    p.set_defaults(func=cmd_batch)

    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("CHASE_SENTINEL_LOG")
    if not level_name:
        return
    level = getattr(logging, level_name.upper(), None)
    if not isinstance(level, int):
        level = logging.INFO
    logging.basicConfig(
        level=level, format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler: Callable[[argparse.Namespace], int] = args.func
    try:
        return handler(args)
    except CommandError as exc:
        print(f"chase-sentinel: {exc}", file=sys.stderr)
        return exc.code
    except SoundnessViolationError as exc:
        print(f"chase-sentinel: internal soundness violation: {exc}",
              file=sys.stderr)
        return EXIT_SOUNDNESS


if __name__ == "__main__":
    sys.exit(main())
