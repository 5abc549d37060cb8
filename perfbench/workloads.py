"""The three workloads: how a run is split into cold passes, the inputs of
each pass, and the timed operations with their checks.

Every input is drawn from a `random.Random` seeded with a string naming the
workload, the run seed and the input's index, so a pass can rebuild its own
inputs without the others and the same seed always gives the same text.

Work per run is fixed by `--seconds` alone (never by a clock), so two
versions of the program do the same work and the faster one finishes first.
The rates below were sized so that a run takes about `--seconds` on a
2-core x86-64 container with CPython 3.11.

Times are reported in reference seconds. On a shared host the speed of the
same pure-Python loop swings by a factor of two within a minute, and the
median of a run drifts by tens of percent from one minute to the next. A
`Clock` therefore runs a fixed calibration loop between operations and
scales each operation's wall time by how much slower than the reference
the loop ran just before and just after it. Raw wall times are kept too.
"""
from __future__ import annotations

import random
import time
import traceback
from dataclasses import dataclass
from types import SimpleNamespace

import checks
import generators

__all__ = ["WORKLOADS", "Plan", "plan", "generate", "Clock", "run_pass"]

# Per-rule-set limit L of classify-random, passed as classify_rules(timeout=L).
# With a small L, most of the time of a set that hits the limit goes to
# over-approximation builds running past it (ROADMAP item 2). That work
# scales with the host's speed like any other; at L = 0.25 s a larger part
# was set by the wall clock, and the 75th percentile moved by 22% between
# two ten-run sets of the same code.
LIMIT_S = 0.05
# Stratified sets are expected to come back well within this limit.
STRATIFIED_LIMIT_S = 30.0
RANDOM_SIZES = (8, 12, 16)
STRATIFIED_SIZES = (512, 768, 1024)
TC_NODES = 150
COLOUR_PATHS = 8
COLOUR_LENGTH = 6

WORKLOADS = ("classify-random", "classify-stratified", "chase-data")


@dataclass(frozen=True)
class Plan:
    workload: str
    passes: int
    items_per_pass: int
    limit_s: float | None


def plan(workload: str, seconds: int) -> Plan:
    """Split a run into cold passes. Items are rule sets for the classify
    workloads and (closure, colouring) instance pairs for chase-data."""
    if workload == "classify-random":
        passes = max(2, round(seconds / 5))
        return Plan(workload, passes, max(1, round(seconds * 4.0 / passes)), LIMIT_S)
    if workload == "classify-stratified":
        passes = max(2, round(seconds / 5))
        return Plan(workload, passes, max(1, round(seconds * 2.5 / passes)),
                    STRATIFIED_LIMIT_S)
    if workload == "chase-data":
        return Plan(workload, max(2, round(seconds / 5.4)), 1, None)
    raise ValueError(f"unknown workload {workload!r}")


# Wall time of one calibration loop at reference speed.
REFERENCE_CALIBRATION_S = 0.005
CALIBRATION_STEPS = 5_000


def _loop_s() -> float:
    start = time.perf_counter()
    table: dict = {}
    seen = set()
    x = 1
    for i in range(CALIBRATION_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x % 4099, f"k{i % 97}")
        table[key] = table.get(key, 0) + 1
        seen.add(key[0] ^ i)
    return time.perf_counter() - start


def calibration_s() -> float:
    """Wall time of a fixed loop over dicts, sets, tuples and strings, the
    kind of work the package does, independent of the package. The faster
    of two runs, since a stall only ever slows a run down."""
    return min(_loop_s(), _loop_s())


class Clock:
    """Converts wall time into reference seconds, calibrating between
    operations."""

    def __init__(self) -> None:
        self._last = calibration_s()

    def reference(self, wall_s: float) -> float:
        """Scale a span that ended just now by the calibration loops run
        before it began and now."""
        now = calibration_s()
        factor = 2 * REFERENCE_CALIBRATION_S / (self._last + now)
        self._last = now
        return wall_s * factor


def _rng(*parts: object) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


def generate(p: Plan, seed: int, index: int) -> list:
    """Inputs of pass `index`."""
    first = index * p.items_per_pass
    items = range(first, first + p.items_per_pass)
    if p.workload == "classify-random":
        # The structures come from a fixed corpus and the seed draws only
        # the predicate names: fresh structures, or seeded variable names,
        # rule order and atom order, spread the figures across seeds far
        # beyond the bounds (see README.md).
        return [generators.random_rule_set(
                    _rng("classify-random-corpus", i), _rng(p.workload, seed, i),
                    RANDOM_SIZES[i % len(RANDOM_SIZES)])
                for i in items]
    if p.workload == "classify-stratified":
        return [generators.stratified_rule_set(
                    _rng(p.workload, seed, i),
                    STRATIFIED_SIZES[i % len(STRATIFIED_SIZES)])
                for i in items]
    return [generators.transitive_closure(_rng(p.workload, seed, index, "tc"), TC_NODES),
            generators.path_colouring(_rng(p.workload, seed, index, "colour"),
                                      COLOUR_PATHS, COLOUR_LENGTH)]


def _failure(exc: BaseException) -> str:
    return traceback.format_exception_only(type(exc), exc)[-1].strip()


class _Timed:
    """Times one operation: wall seconds, then reference seconds."""

    def __init__(self, clock: Clock, kind: str):
        self.clock = clock
        self.kind = kind
        self.start = time.perf_counter()
        self.wall = 0.0
        self.seconds = 0.0

    def stop(self) -> None:
        self.wall = time.perf_counter() - self.start
        self.seconds = self.clock.reference(self.wall)

    def record(self, decided: bool, failure: str | None) -> dict:
        return {"kind": self.kind, "s": self.seconds, "wall_s": self.wall,
                "decided": decided, "failure": failure}


def _classify(pkg: SimpleNamespace, clock: Clock, item, limit: float,
              expect: str | None) -> dict:
    op = _Timed(clock, "classify")
    try:
        program = pkg.ruleio.parse(item.text)
        report = pkg.cli.classify_rules(program.rules, timeout=limit)
    except Exception as exc:  # counted as a failed operation, the run goes on
        op.stop()
        return op.record(False, _failure(exc))
    op.stop()
    failure = None
    if expect is not None and report.combined != expect:
        failure = f"verdict {report.combined}, expected {expect}"
    for verdict in report.notion_results:
        witness = getattr(verdict, "witness", None)
        if witness is not None and failure is None:
            failure = checks.replay_witness(witness, pkg.cyclicity.unroll_prefix)
    decided = report.combined in ("terminating", "never-terminating")
    return op.record(decided, failure)


def _chase(pkg: SimpleNamespace, clock: Clock, inst, counters: dict) -> list[dict]:
    """run_chase + results as one operation, then one per entails query."""
    try:
        program = pkg.ruleio.parse(inst.text)
    except Exception as exc:  # counted as a failed operation, the run goes on
        op = _Timed(clock, "chase")
        op.stop()
        return [op.record(False, _failure(exc))]
    ops = []
    op = _Timed(clock, "chase")
    try:
        tree = pkg.chase.run_chase(program.rules, program.facts)
        results = pkg.chase.results(tree)
    except Exception as exc:  # counted as a failed operation, the run goes on
        op.stop()
        ops.append(op.record(False, _failure(exc)))
    else:
        op.stop()
        counters["leaves"] += len(tree.leaves())
        if inst.family == "tc":
            failure = checks.check_closure(results, inst.names)
        else:
            failure = checks.check_colouring(results, inst.names, inst.size)
        ops.append(op.record(True, failure))
    if len(program.queries) != len(inst.queries):
        ops[-1]["failure"] = ops[-1]["failure"] or \
            f"parsed {len(program.queries)} queries, expected {len(inst.queries)}"
    for query, (text, expected) in zip(program.queries, inst.queries):
        op = _Timed(clock, "entails")
        try:
            answer = pkg.chase.entails(program.rules, program.facts, query)
        except Exception as exc:  # counted as a failed operation, the run goes on
            op.stop()
            ops.append(op.record(False, _failure(exc)))
            continue
        op.stop()
        failure = None if answer == expected else \
            f"entails {text}: {answer}, expected {expected}"
        ops.append(op.record(answer in ("yes", "no"), failure))
    return ops


def run_pass(pkg: SimpleNamespace, clock: Clock, p: Plan, inputs: list,
             counters: dict) -> list[dict]:
    """Run and check every operation of one pass, in order."""
    ops: list[dict] = []
    for item in inputs:
        if p.workload == "classify-random":
            ops.append(_classify(pkg, clock, item, p.limit_s, None))
        elif p.workload == "classify-stratified":
            ops.append(_classify(pkg, clock, item, p.limit_s, "terminating"))
        else:
            ops.extend(_chase(pkg, clock, item, counters))
    return ops
