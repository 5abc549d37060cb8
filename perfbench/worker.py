"""One cold pass of a benchmark run, in its own process.

    python3 perfbench/worker.py --workload W --seed N --seconds S --pass K --trace 0|1

Imports the package from `src/` of the checkout, builds the pass's inputs,
runs and checks every operation, and prints one JSON object: set-up time,
one record per operation, peak RSS, and with --trace 1 the per-layer sums
read from the spans. Per-layer sums are in wall seconds; operations and
set-up are in reference seconds (see workloads.Clock). Traced passes also
write their spans to perfbench/out/.
The parent, run.py, starts one worker per pass so that every pass pays the
cold costs (imports, empty intern tables) a command-line user pays.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import workloads  # noqa: E402  (lives next to this file)
from tracing import Tracer  # noqa: E402


def _import_package() -> SimpleNamespace:
    sys.path.insert(0, str(ROOT / "src"))
    import chase_sentinel
    from chase_sentinel import (approx, chase, cli, cyclicity, matcher, model,
                                ruleio, termination)

    origin = Path(chase_sentinel.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"chase_sentinel imported from {origin}, not from this checkout")
    return SimpleNamespace(
        package=chase_sentinel, approx=approx, chase=chase, cli=cli,
        cyclicity=cyclicity, matcher=matcher, model=model, ruleio=ruleio,
        termination=termination)


def _install_tracer(pkg: SimpleNamespace) -> Tracer:
    """Wrap the public entry points of every layer, outside in."""
    tracer = Tracer()
    modules = [pkg.package, pkg.approx, pkg.chase, pkg.cli, pkg.cyclicity,
               pkg.matcher, pkg.model, pkg.ruleio, pkg.termination]

    def trigger_is_datalog(_answer, args):
        trigger = next(a for a in args if isinstance(a, pkg.matcher.Trigger))
        return trigger.rule.is_datalog

    def saturation(run, _args):
        return [len(run.provenance), run.truncated]

    spans = [
        (pkg.ruleio.parse, "ruleio.parse", None),
        (pkg.cli.classify_rules, "cli.classify_rules", None),
        (pkg.termination.check_acyclic, "termination.check_acyclic",
         lambda v, _: [v.stats.get("applied", 0), v.stats.get("facts", 0)]),
        (pkg.cyclicity.check, "cyclicity.check", lambda v, _: v.notion),
        (pkg.cyclicity.rpc_fact_set, "cyclicity.saturation", saturation),
        (pkg.cyclicity.drpc_fact_set, "cyclicity.saturation", saturation),
        (pkg.cyclicity.extract_prefix, "cyclicity.extract_prefix", None),
        (pkg.approx.is_uc_unblockable, "approx.unblockable", trigger_is_datalog),
        (pkg.approx.is_star_unblockable, "approx.unblockable", trigger_is_datalog),
        (pkg.approx.build_over_approx, "approx.build_over_approx",
         lambda approx, _: len(approx.facts)),
        (pkg.chase.run_chase, "chase.run_chase", lambda tree, _: len(tree.vertices)),
        (pkg.chase.results, "chase.results", None),
        (pkg.chase.entails, "chase.entails", None),
    ]
    for fn, name, info in spans:
        tracer.install(modules, fn, tracer.span(name, fn, info))
    tracer.install(modules, pkg.matcher.is_obsolete,
                   tracer.counted("matcher.is_obsolete", pkg.matcher.is_obsolete))
    tracer.install(modules, pkg.matcher.match_conjunction,
                   tracer.lazy("matcher.match_conjunction", pkg.matcher.match_conjunction))
    return tracer


def _layers(tracer: Tracer) -> dict[str, float]:
    """Per-layer sums over the spans and counts of one traced pass."""
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0) + value

    for name, start, end, _parent, self_s, info in tracer.spans:
        dur = end - start
        add(f"{name}.calls", 1)
        add(f"{name}.s", dur)
        if name == "termination.check_acyclic" and info:
            add("termination.applied", info[0])
            add("termination.facts", info[1])
        elif name == "cyclicity.check":
            add({"DRPC": "cyclicity.drpc_s", "RPC_s": "cyclicity.rpcs_s"}.get(
                info, "cyclicity.other_s"), dur)
        elif name == "cyclicity.saturation":
            add("cyclicity.saturation_self_s", self_s)
            if info:
                add("cyclicity.triggers_applied", info[0])
                add("cyclicity.truncated_saturations", int(info[1]))
        elif name == "approx.unblockable" and info is False:
            add("approx.nondatalog_checks", 1)
        elif name == "approx.build_over_approx" and info is not None:
            add("approx.build_facts", info)
        elif name == "chase.run_chase" and info is not None:
            add("chase.vertices", info)
    for name, (calls, busy) in tracer.counts.items():
        add(f"{name}.calls", calls)
        add(f"{name}.s", busy)
    add("trace.spans", len(tracer.spans))
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--pass", dest="index", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    clock = workloads.Clock()
    start = time.perf_counter()
    pkg = _import_package()
    plan = workloads.plan(args.workload, args.seconds)
    inputs = workloads.generate(plan, args.seed, args.index)
    setup_wall_s = time.perf_counter() - start
    setup_s = clock.reference(setup_wall_s)

    tracer = _install_tracer(pkg) if args.trace else None
    counters = {"leaves": 0}
    ops = workloads.run_pass(pkg, clock, plan, inputs, counters)
    report = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "ops": ops,
        "leaves": counters["leaves"],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        report["layers"] = _layers(tracer)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}-seed{args.seed}-pass{args.index}.json"
        path.write_text(json.dumps({"spans": tracer.records(),
                                    "counts": tracer.counts}))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
