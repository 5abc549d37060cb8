"""Benchmark entry point for chase-sentinel.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The run is split into cold passes; each
pass is a fresh `worker.py` process started after the previous one ended,
so load comes from one process and one thread. The report lists every
metric by name with its unit, then prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured untraced.
With --trace 1 the first half of the passes run twice, untraced and then
traced, and the metrics are the per-layer sums over the traced passes plus
the tracing overhead (traced over untraced operation time, minus one).

Exits 2 without a result when the checkout holds no `src/chase_sentinel`.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import workloads  # noqa: E402  (lives next to this file)

# A whole run must end within 180 s; passes share what is left of this.
RUN_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "work_s": "s",
    "verdict_ms_p50": "ms",
    "verdict_ms_p75": "ms",
    "decided_share": "ratio",
    "peak_rss_mb": "MB",
}

# name: (unit, key of the workers' raw sums, or None when derived below)
PER_LAYER = {
    "ruleio.parse_s": ("s", "ruleio.parse.s"),
    "cli.classify_s": ("s", "cli.classify_rules.s"),
    "termination.acyclic_s": ("s", "termination.check_acyclic.s"),
    "termination.applied": ("count", "termination.applied"),
    "termination.facts": ("count", "termination.facts"),
    "cyclicity.drpc_s": ("s", "cyclicity.drpc_s"),
    "cyclicity.rpcs_s": ("s", "cyclicity.rpcs_s"),
    "cyclicity.saturations": ("count", "cyclicity.saturation.calls"),
    "cyclicity.saturation_self_s": ("s", "cyclicity.saturation_self_s"),
    "cyclicity.triggers_applied": ("count", "cyclicity.triggers_applied"),
    "cyclicity.truncated_saturations": ("count", "cyclicity.truncated_saturations"),
    "cyclicity.extract_prefix_s": ("s", "cyclicity.extract_prefix.s"),
    "approx.build_calls": ("count", "approx.build_over_approx.calls"),
    "approx.build_s": ("s", "approx.build_over_approx.s"),
    "approx.facts_per_build": ("count", None),
    "approx.unblockable_checks": ("count", "approx.unblockable.calls"),
    "approx.cache_hit_ratio": ("ratio", None),
    "matcher.match_calls": ("count", "matcher.match_conjunction.calls"),
    "matcher.match_s": ("s", "matcher.match_conjunction.s"),
    "matcher.obsolete_calls": ("count", "matcher.is_obsolete.calls"),
    "chase.run_chase_s": ("s", "chase.run_chase.s"),
    "chase.vertices": ("count", "chase.vertices"),
    "chase.vertices_per_s": ("1/s", None),
    "chase.leaves": ("count", None),
    "chase.results_s": ("s", "chase.results.s"),
    "chase.entails_s": ("s", "chase.entails.s"),
    "trace.overhead_ratio": ("ratio", None),
    "trace.spans": ("count", "trace.spans"),
}


class PassError(RuntimeError):
    pass


def run_pass(args: argparse.Namespace, index: int, trace: bool,
             deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--pass", str(index),
           "--trace", "1" if trace else "0"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"pass {index} ran past the {RUN_TIMEOUT_S} s limit of a run") from exc
    if done.returncode != 0:
        raise PassError(f"pass {index} exited {done.returncode}: "
                        f"{done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def percentile(values: list[float], p: int) -> float:
    """p-th percentile by statistics.quantiles' exclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[p - 1]


def end_to_end(plan: workloads.Plan, passes: list[dict]) -> tuple[dict, dict]:
    """Metrics a user sees, plus the workload-specific figures the report
    prints beside them."""
    ops = [op for p in passes for op in p["ops"]]
    latencies = [op["s"] * 1000.0 for op in ops]
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "work_s": sum(op["s"] for op in ops),
        "verdict_ms_p50": percentile(latencies, 50),
        "verdict_ms_p75": percentile(latencies, 75),
        "decided_share": sum(op["decided"] for op in ops) / len(ops),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
    }
    failed = sum(op["failure"] is not None for op in ops)
    extra = {"operations": len(ops), "failed_share": failed / len(ops),
             "work_wall_s": sum(op["wall_s"] for op in ops),
             "setup_wall_s": statistics.median(p["setup_wall_s"] for p in passes)}
    if plan.workload.startswith("classify"):
        extra["classify_s"] = metrics["work_s"]
    if plan.workload == "classify-random":
        # The program's limit is wall time, so the overrun is too.
        extra["limit_overrun_s"] = sum(max(0.0, op["wall_s"] - plan.limit_s) for op in ops)
    if plan.workload == "chase-data":
        extra["chase_s"] = sum(op["s"] for op in ops if op["kind"] == "chase")
        extra["entails_s"] = sum(op["s"] for op in ops if op["kind"] == "entails")
    return metrics, extra


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    raw: dict[str, float] = {}
    for p in traced:
        for key, value in p["layers"].items():
            raw[key] = raw.get(key, 0) + value
    metrics = {name: float(raw.get(key, 0))
               for name, (_unit, key) in PER_LAYER.items() if key is not None}
    builds = metrics["approx.build_calls"]
    metrics["approx.facts_per_build"] = raw.get("approx.build_facts", 0) / builds if builds else 0.0
    checks = raw.get("approx.nondatalog_checks", 0)
    metrics["approx.cache_hit_ratio"] = 1.0 - builds / checks if checks else 0.0
    run_s = metrics["chase.run_chase_s"]
    metrics["chase.vertices_per_s"] = metrics["chase.vertices"] / run_s if run_s else 0.0
    metrics["chase.leaves"] = float(sum(p["leaves"] for p in traced))
    plain = sum(op["s"] for p in untraced for op in p["ops"])
    timed = sum(op["s"] for p in traced for op in p["ops"])
    metrics["trace.overhead_ratio"] = timed / plain - 1.0
    return {name: metrics[name] for name in PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="chase-sentinel benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "chase_sentinel" / "__init__.py").is_file():
        print(f"no src/chase_sentinel under {ROOT}: run from a checkout",
              file=sys.stderr)
        return 2

    plan = workloads.plan(args.workload, args.seconds)
    # A traced run repeats its passes traced, so it covers the first half
    # of the passes to take about as long as an untraced run.
    passes = (plan.passes + 1) // 2 if args.trace else plan.passes
    deadline = time.monotonic() + RUN_TIMEOUT_S
    untraced: list[dict] = []
    traced: list[dict] = []
    try:
        for index in range(passes):
            untraced.append(run_pass(args, index, False, deadline))
            if args.trace:
                traced.append(run_pass(args, index, True, deadline))
    except PassError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics, extra = end_to_end(plan, untraced)
    ops = [op for p in untraced + traced for op in p["ops"]]
    failures = [op["failure"] for op in ops if op["failure"] is not None]

    limit = f"  limit L={plan.limit_s} s" if plan.workload == "classify-random" else ""
    print(f"workload {args.workload}  seed {args.seed}  passes {passes}  "
          f"operations {extra['operations']}{limit}")
    for name, unit in END_TO_END.items():
        print(f"  {name:<28} {metrics[name]:>14.6f} {unit}")
    for name, value in extra.items():
        if name != "operations":
            unit = "ratio" if name.endswith("share") else "s"
            print(f"  {name:<28} {value:>14.6f} {unit}")
    if args.trace:
        reported = per_layer(untraced, traced)
        units = {name: unit for name, (unit, _key) in PER_LAYER.items()}
        for name, unit in units.items():
            print(f"  {name:<28} {reported[name]:>14.6f} {unit}")
    else:
        reported, units = metrics, END_TO_END
    for failure in failures[:10]:
        print(f"  FAILED: {failure}")

    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": reported[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
