"""Which functions of the package the commands reach.

Under `sys.setprofile`, the census runs every command on every corpus
file, three error inputs and one pass of each benchmark workload, and
records each code object it enters. Every function and method defined in
`src/chase_sentinel` that none of these enters must be on UNREACHED, and
every function on UNREACHED must stay unentered: a function that becomes
dead, or one that becomes reached, forces an edit to the list. Classes'
generated methods (dataclasses, named tuples) have no source of their own
here and are not counted.
"""
from __future__ import annotations

import ast
import contextlib
import dataclasses
import io
import sys
from pathlib import Path

import chase_sentinel
from chase_sentinel import cli, corpus_dir, ruleio

from conftest import perfbench_module

PACKAGE = Path(chase_sentinel.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

UNREACHED = {
    # The benchmark wraps five of these by name to count its layers, and
    # two of those run `_run_to_end`; they move out once the package keeps
    # its own counters (ROADMAP item 17, after item 7).
    "approx.build_over_approx",
    "cyclicity._run_to_end",
    "cyclicity.drpc_fact_set",
    "cyclicity.rpc_fact_set",
    "matcher.is_obsolete",
    "matcher.match_conjunction",
    # The tests' presentation shuffles render rule sets.
    "ruleio.render",
    "ruleio._render_rule",
    # Printing, comparing and hashing, for tests and debugging.
    "matcher.FactSet.__repr__",
    "matcher.HeadChoice.__eq__",
    "matcher.HeadChoice.__hash__",
    "matcher.HeadChoice.__repr__",
    "matcher.Trigger.__repr__",
    "model.ConstantMapping.__eq__",
    "model.ConstantMapping.__hash__",
    "model.ConstantMapping.__repr__",
    "model.Rule.__repr__",
    "model.Variable.__repr__",
}


def defined_functions() -> dict[tuple[str, int, str], str]:
    """Every function and method defined in the package's source files, as
    module.qualname, keyed by what its code object says of it: the module,
    the first line (its first decorator's, when it has one) and the name."""
    found = {}

    def visit(node: ast.AST, stem: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min(n.lineno for n in [child, *child.decorator_list])
                found[stem, first, child.name] = prefix + child.name
                visit(child, stem, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, stem, f"{prefix}{child.name}.")
            else:
                visit(child, stem, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        visit(tree, path.stem, f"{path.stem}.")
    return found


def run(*argv: str) -> int:
    """cli.main on argv with its output swallowed; argparse's exit code
    for a usage error."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(list(argv))
        except SystemExit as exc:
            return exc.code


def commands(tmp_path: Path) -> None:
    """Every command on every corpus file, and the error inputs."""
    files = sorted(corpus_dir().glob("*.drls"))
    for path in files:
        text = path.read_text(encoding="utf-8")
        predicates = ruleio.parse(text).rules.predicates
        data = tmp_path / f"{path.stem}.data.drls"
        data.write_text("".join(
            f"{p}({', '.join(['a'] * n)}) .\n" for p, n in predicates.items()))
        first, arity = next(iter(predicates.items()))
        query = f"{first}({', '.join(f'X{i}' for i in range(arity))})"
        assert run("classify", str(path)) == cli.EXIT_OK
        assert run("classify", str(path), "--notion", "rpc", "--json") == cli.EXIT_OK
        assert run("classify", str(path), "--timeout", "0.05") == cli.EXIT_OK
        assert run("chase", str(path), "--dot", str(tmp_path / "tree.dot")) \
            == cli.EXIT_OK
        assert run("entails", str(path), str(data), "--query", query) == cli.EXIT_OK
    assert run("batch", str(corpus_dir()), "--csv",
               str(tmp_path / "batch.csv")) == cli.EXIT_OK

    unparsable = tmp_path / "unparsable.drls"
    unparsable.write_text("A(X) -> B(X)\n")
    assert run("classify", str(unparsable)) == cli.EXIT_PARSE
    faulty = tmp_path / "faulty.drls"
    faulty.write_text("A(X) -> B(a) .\n")
    assert run("classify", str(faulty)) == cli.EXIT_PARSE
    assert run("classify", str(files[0]), "--k", "0") == 2


def workload_passes(monkeypatch) -> None:
    """One pass of each benchmark workload at its smallest plan, with its
    checks, through the package modules as the benchmark's worker binds
    them. Its classify limits are lifted, so that what the pass reaches
    does not depend on the host's speed: under the profiler, classify-random
    sets reach their witnesses, and the witness replay, only untimed."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports its siblings
    workloads = perfbench_module("workloads")
    pkg = perfbench_module("worker")._import_package()
    clock = workloads.Clock()
    for name in workloads.WORKLOADS:
        plan = dataclasses.replace(workloads.plan(name, 1), limit_s=None)
        inputs = workloads.generate(plan, 4242, 0)
        ops = workloads.run_pass(pkg, clock, plan, inputs, {"leaves": 0})
        assert [op["failure"] for op in ops] == [None] * len(ops), name


def test_the_commands_reach_every_function_but_the_listed_ones(tmp_path, monkeypatch):
    codes = set()

    def profile(frame, event, _arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        commands(tmp_path)
        workload_passes(monkeypatch)
    finally:
        sys.setprofile(None)
    defined = defined_functions()
    reached = set()
    for code in codes:
        path = Path(code.co_filename).resolve()
        name = defined.get((path.stem, code.co_firstlineno, code.co_name))
        if path.parent == PACKAGE and name:
            # A nested function runs only after the function around it
            # ran, which may have been at import, as `gc_paused` runs.
            while name:
                reached.add(name)
                name = name.rpartition(".<locals>.")[0]
    assert set(defined.values()) - reached == UNREACHED
