import csv
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import chase_sentinel
from chase_sentinel import corpus_dir
from chase_sentinel.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SOUNDNESS,
    SoundnessViolationError,
    _combined_verdict,
    classify_rules,
    main,
)
from chase_sentinel.cyclicity import Verdict, check
from chase_sentinel.termination import (RESOURCE_EXHAUSTED, AcyclicityVerdict,
                                        SearchBudget)

import corpus_classify
from conftest import BIKE_RULES, bench_text, perfbench_module, rules_from


CORPUS = corpus_dir()
EXAMPLE = str(CORPUS / "example1.drls")
LOOP = str(CORPUS / "bike-engine-loop.drls")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_classify_terminating(capsys):
    assert main(["classify", EXAMPLE]) == EXIT_OK
    out = capsys.readouterr().out
    assert "combined: terminating" in out
    assert "acyclic k=2 (rmfa-like): terminating" in out
    # The pipeline short-circuits: no cyclicity line needed.
    assert "RPC_s" not in out


def test_classify_never_terminating(capsys):
    assert main(["classify", LOOP]) == EXIT_OK
    out = capsys.readouterr().out
    assert "combined: never-terminating" in out
    assert "RPC_s: cyclic" in out
    assert "<r1, [X/c_X]>" in out
    assert "<r2, [X/f_V(c_X)]>" in out
    assert "<r1, [X/f_W(f_V(c_X))]>" in out
    assert "g: [c_X/f_W(f_V(c_X))]" in out
    assert "cyclic term: f_V(f_W(f_V(c_X)))" in out


def test_classify_unknown(capsys):
    assert main(["classify", str(CORPUS / "rmfc-regression.drls")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "combined: unknown" in out
    assert "DRPC: not-detected" in out
    assert "RPC_s: not-detected" in out


def test_classify_json_structure(capsys):
    assert main(["classify", LOOP, "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == 1
    assert report["combined"] == "never-terminating"
    notions = [r["notion"] for r in report["notionResults"]]
    assert notions == ["acyclic", "DRPC", "RPC_s"]
    witness = report["notionResults"][2]["witness"]
    assert witness["rule"] == "r1"
    assert witness["headChoice"] == {"r1": 1, "r2": 1}
    assert [t["substitution"] for t in witness["triggers"]] == [
        {"X": "c_X"}, {"X": "f_V(c_X)"}, {"X": "f_W(f_V(c_X))"}]
    assert witness["gLambda"] == {"c_X": "f_W(f_V(c_X))"}
    assert witness["cyclicTerm"] == "f_V(f_W(f_V(c_X)))"
    assert report["timings"]["totalMs"] >= 0
    for result in report["notionResults"][1:]:
        stats = result["stats"]
        assert stats["approx_builds"] >= 0
        assert stats["unblockability_cache_hits"] >= 0
        # The seed facts hold every all-star fact, which loads every rule,
        # so each build queues at least one trigger.
        assert stats["approx_triggers"] >= stats["approx_builds"]
    assert report["notionResults"][2]["stats"]["approx_builds"] >= 1


def test_classify_single_notion(capsys):
    assert main(["classify", EXAMPLE, "--notion", "acyclic", "--k", "1"]) \
        == EXIT_OK
    out = capsys.readouterr().out
    assert "acyclic k=1" in out
    assert "DRPC" not in out

    assert main(["classify", LOOP, "--notion", "drpc"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "DRPC: not-detected" in out
    assert "combined: unknown" in out


def test_classify_missing_file(capsys):
    assert main(["classify", "/no/such/file.drls"]) == EXIT_IO
    err = capsys.readouterr().err
    assert "/no/such/file.drls" in err


def test_classify_parse_error(tmp_path, capsys):
    bad = write(tmp_path, "bad.drls", "A(X) -> B(X)\n")
    assert main(["classify", bad]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "bad.drls" in err and "line" in err


def test_combined_verdict_guards_soundness():
    cyclic = Verdict("RPC_s", "cyclic", None, {})
    terminating = AcyclicityVerdict(2, "terminating", None, {})
    assert _combined_verdict([cyclic]) == "never-terminating"
    assert _combined_verdict([terminating]) == "terminating"
    assert _combined_verdict([]) == "unknown"
    with pytest.raises(SoundnessViolationError):
        _combined_verdict([cyclic, terminating])


def test_classify_rules_api(bike2):
    report = classify_rules(bike2)
    assert report.combined == "never-terminating"
    assert "totalMs" in report.timings


# What a timed run may take past its deadline: an unblockability build in
# progress is not interrupted. The worst overrun measured on these sets, on
# a shared 2-core x86-64 host, was under 0.04 s.
SLACK_S = 0.25


def _random64(seed):
    return rules_from(perfbench_module("generators").random_rule_set(
        random.Random(seed), random.Random(0), 64).text)


@pytest.mark.parametrize("seed", [2, 3, 5])
def test_the_timeout_bounds_the_whole_classify_run(seed):
    # Every stage and saturation reads one deadline, so the run ends within
    # the timeout plus the slack, however many stages and pairs it starts.
    rules = _random64(seed)
    start = time.monotonic()
    classify_rules(rules, timeout=0.2)
    assert time.monotonic() - start < 0.2 + SLACK_S


def test_the_deadline_bounds_an_rpc_check_over_many_head_choices():
    # 20 disjunctive rules, so 2**20 head choices: no pair starts after the
    # deadline, and the check reports it.
    rules = _random64(2)
    assert sum(not r.is_deterministic for r in rules) == 20
    start = time.monotonic()
    verdict = check(rules, "rpc", SearchBudget(deadline=start + 0.3))
    assert time.monotonic() - start < 0.3 + SLACK_S
    assert verdict.result == RESOURCE_EXHAUSTED


def test_chase_lists_results(capsys):
    assert main(["chase", EXAMPLE]) == EXIT_OK
    out = capsys.readouterr().out
    assert "status: complete" in out
    assert "vertices: 4" in out
    assert "results: 2" in out
    assert "Spare(d)" in out
    assert "IsIn(d, f_V(d))" in out


def test_chase_merges_data_file(tmp_path, capsys):
    rules = write(tmp_path, "rules.drls", BIKE_RULES)
    data = write(tmp_path, "data.drls", "Engine(d) .\nEngine(e) .\n")
    assert main(["chase", rules, data]) == EXIT_OK
    out = capsys.readouterr().out
    assert "status: complete" in out
    assert "Engine(e)" in out


def test_chase_renumbers_clashing_rule_ids_of_the_data_file(tmp_path, capsys):
    # Both files number their rules from r1, so the data file's rules are
    # renumbered past the rules file's: its rule fires as r3.
    rules = write(tmp_path, "rules.drls", "A(X) -> B(X) .\nB(X) -> C(X) .\n")
    data = write(tmp_path, "data.drls", "C(X) -> D(X) .\nA(a) .\n")
    dot = tmp_path / "tree.dot"
    assert main(["chase", rules, data, "--dot", str(dot)]) == EXIT_OK
    assert "D(a)" in capsys.readouterr().out
    labels = re.findall(r'label="<(r\d+),', dot.read_text())
    assert labels == ["r1", "r2", "r3"]


def test_chase_budget_notice(tmp_path, capsys):
    rules = write(tmp_path, "loop.drls", "A(X) -> R(X, Y), A(Y) .\nA(a) .\n")
    assert main(["chase", rules, "--max-depth", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "status: budget-exhausted" in out
    assert "budget-exhausted:" in out


def test_chase_budget_notice_names_the_term_depth_budget(tmp_path, capsys):
    # The term-depth budget stops this chase; no flag raises it, so the
    # notice must not send the user to the vertex or depth flags.
    rules = write(tmp_path, "loop.drls", "A(X) -> R(X, Y), A(Y) .\nA(a) .\n")
    assert main(["chase", rules, "--max-vertices", "1000000",
                 "--max-depth", "100000"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "status: budget-exhausted" in out
    notice = next(line for line in out.splitlines()
                  if line.startswith("budget-exhausted:"))
    assert "term-depth budget tripped" in notice
    assert "--max-vertices" not in notice and "--max-depth" not in notice
    assert main(["chase", rules, "--max-depth", "3"]) == EXIT_OK
    assert "depth budget tripped; no result sets; raise --max-depth" in \
        capsys.readouterr().out


def test_chase_writes_dot(tmp_path, capsys):
    dot = tmp_path / "tree.dot"
    assert main(["chase", EXAMPLE, "--dot", str(dot)]) == EXIT_OK
    text = dot.read_text()
    assert text.startswith("digraph")
    assert "->" in text


def test_entails(tmp_path, capsys):
    rules = write(tmp_path, "rules.drls", BIKE_RULES)
    data = write(tmp_path, "data.drls", "Engine(d) .\n")
    assert main(["entails", rules, data, "--query", "Engine(d)"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "yes"
    assert main(["entails", rules, data, "--query", "? Spare(d) ."]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "no"


def test_entails_unknown_under_budget(tmp_path, capsys):
    rules = write(tmp_path, "loop.drls", "A(X) -> R(X, Y), A(Y) .\n")
    data = write(tmp_path, "data.drls", "A(a) .\n")
    assert main(["entails", rules, data, "--query", "B(a)",
                 "--max-depth", "2"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "unknown"
    # A(a) is a database fact: the root matches, under the same budget.
    assert main(["entails", rules, data, "--query", "A(a)",
                 "--max-depth", "2"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "yes"


@pytest.mark.parametrize("query, error", [
    ("A(X) @ B(X)", "line 1, column 6: unexpected character '@'"),
    ("  ? A(X), _b(X)", "line 1, column 11: identifier '_b' is reserved"),
    ("A(X)) .", "line 1, column 5: expected '.', found ')'"),
    ("??A(X)", "line 1, column 2: expected a predicate name, found '?'"),
    ("A(X)..", "line 1, column 6: expected end of input, found '.'"),
    (" ? . ", "empty query"),
])
def test_entails_query_errors_count_columns_as_typed(tmp_path, capsys, query, error):
    rules = write(tmp_path, "rules.drls", BIKE_RULES)
    data = write(tmp_path, "data.drls", "Engine(d) .\n")
    assert main(["entails", rules, data, "--query", query]) == EXIT_PARSE
    assert capsys.readouterr().err.strip() == f"chase-sentinel: query: {error}"


@pytest.mark.parametrize("command", ["chase", "entails"])
@pytest.mark.parametrize("data_text, error", [
    ("A(a, b) .\n", "predicate A used with arity 2, previously 1"),
    ("B(X, Y) -> C(X) .\n", "predicate B used with arity 2, previously 1"),
])
def test_arity_clash_between_files_is_a_usage_error(tmp_path, capsys, command,
                                                    data_text, error):
    # Each file parses, but the two use a predicate with two arities.
    rules = write(tmp_path, "rules.drls", "A(X) -> B(X) .\n")
    data = write(tmp_path, "data.drls", data_text)
    query = ["--query", "B(a)"] if command == "entails" else []
    assert main([command, rules, data, *query]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"chase-sentinel: {data}: {error}\n"


def test_query_arity_clash_is_a_usage_error(tmp_path, capsys):
    rules = write(tmp_path, "rules.drls", "A(X) -> B(X) .\n")
    data = write(tmp_path, "data.drls", "A(a) .\n")
    assert main(["entails", rules, data, "--query", "B(a, b)"]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "chase-sentinel: query: predicate B used with arity 2, previously 1\n"


@pytest.mark.parametrize("command, option, value, error", [
    ("classify", "--k", "0", "must be at least 1, got 0"),
    ("batch", "--k", "0", "must be at least 1, got 0"),
    ("classify", "--term-depth", "-1", "must be at least 1, got -1"),
    ("batch", "--term-depth", "0", "must be at least 1, got 0"),
    ("chase", "--max-vertices", "-3", "must be at least 1, got -3"),
    ("entails", "--max-vertices", "0", "must be at least 1, got 0"),
    ("chase", "--max-depth", "-1", "must be at least 0, got -1"),
    ("entails", "--max-depth", "-1", "must be at least 0, got -1"),
    ("classify", "--timeout", "-1", "must be greater than 0, got -1"),
    ("classify", "--timeout", "0", "must be greater than 0, got 0"),
    ("batch", "--timeout", "0", "must be greater than 0, got 0"),
    ("classify", "--k", "two", "invalid int value: 'two'"),
])
def test_out_of_range_budgets_are_usage_errors(command, option, value, error,
                                                capsys):
    # argparse rejects them before any analysis runs: exit 2, a usage line,
    # and no traceback or budget verdict.
    args = {"classify": [EXAMPLE], "batch": [str(CORPUS)], "chase": [EXAMPLE],
            "entails": [EXAMPLE, EXAMPLE, "--query", "A(a)"]}[command]
    with pytest.raises(SystemExit) as exit_info:
        main([command, *args, option, value])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: chase-sentinel " + command)
    assert f"error: argument {option}: {error}" in captured.err


def test_smallest_budgets_are_accepted(capsys):
    assert main(["chase", EXAMPLE, "--max-vertices", "1", "--max-depth", "0"]) \
        == EXIT_OK
    assert "status: budget-exhausted" in capsys.readouterr().out
    assert main(["classify", EXAMPLE, "--k", "1", "--term-depth", "1",
                 "--timeout", "0.5"]) == EXIT_OK
    assert "combined:" in capsys.readouterr().out


def test_batch_table_summary_and_csv(tmp_path, capsys):
    write(tmp_path, "loop.drls", "A(X) -> R(X, Y), A(Y) .\n")
    write(tmp_path, "closure.drls",
          "Edge(X, Y) -> Path(X, Y) .\nPath(X, Y), Edge(Y, Z) -> Path(X, Z) .\n")
    csv_path = tmp_path / "out.csv"
    assert main(["batch", str(tmp_path), "--csv", str(csv_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "loop.drls" in out and "closure.drls" in out
    assert "total: 2 analyzed, 0 failed" in out

    with open(csv_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["file", "bucket", "acyclic", "drpc", "rpcs",
                       "combined", "ms"]
    by_file = {r[0]: r for r in rows[1:]}
    assert by_file["loop.drls"][1] == "det 1-4"
    assert by_file["loop.drls"][5] == "never-terminating"
    assert by_file["closure.drls"][1] == "det 0"
    assert by_file["closure.drls"][5] == "terminating"


def test_batch_reports_broken_files(tmp_path, capsys):
    write(tmp_path, "ok.drls", "A(X) -> B(X) .\n")
    write(tmp_path, "broken.drls", "A(X) ->\n")
    assert main(["batch", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "total: 1 analyzed, 1 failed" in out
    assert "broken.drls" in out


def test_batch_survives_a_soundness_violation(tmp_path, capsys):
    # rmfa-like certifies bench structure 54 while RPC_s finds a witness
    # (ROADMAP item 1). batch runs every stage on every file, so the
    # structure gets an error row, in the table and the CSV, the corpus
    # file beside it is still analysed, and the exit code says a violation
    # was seen.
    write(tmp_path, "structure-54.drls", bench_text(54))
    write(tmp_path, "example1.drls", Path(EXAMPLE).read_text())
    csv_path = tmp_path / "out.csv"
    assert main(["batch", str(tmp_path), "--csv", str(csv_path)]) == EXIT_SOUNDNESS
    out = capsys.readouterr().out
    # A table row's cells, with the bucket split in two, such as "disj 1-4".
    rows = {cells[0]: cells for cells in map(str.split, out.splitlines())
            if cells and cells[0].endswith(".drls")}
    assert rows["structure-54.drls"][3:7] == ["terminating", "not-detected",
                                                "cyclic", "error"]
    assert rows["example1.drls"][6] == "terminating"
    assert ("error structure-54.drls: internal soundness violation: rule set "
            "judged both never-terminating and terminating") in out
    assert "total: 1 analyzed, 1 failed" in out
    with open(csv_path, newline="") as handle:
        by_file = {r[0]: r for r in list(csv.reader(handle))[1:]}
    assert by_file["structure-54.drls"][2:6] == ["terminating", "not-detected",
                                                 "cyclic", "error"]
    assert by_file["example1.drls"][5] == "terminating"


def test_batch_on_all_broken_dir(tmp_path, capsys):
    write(tmp_path, "broken.drls", "A(X) ->\n")
    assert main(["batch", str(tmp_path)]) == EXIT_IO


def test_batch_on_missing_dir(capsys):
    assert main(["batch", "/no/such/dir"]) == EXIT_IO


def test_cli_module_runs_under_warnings_as_errors():
    # runpy warns when the module it runs as __main__ was already imported,
    # so the package itself must not import cli.
    src = str(Path(chase_sentinel.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "chase_sentinel.cli",
         "classify", str(CORPUS / "self-loop.drls")],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == "combined: never-terminating"


def test_corpus_ships_with_the_package():
    files = sorted(p.name for p in CORPUS.glob("*.drls"))
    assert len(files) == 13
    assert "example1.drls" in files


def test_corpus_classify_replays_golden_fixture():
    """tests/data/corpus_classify_golden.json holds what `classify --json`
    printed at commit d1ce9da for each corpus file, once with the default
    pipeline and once with `--notion rpc`, with the times and the path cut;
    running tests/corpus_classify.py as a script records it again. Re-record
    it only together with a CHANGES.md note that names each verdict that
    changed: making the default acyclicity mode sound on disjunctive rules
    is expected to change disjunctive-chain and reversibility-guard."""
    want = json.loads(corpus_classify.GOLDEN.read_text(encoding="utf-8"))
    assert len(want) == 13
    got = corpus_classify.outcomes()
    assert sorted(got) == sorted(want)
    for name, runs in want.items():
        assert got[name] == runs, name


def test_corpus_classifications(capsys):
    expected = {
        "example1.drls": "terminating",
        "bike-engine-isin.drls": "terminating",
        "datalog-only.drls": "terminating",
        "guarded-loop.drls": "terminating",
        "reversibility-guard.drls": "terminating",
        "bike-engine-loop.drls": "never-terminating",
        "mixed-database.drls": "never-terminating",
        "disjunctive-choice.drls": "never-terminating",
        "uc-vs-star.drls": "never-terminating",
        "self-loop.drls": "never-terminating",
        "two-rule-loop.drls": "never-terminating",
        "rmfc-regression.drls": "unknown",
    }
    for name, combined in sorted(expected.items()):
        assert main(["classify", str(CORPUS / name)]) == EXIT_OK
        out = capsys.readouterr().out
        assert f"combined: {combined}" in out, name


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_disjunctive_chain_is_not_certified(capsys):
    # The chase of this one-rule set has an infinite fair branch, and no
    # cyclicity notion can show it, so only unknown is right; the rmfa-like
    # mode lets the second disjunct's P1 fact block the first's chain.
    assert main(["classify", str(CORPUS / "disjunctive-chain.drls")]) == EXIT_OK
    assert "combined: unknown" in capsys.readouterr().out
