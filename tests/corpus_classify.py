"""What `classify --json` prints for every corpus file, with the times cut.

`outcomes()` runs `cli.main` on each corpus file twice, once with the
default pipeline and once with `--notion rpc`, and returns the parsed JSON
reports keyed by file name and run. The times (`elapsed_ms` and `totalMs`)
are removed, and so is `file`, which is the path as given.

Run as a script to record them into GOLDEN (this rewrites the fixture, so do
it only when a verdict, witness or stat is meant to change):

    PYTHONPATH=src python tests/corpus_classify.py
"""
from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from chase_sentinel import cli, corpus_dir

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "data" / "corpus_classify_golden.json"
RUNS = {"default": [], "rpc": ["--notion", "rpc"]}


def _cut_times(report: dict) -> dict:
    for verdict in report["notionResults"]:
        del verdict["stats"]["elapsed_ms"]
    del report["timings"]["totalMs"]
    return report


def classify_json(path: Path, options: list[str]) -> dict:
    """The report `classify --json` prints for one file, times and path cut."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["classify", *options, "--json", str(path)]) == cli.EXIT_OK
    report = json.loads(stdout.getvalue())
    assert report.pop("file") == str(path)
    return _cut_times(report)


def outcomes() -> dict[str, dict[str, dict]]:
    return {
        path.name: {run: classify_json(path, options) for run, options in RUNS.items()}
        for path in sorted(corpus_dir().glob("*.drls"))
    }


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(outcomes(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
