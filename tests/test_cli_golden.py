"""Byte-level pin of the ``ccf`` command surface.

Two fixtures under ``tests/golden/cli/`` hold what a user of the CLI sees:

* ``options.txt`` -- every subcommand's help line and option table as
  :func:`repro.cli.build_parser` builds it (option strings, dest,
  default, choices, type name, nargs, required, action; options sorted
  by name);
* ``<run>.txt`` -- the exit code and stdout of a sequence of small
  invocations run in one scratch directory (``plan`` writes the coflow
  file that ``simulate`` replays, whose trace ``stats`` and ``gantt``
  read), with wall-clock times and host details masked.

A refactor of the parser or of a handler cannot change a flag, a
default or a printed byte unnoticed.  Regenerate the fixtures only for
an intended surface change::

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

import argparse
import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden" / "cli"

#: (fixture name, argv), run in order in one working directory.
RUNS = (
    ("list", ["list"]),
    ("run-motivating", ["run", "motivating"]),
    ("run-fig6-overrides", ["run", "fig6", "--scale-factor", "2",
                            "--nodes", "20"]),
    ("run-fig7-quick-csv", ["run", "fig7", "--quick", "--nodes", "20",
                            "--csv"]),
    ("plan", ["plan", "--nodes", "25", "--out", "p.json"]),
    ("simulate-trace", ["simulate", "p.json", "--trace", "t.jsonl"]),
    ("stats", ["stats", "t.jsonl"]),
    ("stats-json", ["stats", "t.jsonl", "--json"]),
    ("gantt-from-trace", ["gantt", "--from-trace", "t.jsonl"]),
    ("trace-gen", ["trace-gen", "mix.json", "--ports", "8",
                   "--coflows", "5"]),
    ("serve-json", ["serve", "--arrivals", "40", "--json"]),
    ("chaos-list", ["chaos", "--list"]),
)

#: Values that differ between runs or hosts: wall-clock times, the git
#: revision, the trace's creation time and the platform block.
_MASKS = (
    (re.compile(r"solve time: [0-9.]+ ms"), "solve time: * ms"),
    (re.compile(r'"wall_s": [0-9.e+-]+'), '"wall_s": *'),
    (re.compile(r'"created_unix": [0-9.e+-]+'), '"created_unix": *'),
    (re.compile(r'"git": (null|"[^"]*")'), '"git": *'),
    (re.compile(r"git=[^\s)]+"), "git=*"),
    (re.compile(r'"(python|numpy|machine|system)": "[^"]*"'), r'"\1": *'),
)


def option_table() -> dict:
    """Subcommand -> its help line and the attributes of every option."""
    parser = build_parser()
    (sub,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    helps = {a.dest: a.help for a in sub._choices_actions}
    table = {}
    for name, subparser in sub.choices.items():
        table[name] = {
            "help": helps.get(name),
            "options": [
                {
                    "option_strings": a.option_strings,
                    "dest": a.dest,
                    "default": a.default,
                    "choices": list(a.choices) if a.choices else None,
                    # argparse hands a value-taking option its string
                    # as is when no type is given.
                    "type": a.type.__name__ if a.type else (
                        None if a.nargs == 0 else "str"
                    ),
                    "nargs": a.nargs,
                    "required": a.required,
                    "action": type(a).__name__,
                }
                # Positionals keep their order; options are listed by
                # name, since their order only affects --help layout.
                for a in sorted(
                    (a for a in subparser._actions
                     if not isinstance(a, argparse._HelpAction)),
                    key=lambda a: (bool(a.option_strings),
                                   a.option_strings[:1]),
                )
            ],
        }
    return table


def _options_text() -> str:
    """One line per subcommand, then one JSON line per option."""
    lines = []
    for name, entry in option_table().items():
        lines.append(f"{name}: {entry['help']}")
        lines += ["  " + json.dumps(opt) for opt in entry["options"]]
    return "\n".join(lines) + "\n"


def _mask(text: str) -> str:
    for pattern, replacement in _MASKS:
        text = pattern.sub(replacement, text)
    return text


def transcripts(workdir: Path) -> dict[str, str]:
    """Run :data:`RUNS` in ``workdir``; fixture name -> masked transcript."""
    out = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv in RUNS:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = main(argv)
            out[name] = _mask(
                f"$ ccf {' '.join(argv)}\nexit {rc}\n{stdout.getvalue()}"
            )
    finally:
        os.chdir(cwd)
    return out


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return transcripts(tmp_path_factory.mktemp("cli-golden"))


def test_option_table_matches_golden():
    assert _options_text() == (GOLDEN / "options.txt").read_text()


@pytest.mark.parametrize("name", [name for name, _ in RUNS])
def test_transcript_matches_golden(runs, name):
    assert runs[name] == (GOLDEN / f"{name}.txt").read_text()


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    GOLDEN.mkdir(parents=True, exist_ok=True)
    (GOLDEN / "options.txt").write_text(_options_text())
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in transcripts(Path(tmp)).items():
            (GOLDEN / f"{name}.txt").write_text(text)
