"""Golden CLI reports: stdout and exit status of fixed command lines.

``cli_golden.json`` holds, for each case, the argv, the stdin text, the
stdout and the exit status that ``monodromy.cli.main`` gave when the file
was written.  ``test_cli_golden.py`` replays every case in-process and
asserts byte-identical stdout and the same status, so a change meant to
keep the reports shows that it does.  Stderr is not recorded: its wording
may change.

The cases are the two family commands on eight tuples, each tuple piped
through the report subcommands, and a set of rejected moduli.  Regenerate
the file, only when a report is meant to change, with

    PYTHONPATH=src python tests/cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from monodromy.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

# (family argv, whether ``order`` and ``cross-validate`` run on its tuple)
FAMILIES = [
    (["hyperelliptic", "--genus", "1", "--prime", "5"], True),
    (["hyperelliptic", "--genus", "2", "--prime", "5"], True),
    (["hyperelliptic", "--genus", "3", "--prime", "3"], True),
    (["hyperelliptic", "--genus", "2", "--prime", "101"], False),
    (["twist-family", "--roots", "2,3", "--prime", "5"], True),
    (["twist-family", "--roots", "2", "--prime", "7"], True),
    (["twist-family", "--roots", "2,3", "--prime", "7"], True),
    (["twist-family", "--roots", "2,3,4", "--prime", "11"], False),
]

REPORTS = [
    (["classify"], True),
    (["order"], False),
    (["certify", "--r", "1"], True),
    (["certify", "--r", "2"], True),
    (["cross-validate", "--r", "2"], False),
    (["convolve", "--lambda", "2"], True),
    (["convolve", "--lambda", "-1"], True),
    (["convolve", "--lambda", "1"], True),
    (["predict", "--lambda", "2"], True),
]

HUGE = str(10**18 + 3)

REJECTED = [
    (["hyperelliptic", "--genus", "1", "--prime", p], "")
    for p in ("9", "2", "1", "-7", HUGE, "3037000493")
] + [
    (["twist-family", "--roots", "2", "--prime", p], "")
    for p in ("9", "3", HUGE, "x")
] + [
    (["classify"], f"MODULUS {p} RANK 1 PUNCTURES 1\nAT 0\n1\n")
    for p in ("9", "2", HUGE)
]


def run(argv: list[str], stdin: str) -> tuple[str, int]:
    """Stdout and exit status of ``main``; argparse's usage errors included."""
    out = io.StringIO()
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv, stdin=io.StringIO(stdin), stdout=out)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), code


def cases() -> list[tuple[list[str], str]]:
    """Every (argv, stdin) pair, with each family tuple computed by ``main``."""
    found = []
    for family, full in FAMILIES:
        found.append((family, ""))
        text, _ = run(family, "")
        found += [(report, text) for report, always in REPORTS if always or full]
    return found + REJECTED


def write() -> None:
    records = []
    for argv, stdin in cases():
        stdout, code = run(argv, stdin)
        records.append({"argv": argv, "stdin": stdin, "stdout": stdout, "exit": code})
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write()
