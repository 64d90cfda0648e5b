"""Every golden CLI report is reproduced byte for byte (see ``cli_golden.py``)."""

import json

import pytest

from cli_golden import GOLDEN, cases, run

RECORDS = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "record", RECORDS, ids=[f"{i}:{' '.join(r['argv'])}" for i, r in enumerate(RECORDS)]
)
def test_report_is_unchanged(record):
    assert run(record["argv"], record["stdin"]) == (record["stdout"], record["exit"])


def test_golden_file_covers_every_case():
    assert [(r["argv"], r["stdin"]) for r in RECORDS] == cases()
