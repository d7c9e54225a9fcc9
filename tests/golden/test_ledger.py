"""Every CLI command's report and CSV values stay within the ledger's
tolerance of the values recorded in ledger.json.

A change that moves output bits on purpose regenerates the ledger with
regenerate.py and reports the largest change per case.
"""

import json

from regenerate import LEDGER, compare, run_case


def test_outputs_match_the_ledger():
    ledger = json.loads(LEDGER.read_text())
    problems = []
    for case in ledger["cases"]:
        found, _ = compare(case, run_case(case["argv"], case["config"]),
                           ledger["tolerance"])
        problems += [f"{case['command']}: {p}" for p in found]
    assert not problems, "\n".join(problems[:40])
