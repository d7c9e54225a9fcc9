"""Every CLI command's report and CSV values stay within the ledger's
tolerance of the values recorded in ledger.json.

A change that moves output bits on purpose regenerates the ledger with
regenerate.py and reports the largest change per case.
"""

import json

import regenerate
from regenerate import LEDGER, compare, run_case


def test_outputs_match_the_ledger():
    ledger = json.loads(LEDGER.read_text())
    problems = []
    for case in ledger["cases"]:
        found, _ = compare(case, run_case(case["argv"], case["config"]),
                           ledger["tolerance"])
        problems += [f"{case['command']}: {p}" for p in found]
    assert not problems, "\n".join(problems[:40])


def test_compare_exit_code_and_digest_count(tmp_path, monkeypatch, capsys):
    # main() pins one BLAS thread in the environment; setenv restores it
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "1")
    case = (["zeros", "--n", "5"], None)
    entry = run_case(*case)
    ledger = tmp_path / "ledger.json"
    monkeypatch.setattr(regenerate, "CASES", [case])
    monkeypatch.setattr(regenerate, "LEDGER", ledger)

    def compare_against(old):
        ledger.write_text(json.dumps({"tolerance": regenerate.TOLERANCE,
                                      "cases": [old]}))
        code = regenerate.main(["--compare"])
        return code, capsys.readouterr().out.splitlines()[-1]

    assert compare_against(entry) == (0, "1 of 1 digests unchanged")
    moved = json.loads(json.dumps(entry))
    moved["results"]["fitted_mcmahon_C"] *= 1.0 + 1e-9
    moved["digest"] = "0" * 16
    assert compare_against(moved) == (1, "0 of 1 digests unchanged")
