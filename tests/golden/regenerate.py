"""Regenerate the value ledger and print how far each case moved.

Usage, from the root of a source checkout:

    PYTHONPATH=src python tests/golden/regenerate.py [--compare]

Runs every case of CASES with one BLAS thread, prints how far each moved
from the ledger on disk and ends with the line "N of M digests
unchanged", then rewrites the ledger; with --compare it prints the same
figures and writes nothing.  Either way it exits 1 when any case moved
outside the tolerance, else 0.  A change that moves output bits reports
these figures; test_ledger.py checks a tree against the ledger without
rewriting it.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import tempfile
from pathlib import Path

LEDGER = Path(__file__).resolve().parent / "ledger.json"

# Shrunk as the benchmark's workloads are, so the whole ledger runs in a
# few seconds: one random atom and two H1 functions, three lp-ratio
# functions per setting.  S_NU runs the same sizes on the Psi family.
HEAVY = {"n_a_atoms": 1, "n_functions": 2}
S_NU = {**HEAVY, "setting": "s_nu"}
LP = {"n_functions": 3}
CASES = [
    (["zeros"], None),
    (["zeros", "--n", "1000"], None),
    (["ortho"], None),
    (["kernel-check"], None),
    (["bounds"], None),
    (["bounds", "--nu", "-0.6", "--beta", "0.5"], None),
    (["variation"], None),
    (["gfunction"], None),
    (["atoms"], HEAVY),
    (["h1"], HEAVY),
    (["lp-ratio"], LP),
    (["lp-ratio", "--nu", "-0.7"], LP),
    (["atoms"], S_NU),
    (["h1"], S_NU),
]

# Written into the ledger next to the data it bounds.
TOLERANCE = {
    "rel": 1e-10, "abs": 1e-12,
    "rule": "|new - old| <= max(rel |old|, abs) for every float; keys, "
            "strings, integers and verdicts exactly equal",
    "why": "rel is the tolerance the acceptance suite and the Bessel "
           "closed-form tests put on one Bessel value and on a zero's "
           "residual; abs is criterion 5's absolute floor and criterion 4's "
           "bound on the half-integer zeros.  Quantities at rounding or "
           "quadrature-error level, such as zero residuals (<= 4e-15) and "
           "Gram off-diagonals (<= 1.3e-11), lie below abs / rel = 0.01, so "
           "abs alone bounds them.",
}


def _cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _digest(root):
    """sha256 over the sorted file names and bytes of an output directory."""
    chunks = []
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            chunks.append(path.name.encode())
            chunks.append(path.read_bytes())
    return hashlib.sha256(b"".join(chunks)).hexdigest()[:16]


def run_case(argv, config):
    """Run one CLI command in this process; return its ledger entry."""
    from fbvar import cli
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        extra = []
        if config is not None:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config))
            extra = ["--config", str(path)]
        code = cli.main(argv + extra + ["--out", str(out)])
        stem = argv[0].replace("-", "_")
        report = json.loads((out / f"{stem}.json").read_text())
        tables = {}
        for path in sorted(out.glob("*.csv")):
            with open(path, newline="") as fh:
                header, *rows = list(csv.reader(fh))
            tables[path.name] = {name: [_cell(row[i]) for row in rows]
                                 for i, name in enumerate(header)}
        digest = _digest(out)
    command = "fbvar " + " ".join(argv)
    if config is not None:
        command += " --config config.json  # config.json: " + json.dumps(config)
    return {"command": command, "argv": argv,
            "config": config, "config_sha256": report["config_sha256"],
            "exit_code": code, "verdict": report["verdict"],
            "results": report["results"], "refinement": report["refinement"],
            "csv": tables, "digest": digest}


def leaves(value, path=""):
    """(path, leaf) for every leaf of a JSON value."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from leaves(value[key], f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaves(item, f"{path}.{i}")
    else:
        yield path, value


def compare(old, new, tol):
    """(problems, moves) between two ledger entries.

    Paths, strings, integers, booleans and non-finite floats must agree
    exactly, finite floats within tol.  moves["rel"] is the largest
    relative change, with its path, among the floats the relative bound
    governs; moves["abs"] the largest absolute change among those the
    floor governs.  The digest is informational and not compared."""
    old, new = (dict(leaves({k: v for k, v in entry.items() if k != "digest"}))
                for entry in (old, new))
    if old.keys() != new.keys():
        return [f"paths differ: {sorted(old.keys() ^ new.keys())[:20]}"], {}
    problems = []
    moves = {"rel": (0.0, None), "abs": (0.0, None)}
    for path, a in old.items():
        b = new[path]
        if isinstance(a, float) and isinstance(b, float):
            if a == b or (math.isnan(a) and math.isnan(b)):
                continue
            if not (math.isfinite(a) and math.isfinite(b)):
                problems.append(f"{path}: {a!r} -> {b!r}")
                continue
            diff, rel_bound = abs(b - a), tol["rel"] * abs(a)
            if rel_bound >= tol["abs"]:
                moves["rel"] = max(moves["rel"], (diff / abs(a), path))
            else:
                moves["abs"] = max(moves["abs"], (diff, path))
            if not diff <= max(rel_bound, tol["abs"]):
                problems.append(f"{path}: {a!r} -> {b!r}")
        elif type(a) is not type(b) or a != b:
            problems.append(f"{path}: {a!r} -> {b!r}")
    return problems, moves


def main(argv):
    # one BLAS thread, as perfbench runs: kernel-check's sums move in the
    # last bits with the thread count, which BLAS reads when numpy (imported
    # with fbvar in run_case) loads
    os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                      MKL_NUM_THREADS="1")
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--compare", action="store_true",
                        help="print how far each case moved; write nothing")
    write = not parser.parse_args(argv).compare
    old = json.loads(LEDGER.read_text()) if LEDGER.exists() else None
    previous = {c["command"]: c for c in old["cases"]} if old else {}
    entries = []
    outside = unchanged = 0
    for argv, config in CASES:
        entry = run_case(argv, config)
        entries.append(entry)
        line = entry["command"]
        prev = previous.get(line)
        if prev is not None:
            problems, moves = compare(prev, entry, old["tolerance"])
            for kind, (size, where) in moves.items():
                if where:
                    line += f"\n    largest {kind} change {size:.3g} at {where}"
            same = prev["digest"] == entry["digest"]
            line += (f"\n    {len(problems)} outside the tolerance; digest "
                     f"{'unchanged' if same else 'changed'}")
            outside += len(problems)
            unchanged += same
        print(line)
    print(f"{unchanged} of {len(CASES)} digests unchanged")
    if write:
        LEDGER.write_text(json.dumps({"tolerance": TOLERANCE,
                                      "cases": entries}, indent=1) + "\n")
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
