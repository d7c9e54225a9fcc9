"""Quick self-test of the benchmark's own oracles and tracer.

Usage: python3 perfbench/selftest.py   (exit 0 when every check passes)

The turning-point DP must match exhaustive enumeration on short
sequences with plateaus and ties, the vectorized turning-point count must
match the per-sequence one, and traced self times must never exceed
their spans.  run.py runs this before every benchmark run.
"""

import sys
import time

import numpy as np

import oracles
from tracer import Tracer, consistent


def _oracle_problems(rng):
    problems = []
    for n in list(range(0, 10)) * 4:
        # Small integer levels give plateaus and equal values; scaling by a
        # random factor keeps ties exact.
        x = rng.integers(-3, 4, size=n) * rng.uniform(0.5, 2.0)
        if n and rng.random() < 0.5:
            x = x + rng.normal(scale=1e-3, size=n)
        for rho in (2.0, 2.5, 3.0):
            want = oracles.brute_rho_variation(x, rho)
            got = oracles.rho_variation(x, rho)
            if abs(got - want) > 1e-12 * max(1.0, want):
                problems.append(f"turning-point DP {got!r} != brute force {want!r} on {list(x)}")
    cols = rng.integers(-2, 3, size=(30, 50)).astype(float)
    cols[:, 0] = 1.0
    want = [len(oracles.turning_points(cols[:, k])) for k in range(cols.shape[1])]
    if list(oracles.turning_counts(cols)) != want:
        problems.append("vectorized turning-point count disagrees with the per-column one")
    return problems


def _tracer_problems():
    tracer = Tracer()

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    inner = tracer.wrap("bessel", "bessel.inner", lambda: busy(0.002))
    outer = tracer.wrap("spectral", "spectral.outer",
                        lambda: [inner() for _ in range(3)] and busy(0.002))
    t0 = time.perf_counter()
    outer()
    outer()
    wall = time.perf_counter() - t0
    summary = tracer.summary()
    problems = [] if consistent(summary, wall) else ["tracer: self time exceeds its span"]
    names = summary["names"]
    if names["bessel.inner"]["calls"] != 6 or names["spectral.outer"]["calls"] != 2:
        problems.append("tracer: call counts are wrong")
    if not names["spectral.outer"]["self_s"] < names["spectral.outer"]["incl_s"]:
        problems.append("tracer: nested time is not subtracted from self time")
    return problems


def run(seed=0):
    return _oracle_problems(np.random.default_rng(seed)) + _tracer_problems()


if __name__ == "__main__":
    found = run()
    for problem in found:
        print(problem)
    print("selftest:", "fail" if found else "pass")
    sys.exit(1 if found else 0)
