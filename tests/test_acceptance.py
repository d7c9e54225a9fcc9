"""Acceptance suite: one test per criterion, each printing PASS/FAIL + timing.

Every tolerance is pinned here; nothing is deferred to later calibration.
Run with -s to see the per-criterion lines.
"""

import csv
import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from fbvar import (cli, grid as G, hardy as H, kernel_bounds as KB,
                   semigroups as SG, spectral as S, variation as V)

from helpers import (brute_force_jump_count, exhaustive_rho_variation,
                     images_free_kernel, sine_series_heat_kernel)

_shared = {}


def shared_basis(nu, n_modes):
    key = (float(nu), int(n_modes))
    if key not in _shared:
        _shared[key] = S.make_basis(nu, n_modes)
    return _shared[key]


class Criterion:
    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget = budget_s
        self.t0 = None

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} criterion {self.number}: {self.label} "
              f"({elapsed:.1f}s / budget {self.budget:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget "
                f"({elapsed:.1f}s)")
        return False


def test_criterion_1_g_function_identity():
    with Criterion(1, "exact g-function L2 identity", 30.0):
        rng = np.random.default_rng(100)
        for nu in (0.0, 0.5):
            basis = shared_basis(nu, 16)
            g = S.reference_grid(nu, 16)
            mass = g.masses(nu)
            coeffs = np.zeros(16)
            coeffs[:10] = rng.normal(size=10)
            c = S.CoefficientVector(coeffs, basis, "phi")
            f = S.synthesize(c, g)
            f_norm2 = G.lp_norm(f.values, 2.0, mass) ** 2
            for gamma in (0.5, 1.0, 2.0):
                want = math.gamma(2.0 * gamma) / 2.0 ** (2.0 * gamma) * f_norm2
                gv = V.g_function(basis, gamma, c, g.nodes)
                got = np.dot(mass, gv ** 2)
                assert abs(got - want) <= 1e-4 * want, (nu, gamma)


def test_criterion_2_orthonormality():
    with Criterion(2, "Gram matrices within 1e-8 of identity", 10.0):
        for nu in (-0.9, -0.5, 0.0, 0.5, 1.0):
            basis = shared_basis(nu, 20)
            g = S.reference_grid(nu, 20)
            for flavor in ("phi", "psi"):
                # Psi_n is in L^2(dx) iff nu > -1, so no order in this set
                # loses square-integrability and both Grams are checked
                gram = S.gram_matrix(basis, g, flavor)
                dev = float(np.max(np.abs(gram - np.eye(20))))
                assert dev < 1e-8, (nu, flavor, dev)


def test_criterion_3_subordination_consistency():
    with Criterion(3, "series vs subordination Poisson kernel", 10.0):
        triples = ((0.05, 0.3, 0.7), (0.08, 0.5, 0.5), (0.2, 0.2, 0.9),
                   (0.5, 0.8, 0.4), (1.0, 0.6, 0.6))
        for nu in (0.0, 0.5):
            basis = shared_basis(nu, 512)
            for (t, x, y) in triples:
                series = SG.kernel_family(basis, [t], x, y, "poisson")[0]
                integral = SG.subordination_poisson_kernel(basis, t, x, y)
                assert abs(integral - series) <= 1e-6 * abs(series), \
                    (nu, t, x, y)


def test_criterion_4_half_integer_closed_forms():
    with Criterion(4, "nu = 1/2 closed-form oracles", 5.0):
        basis = shared_basis(0.5, 64)
        lam = basis.zeros
        assert np.max(np.abs(lam - np.arange(1, 65) * math.pi)) < 1e-12
        assert np.max(np.abs(basis.norm_consts - math.sqrt(math.pi))) < 1e-10
        for (t, x, y) in ((0.1, 0.3, 0.7), (0.05, 0.5, 0.5), (0.3, 0.9, 0.2)):
            got = SG.kernel_family(basis, [t], x, y, "heat")[0]
            assert abs(got - sine_series_heat_kernel(t, x, y)) < 1e-10
        for (t, x, y) in ((0.1, 0.3, 0.7), (0.02, 0.5, 0.52), (0.6, 0.2, 0.4)):
            got = SG.free_heat_kernel(0.5, t, x, y)
            assert abs(got - images_free_kernel(t, x, y)) < 1e-10


def test_criterion_5_oracle_equivalence():
    with Criterion(5, "DP variation and greedy jumps vs brute force", 5.0):
        rng = np.random.default_rng(101)
        for _ in range(200):
            length = int(rng.integers(2, 13))
            gvec = rng.normal(size=length)
            rho = float(rng.uniform(2.05, 5.0))
            dp = V.rho_variation(gvec, rho).value
            brute = exhaustive_rho_variation(gvec, rho)
            assert abs(dp - brute) <= 1e-12 * max(1.0, brute)
            lam = float(rng.uniform(0.05, 2.5))
            assert V.jump_count(gvec, lam) == brute_force_jump_count(gvec, lam)


def test_criterion_6_exact_inequalities():
    with Criterion(6, "exact inequality chain, 500 trials", 60.0):
        rng = np.random.default_rng(102)
        basis = shared_basis(0.0, 16)
        g = S.reference_grid(0.0, 16)
        times = SG.log_times(1e-2, 10.0, 40, include=(1.0,))
        i_one = int(np.argmin(np.abs(times - 1.0)))
        edges = times[::5]

        def check_sequence(seq):
            rho = float(rng.uniform(2.05, 4.0))
            lam = float(rng.uniform(0.05, 1.0) * (np.ptp(seq) + 0.1))
            var = V.rho_variation(seq, rho).value
            v2 = V.rho_variation(seq, 2.0).value
            assert lam * V.jump_count(seq, lam) ** (1.0 / rho) <= var + 1e-12
            assert V.oscillation(seq, edges, sample_times=times) \
                <= v2 + 1e-12
            assert V.short_variation(times, seq) <= v2 + 1e-12
            assert var <= V.total_variation(seq) + 1e-12
            bound = var + abs(seq[i_one])
            assert np.all(np.abs(seq) <= bound + 1e-12)

        for _ in range(250):
            check_sequence(rng.normal(size=times.size))
        node_pool = rng.choice(g.size, size=5, replace=False)
        for _ in range(50):
            c = S.CoefficientVector(rng.normal(size=16), basis, "phi")
            fam = SG.apply_family(basis, c, times, g)
            for node in node_pool:
                check_sequence(fam[:, node])


def test_criterion_7_weyl_consistency():
    with Criterion(7, "Weyl integral route vs multiplier route", 10.0):
        basis = shared_basis(0.0, 8)
        for beta in (0.5, 1.0, 1.5, 2.4):
            for lam in (float(basis.zeros[0]), float(basis.zeros[4])):
                for t in (0.5, 1.0, 2.0):
                    integral = SG.weyl_integral_check(beta, lam, t)
                    multiplier = lam ** beta * math.exp(-lam * t)
                    assert abs(integral - multiplier) <= 1e-6 * multiplier, \
                        (beta, lam, t)


def test_criterion_8_kernel_estimate_envelopes():
    with Criterion(8, "two-sided envelope + size/regularity reports", 300.0):
        # base mesh 40: at nu = 1 a 20-point window misses the ratio's
        # off-corner minimum and the doubling delta stays artificially high
        for nu in (-0.5, 0.0, 0.5, 1.0):
            basis = shared_basis(nu, 64)
            rep = KB.heat_envelope_report(basis, mesh_size=40,
                                          refine_factor=2.0)
            assert rep["positive"], nu
            assert math.isfinite(rep["envelope"])
            assert rep["refinement_delta"] < 0.10, (nu, rep)
        for nu in (-0.6, -0.3, 0.0, 0.5, 1.0):
            basis = shared_basis(nu, 512)
            for beta in (0.0, 0.5, 1.0):
                size = KB.size_bound_check(basis, beta, 3.0, mesh_size=30)
                assert size["verdict"] == "pass", (nu, beta, size["witness"])
                reg = KB.regularity_bound_check(basis, beta, 3.0,
                                                mesh_size=30)
                assert reg["verdict"] == "pass", (nu, beta, reg["witness"])
                s_rep = KB.s_nu_bound_check(basis, beta, 3.0, mesh_size=30)
                assert s_rep["verdict"] == "pass", \
                    (nu, beta, s_rep["witness"])


def test_criterion_9_free_kernel_comparison():
    with Criterion(9, "fitted C in |W_t - free kernel| <= C t", 60.0):
        for nu in (0.0, 0.5):
            basis = shared_basis(nu, 64)
            rep = KB.free_kernel_comparison(basis, mesh_size=20)
            assert math.isfinite(rep["C"]) and rep["C"] > 0
            assert rep["refinement_delta"] < 0.25, rep


def test_criterion_10_atom_uniformity():
    with Criterion(10, "atom family variation-norm envelope", 300.0):
        times = SG.log_times(1e-3, 10.0, 200, include=(1.0,))
        for nu in (0.0, 0.5):
            basis = shared_basis(nu, 512)
            rep = H.atom_variation_experiment("delta_nu", 3.0, basis, times,
                                              b_indices=(0, 1, 2, 3, 4, 5, 6),
                                              n_a_atoms=20, seed=0)
            assert rep["envelope"] <= 4.0, (nu, "delta_nu", rep["envelope"])
            # dyadic family trend: non-increasing past j ~ 3 and flat
            tail = rep["b_norms"][3:]
            assert all(a >= b - 1e-12 for a, b in zip(tail, tail[1:])), tail
            assert max(rep["b_norms"]) / min(rep["b_norms"]) <= 1.25, \
                rep["b_norms"]
            rep_s = H.atom_variation_experiment(
                "s_nu", 3.0, basis, times,
                b_indices=(1, 2, 3, 4, 5, 6, -1, -2, -3, -4, -5, -6),
                n_a_atoms=20, seed=0)
            assert rep_s["envelope"] <= 4.0, (nu, "s_nu", rep_s["envelope"])
        # theorem-level norm equivalence: report the Q1/Q2 envelope only;
        # the statements carry no constant to reproduce
        times_h1 = SG.log_times(1e-3, 10.0, 120, include=(1.0,))
        for setting, nu in (("delta_nu", 0.0), ("s_nu", 0.5)):
            basis = shared_basis(nu, 512)
            rep = H.h1_equivalence_experiment(setting, 3.0, basis, times_h1,
                                              n_functions=8, seed=0)
            assert rep["all_lower_control_ok"], (setting, nu)
            assert math.isfinite(rep["K"]) and rep["K"] < 10.0, (setting, nu)
            print(f"      h1 {setting} nu={nu}: Q1/Q2 envelope K = "
                  f"{rep['K']:.3f}")


def test_criterion_11_determinism(tmp_path):
    with Criterion(11, "byte-identical reruns", 120.0):
        def digest(root):
            chunks = []
            for path in sorted(Path(root).rglob("*")):
                if path.is_file():
                    chunks.append(path.name.encode())
                    chunks.append(path.read_bytes())
            return hashlib.sha256(b"".join(chunks)).hexdigest()

        digests = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            for args in (["zeros", "--nu", "0.5", "--n", "12", "--seed", "3"],
                         ["gfunction", "--nu", "0.0", "--gamma", "1.0",
                          "--n", "16", "--seed", "3"],
                         ["variation", "--nu", "0.0", "--n", "12",
                          "--time-points", "80", "--seed", "3"]):
                assert cli.main(args + ["--out", str(out)]) == 0
            digests.append(digest(out))
        assert digests[0] == digests[1]
