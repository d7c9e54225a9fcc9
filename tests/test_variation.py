import math

import numpy as np
import pytest

from fbvar import grid as G, semigroups as SG, spectral as S, variation as V
from fbvar.grid import GridFunction, weighted

from helpers import (brute_force_jump_count, decreasing_times,
                     exhaustive_rho_variation)


class TestRhoVariation:
    def test_square_wave(self):
        r = V.rho_variation([0.0, 1.0, 0.0, 1.0], 3.0)
        assert abs(r.value - 3.0 ** (1.0 / 3.0)) < 1e-14
        assert r.check([0.0, 1.0, 0.0, 1.0])
        assert len(r.witness) == 4

    def test_constant_vanishes(self):
        assert V.rho_variation([2.5] * 6, 3.0).value == 0.0

    def test_monotone_takes_endpoint_pair(self):
        for rho in (2.5, 3.0, 5.0):
            r = V.rho_variation([0.0, 0.2, 0.7, 1.0], rho)
            assert abs(r.value - 1.0) < 1e-14
            assert len(r.witness) == 2

    def test_short_input(self):
        assert V.rho_variation([1.0], 3.0).value == 0.0
        assert V.rho_variation([], 3.0).value == 0.0

    def test_low_rho_gate(self):
        with pytest.raises(ValueError):
            V.rho_variation([0.0, 1.0], 2.0)
        assert V.rho_variation([0.0, 1.0], 2.0, allow_low_rho=True).value == 1.0
        with pytest.raises(ValueError):
            V.rho_variation([0.0, 1.0], 0.9, allow_low_rho=True)

    def test_witness_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = rng.normal(size=int(rng.integers(2, 30)))
            r = V.rho_variation(g, 3.0)
            assert r.check(g)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(1)
        block = rng.normal(size=(25, 7))
        vec = V.rho_variation_values(block, 3.0)
        for j in range(7):
            assert abs(vec[j] - V.rho_variation(block[:, j], 3.0).value) < 1e-13

    def test_monotne_decreasing_in_rho(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            g = rng.normal(size=12)
            v1 = V.rho_variation(g, 2.5).value
            v2 = V.rho_variation(g, 3.5).value
            v3 = V.rho_variation(g, 6.0).value
            assert v3 <= v2 + 1e-12 and v2 <= v1 + 1e-12

    def test_dominated_by_total_variation(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            g = rng.normal(size=15)
            assert V.rho_variation(g, 3.0).value \
                <= V.total_variation(g) + 1e-12


class TestOracleEquivalence:
    def test_exhaustive_variation(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            g = rng.normal(size=int(rng.integers(2, 11)))
            rho = float(rng.uniform(2.1, 4.5))
            assert abs(V.rho_variation(g, rho).value
                       - exhaustive_rho_variation(g, rho)) < 1e-12

    def test_brute_force_jumps(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            g = rng.normal(size=int(rng.integers(2, 12)))
            lam = float(rng.uniform(0.1, 2.5))
            assert V.jump_count(g, lam) == brute_force_jump_count(g, lam)


class TestJump:
    def test_square_wave(self):
        assert V.jump_count([0.0, 2.0, 0.0, 2.0], 1.0) == 3

    def test_threshold_above_range(self):
        assert V.jump_count([0.0, 2.0, 0.0, 2.0], 2.5) == 0
        assert V.jump_count([1.0, 1.5], 0.5) == 0

    def test_positive_threshold_required(self):
        with pytest.raises(ValueError):
            V.jump_count([0.0, 1.0], 0.0)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(6)
        block = rng.normal(size=(30, 9))
        for lam in (0.3, 1.0):
            vec = V.jump_count_values(block, lam)
            for j in range(9):
                assert vec[j] == V.jump_count(block[:, j], lam)
        empty = V.jump_count_values(np.empty((0, 9)), 1.0)
        assert empty.shape == (9,) and not empty.any()
        assert V.jump_count([], 1.0) == 0


class TestOscillation:
    def test_exponential_against_direct_sum(self):
        edges = 2.0 ** (-np.arange(0.0, 11.0))
        fill = np.geomspace(2.0 ** -10, 1.0, 300)
        ts = np.unique(np.concatenate([edges, fill]))[::-1]
        g = np.exp(-ts)
        got = V.oscillation(g, edges, sample_times=ts)
        want = math.sqrt(sum(
            (math.exp(-edges[j + 1]) - math.exp(-edges[j])) ** 2
            for j in range(10)))
        assert abs(got - want) < 1e-12

    def test_constant(self):
        ts = np.array([1.0, 0.5, 0.25, 0.1])
        assert V.oscillation(np.ones(4), np.array([1.0, 0.1]),
                             sample_times=ts) == 0.0

    def test_single_bracket_gives_range(self):
        ts = np.array([0.9, 0.5, 0.2])
        g = np.array([1.0, -2.0, 0.5])
        got = V.oscillation(g, np.array([1.0, 0.1]), sample_times=ts)
        assert abs(got - 3.0) < 1e-15

    def test_empty_bracket_contributes_zero(self):
        ts = np.array([0.9, 0.8])
        g = np.array([0.0, 1.0])
        got = V.oscillation(g, np.array([1.0, 0.5, 0.1]), sample_times=ts)
        assert abs(got - 1.0) < 1e-15


class TestShortVariation:
    def test_single_block_is_two_variation(self):
        ts = np.array([0.9, 0.8, 0.7, 0.6])  # all in (1/2, 1]
        g = np.array([0.0, 1.0, -1.0, 0.5])
        want = V.rho_variation(g, 2.0, allow_low_rho=True).value
        assert abs(V.short_variation(ts, g) - want) < 1e-14

    def test_constant(self):
        ts = np.geomspace(0.01, 1.0, 20)[::-1]
        assert V.short_variation(ts, np.ones(20)) == 0.0

    def test_two_blocks_add_in_l2(self):
        ts = np.array([0.9, 0.6, 0.4, 0.3])
        g = np.array([0.0, 1.0, 0.0, 1.0])
        assert abs(V.short_variation(ts, g) - math.sqrt(2.0)) < 1e-14


class TestDominationChain:
    def test_oscillation_below_two_variation(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            M = int(rng.integers(4, 25))
            ts = decreasing_times(rng, M)
            g = rng.normal(size=M)
            edges = np.unique(rng.uniform(1e-3, 10.0, 6))[::-1]
            osc = V.oscillation(g, edges, sample_times=ts)
            v2 = V.rho_variation(g, 2.0, allow_low_rho=True).value
            assert osc <= v2 + 1e-12

    def test_short_variation_below_two_variation(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            M = int(rng.integers(4, 25))
            ts = decreasing_times(rng, M)
            g = rng.normal(size=M)
            sv = V.short_variation(ts, g)
            v2 = V.rho_variation(g, 2.0, allow_low_rho=True).value
            assert sv <= v2 + 1e-12

    def test_jump_variation_inequality_unit_constant(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            g = rng.normal(size=int(rng.integers(2, 20)))
            lam = float(rng.uniform(0.05, 2.0))
            rho = float(rng.uniform(2.1, 5.0))
            count = V.jump_count(g, lam)
            assert lam * count ** (1.0 / rho) \
                <= V.rho_variation(g, rho).value + 1e-12


class TestGFunction:
    @pytest.mark.parametrize("nu", (0.0, 0.5))
    @pytest.mark.parametrize("gamma", (0.5, 1.0, 2.0))
    def test_l2_identity(self, nu, gamma, basis_for, grid_for):
        basis = basis_for(nu, 16)
        g = grid_for(nu, 16)
        rng = np.random.default_rng(10)
        coeffs = np.zeros(16)
        coeffs[:10] = rng.normal(size=10)
        c = S.CoefficientVector(coeffs, basis, "phi")
        f = S.synthesize(c, g)
        mu = weighted(nu)
        want = math.gamma(2.0 * gamma) / 2.0 ** (2.0 * gamma) \
            * G.lp_norm(f, 2.0, mu) ** 2
        gv = V.g_function(basis, gamma, c, g.nodes)
        got = G.integrate(GridFunction(g, gv ** 2), mu)
        assert abs(got - want) <= 1e-6 * want

    def test_single_eigenfunction_value(self, basis_for):
        # |g_1(phi_1)|^2 integrates to Gamma(2)/4 = 1/4
        basis = basis_for(0.0, 8)
        e1 = np.zeros(8)
        e1[0] = 1.0
        c = S.CoefficientVector(e1, basis, "phi")
        x = 0.37
        got = V.g_function(basis, 1.0, c, x)
        want = abs(S.eigenfunction(basis, 1, x, "phi")) / 2.0
        assert abs(got - want) < 1e-12

    def test_zero_function(self, basis_for):
        basis = basis_for(0.0, 8)
        c = S.CoefficientVector(np.zeros(8), basis, "phi")
        assert V.g_function(basis, 1.0, c, 0.5) == 0.0

    def test_fast_path_consistent_with_quadrature(self, basis_for):
        basis = basis_for(0.0, 8)
        x = np.linspace(0.1, 0.9, 9)
        e3 = np.zeros(8)
        e3[2] = 1.7
        single = V.g_function(basis, 0.7, S.CoefficientVector(e3, basis, "phi"), x)
        near = e3.copy()
        near[0] = 1e-14  # forces the general quadrature path
        quad = V.g_function(basis, 0.7,
                            S.CoefficientVector(near, basis, "phi"), x)
        assert np.max(np.abs(single - quad)) < 1e-8

    def test_gamma_positive_required(self, basis_for):
        basis = basis_for(0.0, 8)
        c = S.CoefficientVector(np.zeros(8), basis, "phi")
        with pytest.raises(ValueError):
            V.g_function(basis, 0.0, c, 0.5)


class TestVariationField:
    def test_constant_family_vanishes(self, basis_for, grid_for):
        basis = basis_for(0.0, 8)
        g = grid_for(0.0, 8)
        tg = SG.TimeGrid.log_spaced(0.1, 1.0, 10)
        fam = SG.FamilySamples(tg, g, np.tile(np.cos(g.nodes), (10, 1)))
        for kind in ("rho_variation", "short_variation"):
            field = V.variation_field(fam, kind, rho=3.0)
            assert np.max(field.values) == 0.0
        assert np.max(V.variation_field(fam, "jump_count", lam=0.1).values) == 0

    def test_single_node_reduces_to_scalar(self, basis_for):
        tg = SG.TimeGrid.log_spaced(0.01, 1.0, 30)
        rng = np.random.default_rng(11)
        vals = rng.normal(size=(30, 1))

        class OneNodeGrid:
            size = 1
        fam = SG.FamilySamples(tg, OneNodeGrid(), vals)
        field = V.variation_field(fam, "rho_variation", rho=3.0)
        assert abs(field.values[0]
                   - V.rho_variation(vals[:, 0], 3.0).value) < 1e-14

    def test_l2_norm_stable_under_time_refinement(self, basis_for, grid_for):
        basis = basis_for(0.0, 16)
        g = grid_for(0.0, 16)
        e1 = np.zeros(16)
        e1[0] = 1.0
        c = S.CoefficientVector(e1, basis, "phi")
        norms = []
        for tp in (200, 400):
            tg = SG.TimeGrid.log_spaced(1e-3, 10.0, tp)
            fam = SG.apply_family(basis, c, tg, g, kind="poisson")
            field = V.variation_field(fam, "rho_variation", rho=3.0)
            norms.append(G.lp_norm(field, 2.0, weighted(0.0)))
        assert abs(norms[1] - norms[0]) / norms[0] < 0.01


class TestSemigroupInequalities:
    def test_pointwise_poisson_bound_with_time_one(self, basis_for, grid_for):
        # |P_t f| <= V_rho(P f) + |P_1 f| at every node, exact on grids
        # containing t = 1
        basis = basis_for(0.0, 16)
        g = grid_for(0.0, 16)
        rng = np.random.default_rng(12)
        tg = SG.TimeGrid.log_spaced(1e-2, 10.0, 50, include=(1.0,))
        i_one = int(np.argmin(np.abs(tg.times - 1.0)))
        for _ in range(10):
            c = S.CoefficientVector(rng.normal(size=16), basis, "phi")
            fam = SG.apply_family(basis, c, tg, g, kind="poisson")
            var = V.rho_variation_values(fam.values, 3.0)
            bound = var + np.abs(fam.values[i_one])
            assert np.all(np.abs(fam.values) <= bound[None, :] + 1e-12)

    def test_fractional_variation_dominated_by_heat_variation(
            self, basis_for, grid_for):
        # the subordination expansion bounds V_rho of t^b d_t^b P_t by a
        # constant times V_rho of W_t; certify the L2 ratio envelope
        basis = basis_for(0.0, 32)
        g = grid_for(0.0, 32)
        rng = np.random.default_rng(13)
        tg = SG.TimeGrid.log_spaced(1e-3, 10.0, 120)
        mu = weighted(0.0)
        worst = 0.0
        for _ in range(20):
            c = S.CoefficientVector(rng.normal(size=32)
                                    / np.arange(1, 33), basis, "phi")
            fam_p = SG.apply_family(basis, c, tg, g, kind="poisson", beta=0.5)
            fam_w = SG.apply_family(basis, c, tg, g, kind="heat")
            vp = G.lp_norm(V.variation_field(fam_p, "rho_variation", rho=3.0),
                           2.0, mu)
            vw = G.lp_norm(V.variation_field(fam_w, "rho_variation", rho=3.0),
                           2.0, mu)
            worst = max(worst, vp / vw)
        assert math.isfinite(worst)
        assert worst < 10.0

    def test_short_variation_below_g_function_pair(self, basis_for, grid_for):
        # the dyadic-block bound: S_V(t^b d_t^b P_t f) is controlled by
        # g_b + g_{b+1} pointwise up to a fixed constant
        basis = basis_for(0.0, 16)
        g = grid_for(0.0, 16)
        rng = np.random.default_rng(14)
        beta = 0.5
        tg = SG.TimeGrid.log_spaced(1e-3, 10.0, 200)
        worst = 0.0
        for _ in range(5):
            c = S.CoefficientVector(rng.normal(size=16)
                                    / np.arange(1, 17), basis, "phi")
            fam = SG.apply_family(basis, c, tg, g, kind="poisson", beta=beta)
            sv = V.variation_field(fam, "short_variation").values
            gb = V.g_function(basis, beta, c, g.nodes)
            gb1 = V.g_function(basis, beta + 1.0, c, g.nodes)
            denom = gb + gb1
            mask = denom > 1e-10
            worst = max(worst, float(np.max(sv[mask] / denom[mask])))
        assert math.isfinite(worst)
        assert worst < 20.0


class TestBasisMismatch:
    def test_coefficient_paths_reject_a_foreign_basis(self, basis_for,
                                                      grid_for):
        basis, other = basis_for(0.0, 16), basis_for(0.5, 16)
        c = S.CoefficientVector(np.ones(16), other, "phi")
        g = grid_for(0.0, 16)
        tg = SG.TimeGrid.log_spaced(0.1, 1.0, 5)
        with pytest.raises(ValueError, match="basis"):
            SG.apply_family(basis, c, tg, g)
        with pytest.raises(ValueError, match="basis"):
            V.g_function(basis, 1.0, c, g.nodes)
        with pytest.raises(ValueError, match="basis"):
            SG.subordination_poisson_apply(basis, 0.5, c)
