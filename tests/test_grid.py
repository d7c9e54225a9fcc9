import math

import numpy as np
import pytest
import scipy.integrate

from fbvar import grid as G
from fbvar.grid import LEBESGUE, GridFunction, weighted


class TestMakeGrid:
    def test_single_uniform_cell(self):
        g = G.make_grid(1, 4, "uniform")
        assert g.size == 4
        assert abs(g.weights.sum() - 1.0) < 1e-14

    def test_dyadic_both_ends(self):
        g = G.make_grid(8, 8, "dyadic_both_ends")
        assert g.size == 64
        assert g.nodes.min() < 2.0 ** -8
        assert g.nodes.max() > 1.0 - 2.0 ** -6

    def test_total_mass(self):
        for grading in ("uniform", "dyadic_both_ends"):
            g = G.make_grid(6, 6, grading)
            one = GridFunction(g, np.ones(g.size))
            assert abs(G.integrate(one, LEBESGUE) - 1.0) < 1e-14

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            G.make_grid(0, 4)
        with pytest.raises(ValueError):
            G.make_grid(4, 1)
        with pytest.raises(ValueError):
            G.make_grid(4, 40)
        with pytest.raises(ValueError):
            G.make_grid(4, 8, "cubic")

    def test_quadrature_exactness(self):
        # Gauss with p points is exact through degree 2p - 1 on each cell
        for p in (2, 5, 8):
            g = G.make_grid(3, p, "uniform")
            k = 2 * p - 1
            f = GridFunction(g, g.nodes ** k)
            assert abs(G.integrate(f, LEBESGUE) - 1.0 / (k + 1)) < 1e-13


class TestMeasures:
    def test_weighted_requires_integrability(self):
        with pytest.raises(ValueError):
            weighted(-1.0)

    def test_weighted_total_mass(self):
        g = G.make_grid(12, 8, "dyadic_both_ends")
        one = GridFunction(g, np.ones(g.size))
        assert abs(G.integrate(one, weighted(0.0)) - 0.5) < 1e-12
        for nu in (-0.5, 0.5):
            want = 1.0 / (2.0 * nu + 2.0)
            assert abs(G.integrate(one, weighted(nu)) - want) < 1e-10

    def test_sine_integral_against_adaptive_oracle(self):
        g = G.make_grid(8, 8, "uniform")
        f = g.sample(lambda x: np.sin(np.pi * x))
        oracle, _ = scipy.integrate.quad(lambda x: math.sin(math.pi * x), 0, 1)
        assert abs(G.integrate(f, LEBESGUE) - oracle) < 1e-10
        assert abs(oracle - 2.0 / math.pi) < 1e-12

    def test_length_mismatch(self):
        g = G.make_grid(2, 4)
        with pytest.raises(ValueError):
            GridFunction(g, np.ones(5))


class TestLpNorm:
    def test_constant(self):
        g = G.make_grid(6, 8, "dyadic_both_ends")
        c = GridFunction(g, np.full(g.size, -3.0))
        for p in (1.0, 2.0, 4.0):
            for mu, mass in ((LEBESGUE, 1.0), (weighted(0.0), 0.5)):
                want = 3.0 * mass ** (1.0 / p)
                assert abs(G.lp_norm(c, p, mu) - want) < 1e-12

    def test_infinity(self):
        g = G.make_grid(4, 6)
        f = GridFunction(g, g.nodes)
        assert G.lp_norm(f, math.inf, LEBESGUE) == g.nodes.max()

    def test_p_below_one_rejected(self):
        g = G.make_grid(2, 4)
        with pytest.raises(ValueError):
            G.lp_norm(GridFunction(g, np.ones(g.size)), 0.5, LEBESGUE)

    def test_monotone_in_p_for_probability_measure(self):
        # Lebesgue on (0,1) is a probability measure, so p -> |f|_p grows
        g = G.make_grid(8, 8, "uniform")
        rng = np.random.default_rng(7)
        f = GridFunction(g, rng.normal(size=g.size))
        norms = [G.lp_norm(f, p, LEBESGUE) for p in (1.0, 2.0, 4.0)]
        assert norms[0] <= norms[1] + 1e-12 <= norms[2] + 1e-12


class TestWeakQuasinorm:
    def test_indicator(self):
        g = G.make_grid(8, 8, "dyadic_both_ends")
        f = GridFunction(g, 8.0 * (g.nodes <= 0.5))
        got = G.weak_lp_quasinorm(f, weighted(0.0))
        assert abs(got - 1.0) < 1e-6  # m_0((0, 1/2]) = 1/8, level 8

    def test_zero(self):
        g = G.make_grid(4, 4)
        assert G.weak_lp_quasinorm(GridFunction(g, np.zeros(g.size)),
                                   LEBESGUE) == 0.0

    def test_dominated_by_l1(self):
        g = G.make_grid(10, 8, "dyadic_both_ends")
        rng = np.random.default_rng(11)
        for _ in range(25):
            f = GridFunction(g, rng.normal(size=g.size) ** 3)
            for mu in (LEBESGUE, weighted(0.3)):
                assert G.weak_lp_quasinorm(f, mu) \
                    <= G.lp_norm(f, 1.0, mu) * (1.0 + 1e-12)

    def test_one_over_x_finite_while_l1_diverges(self):
        # the node-wise weak norm stays O(1) under refinement although the
        # L1 norm tracks the logarithmic divergence
        prev_weak = None
        weaks, l1s = [], []
        for cells in (8, 16, 32):
            g = G.make_grid(cells, 8, "dyadic_both_ends")
            f = GridFunction(g, 1.0 / g.nodes)
            weaks.append(G.weak_lp_quasinorm(f, LEBESGUE))
            l1s.append(G.lp_norm(f, 1.0, LEBESGUE))
        assert all(0.9 < w < 4.0 for w in weaks)
        assert abs(weaks[-1] - weaks[-2]) / weaks[-2] < 0.05
        assert l1s[-1] > l1s[0] + 5.0  # ~ log(2^cells) growth


class TestBallMeasure:
    def test_interior_lebesgue_like(self):
        assert abs(G.ball_measure(0.0, 0.5, 0.1) - 0.1) < 1e-14

    def test_left_clipped(self):
        for nu in (-0.5, 0.0, 1.0):
            x, r = 0.05, 0.2
            want = min(1.0, x + r) ** (2 * nu + 2) / (2 * nu + 2)
            assert abs(G.ball_measure(nu, x, r) - want) < 1e-14

    def test_regional_comparability(self):
        # m_nu(B(x, |x-y|)) is squeezed between constants times the
        # regional profile x^(2nu+2) / (xy)^(nu+1/2)|x-y| / y^(2nu+2)
        for nu in (-0.5, 0.0, 1.0):
            pts = (np.arange(50) + 0.5) / 50
            X, Y = np.meshgrid(pts, pts, indexing="ij")
            keep = np.abs(X - Y) > 0.02
            x, y = X[keep], Y[keep]
            m = G.ball_measure(nu, x, np.abs(x - y))
            prof = np.where(
                y <= 0.5 * x, x ** (2 * nu + 2),
                np.where(y <= np.minimum(1.0, 1.5 * x),
                         (x * y) ** (nu + 0.5) * np.abs(x - y),
                         y ** (2 * nu + 2)))
            ratio = m / prof
            assert np.isfinite(ratio).all()
            assert ratio.max() / ratio.min() < 50.0

    def test_heat_ball_profile(self):
        # m_nu(B(x, sqrt(t))) tracks x^(2nu+1) sqrt(t) when sqrt(t) <= x
        # and t^(nu+1) when sqrt(t) > x
        for nu in (-0.3, 0.5):
            xs = np.linspace(0.02, 0.98, 40)
            for t in (1e-4, 1e-2, 0.25):
                r = math.sqrt(t)
                m = G.ball_measure(nu, xs, r)
                prof = np.where(r <= xs, xs ** (2 * nu + 1) * r,
                                r ** (2 * nu + 2))
                ratio = m / prof
                assert ratio.max() / ratio.min() < 10.0


class TestCumulativeIntegral:
    def test_cosine_prefix(self):
        g = G.make_grid(10, 8, "uniform")
        F = G.cumulative_integral(g.sample(np.cos))
        assert np.max(np.abs(F.values - np.sin(g.nodes))) < 1e-13

    def test_polynomial_prefix_exact(self):
        g = G.make_grid(5, 6, "dyadic_both_ends")
        F = G.cumulative_integral(g.sample(lambda x: 4.0 * x ** 3))
        assert np.max(np.abs(F.values - g.nodes ** 4)) < 1e-14
