import math

import numpy as np
import pytest
import scipy.integrate

from fbvar import grid as G
from fbvar.grid import GridFunction

from helpers import dyadic_both_ends_edges


def uniform_grid(n_cells, points_per_cell):
    return G.grid_from_edges(np.linspace(0.0, 1.0, n_cells + 1),
                             points_per_cell)


def dyadic_grid(n_cells, points_per_cell):
    return G.grid_from_edges(dyadic_both_ends_edges(n_cells), points_per_cell)


def ball_measure(nu, x, r):
    """m_nu(B(x, r) intersected with (0, 1))."""
    return G.measure_of_interval(nu, np.maximum(x - r, 0.0),
                                 np.minimum(x + r, 1.0))


class TestMakeGrid:
    def test_single_uniform_cell(self):
        g = uniform_grid(1, 4)
        assert g.size == 4
        assert abs(g.weights.sum() - 1.0) < 1e-14

    def test_dyadic_both_ends(self):
        g = dyadic_grid(8, 8)
        assert g.size == 64
        assert g.nodes.min() < 2.0 ** -8
        assert g.nodes.max() > 1.0 - 2.0 ** -6

    def test_total_mass(self):
        for make in (uniform_grid, dyadic_grid):
            g = make(6, 6)
            assert abs(np.dot(g.masses(-0.5), np.ones(g.size)) - 1.0) < 1e-14

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            G.grid_from_edges([0.0], 4)
        with pytest.raises(ValueError):
            uniform_grid(4, 1)
        with pytest.raises(ValueError):
            uniform_grid(4, 40)

    def test_quadrature_exactness(self):
        # Gauss with p points is exact through degree 2p - 1 on each cell
        for p in (2, 5, 8):
            g = uniform_grid(3, p)
            k = 2 * p - 1
            got = np.dot(g.masses(-0.5), g.nodes ** k)
            assert abs(got - 1.0 / (k + 1)) < 1e-13


class TestOwnNumerics:
    """grid's replacements for leggauss and np.unique, which would import
    numpy.polynomial and numpy.ma into every command."""

    def test_rule_equals_leggauss_bit_for_bit(self):
        from numpy.polynomial.legendre import leggauss
        for p in range(2, 33):
            x, w = G._rule(p)
            want_x, want_w = leggauss(p)
            assert x.tobytes() == want_x.tobytes(), p
            assert w.tobytes() == want_w.tobytes(), p

    def test_sorted_unique_equals_np_unique(self):
        rng = np.random.default_rng(3)
        floats = rng.normal(size=40)
        ints = rng.integers(0, 9, size=40)
        cases = [np.concatenate([floats, floats[::3]]), ints,
                 np.array([0.25]), np.array([7]),
                 np.sort(floats), np.sort(floats)[::-1],
                 np.sort(ints), np.sort(ints)[::-1]]
        for values in cases:
            got, want = G.sorted_unique(values), np.unique(values)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


class TestMeasures:
    def test_lebesgue_is_order_minus_half_bit_for_bit(self):
        g = dyadic_grid(12, 8)
        assert np.array_equal(g.masses(-0.5), g.weights)
        rng = np.random.default_rng(5)
        a, b = np.sort(rng.uniform(0.0, 1.0, size=(2, 1000)), axis=0)
        assert np.array_equal(G.measure_of_interval(-0.5, a, b), b - a)

    def test_weighted_total_mass(self):
        g = dyadic_grid(12, 8)
        one = np.ones(g.size)
        assert abs(np.dot(g.masses(0.0), one) - 0.5) < 1e-12
        for nu in (-0.5, 0.5):
            want = 1.0 / (2.0 * nu + 2.0)
            assert abs(np.dot(g.masses(nu), one) - want) < 1e-10

    def test_sine_integral_against_adaptive_oracle(self):
        g = uniform_grid(8, 8)
        f = np.sin(np.pi * g.nodes)
        oracle, _ = scipy.integrate.quad(lambda x: math.sin(math.pi * x), 0, 1)
        assert abs(np.dot(g.masses(-0.5), f) - oracle) < 1e-10
        assert abs(oracle - 2.0 / math.pi) < 1e-12

    def test_length_mismatch(self):
        g = uniform_grid(2, 4)
        with pytest.raises(ValueError):
            GridFunction(g, np.ones(5))


class TestLpNorm:
    def test_constant(self):
        g = dyadic_grid(6, 8)
        c = np.full(g.size, -3.0)
        for p in (1.0, 2.0, 4.0):
            for nu, mass in ((-0.5, 1.0), (0.0, 0.5)):
                want = 3.0 * mass ** (1.0 / p)
                assert abs(G.lp_norm(c, p, g.masses(nu)) - want) < 1e-12

    def test_infinity(self):
        g = uniform_grid(4, 6)
        assert G.lp_norm(g.nodes, math.inf, g.masses(-0.5)) == g.nodes.max()

    def test_p_below_one_rejected(self):
        g = uniform_grid(2, 4)
        with pytest.raises(ValueError):
            G.lp_norm(np.ones(g.size), 0.5, g.masses(-0.5))

    def test_monotone_in_p_for_probability_measure(self):
        # Lebesgue on (0,1) is a probability measure, so p -> |f|_p grows
        g = uniform_grid(8, 8)
        rng = np.random.default_rng(7)
        f = rng.normal(size=g.size)
        norms = [G.lp_norm(f, p, g.masses(-0.5)) for p in (1.0, 2.0, 4.0)]
        assert norms[0] <= norms[1] + 1e-12 <= norms[2] + 1e-12

    def test_homogeneous_where_the_power_would_overflow(self):
        g = uniform_grid(8, 8)
        h = np.random.default_rng(8).normal(size=g.size)
        big = 1e100 * h
        for p in (4.0, 1000.0):
            for nu in (-0.5, 0.0):
                want = 1e100 * G.lp_norm(h, p, g.masses(nu))
                got = G.lp_norm(big, p, g.masses(nu))
                assert abs(got - want) <= 1e-14 * want

    def test_nodes_without_mass_do_not_flush_the_rest(self):
        # x^201 underflows to 0 at the first nodes: a value there that
        # dwarfs the others must not scale every other term to 0
        g = uniform_grid(64, 8)
        mass = g.masses(100.0)
        assert mass[0] == 0.0
        f = np.ones(g.size)
        spiked = np.where(g.nodes == g.nodes[0], 1e200, 1.0)
        for p in (4.0, 1000.0):
            want = G.lp_norm(f, p, mass)
            assert want > 0.0
            assert G.lp_norm(spiked, p, mass) == want

    def test_zero_and_nan(self):
        g = uniform_grid(2, 4)
        nan = np.ones(g.size)
        nan[3] = math.nan
        for p in (1.0, 4.0):
            assert G.lp_norm(np.zeros(g.size), p, g.masses(-0.5)) == 0.0
            assert math.isnan(G.lp_norm(nan, p, g.masses(-0.5)))


class TestWeakQuasinorm:
    def test_indicator(self):
        g = dyadic_grid(8, 8)
        f = 8.0 * (g.nodes <= 0.5)
        got = G.weak_lp_quasinorm(f, g.masses(0.0))
        assert abs(got - 1.0) < 1e-6  # m_0((0, 1/2]) = 1/8, level 8

    def test_zero(self):
        g = uniform_grid(4, 4)
        assert G.weak_lp_quasinorm(np.zeros(g.size), g.masses(-0.5)) == 0.0

    def test_dominated_by_l1(self):
        g = dyadic_grid(10, 8)
        rng = np.random.default_rng(11)
        for _ in range(25):
            f = rng.normal(size=g.size) ** 3
            for nu in (-0.5, 0.3):
                mass = g.masses(nu)
                assert G.weak_lp_quasinorm(f, mass) \
                    <= G.lp_norm(f, 1.0, mass) * (1.0 + 1e-12)

    def test_one_over_x_finite_while_l1_diverges(self):
        # the node-wise weak norm stays O(1) under refinement although the
        # L1 norm tracks the logarithmic divergence
        prev_weak = None
        weaks, l1s = [], []
        for cells in (8, 16, 32):
            g = dyadic_grid(cells, 8)
            f = 1.0 / g.nodes
            weaks.append(G.weak_lp_quasinorm(f, g.masses(-0.5)))
            l1s.append(G.lp_norm(f, 1.0, g.masses(-0.5)))
        assert all(0.9 < w < 4.0 for w in weaks)
        assert abs(weaks[-1] - weaks[-2]) / weaks[-2] < 0.05
        assert l1s[-1] > l1s[0] + 5.0  # ~ log(2^cells) growth


class TestBallMeasure:
    def test_interior_lebesgue_like(self):
        assert abs(ball_measure(0.0, 0.5, 0.1) - 0.1) < 1e-14

    def test_left_clipped(self):
        for nu in (-0.5, 0.0, 1.0):
            x, r = 0.05, 0.2
            want = min(1.0, x + r) ** (2 * nu + 2) / (2 * nu + 2)
            assert abs(ball_measure(nu, x, r) - want) < 1e-14

    def test_regional_comparability(self):
        # m_nu(B(x, |x-y|)) is squeezed between constants times the
        # regional profile x^(2nu+2) / (xy)^(nu+1/2)|x-y| / y^(2nu+2)
        for nu in (-0.5, 0.0, 1.0):
            pts = (np.arange(50) + 0.5) / 50
            X, Y = np.meshgrid(pts, pts, indexing="ij")
            keep = np.abs(X - Y) > 0.02
            x, y = X[keep], Y[keep]
            m = ball_measure(nu, x, np.abs(x - y))
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
                m = ball_measure(nu, xs, r)
                prof = np.where(r <= xs, xs ** (2 * nu + 1) * r,
                                r ** (2 * nu + 2))
                ratio = m / prof
                assert ratio.max() / ratio.min() < 10.0
