import math

import numpy as np
import pytest

from fbvar import grid as G, spectral as S
from fbvar.grid import LEBESGUE, GridFunction, weighted

NU_SET = (-0.9, -0.5, 0.0, 0.5, 1.0)


class TestEigenfunctions:
    def test_half_integer_phi_closed_form(self, basis_for):
        # phi_n(x) = sqrt(2) sin(n pi x) / x at nu = 1/2
        basis = basis_for(0.5, 8)
        assert abs(S.eigenfunction(basis, 1, 0.5, "phi") - 2.0 * math.sqrt(2.0)) \
            < 1e-12
        x = np.linspace(0.05, 0.95, 19)
        for n in (1, 4, 8):
            want = math.sqrt(2.0) * np.sin(n * math.pi * x) / x
            got = S.eigenfunction(basis, n, x, "phi")
            assert np.max(np.abs(got - want)) < 1e-11

    def test_half_integer_psi_closed_form(self, basis_for):
        basis = basis_for(0.5, 8)
        assert abs(S.eigenfunction(basis, 1, 0.5, "psi") - math.sqrt(2.0)) < 1e-12

    def test_vanishing_at_right_endpoint(self, basis_for):
        basis = basis_for(0.0, 8)
        for n in (1, 3):
            eps = 1e-7
            assert abs(S.eigenfunction(basis, n, 1.0 - eps, "phi")) < 1e-4

    def test_psi_phi_ratio(self, basis_for):
        rng = np.random.default_rng(5)
        for nu in (-0.5, 0.3):
            basis = basis_for(nu, 8)
            x = rng.uniform(0.05, 0.95, 20)
            ratio = S.eigenfunction(basis, 3, x, "psi") \
                / S.eigenfunction(basis, 3, x, "phi")
            assert np.max(np.abs(ratio - x ** (nu + 0.5))) < 1e-12

    def test_index_out_of_range(self, basis_for):
        basis = basis_for(0.0, 8)
        with pytest.raises(IndexError):
            S.eigenfunction(basis, 9, 0.5, "phi")
        with pytest.raises(IndexError):
            S.eigenfunction(basis, 0, 0.5, "phi")


class TestOrthonormality:
    # Psi_n lies in L^p(dx) iff nu > -1/p - 1/2; at p = 2 that is nu > -1,
    # so both Gram matrices are well defined on the whole NU_SET.
    @pytest.mark.parametrize("nu", NU_SET)
    def test_gram_matrices(self, nu, basis_for, grid_for):
        basis = basis_for(nu, 20)
        g = grid_for(nu, 20)
        for flavor in ("phi", "psi"):
            gram = S.gram_matrix(basis, g, flavor)
            assert np.max(np.abs(gram - np.eye(20))) < 1e-8

    def test_phi_norm_is_one(self, basis_for, grid_for):
        basis = basis_for(0.3, 8)
        g = grid_for(0.3, 8)
        f = GridFunction(g, S.eigenfunction(basis, 1, g.nodes, "phi"))
        assert abs(G.lp_norm(f, 2.0, weighted(0.3)) - 1.0) < 1e-8


class TestMatrixCache:
    def test_recent_tables_reused_and_cache_bounded(self):
        basis = S.make_basis(0.0, 4)
        grids = [G.grid_from_edges(np.linspace(0.0, 1.0, k + 2), 4)
                 for k in range(S._MATRIX_CACHE + 2)]
        first = basis.matrix(grids[0])
        assert basis.matrix(grids[0]) is first
        for g in grids:
            basis.matrix(g)
            assert len(basis._matrices) <= S._MATRIX_CACHE
        last = basis.matrix(grids[-1], "psi")
        assert basis.matrix(grids[-1], "psi") is last
        assert np.array_equal(basis.matrix(grids[0]), first)


class TestAnalyzeSynthesize:
    def test_delta_property(self, basis_for, grid_for):
        basis = basis_for(0.0, 12)
        g = grid_for(0.0, 12)
        for m in (1, 5, 12):
            f = GridFunction(g, S.eigenfunction(basis, m, g.nodes, "phi"))
            c = S.analyze(f, basis, "phi")
            want = np.zeros(12)
            want[m - 1] = 1.0
            assert np.max(np.abs(c.values - want)) < 1e-8

    def test_linearity(self, basis_for, grid_for):
        basis = basis_for(0.5, 12)
        g = grid_for(0.5, 12)
        vals = 3.0 * S.eigenfunction(basis, 1, g.nodes, "phi") \
            + 2.0 * S.eigenfunction(basis, 2, g.nodes, "phi")
        c = S.analyze(GridFunction(g, vals), basis, "phi")
        want = np.zeros(12)
        want[0], want[1] = 3.0, 2.0
        assert np.max(np.abs(c.values - want)) < 1e-8

    def test_parseval(self, basis_for, grid_for):
        basis = basis_for(-0.5, 16)
        g = grid_for(-0.5, 16)
        rng = np.random.default_rng(2)
        c = S.CoefficientVector(rng.normal(size=16), basis, "phi")
        f = S.synthesize(c, g)
        quad_norm = G.lp_norm(f, 2.0, weighted(-0.5)) ** 2
        assert abs(quad_norm - np.sum(c.values ** 2)) < 1e-8 * quad_norm

    def test_round_trip(self, basis_for, grid_for):
        basis = basis_for(0.0, 16)
        g = grid_for(0.0, 16)
        rng = np.random.default_rng(3)
        for flavor in ("phi", "psi"):
            c = S.CoefficientVector(rng.normal(size=16), basis, flavor)
            c2 = S.analyze(S.synthesize(c, g), basis, flavor)
            assert np.max(np.abs(c2.values - c.values)) < 1e-8

    def test_unit_vector_gives_eigenfunction(self, basis_for, grid_for):
        basis = basis_for(0.0, 8)
        g = grid_for(0.0, 8)
        e1 = np.zeros(8)
        e1[0] = 1.0
        f = S.synthesize(S.CoefficientVector(e1, basis, "phi"), g)
        assert np.max(np.abs(f.values
                             - S.eigenfunction(basis, 1, g.nodes, "phi"))) < 1e-14

    def test_synthesis_matches_reversed_summation(self, basis_for, grid_for):
        # independent summation order: accumulate modes from the top down
        basis = basis_for(0.5, 10)
        g = grid_for(0.5, 10)
        rng = np.random.default_rng(4)
        c = S.CoefficientVector(rng.normal(size=10), basis, "phi")
        f = S.synthesize(c, g)
        manual = np.zeros(g.size)
        for n in range(10, 0, -1):
            manual += c.values[n - 1] * S.eigenfunction(basis, n, g.nodes, "phi")
        assert np.max(np.abs(f.values - manual)) < 1e-12

    def test_measure_flavor_mismatch(self, basis_for, grid_for):
        basis = basis_for(0.0, 8)
        g = grid_for(0.0, 8)
        f = GridFunction(g, np.ones(g.size))
        with pytest.raises(ValueError):
            S.analyze(f, basis, "phi", measure=LEBESGUE)
        with pytest.raises(ValueError):
            S.analyze(f, basis, "psi", measure=weighted(0.0))


class TestDiagonalOperator:
    def test_eigenvalue_action(self, basis_for):
        basis = basis_for(0.5, 8)
        e1 = np.zeros(8)
        e1[0] = 1.0
        c = S.CoefficientVector(e1, basis, "phi")
        out = S.apply_operator_diagonal(c, basis.zeros ** 2)
        assert abs(out.values[0] - math.pi ** 2) < 1e-10
        assert np.all(out.values[1:] == 0.0)

    def test_identity_multiplier(self, basis_for):
        basis = basis_for(0.0, 8)
        rng = np.random.default_rng(6)
        c = S.CoefficientVector(rng.normal(size=8), basis, "phi")
        out = S.apply_operator_diagonal(c, np.ones(8))
        assert np.array_equal(out.values, c.values)

    def test_quadratic_form_symmetry(self, basis_for, grid_for):
        # <Delta f, g> = <f, Delta g> on the span
        basis = basis_for(0.3, 10)
        g = grid_for(0.3, 10)
        rng = np.random.default_rng(7)
        mu = weighted(0.3)
        cf = S.CoefficientVector(rng.normal(size=10), basis, "phi")
        cg = S.CoefficientVector(rng.normal(size=10), basis, "phi")
        lam2 = basis.zeros ** 2
        delta_f = S.synthesize(S.apply_operator_diagonal(cf, lam2), g)
        delta_g = S.synthesize(S.apply_operator_diagonal(cg, lam2), g)
        f = S.synthesize(cf, g)
        gg = S.synthesize(cg, g)
        lhs = G.integrate(GridFunction(g, delta_f.values * gg.values), mu)
        rhs = G.integrate(GridFunction(g, f.values * delta_g.values), mu)
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))
