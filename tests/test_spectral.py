import math
import warnings

import numpy as np
import pytest

from fbvar import bessel, grid as G, spectral as S
from fbvar.grid import GridFunction

from helpers import times_diagonal, traced_peak

NU_SET = (-0.9, -0.5, 0.0, 0.5, 1.0)


class TestEigenfunctions:
    def test_half_integer_phi_closed_form(self, basis_for):
        # phi_n(x) = sqrt(2) sin(n pi x) / x at nu = 1/2
        basis = basis_for(0.5, 8)
        phi1 = S.mode_values(basis, 0.5, "phi")[0, 0]
        assert abs(phi1 - 2.0 * math.sqrt(2.0)) < 1e-12
        x = np.linspace(0.05, 0.95, 19)
        table = S.mode_values(basis, x, "phi")
        for n in (1, 4, 8):
            want = math.sqrt(2.0) * np.sin(n * math.pi * x) / x
            got = table[n - 1]
            assert np.max(np.abs(got - want)) < 1e-11

    def test_half_integer_psi_closed_form(self, basis_for):
        basis = basis_for(0.5, 8)
        psi1 = S.mode_values(basis, 0.5, "psi")[0, 0]
        assert abs(psi1 - math.sqrt(2.0)) < 1e-12

    def test_vanishing_at_right_endpoint(self, basis_for):
        basis = basis_for(0.0, 8)
        eps = 1e-7
        table = S.mode_values(basis, 1.0 - eps, "phi")
        for n in (1, 3):
            assert abs(table[n - 1, 0]) < 1e-4

    def test_psi_phi_ratio(self, basis_for):
        rng = np.random.default_rng(5)
        for nu in (-0.5, 0.3):
            basis = basis_for(nu, 8)
            x = rng.uniform(0.05, 0.95, 20)
            ratio = S.mode_values(basis, x, "psi")[2] \
                / S.mode_values(basis, x, "phi")[2]
            assert np.max(np.abs(ratio - x ** (nu + 0.5))) < 1e-12


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
        f = S.mode_values(basis, g.nodes, "phi")[0]
        assert abs(G.lp_norm(f, 2.0, g.masses(0.3)) - 1.0) < 1e-8


class TestTableMemory:
    @pytest.mark.parametrize("nu", (-0.9, 0.5))
    def test_reference_tables_are_finite_without_warnings(self, nu):
        # nodes reach 1.5e-63 at nu = -0.9, where x^-m would overflow, and
        # Hankel's expansion terminates at the orders 1/2 and, for the phi'
        # table, 3/2, where its coefficients past the first one or two
        # vanish: none may leave an inf, NaN or warning
        basis = S.make_basis(nu, 512)
        nodes = S.reference_grid(nu, 512).nodes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for flavor in ("phi", "psi", "dphi"):
                assert np.all(np.isfinite(S.mode_values(basis, nodes, flavor)))

    def test_table_peak_is_the_table_and_a_few_blocks(self):
        # the 512-mode table on its reference grid at nu = 0 is built block
        # by block: besides the table, only a few block-sized arrays live
        basis = S.make_basis(0.0, 512)
        nodes = S.reference_grid(0.0, 512).nodes
        table, peak = traced_peak(lambda: S.mode_values(basis, nodes))
        block = 8 * S._TABLE_BLOCK
        assert table.shape == (512, nodes.size)
        assert peak <= table.nbytes + 8 * block, (peak - table.nbytes) / block


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


    @pytest.mark.parametrize("nu", (-0.9, -0.7, 0.0, 2.5))
    def test_psi_after_phi_scales_the_phi_table(self, nu, monkeypatch):
        # a table takes its entries past the Hankel cut from hankel_table
        # and those below it from bessel_j_over_power; the Psi table of a
        # grid whose phi table is kept calls neither
        basis = S.make_basis(nu, 24)
        g = S.reference_grid(nu, 24)
        calls = {"hankel_table": [], "bessel_j_over_power": []}
        for name, log in calls.items():
            def counted(*args, _fn=getattr(bessel, name), _log=log):
                _log.append(args)
                return _fn(*args)
            monkeypatch.setattr(bessel, name, counted)
        basis.matrix(g, "phi")
        built = {name: len(log) for name, log in calls.items()}
        psi = basis.matrix(g, "psi")
        assert built["hankel_table"] == 1 and built["bessel_j_over_power"] >= 1
        assert {name: len(log) for name, log in calls.items()} == built
        want = S.mode_values(basis, g.nodes, "psi")
        assert psi.tobytes() == want.tobytes()
        fresh = S.make_basis(nu, 24).matrix(g, "psi")
        assert fresh.tobytes() == want.tobytes()


class TestAnalyzeSynthesize:
    def test_delta_property(self, basis_for, grid_for):
        basis = basis_for(0.0, 12)
        g = grid_for(0.0, 12)
        table = S.mode_values(basis, g.nodes, "phi")
        for m in (1, 5, 12):
            f = GridFunction(g, table[m - 1])
            c = S.analyze(f, basis, "phi")
            want = np.zeros(12)
            want[m - 1] = 1.0
            assert np.max(np.abs(c.values - want)) < 1e-8

    def test_linearity(self, basis_for, grid_for):
        basis = basis_for(0.5, 12)
        g = grid_for(0.5, 12)
        table = S.mode_values(basis, g.nodes, "phi")
        vals = 3.0 * table[0] + 2.0 * table[1]
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
        quad_norm = G.lp_norm(f.values, 2.0, g.masses(-0.5)) ** 2
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
                             - S.mode_values(basis, g.nodes, "phi")[0])) < 1e-14

    def test_synthesis_matches_reversed_summation(self, basis_for, grid_for):
        # independent summation order: accumulate modes from the top down
        basis = basis_for(0.5, 10)
        g = grid_for(0.5, 10)
        rng = np.random.default_rng(4)
        c = S.CoefficientVector(rng.normal(size=10), basis, "phi")
        f = S.synthesize(c, g)
        table = S.mode_values(basis, g.nodes, "phi")
        manual = np.zeros(g.size)
        for n in range(10, 0, -1):
            manual += c.values[n - 1] * table[n - 1]
        assert np.max(np.abs(f.values - manual)) < 1e-12

class TestDiagonalOperator:
    def test_eigenvalue_action(self, basis_for):
        basis = basis_for(0.5, 8)
        e1 = np.zeros(8)
        e1[0] = 1.0
        c = S.CoefficientVector(e1, basis, "phi")
        out = times_diagonal(c, basis.zeros ** 2)
        assert abs(out.values[0] - math.pi ** 2) < 1e-10
        assert np.all(out.values[1:] == 0.0)

    def test_quadratic_form_symmetry(self, basis_for, grid_for):
        # <Delta f, g> = <f, Delta g> on the span
        basis = basis_for(0.3, 10)
        g = grid_for(0.3, 10)
        rng = np.random.default_rng(7)
        mass = g.masses(0.3)
        cf = S.CoefficientVector(rng.normal(size=10), basis, "phi")
        cg = S.CoefficientVector(rng.normal(size=10), basis, "phi")
        lam2 = basis.zeros ** 2
        delta_f = S.synthesize(times_diagonal(cf, lam2), g)
        delta_g = S.synthesize(times_diagonal(cg, lam2), g)
        f = S.synthesize(cf, g)
        gg = S.synthesize(cg, g)
        lhs = np.dot(mass, delta_f.values * gg.values)
        rhs = np.dot(mass, f.values * delta_g.values)
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))
