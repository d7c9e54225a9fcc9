import math

import numpy as np
import pytest

from fbvar import (grid as G, hardy as H, semigroups as SG, spectral as S,
                   variation as V)
from fbvar.grid import GridFunction

from helpers import traced_peak, weighted_step_coefficients


def small_grid(nu, specs):
    return H.atom_grid(nu, specs, points_per_cell=8, n_modes=16)


class TestAtomCoefficientOracle:
    @pytest.mark.parametrize("nu", (0.0, 0.5, -0.6))
    def test_weighted_atoms_against_the_closed_form(self, nu, basis_for):
        # analyze of make_atom's samples on an atom_grid, for the b-atoms
        # of the atoms command and three a-atoms down to the smallest
        # radius 2^-8, against the exact integral of each step; the mpmath
        # oracle checks the first 8 modes and every 32nd up to 512
        basis = basis_for(nu, 512)
        modes = np.r_[0:8, 31:512:32]
        specs = [H.AtomSpec("delta_nu", "b", nu, j=j) for j in range(7)]
        specs += [H.AtomSpec("delta_nu", "a", nu, center=c, radius=r)
                  for c, r in ((0.3, 0.1), (0.62, 0.05), (0.9, 2.0 ** -8))]
        g = H.atom_grid(nu, specs, 8, 512)
        for spec in specs:
            got = S.analyze(H.make_atom(spec, g), basis, "phi").values[modes]
            want = weighted_step_coefficients(nu, basis.zeros[modes],
                                              *H.atom_profile(spec))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_lebesgue_atoms_against_the_sine_closed_form(self, basis_for):
        # at nu = 1/2, Psi_n(x) = sqrt2 sin(n pi x), so a step with heights
        # h_k on (a_k, b_k] has the coefficients
        # c_n = sqrt2 sum_k h_k (cos n pi a_k - cos n pi b_k) / (n pi):
        # analyze of make_atom's samples on an atom_grid against them, for
        # b-atoms on both sides of 1/2 and three a-atoms down to the
        # smallest radius 2^-8, on all 512 modes
        basis = basis_for(0.5, 512)
        specs = [H.AtomSpec("s_nu", "b", 0.5, j=j) for j in (-2, -1, 1, 2, 5)]
        specs += [H.AtomSpec("s_nu", "a", 0.5, center=c, radius=r)
                  for c, r in ((0.3, 0.1), (0.62, 0.05), (0.9, 2.0 ** -8))]
        g = H.atom_grid(0.5, specs, 8, 512)
        n_pi = np.arange(1, 513) * math.pi
        for spec in specs:
            breaks, heights = H.atom_profile(spec)
            want = sum(h * (np.cos(n_pi * a) - np.cos(n_pi * b))
                       for a, b, h in zip(breaks[:-1], breaks[1:], heights))
            want *= math.sqrt(2.0) / n_pi
            got = S.analyze(H.make_atom(spec, g), basis, "psi").values
            err = np.max(np.abs(got - want))
            assert err <= 1e-12 * np.max(np.abs(want)), (spec, err)


class TestAtoms:
    def test_b_atom_height_in_the_weighted_setting(self):
        spec = H.AtomSpec("delta_nu", "b", 0.0, j=0)
        g = small_grid(0.0, [spec])
        f = H.make_atom(spec, g)
        # m_0(I_0) = int_0^(1/2) x dx = 1/8
        on = f.values[(g.nodes > 0.0) & (g.nodes <= 0.5)]
        assert np.all(on == 8.0)
        assert np.all(f.values[g.nodes > 0.5] == 0.0)

    def test_b_atom_left_family(self):
        spec = H.AtomSpec("s_nu", "b", 0.0, j=-1)
        g = small_grid(0.0, [spec])
        f = H.make_atom(spec, g)
        on = f.values[(g.nodes > 0.25) & (g.nodes <= 0.5)]
        assert np.all(on == 4.0)

    def test_left_family_only_for_s_nu(self):
        with pytest.raises(H.AtomError):
            H.dyadic_interval("delta_nu", -1)
        with pytest.raises(H.AtomError):
            H.dyadic_interval("s_nu", 0)

    def test_a_atom_mean_zero(self):
        spec = H.AtomSpec("delta_nu", "a", 0.0, center=0.5, radius=0.1)
        g = small_grid(0.0, [spec])
        f = H.make_atom(spec, g)
        assert abs(np.dot(g.masses(0.0), f.values)) < 1e-12
        assert np.max(np.abs(f.values)) <= 1.0 / H.measure_of_interval(
            0.0, 0.4, 0.6) * (1 + 1e-12)

    def test_validation_rejects_shifted_mean(self):
        # shrink the negative level by 0.1%: the sup budget still holds but
        # the mean moves off zero
        spec = H.AtomSpec("delta_nu", "a", 0.0, center=0.5, radius=0.1)
        g = small_grid(0.0, [spec])
        f = H.make_atom(spec, g)
        bad = GridFunction(g, np.where(f.values < 0,
                                       f.values * (1.0 - 1e-3), f.values))
        with pytest.raises(H.AtomError, match="mean-zero"):
            H.validate_atom_samples(spec, bad)

    def test_validation_rejects_inflated_height(self):
        spec = H.AtomSpec("delta_nu", "b", 0.0, j=1)
        g = small_grid(0.0, [spec])
        f = H.make_atom(spec, g)
        bad = GridFunction(g, 1.01 * f.values)
        with pytest.raises(H.AtomError, match="sup-norm"):
            H.validate_atom_samples(spec, bad)

    def test_support_must_fit(self):
        with pytest.raises(H.AtomError, match="support"):
            H.atom_interval(H.AtomSpec("delta_nu", "a", 0.0,
                                       center=0.05, radius=0.1))

    def test_grid_must_carry_breakpoints(self):
        spec = H.AtomSpec("delta_nu", "a", 0.0, center=0.437, radius=0.05)
        g = S.reference_grid(0.0, 16)
        with pytest.raises(H.AtomError, match="breakpoint"):
            H.make_atom(spec, g)


class TestExperiments:
    def test_constant_family_sanity(self, basis_for, grid_for):
        from fbvar import variation as V
        g = grid_for(0.0, 16)
        fam = np.tile(np.ones(g.size), (8, 1))
        field = V.rho_variation_values(fam, 3.0)
        assert G.lp_norm(field, 1.0, g.masses(0.0)) == 0.0

    def test_atom_experiment_report_shape(self, basis_for):
        basis = basis_for(0.0, 256)
        times = SG.log_times(1e-3, 10.0, 120, include=(1.0,))
        rep = H.atom_variation_experiment("delta_nu", 3.0, basis, times,
                                          b_indices=(0, 1, 2), n_a_atoms=3,
                                          seed=7)
        assert len(rep["atoms"]) == 6
        assert rep["max_norm"] >= rep["min_norm"] > 0.0
        assert math.isfinite(rep["envelope"])

    def test_atom_experiment_deterministic(self, basis_for):
        basis = basis_for(0.0, 256)
        times = SG.log_times(1e-3, 10.0, 80, include=(1.0,))
        rep1 = H.atom_variation_experiment("delta_nu", 3.0, basis, times,
                                           b_indices=(0, 1), n_a_atoms=2,
                                           seed=11)
        rep2 = H.atom_variation_experiment("delta_nu", 3.0, basis, times,
                                           b_indices=(0, 1), n_a_atoms=2,
                                           seed=11)
        assert rep1 == rep2

    def test_h1_single_b_atom_quantities_finite(self, basis_for):
        basis = basis_for(0.0, 256)
        times = SG.log_times(1e-3, 10.0, 120, include=(1.0,))
        spec = H.AtomSpec("delta_nu", "b", 0.0, j=2)
        g = H.atom_grid(0.0, [spec], n_modes=basis.n_modes)
        f = H.make_atom(spec, g)
        from fbvar import variation as V
        c = S.analyze(f, basis, "phi")
        fam = SG.apply_family(basis, c, times, g)
        mass = g.masses(0.0)
        q1 = G.lp_norm(f.values, 1.0, mass) + G.lp_norm(
            SG.maximal_function(fam), 1.0, mass)
        q2 = G.lp_norm(f.values, 1.0, mass) + G.lp_norm(
            V.rho_variation_values(fam, 3.0), 1.0, mass)
        assert 0.0 < q1 < math.inf and 0.0 < q2 < math.inf

    def test_h1_experiment_lower_control(self, basis_for):
        basis = basis_for(0.0, 256)
        times = SG.log_times(1e-3, 10.0, 120, include=(1.0,))
        rep = H.h1_equivalence_experiment("delta_nu", 3.0, basis, times,
                                          n_functions=4, seed=5)
        assert rep["all_lower_control_ok"]
        assert math.isfinite(rep["K"]) and rep["K"] >= 1.0

    def test_h1_requires_time_one(self, basis_for):
        basis = basis_for(0.0, 256)
        times = SG.log_times(1e-3, 10.0, 50)
        with pytest.raises(ValueError, match="t = 1"):
            H.h1_equivalence_experiment("delta_nu", 3.0, basis, times)


class TestPeakMemory:
    """tracemalloc peaks of the Hardy experiments with their mode tables
    built: one mode_sums call holds one chunk's products and one block of
    its columns, each within _SUM_BUDGET floats, and the DP one block of
    _DP_ENTRIES; only the per-function samples and fields grow with the
    number of functions, never a [times, functions, nodes] table or the
    products of every function."""

    @staticmethod
    def one_grid(monkeypatch):
        # the basis keeps a mode table per grid object
        grids = []
        atom_grid = H.atom_grid

        def same_grid(*args):
            if not grids:
                grids.append(atom_grid(*args))
            return grids[0]

        monkeypatch.setattr(H, "atom_grid", same_grid)
        return grids

    @staticmethod
    def bound(T, N, A, P, fields):
        """Bytes of every array: the chunk's products and its block; the
        DP's three blocks, which also cover the one-budget temporary of
        forming products or of sup_t |P_t f|; the [T, N] multipliers; and
        per function its samples, its coefficients and its `fields` [P]
        fields."""
        return 8 * (2 * SG._SUM_BUDGET + 3 * V._DP_ENTRIES + T * N
                    + A * ((1 + fields) * P + N))

    @pytest.mark.parametrize("n_a_atoms", (1, 20))
    def test_atoms_hold_one_chunk_and_one_block(self, n_a_atoms, basis_for,
                                                monkeypatch):
        basis = basis_for(0.0, 512)
        times = SG.log_times(1e-3, 10.0, 200, include=(1.0,))
        grids = self.one_grid(monkeypatch)

        def run():
            return H.atom_variation_experiment("delta_nu", 3.0, basis, times,
                                               n_a_atoms=n_a_atoms, seed=0)

        want = run()
        got, peak = traced_peak(run)
        assert got == want
        T, A, P = times.size, len(want["atoms"]), grids[0].size
        assert A == 7 + n_a_atoms
        # the products of every atom at once would not fit in the budget
        cuts = SG._mode_cuts(np.abs(SG.poisson_multipliers(basis, times)))
        assert A * int(cuts.sum()) > SG._SUM_BUDGET
        assert peak <= self.bound(T, 512, A, P, fields=1)

    @pytest.mark.parametrize("n_functions", (2, 12))
    def test_h1_holds_one_chunk_and_one_block(self, n_functions, basis_for,
                                              monkeypatch):
        basis = basis_for(0.0, 256)
        times = SG.log_times(1e-3, 10.0, 200, include=(1.0,))
        grids = self.one_grid(monkeypatch)

        def run():
            return H.h1_equivalence_experiment("delta_nu", 3.0, basis, times,
                                               n_functions=n_functions,
                                               seed=0)

        want = run()
        got, peak = traced_peak(run)
        assert got == want
        T, A, P = times.size, len(want["functions"]), grids[0].size
        assert A == n_functions
        # three fields per function: the rho-variation, sup_t |P_t f|, P_1 f
        assert peak <= self.bound(T, 256, A, P, fields=3)
