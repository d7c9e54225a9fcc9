import math

import numpy as np
import pytest

from fbvar import grid as G, kernel_bounds as KB, semigroups as SG, variation as V


def kernel_norm(basis, x, y, times=None, flavor="phi"):
    """rho = 3 variation of t -> P_t(x, y) over the times (by default the
    200-point default_time_grid)."""
    if times is None:
        times = KB.default_time_grid(basis, 200)
    fam = SG.kernel_family(basis, times, x, y, flavor=flavor)
    return float(V.rho_variation_values(fam, 3.0)[0])


def pair_family(basis, beta, times, tables, ix, iy, side=None):
    """[times, pairs] Poisson family at the mesh pairs (ix, iy) from the
    (center, deriv) tables of KB._mode_tables, differentiated in x or y
    when `side` says so."""
    center, deriv = tables
    left = deriv if side == "x" else center
    right = deriv if side == "y" else center
    return SG.kernel_sums(basis, times, left[:, ix] * right[:, iy],
                          "poisson", beta)


class TestRegions:
    def test_partition_is_exhaustive_and_disjoint(self):
        pts = (np.arange(25) + 0.5) / 25
        for x in pts:
            for y in pts:
                if abs(x - y) < 0.02:
                    continue
                tags = []
                if y <= 0.5 * x:
                    tags.append("lower")
                if 0.5 * x < y <= min(1.0, 1.5 * x):
                    tags.append("diagonal")
                if min(1.0, 1.5 * x) < y <= 1.0:
                    tags.append("upper")
                assert len(tags) == 1
                assert str(KB._by_region(x, y, "lower", "diagonal",
                                         "upper")) == tags[0]

    def test_size_rhs_formula(self):
        assert abs(KB.size_bound_rhs(0.0, 0.5, 0.2) - 4.0) < 1e-14
        want = (0.5 * 0.55) ** -0.5 / 0.05
        assert abs(KB.size_bound_rhs(0.0, 0.5, 0.55) - want) < 1e-12


class TestERhoNorm:
    def test_symmetry(self, basis_for):
        basis = basis_for(0.5, 256)
        a = kernel_norm(basis, 0.3, 0.7)
        b = kernel_norm(basis, 0.7, 0.3)
        assert abs(a - b) <= 1e-12 * a

    def test_finite_and_refinement_stable(self, basis_for):
        basis = basis_for(0.5, 256)
        t1 = KB.default_time_grid(basis, 200)
        t2 = KB.default_time_grid(basis, 400)
        a = kernel_norm(basis, 0.3, 0.7, t1)
        b = kernel_norm(basis, 0.3, 0.7, t2)
        assert math.isfinite(a) and a > 0
        assert abs(a - b) / a < 0.01

    def test_dominated_by_discrete_total_variation(self, basis_for):
        basis = basis_for(0.0, 256)
        times = KB.default_time_grid(basis, 150)
        fam = SG.kernel_family(basis, times, np.array([0.3]),
                               np.array([0.7]), kind="poisson")
        norm = kernel_norm(basis, 0.3, 0.7, times)
        assert norm <= V.total_variation(fam[:, 0]) + 1e-12

    def test_kernel_floor_propagates(self, basis_for):
        basis = basis_for(0.0, 16)
        bad_times = np.array([1.0, 1e-5])
        with pytest.raises(SG.KernelTruncationError):
            kernel_norm(basis, 0.3, 0.7, bad_times)


class TestBoundReports:
    def test_size_check_passes(self, basis_for):
        basis = basis_for(0.0, 512)
        rep = KB.size_bound_check(basis, 0.0, 3.0, mesh_size=30)
        assert rep["verdict"] == "pass"
        assert set(rep["region_max"]) == {"lower", "diagonal", "upper"}
        assert all(math.isfinite(v) for v in rep["region_max"].values())
        assert rep["witness"] is not None and len(rep["witness"]) == 3

    def test_regularity_check_passes(self, basis_for):
        basis = basis_for(0.5, 512)
        rep = KB.regularity_bound_check(basis, 0.0, 3.0, mesh_size=20)
        assert rep["verdict"] == "pass"

    def test_one_kernel_table_per_offset(self, basis_for, monkeypatch):
        # the subgrid norms read the full grid's table, and swap symmetry
        # leaves one kernel_sums per family on the 40 times of the grid:
        # the kernel on the 45 pairs i < j of the mesh of 10, the d_x
        # family on all 90 ordered pairs (s_nu's regularity extra first)
        basis = basis_for(0.0, 512)
        tables = []
        kernel_sums = SG.kernel_sums

        def counted(basis, ts, products, *args):
            tables.append((len(ts), products.shape[1]))
            return kernel_sums(basis, ts, products, *args)

        monkeypatch.setattr(SG, "kernel_sums", counted)
        KB.size_bound_check(basis, 0.0, 3.0, mesh_size=10, time_points=40)
        assert tables == [(40, 45)]
        KB.regularity_bound_check(basis, 0.0, 3.0, mesh_size=10,
                                  time_points=40)
        assert tables == [(40, 45), (40, 90)]
        KB.s_nu_bound_check(basis, 0.0, 3.0, mesh_size=10, time_points=40)
        assert tables == [(40, 45), (40, 90), (40, 90), (40, 45)]

    @pytest.mark.parametrize("mesh_size", [2, 3, 10, 20, 30, 49, 50, 101])
    def test_pair_indices_are_closed_under_swap(self, mesh_size):
        pts, ix, iy = KB._pair_indices(mesh_size)
        assert set(zip(ix, iy)) == set(zip(iy, ix))
        assert np.all(ix != iy)
        mirror = KB._mirror(ix, iy)
        assert np.array_equal(ix[mirror], iy)
        assert np.array_equal(iy[mirror], ix)
        assert np.array_equal(mirror[mirror], np.arange(len(ix)))

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    @pytest.mark.parametrize("nu", [-0.6, 0.0, 0.5])
    def test_sweeps_match_every_ordered_pair(self, basis_for, monkeypatch,
                                             nu, beta):
        # each check's grid and subgrid observables agree bit for bit at
        # (i, j) and (j, i), and with the norms of families formed at every
        # ordered pair, d_y included, to 1e-12
        basis = basis_for(nu, 512)
        pts, ix, iy = KB._pair_indices(10)
        mirror = KB._mirror(ix, iy)
        times = KB.default_time_grid(basis, 200)
        seen = []
        check_nested = V.check_nested

        def recorded(sub, full, what):
            seen.append((full, sub))
            return check_nested(sub, full, what)

        def direct(flavor, sides):
            tables = KB._mode_tables(basis, pts, flavor)
            fams = [pair_family(basis, beta, times, tables, ix, iy, side)
                    for side in sides]
            return (sum(V.rho_variation_values(f, 3.0) for f in fams),
                    sum(V.rho_variation_values(f[::-2][::-1], 3.0)
                        for f in fams))

        monkeypatch.setattr(V, "check_nested", recorded)
        KB.size_bound_check(basis, beta, 3.0, mesh_size=10)
        KB.regularity_bound_check(basis, beta, 3.0, mesh_size=10)
        s_nu = KB.s_nu_bound_check(basis, beta, 3.0, mesh_size=10)
        wants = [direct("phi", (None,)), direct("phi", ("x", "y")),
                 direct("psi", (None,))]
        for got, want in zip(seen, wants, strict=True):
            for g, w in zip(got, want):
                assert np.array_equal(g, g[mirror])
                assert np.all(np.abs(g - w) <= 1e-12 * np.abs(w))
        reg = direct("psi", ("x", "y"))[0]
        want = float(np.max(reg * (pts[ix] - pts[iy]) ** 2))
        assert abs(s_nu["regularity_max"] - want) <= 1e-12 * want

    def test_subgrid_keeps_the_smallest_time(self, basis_for, monkeypatch):
        # the subgrid is every other row counted from the smallest time
        basis = basis_for(0.0, 512)
        seen = []
        values = V.rho_variation_values

        def recorded(fam, rho):
            seen.append(np.array(fam[:, 0]))
            return values(fam, rho)

        monkeypatch.setattr(V, "rho_variation_values", recorded)
        KB.size_bound_check(basis, 0.0, 3.0, mesh_size=10, time_points=41)
        full, sub = seen
        assert np.array_equal(sub, full[::2])
        KB.size_bound_check(basis, 0.0, 3.0, mesh_size=10, time_points=40)
        full, sub = seen[2:]
        assert np.array_equal(sub, full[1::2])

    def test_subgrid_above_grid_is_refused(self, basis_for, monkeypatch):
        basis = basis_for(0.0, 512)
        values = V.rho_variation_values

        def planted(fam, rho):
            return values(fam, rho) * (2.0 if len(fam) == 20 else 1.0)

        monkeypatch.setattr(V, "rho_variation_values", planted)
        with pytest.raises(RuntimeError, match="bound sweep"):
            KB.size_bound_check(basis, 0.0, 3.0, mesh_size=10,
                                time_points=40)

    def test_regularity_observable_is_swap_symmetric(self, basis_for):
        # kernel symmetry swaps the two derivative terms into each other,
        # so the scaled observable agrees at (x, y) and (y, x)
        basis = basis_for(0.5, 512)
        pts, ix, iy = KB._pair_indices(10)
        times = KB.default_time_grid(basis, 80)
        tables = KB._mode_tables(basis, pts, "phi")
        obs = sum(V.rho_variation_values(
            pair_family(basis, 0.0, times, tables, ix, iy, side), 3.0)
            for side in ("x", "y")) \
            * (pts[ix] - pts[iy]) ** 2 * (pts[ix] * pts[iy]) ** 1.0
        lookup = {(i, j): v for i, j, v in zip(ix, iy, obs)}
        for (i, j), v in lookup.items():
            assert abs(v - lookup[(j, i)]) <= 1e-9 * max(v, 1e-30)

    def test_regularity_richardson_in_h(self, basis_for, monkeypatch):
        basis = basis_for(0.5, 512)
        monkeypatch.setattr(KB, "_H", 1e-4)
        a = KB.regularity_bound_check(basis, 0.0, 3.0, mesh_size=10)
        monkeypatch.setattr(KB, "_H", 5e-5)
        b = KB.regularity_bound_check(basis, 0.0, 3.0, mesh_size=10)
        for key, val in a["region_max"].items():
            if val > 0:
                assert abs(val - b["region_max"][key]) / val < 0.02

    def test_s_nu_check_negative_order(self, basis_for):
        basis = basis_for(-0.3, 512)
        rep = KB.s_nu_bound_check(basis, 0.0, 3.0, mesh_size=20)
        assert rep["verdict"] == "pass"
        assert math.isfinite(rep["regularity_max"])

    def test_conjugation_identity_at_triples(self, basis_for):
        basis = basis_for(0.3, 256)
        rng = np.random.default_rng(1)
        times = KB.default_time_grid(basis, 50)
        for _ in range(10):
            x, y = rng.uniform(0.1, 0.9, 2)
            fam_phi = SG.kernel_family(basis, times, np.array([x]),
                                       np.array([y]), kind="poisson")
            fam_psi = SG.kernel_family(basis, times, np.array([x]),
                                       np.array([y]), kind="poisson",
                                       flavor="psi")
            scale = (x * y) ** (basis.nu + 0.5)
            assert np.max(np.abs(fam_psi - scale * fam_phi)) \
                <= 1e-12 * np.max(np.abs(fam_psi))

    def test_conjugated_norm_scaling(self, basis_for):
        # variation norms are positively homogeneous, so the two kernel
        # families have norms differing exactly by (xy)^(nu+1/2)
        basis = basis_for(0.3, 256)
        x, y = 0.4, 0.7
        a = kernel_norm(basis, x, y, flavor="psi")
        b = kernel_norm(basis, x, y, flavor="phi")
        assert abs(a - (x * y) ** 0.8 * b) <= 1e-10 * a

    def test_size_times_ball_measure_bounded(self, basis_for):
        basis = basis_for(0.0, 512)
        pts, ix, iy = KB._pair_indices(15)
        xs, ys = pts[ix], pts[iy]
        times = KB.default_time_grid(basis, 100)
        norms = V.rho_variation_values(pair_family(
            basis, 0.0, times, KB._mode_tables(basis, pts, "phi"), ix, iy),
            3.0)
        r = np.abs(xs - ys)
        prod = norms * G.measure_of_interval(
            0.0, np.maximum(xs - r, 0.0), np.minimum(xs + r, 1.0))
        assert math.isfinite(float(np.max(prod)))
        assert float(np.max(prod)) < 50.0


class TestHeatReports:
    def test_envelope(self, basis_for):
        basis = basis_for(0.0, 64)
        rep = KB.heat_envelope_report(basis)
        assert rep["verdict"] == "pass"
        assert rep["c"] > 0 and math.isfinite(rep["envelope"])

    def test_gradient(self, basis_for):
        basis = basis_for(0.5, 64)
        rep = KB.heat_gradient_report(basis)
        assert rep["verdict"] == "pass"

    def test_free_kernel_comparison(self, basis_for):
        basis = basis_for(0.5, 64)
        rep = KB.free_kernel_comparison(basis, mesh_size=15)
        assert rep["verdict"] == "pass"
        assert rep["C"] > 0

    @pytest.mark.parametrize("report", [KB.heat_envelope_report,
                                        KB.heat_gradient_report,
                                        KB.free_kernel_comparison])
    def test_uncertified_times_refused(self, basis_for, report):
        # 4 modes certify the heat series only from t = 0.19 on
        basis = basis_for(0.0, 4)
        with pytest.raises(SG.KernelTruncationError):
            report(basis)
