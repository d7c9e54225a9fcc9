import math

import mpmath
import numpy as np
import pytest

from fbvar import (grid as G, kernel_bounds as KB, semigroups as SG,
                   spectral as S, variation as V)


def kernel_norm(basis, x, y, times=None, flavor="phi"):
    """rho = 3 variation of t -> P_t(x, y) over the times (by default the
    200-point default_time_grid)."""
    if times is None:
        times = KB.default_time_grid(basis, 200)
    fam = SG.kernel_family(basis, times, x, y, flavor=flavor)
    return float(V.rho_variation_values(fam, 3.0)[0])


def mode_tables(basis, pts, flavor="phi"):
    """(values, d_x values) [n_modes, len(pts)] tables of the flavor's
    eigenfunctions at the points, each built alone: phi and phi' by
    mode_values, Psi by mode_values and Psi' = x^(nu+1/2) (phi' + (nu+1/2)
    phi / x) by psi_from_phi."""
    phi, dphi = S.mode_values(basis, pts), S.mode_values(basis, pts, "dphi")
    if flavor == "phi":
        return phi, dphi
    return (S.mode_values(basis, pts, "psi"),
            S.psi_from_phi(basis, dphi + (basis.nu + 0.5) / pts * phi, pts))


def pair_family(basis, beta, times, tables, ix, iy, side=None):
    """[times, pairs] Poisson family at the mesh pairs (ix, iy) from the
    (values, d_x values) tables of mode_tables, differentiated in x or y
    when `side` says so."""
    center, deriv = tables
    left = deriv if side == "x" else center
    right = deriv if side == "y" else center
    return SG.kernel_summer(basis, times, "poisson", beta)(
        left[:, ix] * right[:, iy])


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
        rep = KB.bound_checks(basis, 0.0, 3.0, 30, 20)["size"]
        assert rep["verdict"] == "pass"
        assert set(rep["region_max"]) == {"lower", "diagonal", "upper"}
        assert all(math.isfinite(v) for v in rep["region_max"].values())
        assert rep["witness"] is not None and len(rep["witness"]) == 3

    def test_regularity_check_passes(self, basis_for):
        basis = basis_for(0.5, 512)
        rep = KB.bound_checks(basis, 0.0, 3.0, 20, 20)["regularity"]
        assert rep["verdict"] == "pass"

    def test_one_kernel_table_per_offset(self, basis_for, monkeypatch):
        # the subgrid norms read the full grid's table, and swap symmetry
        # leaves one kernel sum per family on the 40 times of the grid, all
        # from one summer: size's kernel on the 45 pairs i < j of the mesh
        # of 10, regularity's d_x family on all 90 ordered pairs, then
        # s_nu's Psi d_x family on all 90; s_nu sums no kernel of its own
        basis = basis_for(0.0, 512)
        summers, tables = [], []
        kernel_summer = SG.kernel_summer

        def counted(basis, ts, *args):
            summers.append(len(ts))
            sums = kernel_summer(basis, ts, *args)

            def counted_sums(products):
                tables.append((len(ts), products.shape[1]))
                return sums(products)
            return counted_sums

        monkeypatch.setattr(SG, "kernel_summer", counted)
        KB.bound_checks(basis, 0.0, 3.0, 10, 10, time_points=40)
        assert summers == [40]
        assert tables == [(40, 45), (40, 90), (40, 90)]

    @pytest.mark.parametrize("nu", [-0.6, 0.0, 0.5, 2.5])
    def test_sweep_tables_are_the_tables_built_alone(self, basis_for, nu):
        # the tables cut from the phi and phi' tables of both meshes, Psi
        # and Psi' scaled from them, are each mesh's own, bit for bit
        basis = basis_for(nu, 512)
        for mesh_size in (10, 20, 30):
            for regularity_mesh in (10, 20, 30):
                got = KB._sweep_tables(basis, mesh_size, regularity_mesh)
                wants = [(mesh_size, "phi"), (regularity_mesh, "phi"),
                         (mesh_size, "psi")]
                for tables, (m, flavor) in zip(got, wants, strict=True):
                    alone = mode_tables(basis, KB.mesh_points(m), flavor)
                    for g, w in zip(tables, alone, strict=True):
                        assert g.shape == (512, m)
                        assert np.array_equal(g, w), (m, flavor)

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
        # each sweep's grid and subgrid observables agree bit for bit at
        # (i, j) and (j, i), and with the norms of families formed at every
        # ordered pair, d_y included, to 1e-12; the Psi kernel's direct
        # norms are (xy)^(nu+1/2) times size's observable to 1e-12, and
        # s_nu's regularity_max is the direct Psi d_x and d_y norms'
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
            tables = mode_tables(basis, pts, flavor)
            fams = [pair_family(basis, beta, times, tables, ix, iy, side)
                    for side in sides]
            return (sum(V.rho_variation_values(f, 3.0) for f in fams),
                    sum(V.rho_variation_values(f[::-2][::-1], 3.0)
                        for f in fams))

        monkeypatch.setattr(V, "check_nested", recorded)
        s_nu = KB.bound_checks(basis, beta, 3.0, 10, 10)["s_nu"]
        wants = [direct("phi", (None,)), direct("phi", ("x", "y"))]
        for got, want in zip(seen, wants, strict=True):
            for g, w in zip(got, want):
                assert np.array_equal(g, g[mirror])
                assert np.all(np.abs(g - w) <= 1e-12 * np.abs(w))
        scale = (pts[ix] * pts[iy]) ** (nu + 0.5)
        for g, w in zip(seen[0], direct("psi", (None,)), strict=True):
            assert np.all(np.abs(scale * g - w) <= 1e-12 * np.abs(w))
        reg = direct("psi", ("x", "y"))[0]
        want = float(np.max(reg * (pts[ix] - pts[iy]) ** 2))
        assert abs(s_nu["regularity_max"] - want) <= 1e-12 * want

    @pytest.mark.parametrize("nu, beta", [(-0.6, 0.5), (0.0, 0.0), (1.0, 1.0),
                                          (0.5, 7.5)])
    def test_s_nu_size_report_is_size_report(self, basis_for, nu, beta):
        # the Psi kernel and its size rhs are the phi ones times
        # (xy)^(nu+1/2), so s_nu's size ratios are size's exactly; the
        # Lebesgue-setting rhs is written out here region by region
        pts, ix, iy = KB._pair_indices(12)
        x, y = pts[ix], pts[iy]
        s_rhs = KB._by_region(x, y, y ** (nu + 0.5) / x ** (nu + 1.5),
                              1.0 / np.abs(x - y),
                              x ** (nu + 0.5) / y ** (nu + 1.5))
        scaled = (x * y) ** (nu + 0.5) * KB.size_bound_rhs(nu, x, y)
        assert np.all(np.abs(scaled - s_rhs) <= 1e-13 * s_rhs)
        basis = basis_for(nu, 512)
        reports = KB.bound_checks(basis, beta, 3.0, 12, 10, time_points=60)
        size, s_nu = reports["size"], reports["s_nu"]
        assert list(s_nu) == ["region_max", "refinement_delta", "witness",
                              "verdict", "regularity_max"]
        for key in ("region_max", "refinement_delta", "witness", "verdict"):
            assert s_nu[key] == size[key], key
        assert math.isfinite(s_nu["regularity_max"])

    @pytest.mark.parametrize("m", [1, 2, 7, 20])
    def test_products_are_the_gathered_products(self, m):
        rng = np.random.default_rng(m)
        left, right = rng.normal(size=(2, 33, m))
        # the heat reports' pairs and the bound sweeps', empty at m = 1
        pairs = [np.triu_indices(m), np.indices((m, m)).reshape(2, -1),
                 KB._pair_indices(m)[1:]]
        for ix, iy in pairs:
            got = KB._products(left, right, ix, iy)
            want = left[:, ix] * right[:, iy]
            assert got.flags.f_contiguous
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_subgrid_keeps_the_smallest_time(self, basis_for, monkeypatch):
        # the subgrid is every other row counted from the smallest time;
        # size and regularity take their grid's norms, then their
        # subgrid's, and s_nu its Psi d_x family's grid norms last
        basis = basis_for(0.0, 512)
        seen = []
        values = V.rho_variation_values

        def recorded(fam, rho):
            seen.append(np.array(fam[:, 0]))
            return values(fam, rho)

        monkeypatch.setattr(V, "rho_variation_values", recorded)
        for time_points, rows in ((41, slice(None, None, 2)),
                                  (40, slice(1, None, 2))):
            seen.clear()
            KB.bound_checks(basis, 0.0, 3.0, 10, 10, time_points)
            assert len(seen) == 5
            for k in (0, 2):
                full, sub = seen[k:k + 2]
                assert np.array_equal(sub, full[rows])

    def test_subgrid_above_grid_is_refused(self, basis_for, monkeypatch):
        basis = basis_for(0.0, 512)
        values = V.rho_variation_values

        def planted(fam, rho):
            return values(fam, rho) * (2.0 if len(fam) == 20 else 1.0)

        monkeypatch.setattr(V, "rho_variation_values", planted)
        with pytest.raises(RuntimeError, match="bound sweep"):
            KB.bound_checks(basis, 0.0, 3.0, 10, 10, time_points=40)

    def test_regularity_observable_is_swap_symmetric(self, basis_for):
        # kernel symmetry swaps the two derivative terms into each other,
        # so the scaled observable agrees at (x, y) and (y, x)
        basis = basis_for(0.5, 512)
        pts, ix, iy = KB._pair_indices(10)
        times = KB.default_time_grid(basis, 80)
        tables = mode_tables(basis, pts)
        obs = sum(V.rho_variation_values(
            pair_family(basis, 0.0, times, tables, ix, iy, side), 3.0)
            for side in ("x", "y")) \
            * (pts[ix] - pts[iy]) ** 2 * (pts[ix] * pts[iy]) ** 1.0
        lookup = {(i, j): v for i, j, v in zip(ix, iy, obs)}
        for (i, j), v in lookup.items():
            assert abs(v - lookup[(j, i)]) <= 1e-9 * max(v, 1e-30)

    @pytest.mark.parametrize("nu", [-0.9, -0.6, 0.0, 1.0, 5.0, 12.0])
    def test_derivative_tables_against_mpmath(self, basis_for, nu):
        # the sweeps' phi' tables at both meshes and their Psi' table
        # against mpmath's numerical derivative of phi_n and of Psi_n, at
        # the rows n = 1, 6, 101 and 512: within 1e-12 of the largest
        # entry of the row on the mesh
        basis = basis_for(nu, 512)
        (_, dphi), (_, dphi_reg), (_, dpsi) = KB._sweep_tables(basis, 30, 20)
        cases = [("phi", KB.mesh_points(30), dphi),
                 ("phi", KB.mesh_points(20), dphi_reg),
                 ("psi", KB.mesh_points(30), dpsi)]
        for n in (1, 6, 101, 512):
            lam = mpmath.mpf(float(basis.zeros[n - 1]))
            d = mpmath.mpf(float(basis.norm_consts[n - 1]))
            with mpmath.workdps(30):
                values = {
                    "phi": lambda x: d * mpmath.sqrt(lam)
                    * mpmath.besselj(nu, lam * x) * x ** -nu,
                    "psi": lambda x: d * mpmath.sqrt(lam * x)
                    * mpmath.besselj(nu, lam * x)}
                for flavor, pts, table in cases:
                    want = np.array([float(mpmath.diff(
                        values[flavor], mpmath.mpf(float(x)))) for x in pts])
                    err = np.max(np.abs(table[n - 1] - want))
                    assert err <= 1e-12 * np.max(np.abs(want)), (flavor, n)

    def test_s_nu_check_negative_order(self, basis_for):
        basis = basis_for(-0.3, 512)
        rep = KB.bound_checks(basis, 0.0, 3.0, 20, 20)["s_nu"]
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
            basis, 0.0, times, mode_tables(basis, pts), ix, iy),
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
