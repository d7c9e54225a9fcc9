import math

import numpy as np
import pytest

from fbvar import grid as G, semigroups as SG, spectral as S
from fbvar.grid import GridFunction

from helpers import (images_free_kernel, sine_series_heat_kernel,
                     times_diagonal)


class TestLogTimes:
    def test_decreasing_with_inserts(self):
        times = SG.log_times(1e-2, 10.0, 50, include=(1.0,))
        assert np.all(np.diff(times) < 0)
        assert np.any(times == 1.0)


class TestWeylOrder:
    def test_m_is_floor_plus_one(self):
        for beta, m in ((0.0, 1), (0.5, 1), (1.0, 2), (1.5, 2), (2.4, 3)):
            assert SG._weyl_order(beta)[0] == m

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SG._weyl_order(-0.1)

    def test_both_routes_refuse_negative_and_nan(self, basis_for):
        basis = basis_for(0.0, 8)
        for beta in (-0.1, math.nan):
            with pytest.raises(ValueError):
                SG.poisson_multipliers(basis, [1.0], beta)
            with pytest.raises(ValueError):
                SG.weyl_integral_check(beta, 1.0, 1.0)


class TestHeat:
    def test_kernel_symmetry(self, basis_for):
        basis = basis_for(0.3, 64)
        assert SG.kernel_family(basis, [0.2], 0.3, 0.8, "heat")[0] \
            == SG.kernel_family(basis, [0.2], 0.8, 0.3, "heat")[0]

    def test_kernel_sine_oracle(self, basis_for):
        basis = basis_for(0.5, 64)
        for (t, x, y) in ((0.1, 0.3, 0.7), (0.05, 0.5, 0.5), (0.4, 0.2, 0.9)):
            got = SG.kernel_family(basis, [t], x, y, "heat")[0]
            want = sine_series_heat_kernel(t, x, y)
            assert abs(got - want) < 1e-10

    def test_kernel_positive_on_mesh(self, basis_for):
        basis = basis_for(0.0, 64)
        pts = np.linspace(0.05, 0.95, 20)
        X, Y = np.meshgrid(pts, pts, indexing="ij")
        for t in (0.05, 0.1, 0.5, 1.0, 2.0):
            vals = SG.kernel_family(basis, [t], X.ravel(), Y.ravel(),
                                    kind="heat")[0]
            assert np.all(vals > 0.0)

    def test_apply_factor(self, basis_for):
        basis = basis_for(0.5, 8)
        e1 = np.zeros(8)
        e1[0] = 1.0
        c = times_diagonal(S.CoefficientVector(e1, basis, "phi"),
                                      SG.heat_multipliers(basis, [0.1])[0])
        assert abs(c.values[0] - math.exp(-0.1 * math.pi ** 2)) < 1e-15

    def test_semigroup_law(self, basis_for):
        basis = basis_for(0.0, 16)
        rng = np.random.default_rng(1)
        c = S.CoefficientVector(rng.normal(size=16), basis, "phi")
        a = times_diagonal(
            times_diagonal(c, SG.heat_multipliers(basis, [0.2])[0]),
            SG.heat_multipliers(basis, [0.3])[0])
        b = times_diagonal(c, SG.heat_multipliers(basis, [0.5])[0])
        assert np.max(np.abs(a.values - b.values)) < 1e-14

    def test_short_time_recovery(self, basis_for):
        basis = basis_for(0.0, 16)
        rng = np.random.default_rng(2)
        c = S.CoefficientVector(rng.normal(size=16), basis, "phi")
        t = 1e-6
        out = times_diagonal(c, SG.heat_multipliers(basis, [t])[0])
        floor = math.exp(-t * basis.zeros[-1] ** 2)
        assert np.all(np.abs(out.values) >= floor * np.abs(c.values) - 1e-15)

    def test_t_min_guard(self, basis_for):
        basis = basis_for(0.0, 16)
        with pytest.raises(SG.KernelTruncationError) as info:
            SG.kernel_family(basis, [1e-9], 0.4, 0.6, "heat")[0]
        assert "increase N" in str(info.value)
        assert info.value.t_min > 1e-9


class TestPoisson:
    def test_apply_factor(self, basis_for):
        basis = basis_for(0.5, 8)
        e1 = np.zeros(8)
        e1[0] = 1.0
        c = times_diagonal(S.CoefficientVector(e1, basis, "phi"),
                                      SG.poisson_multipliers(basis, [1.0])[0])
        assert abs(c.values[0] - math.exp(-math.pi)) < 1e-15

    def test_subordination_kernel(self, basis_for):
        for nu in (0.0, 0.5):
            basis = basis_for(nu, 512)
            for (t, x, y) in ((0.05, 0.3, 0.7), (0.2, 0.5, 0.5),
                              (1.0, 0.9, 0.2), (2.0, 0.6, 0.6)):
                series = SG.kernel_family(basis, [t], x, y, "poisson")[0]
                integral = SG.subordination_poisson_kernel(basis, t, x, y)
                assert abs(integral - series) <= 1e-6 * abs(series)

    def test_not_markovian(self, basis_for, grid_for):
        # P_t(1) stays strictly below 1 inside the interval
        basis = basis_for(0.0, 64)
        g = grid_for(0.0, 64)
        one = GridFunction(g, np.ones(g.size))
        c = S.analyze(one, basis, "phi")
        out = times_diagonal(c, SG.poisson_multipliers(basis, [0.5])[0])
        f = S.synthesize(out, g)
        i = int(np.argmin(np.abs(g.nodes - 0.5)))
        assert f.values[i] < 1.0

    def test_kernel_t_min_guard(self, basis_for):
        basis = basis_for(0.0, 16)
        with pytest.raises(SG.KernelTruncationError):
            SG.kernel_family(basis, [1e-4], 0.4, 0.6, "poisson")[0]


class TestKernelSums:
    def test_matches_the_sum_per_time_and_pair(self, basis_for):
        basis = basis_for(0.5, 32)
        left, right = np.random.default_rng(3).normal(size=(2, 32, 7))
        times = [2.0, 1.0, 0.4]
        got = SG.kernel_sums(basis, times, left * right, "poisson", 1.5)
        for i, t in enumerate(times):
            mult = SG.poisson_multipliers(basis, [t], beta=1.5)[0]
            for p in range(7):
                terms = [mult[n] * left[n, p] * right[n, p] for n in range(32)]
                assert abs(got[i, p] - math.fsum(terms)) \
                    <= 1e-14 * sum(abs(v) for v in terms)

    @pytest.mark.parametrize("kind,beta", (("heat", 0.0), ("poisson", 0.0),
                                           ("poisson", 1.5)))
    def test_matches_the_sum_where_the_cut_bites(self, kind, beta, basis_for):
        basis = basis_for(0.5, 512)
        left, right = np.random.default_rng(9).normal(size=(2, 512, 7))
        times = [10.0, 1.0, SG.t_min(basis, kind)]
        mults = SG._multipliers(basis, times, kind, beta)
        assert SG._mode_cuts(np.abs(mults))[0] < 512
        got = SG.kernel_sums(basis, times, left * right, kind, beta)
        for i in range(len(times)):
            for p in range(7):
                terms = [mults[i, n] * left[n, p] * right[n, p]
                         for n in range(512)]
                assert abs(got[i, p] - math.fsum(terms)) \
                    <= 1e-14 * sum(abs(v) for v in terms)

    def test_any_table_refused_below_the_kernel_t_min(self, basis_for):
        # derivative tables and beta > 0 families share the kernel's t_min
        basis = basis_for(0.0, 16)
        table = np.ones((16, 3))
        for kind, beta in (("heat", 0.0), ("poisson", 0.5)):
            t = 0.5 * SG.t_min(basis, kind)
            with pytest.raises(SG.KernelTruncationError):
                SG.kernel_sums(basis, [1.0, t], table, kind, beta)


KINDS = (("heat", 0.0), ("poisson", 0.0), ("poisson", 0.5), ("poisson", 1.5))


class TestModeSums:
    """mode_sums against the dense product over all 512 modes, for times in
    [1e-3, 10].  Reordering or regrouping rows changes only the BLAS
    summation order, so values agree to the rounding scale
    2 sqrt(N) eps sum_n |m_n c_n table[n, p]|, not bit for bit."""

    TIMES = np.geomspace(10.0, 1e-3, 60)

    @staticmethod
    def inputs(basis):
        table = S.mode_values(basis, np.linspace(0.0, 1.0, 41)[1:])
        rng = np.random.default_rng(10)
        return table, rng.normal(size=512) / np.arange(1, 513)

    @staticmethod
    def rounding(mults, table, c):
        eps = np.finfo(float).eps
        return 2.0 * math.sqrt(len(c)) * eps * (np.abs(mults * c) @ np.abs(table))

    @staticmethod
    def cut_bound(mults, table, c):
        """The docstring bound e^-45 max|m| sum_{n >= K} |c_n table[n, p]|."""
        cuts = SG._mode_cuts(np.abs(mults))
        tail = np.abs(c)[:, None] * np.abs(table)
        return np.array([math.exp(-45.0) * np.max(np.abs(row)) * tail[k:].sum(axis=0)
                         for row, k in zip(mults, cuts)])

    @pytest.mark.parametrize("nu", (-0.6, 0.0, 0.5))
    def test_a_cut_alone_equals_its_cut_in_the_grid(self, nu, basis_for):
        basis = basis_for(nu, 512)
        for kind, beta in KINDS:
            mults = SG._multipliers(basis, self.TIMES, kind, beta)
            cuts = SG._mode_cuts(np.abs(mults))
            assert cuts.min() < 512
            for t, m, k in zip(self.TIMES, mults, cuts):
                alone = SG._multipliers(basis, [t], kind, beta)
                assert SG._mode_cuts(np.abs(alone))[0] == k
                # reference: through the last |m_n| >= e^-45 max|m|,
                # rounded up to 64
                floor = math.exp(-45.0) * max(abs(m))
                last = max(n for n in range(512) if abs(m[n]) >= floor)
                assert k == min(512, 64 * math.ceil((last + 1) / 64))

    @pytest.mark.parametrize("nu", (-0.6, 0.0, 0.5))
    def test_a_split_grid_agrees_with_the_whole(self, nu, basis_for):
        basis = basis_for(nu, 512)
        table, c = self.inputs(basis)
        for kind, beta in KINDS:
            mults = SG._multipliers(basis, self.TIMES, kind, beta)
            whole = SG.mode_sums(mults, table, c)
            tol = self.rounding(mults, table, c)
            for cut in (1, 17, 30, 59):
                split = np.concatenate([SG.mode_sums(mults[:cut], table, c),
                                        SG.mode_sums(mults[cut:], table, c)])
                assert np.all(np.abs(split - whole) <= tol)

    @pytest.mark.parametrize("nu", (-0.6, 0.0, 0.5))
    def test_within_the_bound_of_the_dense_product(self, nu, basis_for):
        basis = basis_for(nu, 512)
        table, c = self.inputs(basis)
        for kind, beta in KINDS:
            mults = SG._multipliers(basis, self.TIMES, kind, beta)
            dense = (mults * c) @ table
            got = SG.mode_sums(mults, table, c)
            bound = self.cut_bound(mults, table, c) \
                + self.rounding(mults, table, c)
            assert np.all(np.abs(got - dense) <= bound)

    @pytest.mark.parametrize("nu", (-0.6, 0.0, 0.5))
    def test_coefficients_past_the_cut_stay_within_the_bound(self, nu,
                                                             basis_for):
        # every mode below 64, which each cut keeps, has coefficient 0, so
        # a row cut at K sums only modes 64..K-1 and drops the rest
        basis = basis_for(nu, 512)
        table, _ = self.inputs(basis)
        c = np.random.default_rng(12).normal(size=512) * 1e6
        c[:64] = 0.0
        for kind, beta in KINDS:
            mults = SG._multipliers(basis, self.TIMES, kind, beta)
            cuts = SG._mode_cuts(np.abs(mults))
            assert np.any(cuts == 64)
            got = SG.mode_sums(mults, table, c)
            assert np.all(got[cuts == 64] == 0.0)
            dense = (mults * c) @ table
            bound = self.cut_bound(mults, table, c) \
                + self.rounding(mults, table, c)
            assert np.all(np.abs(got - dense) <= bound)

    def test_products_below_the_smallest_normal_count_as_zero(self):
        # the product 1e-200 * 1e-110 is subnormal; its mode lies inside
        # the row's cut, and its table entry would make it a normal term
        tiny = np.finfo(float).tiny
        mults = np.array([[1.0, 1e-200]])
        c = np.array([0.0, 1e-110])
        table = np.array([[1.0], [1e10]])
        assert SG._mode_cuts(np.abs(mults))[0] == 2
        got = SG.mode_sums(mults, table, c)
        dense = (mults * c) @ table
        assert got[0, 0] == 0.0 < dense[0, 0]
        assert np.all(np.abs(got - dense) <= tiny * np.abs(table).sum(axis=0))

    @pytest.mark.parametrize("nu", (-0.6, 0.0, 0.5))
    def test_row_order_does_not_matter(self, nu, basis_for):
        basis = basis_for(nu, 512)
        table, c = self.inputs(basis)
        order = np.random.default_rng(13).permutation(len(self.TIMES))
        for kind, beta in KINDS:
            mults = SG._multipliers(basis, self.TIMES, kind, beta)
            whole = SG.mode_sums(mults, table, c)
            shuffled = SG.mode_sums(mults[order], table, c)
            tol = self.rounding(mults, table, c)
            assert np.all(np.abs(shuffled - whole[order]) <= tol[order])

    @pytest.mark.parametrize("nu", (-0.6, 0.0, 0.5))
    def test_each_function_of_a_stack_equals_its_own_call(self, nu,
                                                          basis_for):
        basis = basis_for(nu, 512)
        table, _ = self.inputs(basis)
        stack = np.random.default_rng(14).normal(size=(8, 512)) \
            / np.arange(1, 513)
        for kind, beta in (("heat", 0.0), ("poisson", 0.0), ("poisson", 1.5)):
            mults = SG._multipliers(basis, self.TIMES, kind, beta)
            for A in (1, 3, 8):
                got = SG.mode_sums(mults, table, stack[:A])
                assert got.shape == (len(self.TIMES), A, table.shape[1])
                for a in range(A):
                    alone = SG.mode_sums(mults, table, stack[a])
                    tol = self.rounding(mults, table, stack[a])
                    assert np.all(np.abs(got[:, a] - alone) <= tol)

    # (A, P, budget, chunk sizes, block widths): one chunk and one block,
    # blocks of unequal width, and chunks of unequal size down to one
    # function; 60 times whose cuts sum to 16,128 modes
    @pytest.mark.parametrize("A, P, budget, sizes, widths", [
        pytest.param(1, 300, None, [1], [300], id="1-300-widths0"),
        pytest.param(3, 300, None, [3], [300], id="3-300-widths1"),
        pytest.param(2, 1100, None, [2], [1100], id="2-1100-widths2"),
        pytest.param(8, 1100, None, [8], [366, 367, 367], id="8-1100-widths3"),
        pytest.param(5, 1100, 1 << 16, [2, 3], [275] * 4, id="5-1100-chunks"),
        pytest.param(7, 1100, 1 << 15, [1, 2, 2, 2], [220] * 5,
                     id="7-1100-chunks"),
        pytest.param(3, 1100, 1 << 14, [1, 1, 1], [220] * 5,
                     id="3-1100-single")])
    def test_a_reduction_sees_every_column_once(self, A, P, budget, sizes,
                                                widths, basis_for,
                                                monkeypatch):
        if budget is not None:
            monkeypatch.setattr(SG, "_SUM_BUDGET", budget)
        basis = basis_for(0.0, 512)
        table = S.mode_values(basis, np.linspace(0.0, 1.0, P + 1)[1:])
        stack = np.random.default_rng(15).normal(size=(A, 512)) \
            / np.arange(1, 513)
        mults = SG._multipliers(basis, self.TIMES, "poisson", 0.0)
        assert int(SG._mode_cuts(np.abs(mults)).sum()) == 16128
        whole = SG.mode_sums(mults, table, stack)
        seen = []

        def reduce(fn, cols, block):
            assert block.shape == (len(self.TIMES), fn.stop - fn.start,
                                   cols.stop - cols.start)
            seen.append((fn, cols, block.copy()))

        assert SG.mode_sums(mults, table, stack, reduce) is None
        # chunks in order, each chunk's blocks left to right
        assert [(fn.stop - fn.start, c.stop - c.start) for fn, c, _ in seen] \
            == [(n, w) for n in sizes for w in widths]
        count = np.zeros((A, P), dtype=int)
        for fn, cols, _ in seen:
            count[fn, cols] += 1
        assert np.all(count == 1)
        for fn, cols, block in seen:
            for i, a in enumerate(range(A)[fn]):
                tol = self.rounding(mults, table, stack[a])
                assert np.all(np.abs(block[:, i] - whole[:, a, cols])
                              <= tol[:, cols])
        # the stacked products and every block stay within the budget
        limit = SG._SUM_BUDGET
        assert max(sizes) * 16128 <= limit
        assert len(self.TIMES) * max(sizes) * max(widths) <= limit


class TestWeyl:
    def test_beta_zero_is_plain_poisson(self, basis_for, grid_for):
        basis = basis_for(0.0, 16)
        g = grid_for(0.0, 16)
        rng = np.random.default_rng(4)
        c = S.CoefficientVector(rng.normal(size=16), basis, "phi")
        times = SG.log_times(0.05, 5.0, 20)
        fam0 = SG.apply_family(basis, c, times, g, beta=0.0)
        fam_plain = SG.apply_family(basis, c, times, g)
        assert np.array_equal(fam0, fam_plain)

    def test_beta_one_matches_t_derivative(self, basis_for):
        # per mode: -(t lam) e^(-t lam) equals t * d/dt e^(-t lam)
        basis = basis_for(0.0, 8)
        lam = basis.zeros
        for t in (0.3, 1.0):
            mult = SG.poisson_multipliers(basis, [t], beta=1.0)[0]
            want = t * (-lam) * np.exp(-t * lam)
            assert np.max(np.abs(mult - want)) < 1e-14

    def test_half_derivative_of_unit_rate_exponential(self):
        # D^(1/2) e^(-s) evaluated at t equals e^(-t) since lam = 1
        for t in (0.5, 1.0, 2.0):
            got = SG.weyl_integral_check(0.5, 1.0, t)
            assert abs(got - math.exp(-t)) < 1e-6 * math.exp(-t)

    def test_integer_order_reduces_to_ordinary_derivative(self):
        for lam in (1.3, 4.0):
            for t in (0.4, 1.0):
                got = SG.weyl_integral_check(1.0, lam, t)
                want = lam * math.exp(-lam * t)
                assert abs(got - want) < 1e-8 * want

    def test_half_order_at_time_zero(self):
        assert abs(SG.weyl_integral_check(0.5, 1.0, 0.0) - 1.0) < 1e-8

    def test_three_halves_value(self):
        got = SG.weyl_integral_check(1.5, 2.0, 1.0)
        want = 2.0 ** 1.5 * math.exp(-2.0)
        assert abs(got - want) < 1e-8
        assert abs(want - 0.382785986) < 1e-8

    @pytest.mark.parametrize("beta", (0.5, 1.0, 1.5, 2.4))
    def test_integral_route_equals_multiplier_route(self, beta, basis_for):
        basis = basis_for(0.0, 8)
        for lam in (basis.zeros[0], basis.zeros[4]):
            for t in (0.5, 1.0, 2.0):
                integral = SG.weyl_integral_check(beta, lam, t)
                multiplier = lam ** beta * math.exp(-lam * t)
                assert abs(integral - multiplier) <= 1e-6 * multiplier


class TestFreeKernel:
    def test_images_oracle(self):
        for (t, x, y) in ((0.1, 0.3, 0.7), (0.01, 0.5, 0.52), (0.5, 0.2, 0.4)):
            got = SG.free_heat_kernel(0.5, t, x, y)
            assert abs(got - images_free_kernel(t, x, y)) < 1e-10

    def test_symmetry_and_positivity(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x, y = rng.uniform(0.05, 0.95, 2)
            t = rng.uniform(0.01, 1.0)
            a = SG.free_heat_kernel(0.0, t, x, y)
            b = SG.free_heat_kernel(0.0, t, y, x)
            assert a > 0.0
            assert abs(a - b) <= 1e-14 * a

    def test_small_time_no_overflow(self):
        val = SG.free_heat_kernel(0.3, 1e-6, 0.5, 0.500001)
        assert np.isfinite(val) and val > 0.0


class TestConjugatedFamily:
    def test_kernel_relation(self, basis_for):
        basis = basis_for(0.3, 64)
        rng = np.random.default_rng(6)
        for _ in range(10):
            x, y = rng.uniform(0.1, 0.9, 2)
            t = rng.uniform(0.1, 1.0)
            a = SG.kernel_family(basis, [t], x, y, "heat", "psi")[0]
            b = (x * y) ** (basis.nu + 0.5) \
                * SG.kernel_family(basis, [t], x, y, "heat")[0]
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    def test_half_integer_sine_form(self, basis_for):
        basis = basis_for(0.5, 64)
        t, x, y = 0.1, 0.3, 0.7
        got = SG.kernel_family(basis, [t], x, y, "heat", "psi")[0]
        want = sine_series_heat_kernel(t, x, y) * x * y
        assert abs(got - want) < 1e-10

    def test_eigenrelation(self, basis_for, grid_for):
        basis = basis_for(0.0, 8)
        g = grid_for(0.0, 8)
        e1 = np.zeros(8)
        e1[0] = 1.0
        c = S.CoefficientVector(e1, basis, "psi")
        out = times_diagonal(c, SG.poisson_multipliers(basis, [0.7])[0])
        f = S.synthesize(out, g)
        want = math.exp(-0.7 * basis.zeros[0]) \
            * S.mode_values(basis, g.nodes, "psi")[0]
        assert np.max(np.abs(f.values - want)) < 1e-12


class TestMaximal:
    def test_single_time(self, basis_for, grid_for):
        basis = basis_for(0.0, 8)
        g = grid_for(0.0, 8)
        rng = np.random.default_rng(7)
        c = S.CoefficientVector(rng.normal(size=8), basis, "phi")
        times = np.array([0.3])
        fam = SG.apply_family(basis, c, times, g)
        m = SG.maximal_function(fam)
        assert np.array_equal(m, np.abs(fam[0]))

    def test_eigenfunction_sup_at_smallest_time(self, basis_for, grid_for):
        basis = basis_for(0.0, 8)
        g = grid_for(0.0, 8)
        e1 = np.zeros(8)
        e1[0] = 1.0
        c = S.CoefficientVector(e1, basis, "phi")
        times = SG.log_times(1e-3, 10.0, 60)
        fam = SG.apply_family(basis, c, times, g)
        m = SG.maximal_function(fam)
        phi1 = np.abs(S.mode_values(basis, g.nodes, "phi")[0])
        factor = math.exp(-times.min() * basis.zeros[0])
        assert np.max(np.abs(m - factor * phi1)) < 1e-12
        assert np.all(m <= phi1 + 1e-15)

    def test_constant_in_time_family(self, basis_for, grid_for):
        basis = basis_for(0.0, 8)
        g = grid_for(0.0, 8)
        vals = np.tile(np.sin(g.nodes), (5, 1))
        m = SG.maximal_function(vals)
        assert np.array_equal(m, np.abs(np.sin(g.nodes)))


class TestWeightedConjugation:
    def test_tilde_semigroup_fixes_constants(self, basis_for, grid_for):
        # (1/phi_1) e^(lam_1^2 t) W_t(phi_1 f) at f = 1 returns 1: the
        # ground-state conjugated flow is Markovian
        basis = basis_for(0.0, 32)
        g = grid_for(0.0, 32)
        phi1 = S.mode_values(basis, g.nodes, "phi")[0]
        c = S.analyze(GridFunction(g, phi1), basis, "phi")
        for t in (0.1, 0.5):
            wt = S.synthesize(times_diagonal(
                c, SG.heat_multipliers(basis, [t])[0]), g)
            conj = math.exp(basis.zeros[0] ** 2 * t) * wt.values / phi1
            assert np.max(np.abs(conj - 1.0)) < 1e-7

    def test_tilde_semigroup_law(self, basis_for, grid_for):
        basis = basis_for(0.5, 32)
        g = grid_for(0.5, 32)
        rng = np.random.default_rng(8)
        phi1 = S.mode_values(basis, g.nodes, "phi")[0]
        f = rng.normal(size=g.size)

        def conj_flow(t, vals):
            c = S.analyze(GridFunction(g, vals * phi1), basis, "phi")
            out = S.synthesize(times_diagonal(
                c, SG.heat_multipliers(basis, [t])[0]), g)
            return math.exp(basis.zeros[0] ** 2 * t) * out.values / phi1

        a = conj_flow(0.2, conj_flow(0.3, f))
        b = conj_flow(0.5, f)
        assert np.max(np.abs(a - b)) < 1e-6 * np.max(np.abs(b))
