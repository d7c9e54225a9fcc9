import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbvar import bessel, spectral

from helpers import mp_bessel_zero

NU_SET = (-0.9, -0.5, 0.0, 0.5, 1.0, 2.3)


def half_integer_j(z):
    # J_{1/2}(z) = sqrt(2/(pi z)) sin z
    z = np.asarray(z, dtype=float)
    return np.sqrt(2.0 / (np.pi * z)) * np.sin(z)


def half_integer_i(z):
    z = np.asarray(z, dtype=float)
    return np.sqrt(2.0 / (np.pi * z)) * np.sinh(z)


class TestBesselJ:
    def test_at_origin(self):
        assert bessel.bessel_j(0.0, 0.0) == 1.0
        assert bessel.bessel_j(1.0, 0.0) == 0.0

    def test_half_integer_zero_of_sine(self):
        assert abs(bessel.bessel_j(0.5, math.pi)) < 1e-13

    def test_first_zero_against_bisection_oracle(self):
        oracle = mp_bessel_zero(0.0, 1)
        assert abs(oracle - 2.404825557695773) < 1e-12
        assert abs(bessel.bessel_j(0.0, 2.404825557695773)) < 1e-10

    def test_half_integer_closed_form_across_range(self):
        z = np.geomspace(1e-6, 40.0, 300)
        got = bessel.bessel_j(0.5, z)
        want = half_integer_j(z)
        assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-12)) \
            < 1e-10 or np.max(np.abs(got - want)) < 1e-10

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bessel.bessel_j(-1.0, 1.0)
        with pytest.raises(ValueError):
            bessel.bessel_j(0.0, -0.5)

    def test_branch_crossover_is_smooth(self):
        # values straddling both internal branch switches agree with a
        # high-precision reference through the closed form at nu = 1/2
        for z in (9.999, 10.001, 15.999, 16.001):
            assert abs(bessel.bessel_j(0.5, z) - half_integer_j(z)) < 1e-12

    def test_ratio_function_matches_and_extends(self):
        z = np.geomspace(1e-8, 30.0, 200)
        nu = -0.7
        got = bessel.bessel_j_over_power(nu, z)
        want = bessel.bessel_j(nu, z) * z ** (-nu)
        assert np.max(np.abs(got - want)) < 1e-10
        limit = 2.0 ** (-nu) / math.gamma(nu + 1.0)
        assert abs(bessel.bessel_j_over_power(nu, 0.0) - limit) < 1e-14


class TestBesselI:
    def test_at_origin(self):
        assert bessel.bessel_i(0.0, 0.0) == 1.0

    def test_half_integer_value(self):
        # I_{1/2}(1) = sqrt(2/pi) sinh 1 = 0.93767488824549...
        got = bessel.bessel_i(0.5, 1.0)
        assert abs(got - half_integer_i(1.0)) < 1e-12
        assert abs(got - 0.937674888245) < 1e-6

    def test_scaled_asymptote(self):
        z = 40.0
        got = bessel.bessel_i(0.5, z, scaled=True)
        want = math.sqrt(1.0 / (2.0 * math.pi * z))
        assert abs(got - want) / want < 1e-3

    def test_half_integer_closed_form_across_range(self):
        z = np.geomspace(1e-6, 40.0, 300)
        got = bessel.bessel_i(0.5, z)
        want = half_integer_i(z)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-10

    def test_overflow_signaled(self):
        with pytest.raises(OverflowError):
            bessel.bessel_i(0.0, 800.0)
        assert bessel.bessel_i(0.0, 800.0, scaled=True) > 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bessel.bessel_i(-1.5, 1.0)


class TestZeros:
    def test_half_integer_zeros_are_n_pi(self):
        table = bessel.zero_table(0.5, 30)
        want = np.arange(1, 31) * math.pi
        assert np.max(np.abs(table.zeros - want)) < 1e-12

    def test_first_zero_of_j0(self):
        assert abs(bessel.bessel_zero(0.0, 1) - 2.404825557695773) < 1e-10

    def test_against_mpmath_bisection(self):
        for nu in (-0.9, 0.3, 2.3):
            for n in (1, 5, 17):
                assert abs(bessel.bessel_zero(nu, n)
                           - mp_bessel_zero(nu, n)) < 1e-10

    def test_mcmahon_gap_shrinks(self):
        table = bessel.zero_table(0.0, 40)
        gaps = table.mcmahon_gaps()
        n = np.arange(1, 41)
        fitted_C = float(np.max(n * gaps))
        assert np.all(gaps <= fitted_C / n + 1e-15)
        assert fitted_C < 1.0
        # monotone shrink of the gap itself
        assert np.all(np.diff(gaps) < 0.0)

    def test_residual_invariant(self):
        for nu in NU_SET:
            table = bessel.zero_table(nu, 40)
            jp = np.abs(bessel.bessel_j_deriv(nu, table.zeros))
            assert np.all(table.residuals() <= 1e-10 * np.maximum(1.0, jp))

    def test_interlacing(self):
        for nu in NU_SET:
            a = bessel.zero_table(nu, 21).zeros
            b = bessel.zero_table(nu + 1.0, 20).zeros
            assert np.all(a[:20] < b)
            assert np.all(b < a[1:21])

    def test_scan_fallback_handles_bad_mcmahon_bracket(self):
        # at large order the McMahon guess overshoots by more than pi/2,
        # so the first zero exercises the bracketing scan
        lam = bessel.zero_table(15.0, 1).zeros[0]
        assert abs(bessel.bessel_j(15.0, lam)) < 1e-10
        assert lam < bessel.mcmahon_guess(15.0, 1) - math.pi / 2

    def test_error_carries_bracket(self):
        err = bessel.ZeroFindingError(0.0, 3, (1.0, 2.0), "probe")
        assert "1.0" in str(err) and "2.0" in str(err)
        assert err.bracket == (1.0, 2.0)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            bessel.bessel_zero(0.0, 0)


class TestNormConsts:
    def test_half_integer_is_sqrt_pi(self):
        for n in (1, 3, 10, 25):
            assert abs(bessel.norm_const(0.5, n) - math.sqrt(math.pi)) < 1e-10

    def test_first_mode_positive_finite(self):
        d = bessel.norm_const(0.0, 1)
        assert 0.0 < d < math.inf

    def test_limit_is_sqrt_pi(self):
        for nu in (-0.5, 0.0, 1.0):
            table = bessel.zero_table(nu, 60)
            d = bessel.norm_consts(nu, table.zeros)
            gaps = np.abs(d - math.sqrt(math.pi))
            n = np.arange(1, 61)
            fitted_C = float(np.max(n * gaps))
            assert np.all(gaps <= fitted_C / n + 1e-15)
            assert gaps[-1] < 0.01


class TestAsymptoticExpansion:
    def test_residual_decays_at_stated_rate(self):
        # | sqrt(z) J_nu - sum_{j<=M} (A_j sin z + B_j cos z)/z^j |
        # stays below a fitted constant times z^-(M+1) on [5, 50]
        z = np.linspace(5.0, 50.0, 400)
        for nu in (-0.5, 0.0, 0.7, 1.0):
            exact = np.sqrt(z) * bessel.bessel_j(nu, z)
            for M in (0, 1, 2):
                A, B = bessel.asymptotic_coefficients(nu, M)
                approx = sum((A[j] * np.sin(z) + B[j] * np.cos(z)) / z ** j
                             for j in range(M + 1))
                scaled = np.abs(exact - approx) * z ** (M + 1)
                assert np.max(scaled) < 10.0


# Orders in (-1, 6] and arguments spread over the three branches: the
# series (z < 10), the midrange integral and Hankel's expansion
# (z >= max(16, 2 nu^2), up to 72 at nu = 6).
ORDERS = st.floats(-0.999, 6.0)
ARGS = st.lists(st.floats(0.0, 10.0) | st.floats(10.0, 80.0)
                | st.floats(16.0, 3000.0), min_size=1, max_size=40)
PROPERTY = settings(max_examples=30, deadline=None)


class TestBatchPurity:
    """Each value depends on its order and argument only, bit for bit."""

    @PROPERTY
    @given(nu=ORDERS, z=ARGS, data=st.data())
    def test_batch_equals_pointwise_shuffled_and_split(self, nu, z, data):
        z = np.array(z)
        order = np.array(data.draw(st.permutations(range(len(z)))))
        cut = data.draw(st.integers(0, len(z)))
        block = data.draw(st.integers(1, 8))
        saved = bessel._MID_BLOCK
        bessel._MID_BLOCK = block
        try:
            for fn in (bessel.bessel_j, bessel.bessel_j_over_power):
                batch = fn(nu, z)
                single = np.array([fn(nu, v) for v in z])
                assert np.array_equal(batch, single, equal_nan=True)
                assert np.array_equal(fn(nu, z[order]), batch[order],
                                      equal_nan=True)
                split = np.concatenate([fn(nu, z[:cut]), fn(nu, z[cut:])])
                assert np.array_equal(split, batch, equal_nan=True)
        finally:
            bessel._MID_BLOCK = saved

    # Psi_n(0) is infinite for nu < -1/2
    @pytest.mark.filterwarnings("ignore:divide by zero")
    @PROPERTY
    @given(nu=ORDERS, x=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
           chunk=st.integers(1, 100))
    def test_mode_table_rows_are_eigenfunctions(self, nu, x, chunk):
        basis = spectral.make_basis(nu, 12)
        x = np.array(x)
        saved = spectral._TABLE_CHUNK
        spectral._TABLE_CHUNK = chunk
        try:
            for flavor in ("phi", "psi"):
                table = spectral.mode_values(basis, x, flavor)
                for n in range(1, basis.n_modes + 1):
                    row = spectral.eigenfunction(basis, n, x, flavor)
                    assert np.array_equal(table[n - 1], row, equal_nan=True)
        finally:
            spectral._TABLE_CHUNK = saved

    def test_appending_a_point_leaves_the_others_unchanged(self):
        z = np.random.default_rng(0).uniform(10.0, 16.0, 2400)
        alone = bessel.bessel_j(0.3, z)
        joined = bessel.bessel_j(0.3, np.append(z, 10.0001))
        assert np.array_equal(joined[:-1], alone)
