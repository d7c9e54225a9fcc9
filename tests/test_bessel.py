import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import jn_zeros

from fbvar import bessel, spectral

from helpers import (mp_bessel_j, mp_bessel_j_extended, mp_bessel_zero,
                     mp_bessel_zeros, mp_j_over_power)

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

    def test_order_past_gamma_overflow_refused(self):
        # Gamma(nu + 1) of the series prefactors overflows from 170.62...
        with pytest.raises(ValueError, match="nu < 170.624"):
            bessel.bessel_j(171.0, 1.0)

    def test_nan_argument_gives_nan(self):
        for nu in (0.3, 3.3):
            for fn in (bessel.bessel_j, bessel.bessel_j_over_power):
                got = fn(nu, np.array([np.nan, 5.0, 12.0, 40.0]))
                assert np.isnan(got[0]) and np.all(np.isfinite(got[1:]))

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


@pytest.mark.parametrize("nu", (-0.9, -0.6, 0.0, 0.3, 0.5, 2.5, 6.0, 12.5,
                                20.0, 30.0))
def test_each_branch_against_mpmath(nu):
    # |J - J_mp| / max(1, |J_mp|) per branch: the pieces of J_nu / z^nu
    # below 10, the pieces of J_nu up to the cut max(16, 2 nu^2), and
    # Hankel's expansion past it, sampled densely in [cut, cut + 4] where
    # its terms are largest, on both sides of 4 cut where it drops to
    # fewer terms, and within 1e-9 of k pi, k even and odd, where
    # tan(z/2) is 0 or huge.  J_nu / z^nu is held to the same gate on the
    # same scale: |R - R_mp| / max(z^-nu, |R_mp|).
    cut = max(16.0, 2.0 * nu * nu)
    far = 4.0 * cut
    rng = np.random.default_rng(11)
    k = np.concatenate([np.arange(8) + math.ceil(cut / math.pi),
                        np.arange(-4, 4) + math.ceil(far / math.pi), [954, 955]])
    offsets = rng.choice([0.0, 1e-12, -1e-12, 1e-9, -1e-9], k.size)
    branches = {
        "below 10": (rng.uniform(1e-3, 10.0, 40), 5e-15),
        "midrange": (np.append(rng.uniform(10.0, cut, 40),
                               [10.0, np.nextafter(cut, 0.0)]), 1e-15),
        "hankel": (np.concatenate([[cut], rng.uniform(cut, cut + 4.0, 30),
                                   rng.uniform(cut + 4.0, 3000.0, 20)]),
                   1e-15),
        "4 cut": (np.concatenate([[far, np.nextafter(far, 0.0),
                                   np.nextafter(far, np.inf)],
                                  far + rng.uniform(-1.0, 1.0, 20)]), 1e-15),
        "k pi": (k * math.pi + offsets, 1e-15),
    }
    for name, (z, gate) in branches.items():
        want = mp_bessel_j(nu, z)
        err = np.abs(bessel.bessel_j(nu, z) - want) / np.maximum(1.0, np.abs(want))
        assert err.max() <= gate, (name, float(err.max()))
        want = mp_j_over_power(nu, z)
        err = np.abs(bessel.bessel_j_over_power(nu, z) - want) \
            / np.maximum(z ** -nu, np.abs(want))
        assert err.max() <= gate, (name, "over power", float(err.max()))


@pytest.mark.parametrize("nu", (-0.9, -0.6, 0.0, 0.5, 2.5, 6.0))
def test_mode_table_entries_against_mpmath(nu):
    # table entries against mpmath at their products z = fl(lam_n x_j), the
    # argument the phase is taken at: phi_n(x_j) = d_n lam_n^(nu + 1/2)
    # J_nu(z) / z^nu, and Psi_n(x_j) is that times x_j^(nu + 1/2), held
    # to the gates of test_each_branch_against_mpmath on the J_nu / z^nu
    # scale.  The points lie within two ulps of fl(cut / lam_n) and of
    # fl(4 cut / lam_n), on both sides of hankel_table's rule x_j >=
    # fl(cut / lam_n) and of its short sums' x_j >= fl(4 cut / lam_n), so
    # a product that rounds an ulp under either bound is held to the gates
    # in the branch the rule gives it; others lie within 1e-9 of k pi or
    # spread over (0, 1].  The whole table is built at once and the
    # sampled entries are read from it
    basis = spectral.make_basis(nu, 64)
    lam, d = basis.zeros, basis.norm_consts
    cut = bessel._hankel_cut(nu)
    rng = np.random.default_rng(7)
    n = rng.integers(0, 64, 12)
    k = np.ceil(cut / math.pi) + rng.integers(0, 40, 12)
    targets = np.concatenate([
        np.repeat([cut, 4.0 * cut], 5),
        k * math.pi + rng.choice([1e-9, -1e-9, 1e-12, 0.0], 12)])
    rows = np.concatenate([np.repeat(n[:2], 5), n])
    x = targets / lam[rows]
    steps = np.append(np.tile(np.arange(-2, 3), 2), np.zeros(12, dtype=int))
    for i, s in enumerate(steps):
        for _ in range(abs(s)):
            x[i] = np.nextafter(x[i], np.inf if s > 0 else 0.0)
    x = np.concatenate([x, rng.uniform(0.0, 1.0, 20)])
    rows = np.concatenate([rows, rng.integers(0, 64, 20)])
    for flavor in ("phi", "psi"):
        table = spectral.mode_values(basis, x, flavor)
        with mpmath.workdps(40):
            for j, i in enumerate(rows):
                lam_i, x_j = mpmath.mpf(float(lam[i])), mpmath.mpf(float(x[j]))
                z = mpmath.mpf(float(lam[i] * x[j]))
                scale = mpmath.mpf(float(d[i])) * lam_i ** (nu + 0.5)
                if flavor == "psi":
                    scale *= x_j ** (nu + 0.5)
                want = mpmath.besselj(nu, z) / z ** nu
                err = abs(mpmath.mpf(float(table[i, j])) / scale - want) \
                    / max(z ** -nu, abs(want))
                gate = 5e-15 if z < 10 else 1e-15
                assert err <= gate, (flavor, int(i), float(x[j]), float(z),
                                     float(err))


@pytest.mark.parametrize("nu", (0.0, 0.5, 15.0))
def test_hankel_table_contract(nu):
    # each row's first column is searchsorted(x, cut / lam_n), so an entry
    # is expanded where x_p >= fl(cut / lam_n); every entry from there on is
    # written and finite, and has the same bits in row blocks of 1 and of
    # every row.  The first columns run from 0 to len(x), and x holds
    # fl(cut / lam_n), its neighbours and a repeated node
    cut = bessel._hankel_cut(nu)
    rng = np.random.default_rng(29)
    lam = cut * np.geomspace(0.5, 200.0, 41)
    edges = cut / lam[10:30:4]
    x = np.sort(np.concatenate([
        rng.uniform(0.01, 1.0, 200), edges, np.nextafter(edges, 0.0),
        np.nextafter(edges, np.inf), [0.5, 0.5]]))
    weight = rng.uniform(0.5, 2.0, len(lam))
    written = {}
    for rows in (1, len(lam)):
        out = np.full((len(lam), len(x)), np.nan)
        first = bessel.hankel_table(nu, lam, weight, x, nu + 0.5, out, rows)
        np.testing.assert_array_equal(first, np.searchsorted(x, cut / lam))
        values = out[np.arange(len(x)) >= first[:, None]]
        assert np.isfinite(values).all()
        written[rows] = values.tobytes()
    assert first.min() == 0 and first.max() == len(x)
    assert written[1] == written[len(lam)]


@pytest.mark.parametrize("nu", np.append(np.linspace(-0.99, 40.0, 83),
                                         [-0.5, 0.0, 0.5, 1.5, 6.5, 7.0, 12.5]))
def test_short_hankel_sums_match_the_full_sums(nu):
    # from 4 cut on, and an ulp under it, where x_p >= fl(4 cut / lam_n)
    # can put a product, P and Q keep bessel._far_terms terms; the omitted
    # ones must not move either sum by 2^-53 of the modulus sqrt(P^2 + Q^2),
    # the scale on which both enter J_nu.  For nu >= 7 the first terms
    # have m < nu - 1/2, where DLMF 10.17(iii) does not bound the rest by
    # the first omitted term, so the sums themselves are compared, in
    # extended precision at 4 cut and just above it.
    coeffs = bessel.asymptotic_coefficients(nu, bessel._HANKEL_TERMS)
    far = bessel._FAR * bessel._hankel_cut(nu)
    terms = bessel._far_terms(coeffs, far)
    assert terms < bessel._HANKEL_TERMS
    c = coeffs.astype(np.longdouble)
    for z in (np.nextafter(far, 0.0), far, np.nextafter(far, np.inf),
              far * (1.0 + 1e-9), far + 1.0):
        power = np.longdouble(z) ** -np.arange(len(c), dtype=np.longdouble)
        full, short = c * power, (c * power)[:terms]
        P, Q = full[0::2].sum(), full[1::2].sum()
        modulus = np.hypot(P, Q)
        assert abs(short[0::2].sum() - P) <= 2.0 ** -53 * modulus, (z, terms)
        assert abs(short[1::2].sum() - Q) <= 2.0 ** -53 * modulus, (z, terms)
    if nu == 0.0:
        assert terms == 11


@pytest.mark.parametrize("nu", (-0.7, -0.6))
def test_values_just_below_ten_against_mpmath(nu):
    # where the ascending series cancels most: its divisor k (nu + k) must
    # be formed in extended precision, not rounded to double first
    z = np.append(np.random.default_rng(5).uniform(9.0, 10.0, 60),
                  [9.0, np.nextafter(10.0, 0.0)])
    for got, want in ((bessel.bessel_j(nu, z), mp_bessel_j(nu, z)),
                      (bessel.bessel_j_over_power(nu, z), mp_j_over_power(nu, z))):
        err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        assert err.max() <= 5e-15, float(err.max())


@pytest.mark.parametrize("nu", (-0.9, -0.5, 0.0, 0.3, 2.5, 6.0))
def test_ratio_against_mpmath_on_every_piece(nu):
    # J_nu(z) / z^nu on each Chebyshev piece [2.5 k, 2.5 (k + 1)) below the
    # Hankel cut, at its left edge, just below its right edge and inside,
    # against the largest value on the piece
    cut = max(16.0, 2.0 * nu * nu)
    rng = np.random.default_rng(3)
    width = bessel._PIECE_WIDTH
    for left in np.arange(0.0, cut, width):
        right = min(left + width, cut)
        z = np.concatenate([[left, np.nextafter(right, 0.0)],
                            rng.uniform(left, right, 12)])
        want = mp_j_over_power(nu, z)
        err = np.abs(bessel.bessel_j_over_power(nu, z) - want)
        assert err.max() <= 5e-15 * np.abs(want).max(), \
            (left, float(err.max()))


def test_series_stops_early_to_the_bit():
    # the early stop of the ascending series gives the full 64-term sum
    rng = np.random.default_rng(2)
    z = np.concatenate([[0.0, 1e-300, 2.8, 10.0, np.nextafter(30.0, 0.0)],
                        rng.uniform(0.0, 30.0, 400)])
    zl = z.astype(np.longdouble)
    for nu in np.append(rng.uniform(-1.0, 6.0, 12), [-0.999, 0.0, 6.0]):
        for sign in (-1, 1):
            q = sign * zl ** 2 / np.longdouble(4)
            total, term = np.ones_like(q), np.ones_like(q)
            for k in range(1, 65):
                term = term * q / (np.longdouble(k)
                                   * (np.longdouble(nu) + np.longdouble(k)))
                total = total + term
            assert np.array_equal(bessel._series_sum(nu, z, sign), total), \
                (nu, sign)


def test_pieces_match_clenshaw_one_piece_at_a_time():
    # all points at once, each with its own piece's coefficients, give the
    # bits of Clenshaw's recurrence run piece by piece
    rng = np.random.default_rng(4)
    for nu in (-0.9, 0.0, 3.3):
        z = rng.uniform(0.0, bessel._hankel_cut(nu), 500)
        got = bessel._piece_values(nu, z)
        k = (z // bessel._PIECE_WIDTH).astype(int)
        coef = bessel._piece_table(nu)
        want = np.empty_like(z)
        for p in np.unique(k):
            t = (z[k == p] - bessel._PIECE_WIDTH * p) \
                * (2.0 / bessel._PIECE_WIDTH) - 1.0
            c = coef[:, p]
            b1, b2 = np.full_like(t, c[-1]), np.zeros_like(t)
            for j in range(len(c) - 2, 0, -1):
                b1, b2 = c[j] + 2.0 * t * b1 - b2, b1
            want[k == p] = c[0] + t * b1 - b2
        assert np.array_equal(got, want), nu


@pytest.mark.parametrize("nu", (-0.9, 0.0, 0.3, 2.5, 20.0, 30.0, 160.0))
def test_node_values_past_ten_against_mpmath(nu):
    # the extended-precision values the pieces interpolate, from the Taylor
    # steps of Bessel's equation, at every node of the first three pieces
    # past 10 and of eleven spread from there to the last, within 1e-16
    # absolute; at nu = 160, 2^-nu / Gamma(nu + 1) is below every double
    n = bessel._PIECE_DEGREE + 1
    ld = np.longdouble
    theta = (np.arange(n, dtype=ld) + 0.5) * ld(math.pi) / n
    t = (np.cos(theta) + 1) * ld(0.5)
    values = bessel._node_values(nu, t)
    low = int(bessel._SERIES_CUT / bessel._PIECE_WIDTH)
    rows = np.unique(np.r_[low:low + 3, np.linspace(low, len(values) - 1, 11)
                           .astype(int)])
    z = ld(bessel._PIECE_WIDTH) * (rows[:, None] + t)
    want = mp_bessel_j_extended(nu, z.ravel()).reshape(z.shape)
    err = np.abs(values[rows] - want)
    assert err.max() <= 1e-16, float(err.max())


@pytest.mark.parametrize("nu", (0.0, 40.0, 100.0))
def test_taylor_steps_stop_where_the_sums_no_longer_move(nu, monkeypatch):
    # an edge that stops early gives the sums of all _TAYLOR_CAP terms, to
    # the bit: one block of _TAYLOR_CAP terms sums them one by one in the
    # same order and tests only at the end
    n = bessel._PIECE_DEGREE + 1
    t = (np.cos((np.arange(n) + 0.5) * math.pi / n) + 1.0) / 2.0
    edges = np.arange(10.0, bessel._hankel_cut(nu), bessel._PIECE_WIDTH)
    left = edges[np.unique(np.r_[0:3, np.linspace(0, len(edges) - 1, 12)
                                 .astype(int)])]
    stopped = bessel._taylor_steps(nu, left, t)
    monkeypatch.setattr(bessel, "_STOP_EVERY", bessel._TAYLOR_CAP)
    assert np.array_equal(stopped, bessel._taylor_steps(nu, left, t)), nu


def test_built_pieces_serve_the_mode_table_without_the_series(monkeypatch):
    # once an order's pieces exist, no table entry sums the series
    basis = spectral.make_basis(-0.7, 24)
    spectral.mode_values(basis, np.linspace(0.0, 1.0, 400))
    assert -0.7 in bessel._pieces
    calls = []
    series_sum = bessel._series_sum
    monkeypatch.setattr(bessel, "_series_sum",
                        lambda *a: calls.append(a) or series_sum(*a))
    spectral.mode_values(basis, np.linspace(0.0, 1.0, 999))
    assert calls == []


class TestBesselI:
    def test_at_origin(self):
        assert bessel.bessel_i_scaled(0.0, 0.0) == 1.0

    def test_half_integer_value(self):
        # I_{1/2}(1) = sqrt(2/pi) sinh 1 = 0.93767488824549...
        got = bessel.bessel_i_scaled(0.5, 1.0) * math.e
        assert abs(got - half_integer_i(1.0)) < 1e-12
        assert abs(got - 0.937674888245) < 1e-6

    def test_scaled_asymptote(self):
        z = 40.0
        got = bessel.bessel_i_scaled(0.5, z)
        want = math.sqrt(1.0 / (2.0 * math.pi * z))
        assert abs(got - want) / want < 1e-3

    def test_half_integer_closed_form_across_range(self):
        z = np.geomspace(1e-6, 40.0, 300)
        got = bessel.bessel_i_scaled(0.5, z) * np.exp(z)
        want = half_integer_i(z)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-10

    def test_scaled_value_finite_where_unscaled_overflows(self):
        assert bessel.bessel_i_scaled(0.0, 800.0) > 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bessel.bessel_i_scaled(-1.5, 1.0)


class TestZeros:
    def test_half_integer_zeros_are_n_pi(self):
        table = bessel.zero_table(0.5, 30)
        want = np.arange(1, 31) * math.pi
        assert np.max(np.abs(table.zeros - want)) < 1e-12

    def test_first_zero_of_j0(self):
        assert abs(bessel.zero_table(0.0, 64).zeros[0]
                   - 2.404825557695773) < 1e-10

    def test_against_mpmath_bisection(self):
        # at -0.999 rounding hides the first zero from Newton and bisection
        # closes its bracket; from 6.5 on the first zeros lie more than
        # pi/2 below McMahon's guess
        ns = (1, 2, 3, 5, 17)
        for nu in (-0.999, -0.9, 0.3, 2.3, 6.5, 7.5, 11.7):
            got = bessel.zero_table(nu, 17).zeros[[n - 1 for n in ns]]
            want = np.array(mp_bessel_zeros(nu, ns))
            assert np.all(np.abs(got - want) <= 1e-12 * want), nu

    def test_integer_orders_against_scipy(self):
        # from order 7 on the first zeros lie more than pi/2 below
        # McMahon's guess, out of reach of a bracket around it
        for nu, count in ((7, 64), (8, 64), (10, 64), (15, 64), (39, 2),
                          (40, 2)):
            got = bessel.zero_table(nu, count).zeros
            want = jn_zeros(nu, count)
            assert np.all(np.abs(got - want) <= 2 * np.spacing(want)), nu

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
            jp = np.abs(bessel._j_deriv(nu, table.zeros,
                                        bessel.bessel_j(nu, table.zeros)))
            assert np.all(table.residuals() <= 1e-10 * np.maximum(1.0, jp))

    def test_interlacing(self):
        for nu in NU_SET:
            a = bessel.zero_table(nu, 21).zeros
            b = bessel.zero_table(nu + 1.0, 20).zeros
            assert np.all(a[:20] < b)
            assert np.all(b < a[1:21])

    def test_scan_fallback_handles_bad_mcmahon_bracket(self):
        # at large order the McMahon guess overshoots by more than pi/2;
        # the sign-change scan does not rest on it
        lam = bessel.zero_table(15.0, 1).zeros[0]
        assert abs(bessel.bessel_j(15.0, lam)) < 1e-10
        assert lam < bessel.mcmahon_guess(15.0, 1) - math.pi / 2

    def test_validate_refuses_near_duplicate_zeros(self):
        # zeros of J_nu lie more than 3.11 apart; a zero stored twice, a
        # few ulps apart, passes the residual test but not this one
        lam = bessel.zero_table(0.0, 3).zeros
        table = bessel.ZeroTable(0.0, np.insert(lam, 1, lam[0] + 3.6e-15))
        with pytest.raises(bessel.ZeroFindingError):
            table.validate()

    def test_error_carries_bracket(self):
        err = bessel.ZeroFindingError(0.0, 3, (1.0, 2.0), "probe")
        assert "1.0" in str(err) and "2.0" in str(err)
        assert err.bracket == (1.0, 2.0)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            bessel.zero_table(0.0, 0)


class TestNormConsts:
    def test_half_integer_is_sqrt_pi(self):
        for n in (1, 3, 10, 25):
            d = bessel.norm_consts(bessel.zero_table(0.5, 64))
            assert abs(d[n - 1] - math.sqrt(math.pi)) < 1e-10

    def test_first_mode_positive_finite(self):
        d = bessel.norm_consts(bessel.zero_table(0.0, 64))[0]
        assert 0.0 < d < math.inf

    def test_limit_is_sqrt_pi(self):
        for nu in (-0.5, 0.0, 1.0):
            table = bessel.zero_table(nu, 60)
            d = bessel.norm_consts(table)
            gaps = np.abs(d - math.sqrt(math.pi))
            n = np.arange(1, 61)
            fitted_C = float(np.max(n * gaps))
            assert np.all(gaps <= fitted_C / n + 1e-15)
            assert gaps[-1] < 0.01


class TestAsymptoticExpansion:
    def test_residual_decays_at_stated_rate(self):
        # | sqrt(z) J_nu - sqrt(2/pi) (P_M cos(z - c) - Q_M sin(z - c)) |,
        # with P_M and Q_M the terms s_j / z^j, j <= M, of even and odd j,
        # stays below a fitted constant times z^-(M+1) on [5, 50]
        z = np.linspace(5.0, 50.0, 400)
        for nu in (-0.5, 0.0, 0.7, 1.0):
            exact = np.sqrt(z) * bessel.bessel_j(nu, z)
            c = (0.5 * nu + 0.25) * np.pi
            for M in (0, 1, 2):
                s = bessel.asymptotic_coefficients(nu, M + 1)
                P = sum(s[j] / z ** j for j in range(0, M + 1, 2))
                Q = sum(s[j] / z ** j for j in range(1, M + 1, 2))
                approx = np.sqrt(2.0 / np.pi) * (P * np.cos(z - c)
                                                 - Q * np.sin(z - c))
                scaled = np.abs(exact - approx) * z ** (M + 1)
                assert np.max(scaled) < 10.0


# Orders in (-1, 6] and arguments spread over the branches: the pieces of
# J_nu / z^nu (z < 10), the pieces of J_nu and Hankel's expansion
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
        bessel._pieces.clear()       # so that the batch builds the pieces
        try:
            for fn in (bessel.bessel_j, bessel.bessel_j_over_power,
                       bessel.bessel_i_scaled):
                batch = fn(nu, z)
                single = np.array([fn(nu, v) for v in z])
                assert np.array_equal(batch, single, equal_nan=True)
                assert np.array_equal(fn(nu, z[order]), batch[order],
                                      equal_nan=True)
                split = np.concatenate([fn(nu, z[:cut]), fn(nu, z[cut:])])
                assert np.array_equal(split, batch, equal_nan=True)
        finally:
            bessel._pieces.clear()

    # Psi_n(0) is infinite for nu < -1/2
    @pytest.mark.filterwarnings("ignore:divide by zero")
    @PROPERTY
    @given(nu=ORDERS, data=st.data(), rows=st.integers(1, 100))
    def test_mode_table_rows_are_eigenfunctions(self, nu, data, rows):
        # unsorted and repeated points in [0, 1], NaN, 0 and 1, and points
        # where lam_n x crosses the Hankel cut or 4 cut, where the table
        # switches from the pieces to the full Hankel sum and from there to
        # the short one; tables built `rows` rows per block.  Each row is
        # the row built alone, each column the column built alone, and a
        # permutation of the points permutes the columns
        basis = spectral.make_basis(nu, 12)
        lam = basis.zeros
        cut = bessel._hankel_cut(nu)
        edge = st.builds(lambda n, f, e: f * cut / lam[n] * (1.0 + e),
                         st.integers(0, 11), st.sampled_from((1.0, 4.0)),
                         st.sampled_from((0.0, 1e-15, -1e-15, 1e-9, -1e-9)))
        x = np.array(data.draw(st.lists(
            st.floats(0.0, 1.0) | edge | st.sampled_from((np.nan, 0.0, 1.0)),
            min_size=1, max_size=30)))
        x = np.append(x, x[:data.draw(st.integers(0, len(x)))])
        order = np.array(data.draw(st.permutations(range(len(x)))))
        saved = spectral._TABLE_BLOCK
        try:
            spectral._TABLE_BLOCK = rows * len(x)
            for flavor in ("phi", "psi"):
                table = spectral.mode_values(basis, x, flavor)
                for n in range(basis.n_modes):
                    row = spectral._table(basis, [n], x, flavor)[0]
                    assert np.array_equal(table[n], row, equal_nan=True)
                for j in range(len(x)):
                    column = spectral.mode_values(basis, x[j], flavor)[:, 0]
                    assert np.array_equal(table[:, j], column, equal_nan=True)
                assert np.array_equal(spectral.mode_values(basis, x[order], flavor),
                                      table[:, order], equal_nan=True)
        finally:
            spectral._TABLE_BLOCK = saved

    def test_nan_node_gives_a_nan_column_only(self):
        basis = spectral.make_basis(0.3, 40)
        x = np.array([0.0, 0.2, np.nan, 0.9, 1.0, 3.0])
        keep = ~np.isnan(x)
        for flavor in ("phi", "psi"):
            table = spectral.mode_values(basis, x, flavor)
            assert np.all(np.isnan(table[:, 2]))
            assert np.array_equal(table[:, keep],
                                  spectral.mode_values(basis, x[keep], flavor))

    def test_values_do_not_depend_on_the_piece_cache(self):
        # nu = 3.3: the pieces [0, 2.5), ..., [20, 22.5) of J_nu / z^nu and
        # J_nu reach the Hankel cut 21.78
        nu = 3.3
        z = np.random.default_rng(1).uniform(0.0, 2.0 * nu * nu, 80)
        for fn in (bessel.bessel_j, bessel.bessel_j_over_power):
            cold = []
            for v in z:
                bessel._pieces.clear()
                cold.append(fn(nu, v))
            bessel._pieces.clear()
            first = fn(nu, z)       # builds the nine pieces at once
            warm = fn(nu, z)
            for other in range(bessel._PIECE_ORDERS):
                bessel.bessel_j(4.0 + other, 12.0)
            assert nu not in bessel._pieces
            evicted = fn(nu, z)
            for values in (first, warm, evicted):
                assert np.array_equal(values, cold)

    def test_appending_a_point_leaves_the_others_unchanged(self):
        z = np.random.default_rng(0).uniform(10.0, 16.0, 2400)
        alone = bessel.bessel_j(0.3, z)
        joined = bessel.bessel_j(0.3, np.append(z, 10.0001))
        assert np.array_equal(joined[:-1], alone)
