import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbvar import grid as G, semigroups as SG, spectral as S, variation as V

from helpers import (brute_force_jump_count, decreasing_times,
                     exhaustive_rho_variation, reference_rho_variation,
                     reference_rho_variation_values, reference_turning_mask,
                     traced_peak)


class TestRhoVariation:
    def test_square_wave(self):
        r = V.rho_variation([0.0, 1.0, 0.0, 1.0], 3.0)
        assert abs(r.value - 3.0 ** (1.0 / 3.0)) < 1e-14
        assert r.check([0.0, 1.0, 0.0, 1.0])
        assert len(r.witness) == 4

    def test_constant_vanishes(self):
        assert V.rho_variation([2.5] * 6, 3.0).value == 0.0

    def test_monotone_takes_endpoint_pair(self):
        for rho in (2.5, 3.0, 5.0):
            r = V.rho_variation([0.0, 0.2, 0.7, 1.0], rho)
            assert abs(r.value - 1.0) < 1e-14
            assert len(r.witness) == 2

    def test_short_input(self):
        assert V.rho_variation([1.0], 3.0).value == 0.0
        assert V.rho_variation([], 3.0).value == 0.0

    def test_low_rho_gate(self):
        # both forms need only a finite rho > 1; rho > 2 is the command
        # line's gate
        column = np.array([[0.0], [2.0], [0.0]])
        for rho in (1.5, 2.0):
            want = 2.0 * 2.0 ** (1.0 / rho)
            assert abs(V.rho_variation(column[:, 0], rho).value - want) < 1e-14
            assert abs(V.rho_variation_values(column, rho)[0] - want) < 1e-14
        for rho in (1.0, 0.9, math.inf, math.nan):
            with pytest.raises(ValueError):
                V.rho_variation(column[:, 0], rho)
            with pytest.raises(ValueError):
                V.rho_variation_values(column, rho)

    def test_witness_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = rng.normal(size=int(rng.integers(2, 30)))
            r = V.rho_variation(g, 3.0)
            assert r.check(g)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(1)
        block = rng.normal(size=(25, 7))
        vec = V.rho_variation_values(block, 3.0)
        for j in range(7):
            assert abs(vec[j] - V.rho_variation(block[:, j], 3.0).value) < 1e-13

    def test_monotne_decreasing_in_rho(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            g = rng.normal(size=12)
            v1 = V.rho_variation(g, 2.5).value
            v2 = V.rho_variation(g, 3.5).value
            v3 = V.rho_variation(g, 6.0).value
            assert v3 <= v2 + 1e-12 and v2 <= v1 + 1e-12

    def test_dominated_by_total_variation(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            g = rng.normal(size=15)
            assert V.rho_variation(g, 3.0).value \
                <= V.total_variation(g) + 1e-12


class TestOracleEquivalence:
    def test_exhaustive_variation(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            g = rng.normal(size=int(rng.integers(2, 11)))
            rho = float(rng.uniform(2.1, 4.5))
            assert abs(V.rho_variation(g, rho).value
                       - exhaustive_rho_variation(g, rho)) < 1e-12

    def test_brute_force_jumps(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            g = rng.normal(size=int(rng.integers(2, 12)))
            lam = float(rng.uniform(0.1, 2.5))
            assert V.jump_count(g, lam) == brute_force_jump_count(g, lam)


RHOS = (1.5, 2.0, 2.5, 3.0, 6.0)
PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def tie_heavy(draw, size=None):
    """A sequence with exact ties, plateaus, constant runs, rounded ties or
    near-flat 1e-15 steps; size 2 gives the two-point inputs."""
    n = draw(st.integers(2, 16)) if size is None else size
    kind = draw(st.sampled_from(("ints", "plateaus", "tenths", "near_flat")))
    if kind == "ints":
        return np.array(draw(st.lists(st.integers(-4, 4), min_size=n,
                                      max_size=n)), dtype=float)
    if kind == "plateaus":
        levels = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        widths = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
        return np.repeat(np.array(levels, dtype=float), widths)[:n]
    steps = np.array(draw(st.lists(st.integers(-2, 2), min_size=n,
                                   max_size=n)), dtype=float)
    if kind == "tenths":
        return np.cumsum(steps) / 10.0
    return draw(st.floats(-2.0, 2.0)) + np.cumsum(steps) * 1e-15


@st.composite
def wide_range(draw, size=None):
    """Signed magnitudes 10^-12 .. 10^12, small integers times 10^k, or a
    walk of 1e-15 relative steps times 10^k."""
    n = draw(st.integers(2, 16)) if size is None else size
    kind = draw(st.sampled_from(("magnitudes", "scaled_ints", "near_flat")))
    if kind == "magnitudes":
        powers = draw(st.lists(st.floats(-12.0, 12.0), min_size=n, max_size=n))
        signs = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=n,
                              max_size=n))
        return np.array(signs) * 10.0 ** np.array(powers)
    scale = 10.0 ** draw(st.integers(-12, 12))
    steps = np.array(draw(st.lists(st.integers(-5, 5), min_size=n,
                                   max_size=n)), dtype=float)
    if kind == "scaled_ints":
        return steps * scale
    return (draw(st.floats(-2.0, 2.0)) + np.cumsum(steps) * 1e-15) * scale


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


class TestTurningPointReduction:
    """The DP over turning points gives the all-pairs DP's bits."""

    def test_cut_and_padding(self):
        block = np.array([[0.0, 1.0, 2.0, 2.0, 1.0, 1.0, 3.0, 3.0],
                          [5.0] * 8]).T
        cut, last = V._turning_columns(block)
        assert cut.tolist() == [[0.0, 5.0], [2.0, 5.0], [1.0, 5.0],
                                [3.0, 5.0]]
        assert last.tolist() == [3, 0]

    @PROPERTY
    @given(x=tie_heavy())
    def test_values_match_the_all_pairs_dp(self, x):
        for rho in RHOS:
            got = V.rho_variation_values(x[:, None], rho)
            assert bits(got) == bits(reference_rho_variation_values(
                x[:, None], rho))

    @PROPERTY
    @given(x=tie_heavy())
    def test_value_and_witness_match_the_all_pairs_dp(self, x):
        for rho in RHOS:
            got = V.rho_variation(x, rho)
            want = reference_rho_variation(x, rho)
            assert bits(got.value) == bits(want.value)
            assert got.witness == [int(k) for k in want.witness]
            assert got.check(x)

    @PROPERTY
    @given(data=st.data(), n=st.integers(2, 16), width=st.integers(1, 9))
    def test_column_alone_in_a_shuffled_batch_and_in_blocks(self, data, n,
                                                           width):
        block = np.column_stack([data.draw(tie_heavy(n))
                                 for _ in range(width)])
        order = np.array(data.draw(st.permutations(range(width))))
        for rho in RHOS:
            alone = [V.rho_variation_values(col[:, None], rho)[0]
                     for col in block.T]
            shuffled = V.rho_variation_values(block[:, order], rho)
            assert bits(shuffled) == bits(np.array(alone)[order])
            saved = V._DP_ENTRIES
            try:
                for size in (1, 3, 7):
                    # blocks of `size` columns of the n rows
                    V._DP_ENTRIES = size * n
                    got = V.rho_variation_values(block, rho)
                    assert bits(got) == bits(alone)
            finally:
                V._DP_ENTRIES = saved

    def test_fields_across_blocks_match_the_all_pairs_dp(self):
        # smooth decays, oscillating decays and random walks, 1100 columns
        # of 201 samples: three blocks of _DP_ENTRIES // 201 = 512 columns,
        # of unequal cut length
        rng = np.random.default_rng(11)
        ts = np.geomspace(10.0, 1e-3, 201)[:, None]
        lam = rng.uniform(0.5, 40.0, size=(1, 400))
        field = np.hstack([
            np.exp(-ts * lam) * rng.normal(size=(1, 400)),
            np.exp(-ts * lam) * np.cos(3.0 * lam * ts),
            np.cumsum(rng.normal(size=(201, 300)), axis=0)])
        assert V._DP_ENTRIES // 201 == 512
        for rho in (2.0, 3.0):
            got = V.rho_variation_values(field, rho)
            assert bits(got) == bits(reference_rho_variation_values(field,
                                                                    rho))

    @pytest.mark.parametrize("T, columns, widths", [
        (201, 1100, [512, 512, 76]), (16, 2048, [2048]),
        (5, 30000, [20582, 9418]), (2, 40000, [32767, 7233])])
    def test_blocks_take_a_fixed_number_of_entries(self, T, columns, widths,
                                                   monkeypatch):
        # _DP_ENTRIES // T columns per block, at most 32,767, the largest
        # column an int16 index holds; the values are the all-pairs DP's
        # bits, and every 997th column's bits are those of its own call
        rng = np.random.default_rng(12)
        walks = np.cumsum(rng.normal(size=(T, columns)), axis=0)
        seen = []
        dp = V._alternating_dp

        def counted(y, last, rho):
            seen.append(y.shape[1])
            return dp(y, last, rho)

        monkeypatch.setattr(V, "_alternating_dp", counted)
        got = V.rho_variation_values(walks, 3.0)
        assert seen == widths
        assert bits(got) == bits(reference_rho_variation_values(walks, 3.0))
        alone = [V.rho_variation_values(walks[:, k:k + 1], 3.0)[0]
                 for k in range(0, columns, 997)]
        assert bits(got[::997]) == bits(np.array(alone))


class TestTurningMask:
    """Columns with a zero or NaN step take the plateau search; every other
    column turns where its step's sign bit changes.  Both meet in one
    block, and the mask is the definition's either way."""

    NON_FINITE = (0.0, 1.0, -1.0, 2.0, math.inf, -math.inf, math.nan)

    @pytest.mark.parametrize("T", [2, 3, 4, 5])
    def test_every_short_column_among_ordinary_ones(self, T):
        # every column over {0, +-1, 2, +-inf, NaN}^T, shuffled in among
        # random-walk columns of the fast path
        rng = np.random.default_rng(T)
        cols = np.array(list(itertools.product(self.NON_FINITE, repeat=T))).T
        walks = np.cumsum(rng.normal(size=(T, cols.shape[1])), axis=0)
        block = np.hstack([cols, walks])[:, rng.permutation(2 * cols.shape[1])]
        with np.errstate(invalid="ignore"):
            got = V._turning_mask(block)
        assert np.array_equal(got, reference_turning_mask(block))

    def test_plateaus_and_non_finite_samples_in_long_columns(self):
        rng = np.random.default_rng(7)
        block = np.cumsum(rng.normal(size=(201, 64)), axis=0)
        block[:5, 1] = block[5, 1]              # plateau at the start
        block[-7:, 2] = block[-8, 2]            # plateau at the end
        block[90:100, 3] = block[89, 3]         # plateau inside
        block[40, 4] = math.nan
        block[[0, 100, 200], 5] = math.inf
        block[50, 6], block[51, 6] = -math.inf, math.inf
        block[:, 7] = 1.5                       # constant
        block[:, 8] = np.round(block[:, 8])     # many zero steps
        block[:, 9] = np.arange(201.0)          # monotone
        block[100, 10] = block[101, 10] = block[99, 10]
        with np.errstate(invalid="ignore"):
            got = V._turning_mask(block)
        assert np.array_equal(got, reference_turning_mask(block))

    @PROPERTY
    @given(data=st.data(), n=st.integers(2, 16), width=st.integers(1, 9))
    def test_tie_heavy_and_wide_range_blocks(self, data, n, width):
        family = data.draw(st.sampled_from((tie_heavy, wide_range)))
        block = np.column_stack([data.draw(family(n)) for _ in range(width)])
        assert np.array_equal(V._turning_mask(block),
                              reference_turning_mask(block))


class TestPeakMemory:
    """tracemalloc peaks: no pair table, no per-row temporaries, and one
    block's arrays at a time."""

    def test_rho_variation_builds_no_pair_table(self):
        # 5000 turning points: a table of all pairs would take 200 MB
        rng = np.random.default_rng(3)
        x = np.where(np.arange(5000) % 2, 1.0, -1.0) * (1.0 + rng.random(5000))
        result, peak = traced_peak(lambda: V.rho_variation(x, 3.0))
        assert len(result.witness) == 5000 and result.check(x)
        assert peak < 4e6

    def test_rho_variation_values_holds_one_block_at_a_time(self):
        # a block's cut y, its B and its work buffer take at most 2.5
        # blocks of _DP_ENTRIES floats, the turning-point step before them
        # under 3; per-row temporaries, or a block's arrays held across the
        # next block's turning step, go past that
        rng = np.random.default_rng(5)
        walks = np.cumsum(rng.normal(size=(201, 2048)), axis=0)
        block = V._DP_ENTRIES * 8
        _, peak = traced_peak(lambda: V.rho_variation_values(walks, 3.0))
        assert peak <= 3 * block + walks.shape[1] * 8


class TestAlternatingChains:
    """rho_variation_values reads only opposite-type predecessors;
    rho_variation keeps all pairs of turning points."""

    @PROPERTY
    @given(data=st.data(), n=st.integers(2, 16), width=st.integers(1, 5))
    def test_turning_points_alternate(self, data, n, width):
        # the premise of the reduction: the real rows of each cut column
        # step up and down in turn, never by zero
        family = data.draw(st.sampled_from((tie_heavy, wide_range)))
        block = np.column_stack([data.draw(family(n)) for _ in range(width)])
        cut, last = V._turning_columns(block)
        for k in range(width):
            steps = np.sign(np.diff(cut[:last[k] + 1, k]))
            assert np.all(steps != 0.0)
            assert np.array_equal(steps[1:], -steps[:-1])

    @PROPERTY
    @given(x=wide_range())
    def test_alternating_dp_matches_all_pairs_over_turning_points(self, x):
        for rho in (1.5, 2.0, 3.0, 6.0):
            got = V.rho_variation_values(x[:, None], rho)
            assert bits(got) == bits(V.rho_variation(x, rho).value)

    def test_rounding_that_favours_a_non_turning_sample(self):
        # the all-pairs DP over every sample reaches one ulp higher through
        # sample 6, which is not a turning point
        x = np.array([0.1, -2e8, 0.0, -2e8, 0.02, -0.02, -0.01, 3e-05])
        vec = V.rho_variation_values(x[:, None], 1.5)[0]
        scalar = V.rho_variation(x, 1.5)
        assert bits(vec) == bits(scalar.value)
        assert 6 not in scalar.witness and scalar.check(x)
        want = reference_rho_variation_values(x[:, None], 1.5)[0]
        assert abs(vec - want) <= 4.0 * np.finfo(float).eps * want


class TestNonFiniteSamples:
    def test_one_infinity_twice_is_nan_where_parity_skips_the_pair(self):
        # the two infinities are of one type at even distance, so no
        # alternating chain forms inf - inf; opposite infinities give inf
        with np.errstate(invalid="ignore"):
            for rho in (1.5, 3.0):
                column = np.array([math.inf, 0.0, 1.0, 0.0, math.inf])
                scalar = V.rho_variation(column, rho)
                assert math.isnan(scalar.value) and scalar.witness == []
                assert math.isnan(V.rho_variation_values(column[:, None],
                                                          rho)[0])
                column = np.array([math.inf, 0.0, -math.inf])
                assert V.rho_variation(column, rho).value == math.inf
                assert V.rho_variation_values(column[:, None],
                                              rho)[0] == math.inf

    def test_scalar_form_is_nan_where_the_vector_form_is(self):
        # every column over {0, +-1, 2, +-inf, NaN}^5: a NaN sample or an
        # inf - inf increment makes both forms NaN, neither raises, and
        # every other value agrees bit for bit
        alphabet = (0.0, 1.0, -1.0, 2.0, math.inf, -math.inf, math.nan)
        cols = np.array(list(itertools.product(alphabet, repeat=5))).T
        for rho in (2.5, 3.0):
            with np.errstate(invalid="ignore"):
                vec = V.rho_variation_values(cols, rho)
                scalar = [V.rho_variation(col, rho) for col in cols.T]
            values = np.array([r.value for r in scalar])
            assert np.array_equal(np.isnan(values), np.isnan(vec))
            assert bits(values) == bits(vec)
            assert all(r.witness == [] for r in scalar if math.isnan(r.value))


class TestCheckNested:
    def test_excess_beyond_rounding_names_the_index(self):
        full = np.array([1.0, 2.0, 3.0])
        V.check_nested(full * (1.0 + 1e-13), full, "grid")
        V.check_nested(np.array([math.nan, 2.0, math.inf]),
                       np.array([1.0, math.nan, math.inf]), "grid")
        with pytest.raises(RuntimeError, match="grid: .* at index 1$"):
            V.check_nested(np.array([1.0, 2.0 + 1e-9, 4.0]), full, "grid")


class TestJump:
    def test_square_wave(self):
        assert V.jump_count([0.0, 2.0, 0.0, 2.0], 1.0) == 3

    def test_threshold_above_range(self):
        assert V.jump_count([0.0, 2.0, 0.0, 2.0], 2.5) == 0
        assert V.jump_count([1.0, 1.5], 0.5) == 0

    def test_positive_threshold_required(self):
        with pytest.raises(ValueError):
            V.jump_count([0.0, 1.0], 0.0)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(6)
        block = rng.normal(size=(30, 9))
        for lam in (0.3, 1.0):
            vec = V.jump_count_values(block, lam)
            for j in range(9):
                assert vec[j] == V.jump_count(block[:, j], lam)
        empty = V.jump_count_values(np.empty((0, 9)), 1.0)
        assert empty.shape == (9,) and not empty.any()
        assert V.jump_count([], 1.0) == 0

    @settings(max_examples=200, deadline=None)
    @given(x=tie_heavy())
    def test_ties_at_the_threshold_against_brute_force(self, x):
        # tenths and integers put moves on lam, where a threshold formed
        # as lo + lam rounds away from the move g_t - lo
        for lam in (0.1, 1.0, 2.0):
            assert V.jump_count(x, lam) == brute_force_jump_count(x, lam)


class TestOscillation:
    def test_exponential_against_direct_sum(self):
        edges = 2.0 ** (-np.arange(0.0, 11.0))
        fill = np.geomspace(2.0 ** -10, 1.0, 300)
        ts = np.unique(np.concatenate([edges, fill]))[::-1]
        g = np.exp(-ts)
        got = V.oscillation(g, edges, sample_times=ts)
        want = math.sqrt(sum(
            (math.exp(-edges[j + 1]) - math.exp(-edges[j])) ** 2
            for j in range(10)))
        assert abs(got - want) < 1e-12

    def test_constant(self):
        ts = np.array([1.0, 0.5, 0.25, 0.1])
        assert V.oscillation(np.ones(4), np.array([1.0, 0.1]),
                             sample_times=ts) == 0.0

    def test_single_bracket_gives_range(self):
        ts = np.array([0.9, 0.5, 0.2])
        g = np.array([1.0, -2.0, 0.5])
        got = V.oscillation(g, np.array([1.0, 0.1]), sample_times=ts)
        assert abs(got - 3.0) < 1e-15

    def test_empty_bracket_contributes_zero(self):
        ts = np.array([0.9, 0.8])
        g = np.array([0.0, 1.0])
        got = V.oscillation(g, np.array([1.0, 0.5, 0.1]), sample_times=ts)
        assert abs(got - 1.0) < 1e-15


class TestShortVariation:
    def test_single_block_is_two_variation(self):
        ts = np.array([0.9, 0.8, 0.7, 0.6])  # all in (1/2, 1]
        g = np.array([0.0, 1.0, -1.0, 0.5])
        want = V.rho_variation(g, 2.0).value
        assert abs(V.short_variation(ts, g) - want) < 1e-14

    def test_constant(self):
        ts = np.geomspace(0.01, 1.0, 20)[::-1]
        assert V.short_variation(ts, np.ones(20)) == 0.0

    def test_two_blocks_add_in_l2(self):
        ts = np.array([0.9, 0.6, 0.4, 0.3])
        g = np.array([0.0, 1.0, 0.0, 1.0])
        assert abs(V.short_variation(ts, g) - math.sqrt(2.0)) < 1e-14


class TestDominationChain:
    def test_oscillation_below_two_variation(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            M = int(rng.integers(4, 25))
            ts = decreasing_times(rng, M)
            g = rng.normal(size=M)
            edges = np.unique(rng.uniform(1e-3, 10.0, 6))[::-1]
            osc = V.oscillation(g, edges, sample_times=ts)
            v2 = V.rho_variation(g, 2.0).value
            assert osc <= v2 + 1e-12

    def test_short_variation_below_two_variation(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            M = int(rng.integers(4, 25))
            ts = decreasing_times(rng, M)
            g = rng.normal(size=M)
            sv = V.short_variation(ts, g)
            v2 = V.rho_variation(g, 2.0).value
            assert sv <= v2 + 1e-12

    def test_jump_variation_inequality_unit_constant(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            g = rng.normal(size=int(rng.integers(2, 20)))
            lam = float(rng.uniform(0.05, 2.0))
            rho = float(rng.uniform(2.1, 5.0))
            count = V.jump_count(g, lam)
            assert lam * count ** (1.0 / rho) \
                <= V.rho_variation(g, rho).value + 1e-12


class TestGFunction:
    @pytest.mark.parametrize("nu", (0.0, 0.5))
    @pytest.mark.parametrize("gamma", (0.5, 1.0, 2.0))
    def test_l2_identity(self, nu, gamma, basis_for, grid_for):
        basis = basis_for(nu, 16)
        g = grid_for(nu, 16)
        rng = np.random.default_rng(10)
        coeffs = np.zeros(16)
        coeffs[:10] = rng.normal(size=10)
        c = S.CoefficientVector(coeffs, basis, "phi")
        f = S.synthesize(c, g)
        mass = g.masses(nu)
        want = math.gamma(2.0 * gamma) / 2.0 ** (2.0 * gamma) \
            * G.lp_norm(f.values, 2.0, mass) ** 2
        gv = V.g_function(basis, gamma, c, g)
        got = np.dot(mass, gv ** 2)
        assert abs(got - want) <= 1e-6 * want

    def test_single_eigenfunction_value(self, basis_for):
        # |g_1(phi_1)|^2 integrates to Gamma(2)/4 = 1/4
        basis = basis_for(0.0, 8)
        e1 = np.zeros(8)
        e1[0] = 1.0
        c = S.CoefficientVector(e1, basis, "phi")
        g = G.grid_from_edges([0.0, 0.37, 1.0], 3)
        got = V.g_function(basis, 1.0, c, g)
        want = np.abs(S.mode_values(basis, g.nodes, "phi")[0]) / 2.0
        assert got.shape == (g.size,)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_zero_function(self, basis_for):
        basis = basis_for(0.0, 8)
        c = S.CoefficientVector(np.zeros(8), basis, "phi")
        g = G.grid_from_edges([0.0, 0.5, 1.0], 2)
        assert np.array_equal(V.g_function(basis, 1.0, c, g), np.zeros(4))

    def test_single_mode_matches_closed_form(self, basis_for):
        # g_gamma(c_n phi_n) = |c_n phi_n| sqrt(Gamma(2 gamma)) / 2^gamma
        basis = basis_for(0.0, 8)
        g = G.grid_from_edges(np.linspace(0.0, 1.0, 4), 3)
        e3 = np.zeros(8)
        e3[2] = 1.7
        quad = V.g_function(basis, 0.7, S.CoefficientVector(e3, basis, "phi"), g)
        want = np.abs(1.7 * S.mode_values(basis, g.nodes, "phi")[2]) \
            * math.sqrt(math.gamma(1.4)) / 2.0 ** 0.7
        assert np.max(np.abs(quad - want)) < 1e-8

    def test_gamma_positive_required(self, basis_for):
        basis = basis_for(0.0, 8)
        c = S.CoefficientVector(np.zeros(8), basis, "phi")
        with pytest.raises(ValueError):
            V.g_function(basis, 0.0, c, G.grid_from_edges([0.0, 1.0], 2))


class TestVariationField:
    def test_constant_family_vanishes(self, basis_for, grid_for):
        basis = basis_for(0.0, 8)
        g = grid_for(0.0, 8)
        times = SG.log_times(0.1, 1.0, 10)
        fam = np.tile(np.cos(g.nodes), (10, 1))
        for field in (V.rho_variation_values(fam, 3.0),
                      V.short_variation_values(times, fam)):
            assert np.max(field) == 0.0
        assert np.max(V.jump_count_values(fam, 0.1)) == 0

    def test_single_node_reduces_to_scalar(self, basis_for):
        rng = np.random.default_rng(11)
        vals = rng.normal(size=(30, 1))
        field = V.rho_variation_values(vals, 3.0)
        assert abs(field[0]
                   - V.rho_variation(vals[:, 0], 3.0).value) < 1e-14

    def test_l2_norm_stable_under_time_refinement(self, basis_for, grid_for):
        basis = basis_for(0.0, 16)
        g = grid_for(0.0, 16)
        e1 = np.zeros(16)
        e1[0] = 1.0
        c = S.CoefficientVector(e1, basis, "phi")
        norms = []
        for tp in (200, 400):
            times = SG.log_times(1e-3, 10.0, tp)
            fam = SG.apply_family(basis, c, times, g)
            field = V.rho_variation_values(fam, 3.0)
            norms.append(G.lp_norm(field, 2.0, g.masses(0.0)))
        assert abs(norms[1] - norms[0]) / norms[0] < 0.01


class TestSemigroupInequalities:
    def test_pointwise_poisson_bound_with_time_one(self, basis_for, grid_for):
        # |P_t f| <= V_rho(P f) + |P_1 f| at every node, exact on grids
        # containing t = 1
        basis = basis_for(0.0, 16)
        g = grid_for(0.0, 16)
        rng = np.random.default_rng(12)
        times = SG.log_times(1e-2, 10.0, 50, include=(1.0,))
        i_one = int(np.argmin(np.abs(times - 1.0)))
        for _ in range(10):
            c = S.CoefficientVector(rng.normal(size=16), basis, "phi")
            fam = SG.apply_family(basis, c, times, g)
            var = V.rho_variation_values(fam, 3.0)
            bound = var + np.abs(fam[i_one])
            assert np.all(np.abs(fam) <= bound[None, :] + 1e-12)

    def test_fractional_variation_dominated_by_heat_variation(
            self, basis_for, grid_for):
        # the subordination expansion bounds V_rho of t^b d_t^b P_t by a
        # constant times V_rho of W_t; certify the L2 ratio envelope
        basis = basis_for(0.0, 32)
        g = grid_for(0.0, 32)
        rng = np.random.default_rng(13)
        times = SG.log_times(1e-3, 10.0, 120)
        mass = g.masses(0.0)
        worst = 0.0
        for _ in range(20):
            c = S.CoefficientVector(rng.normal(size=32)
                                    / np.arange(1, 33), basis, "phi")
            fam_p = SG.apply_family(basis, c, times, g, beta=0.5)
            fam_w = SG.mode_sums(SG.heat_multipliers(basis, times),
                                 basis.matrix(g), c.values)
            vp = G.lp_norm(V.rho_variation_values(fam_p, 3.0), 2.0, mass)
            vw = G.lp_norm(V.rho_variation_values(fam_w, 3.0), 2.0, mass)
            worst = max(worst, vp / vw)
        assert math.isfinite(worst)
        assert worst < 10.0

    def test_short_variation_below_g_function_pair(self, basis_for, grid_for):
        # the dyadic-block bound: S_V(t^b d_t^b P_t f) is controlled by
        # g_b + g_{b+1} pointwise up to a fixed constant
        basis = basis_for(0.0, 16)
        g = grid_for(0.0, 16)
        rng = np.random.default_rng(14)
        beta = 0.5
        times = SG.log_times(1e-3, 10.0, 200)
        worst = 0.0
        for _ in range(5):
            c = S.CoefficientVector(rng.normal(size=16)
                                    / np.arange(1, 17), basis, "phi")
            fam = SG.apply_family(basis, c, times, g, beta=beta)
            sv = V.short_variation_values(times, fam)
            gb = V.g_function(basis, beta, c, g)
            gb1 = V.g_function(basis, beta + 1.0, c, g)
            denom = gb + gb1
            mask = denom > 1e-10
            worst = max(worst, float(np.max(sv[mask] / denom[mask])))
        assert math.isfinite(worst)
        assert worst < 20.0


class TestBasisMismatch:
    def test_coefficient_paths_reject_a_foreign_basis(self, basis_for,
                                                      grid_for):
        basis, other = basis_for(0.0, 16), basis_for(0.5, 16)
        c = S.CoefficientVector(np.ones(16), other, "phi")
        g = grid_for(0.0, 16)
        times = SG.log_times(0.1, 1.0, 5)
        with pytest.raises(ValueError, match="basis"):
            SG.apply_family(basis, c, times, g)
        with pytest.raises(ValueError, match="basis"):
            V.g_function(basis, 1.0, c, g)
