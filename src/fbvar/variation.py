"""Fluctuation functionals of one-parameter families sampled in time.

rho-variation for every finite rho > 1 (exact over all subsequences of the
sample times, by dynamic programming over each sequence's turning points),
oscillation over fixed brackets, the lambda-jump counter, dyadic-block
short variation (the 2-variation inside each block), and the
gamma-square function

    g_gamma f(x) = ( int_0^oo |t^gamma d_t^gamma P_t f(x)|^2 dt/t )^(1/2),

whose L2 norm carries the exact constant Gamma(2 gamma) / 2^(2 gamma).

The continuous suprema are replaced by suprema over the sampled times;
refinement of the time grid is the caller's accuracy knob.  The theorems
need rho > 2, which the command line enforces; the functionals here only
need their own premise.

The rho-variation DP runs on turning points only: the first sample, the
strict local extrema and the last sample, each plateau standing for its
first index.  For rho >= 1 same-sign increments satisfy
|a + b|^rho >= |a|^rho + |b|^rho, so some optimal chain uses only these
samples (Butkus & Norvaisa, "Computation of p-variation", Lithuanian
Math. J. 58 (2018)); smooth fields keep about 2% of their samples.  They
alternate between minima and maxima, and for two of one type j < i the
extremum m between them has |g_i - g_j| < max(|g_i - g_m|, |g_j - g_m|),
so some optimal chain alternates: rho_variation_values reads only points
i - 1, i - 3, ... before point i, and rho_variation, which keeps all pairs,
checks it.  The turning points of a column whose steps are all nonzero
and not NaN are found in one pass, where the sign bit of its step
changes; each rho_variation_values block takes its columns longest cut
first, so padded rows cost no pairs, and writes its rows' candidates into
one work buffer, and rho_variation takes a value pass, then a tie pass,
over row blocks of its pair table.  A NaN sample, or one infinity held
twice, makes the value NaN.
On tie-heavy sequences, fields and random walks the values are the bits of
the all-pairs DP over every sample; where rounding favours a non-turning
sample they can sit an ulp below.
"""

import math
from dataclasses import dataclass

import numpy as np

from .grid import composite_rule, sorted_unique
from .semigroups import mode_sums, poisson_multipliers
from .spectral import mode_values


# relative tolerance of VariationResult.check and check_nested
_CHECK_TOL = 1e-12


@dataclass
class VariationResult:
    """Value of the rho-variation plus the subsequence achieving it."""

    value: float
    witness: list
    rho: float

    def check(self, samples):
        samples = np.asarray(samples, dtype=float)
        if len(self.witness) < 2:
            return self.value == 0.0
        chain = samples[self.witness]
        total = float(np.sum(np.abs(np.diff(chain)) ** self.rho))
        return abs(total - self.value ** self.rho) \
            <= _CHECK_TOL * max(1.0, total)


def _check_rho(rho):
    """rho as a float; a ValueError unless it is finite and exceeds 1, the
    premise of the turning-point reduction."""
    rho = float(rho)
    if not (math.isfinite(rho) and rho > 1.0):
        raise ValueError(f"rho must be a finite number > 1 (got {rho})")
    return rho


# Columns per turning-point block of rho_variation_values: padding a block
# to its longest cut, not every column to the global longest, bounds memory.
_DP_BLOCK = 512

# Entries of rho_variation's pair table held at once: it is built in blocks
# of rows, so memory stays O(K) for K turning points, never O(K^2).
_PAIR_BUDGET = 1 << 16


def _turning_mask(block):
    """[T, C] mask of each column's turning points: the first sample, the
    strict local extrema and the last sample, a plateau kept at its first
    index.  A NaN step counts as a turn, so non-finite samples are kept.

    A column whose steps are all nonzero and not NaN turns where the sign
    bit of its step changes; only the others search for plateaus."""
    d = np.diff(block, axis=0)
    down = np.signbit(d)
    keep = np.ones(block.shape, dtype=bool)
    np.not_equal(down[1:], down[:-1], out=keep[1:-1])
    # the columns with a zero or NaN step; d != 0 would pass a NaN step
    slow = np.flatnonzero(~((d > 0.0) | (d < 0.0)).all(axis=0))
    if slow.size:
        keep[:, slow] = _plateau_mask(d[:, slow])
    return keep


def _plateau_mask(d):
    """_turning_mask of the columns whose steps `d` include a zero or NaN."""
    T = len(d) + 1
    step = np.zeros((T, d.shape[1]))
    step[:-1] = np.sign(d)                          # step[i]: i -> i + 1
    # ahead[i]: the next nonzero step from i on, or 0
    stop = np.where(step != 0.0, np.arange(T)[:, None], T - 1)
    first = np.minimum.accumulate(stop[::-1], axis=0)[::-1]
    ahead = np.take_along_axis(step, first, axis=0)
    keep = np.ones(step.shape, dtype=bool)
    keep[1:] = (step[:-1] != 0.0) & (ahead[1:] != step[:-1])
    return keep


def _turning_columns(block):
    """Each column of a [T, C] block cut to its turning points and padded
    to the block's longest cut with its last sample, plus the row of each
    column's last turning point.

    The turning points are found in row-major order and put in column-major
    order by a stable sort of their int16 columns, a radix sort (C is at
    most _DP_BLOCK); the cut is written column by column, then transposed.
    Each index array is freed once it has been used."""
    C = block.shape[1]
    flat = np.flatnonzero(_turning_mask(block))
    col = (flat % C).astype(np.int16)
    values = block[flat // C, col]
    del flat
    order = np.argsort(col, kind="stable")
    count = np.bincount(col, minlength=C)
    del col
    values = values[order]
    del order
    rows = int(count.max())
    cut = np.repeat(block[-1:].T, rows, axis=1)
    cut[np.arange(rows) < count[:, None]] = values
    del values
    return np.ascontiguousarray(cut.T), count - 1


def rho_variation(samples, rho):
    """Exact rho-variation over all subsequences of the sampled times.

    DP over chain ends of the turning points g_0, g_1, ... of the samples:
    B[i] = max(0, max_{j<i} B[j] + |g_i - g_j|^rho), answer max_i B[i]^(1/rho).
    O(K^2) over all pairs of the K turning points, in blocks of rows of
    the pair table: a value pass fills each row's candidates and takes its
    maximum, then a tie pass finds every candidate equal to its row's B
    at once.  Ties prefer the shorter witness, then the earlier sample; the
    witness indexes the original samples.  A NaN increment (a NaN sample,
    or one infinity held twice) gives NaN with no witness, as
    rho_variation_values gives NaN.  The root is taken by numpy's array
    power, as rho_variation_values takes it, so the two forms agree bit
    for bit.
    """
    rho = _check_rho(rho)
    g = np.asarray(samples, dtype=float)
    if len(g) < 2:
        return VariationResult(0.0, [], rho)
    kept = np.nonzero(_turning_mask(g[:, None])[:, 0])[0]
    g = g[kept]
    M = len(g)
    B = np.zeros(M)
    length = [0] * M
    parent = [-1] * M
    step = max(1, _PAIR_BUDGET // M)
    for r0 in range(1, M, step):
        r1 = min(r0 + step, M)
        # cand[i - r0, j] = B[j] + |g_i - g_j|^rho for j < i and -inf for
        # j >= i, so each row's maximum is B[i]: B[i] >= 0 unless NaN
        with np.errstate(invalid="ignore"):     # inf - inf for j >= i
            cand = np.subtract(g[r0:r1, None], g[:r1])
        np.abs(cand, out=cand)
        np.power(cand, rho, out=cand)
        cand[np.arange(r1) >= np.arange(r0, r1)[:, None]] = -np.inf
        head = B[:r1]
        for i, row in zip(range(r0, r1), cand):
            np.add(head, row, out=row)
            B[i] = np.maximum.reduce(row)
        if math.isnan(B[r1 - 1]):       # a NaN reaches every later row
            return VariationResult(math.nan, [], rho)
        at, ties = np.nonzero(cand == B[r0:r1, None])
        count = np.bincount(at, minlength=r1 - r0).tolist()
        ties = ties.tolist()
        s = 0
        for i, n, b in zip(range(r0, r1), count, B[r0:r1].tolist()):
            if b > 0.0:
                j = ties[s] if n == 1 else min(ties[s:s + n],
                                               key=length.__getitem__)
                parent[i] = j
                length[i] = length[j] + 1
            s += n
    top = float(np.max(B))
    if top <= 0.0:
        return VariationResult(0.0, [], rho)
    ends = np.flatnonzero(B == top).tolist()
    k = min(ends, key=length.__getitem__)
    chain = []
    while k >= 0:
        chain.append(int(kept[k]))
        k = parent[k]
    chain.reverse()
    root = np.array([top]) ** (1.0 / rho)
    return VariationResult(float(root[0]), chain, rho)


def rho_variation_values(values, rho):
    """Vectorized DP: rho-variation along axis 0 for each trailing index,
    over each column's alternating chains of turning points, _DP_BLOCK
    columns at a time."""
    rho = _check_rho(rho)
    v = np.asarray(values, dtype=float)
    T = v.shape[0]
    if T < 2:
        return np.zeros(v.shape[1:])
    flat = v.reshape(T, math.prod(v.shape[1:]))
    out = np.empty(flat.shape[1])
    for c in range(0, flat.shape[1], _DP_BLOCK):
        out[c:c + _DP_BLOCK] = _alternating_dp(
            *_turning_columns(flat[:, c:c + _DP_BLOCK]), rho)
    return out.reshape(v.shape[1:])


def _alternating_dp(y, last, rho):
    """rho-variation of each column of a _turning_columns cut `y` whose
    last turning point is row `last`.  y's columns are reordered in place,
    longest cut first, so row i reads only the leading reach[i] columns,
    those whose cut reaches it; each row's candidates go to one work
    buffer, and B stays 0 past a column's last turning point."""
    order = np.argsort(-last, kind="stable")
    y[:] = y[:, order]
    last = last[order]
    reach = np.searchsorted(-last, -np.arange(len(y)), side="right")
    B = np.zeros_like(y)
    work = np.empty(len(y) // 2 * y.shape[1])
    for i in range(1, len(y)):
        # B[i] = max_j B[j] + |y_i - y_j|^rho over j = i - 1, i - 3, ...;
        # every candidate is >= 0 unless NaN
        a = reach[i]
        w = work[:(i + 1) // 2 * a].reshape(-1, a)
        np.subtract(y[i, :a], y[i - 1::-2, :a], out=w)
        np.abs(w, out=w)
        np.power(w, rho, out=w)
        np.add(B[i - 1::-2, :a], w, out=w)
        np.max(w, axis=0, out=B[i, :a])
    best = np.max(B, axis=0)
    # a NaN sample reaches the maximum through the DP, but alternating
    # chains skip the inf - inf of one infinity held twice; padded rows
    # repeat a column's last sample and are not counted
    real = np.arange(len(y))[:, None] <= last
    for s in (np.inf, -np.inf):
        best[((y == s) & real).sum(axis=0) > 1] = np.nan
    out = np.empty_like(best)
    out[order] = best ** (1.0 / rho)
    return out


def check_nested(sub, full, what):
    """RuntimeError naming `what` and the first index where a variation over
    a subgrid exceeds the grid's, `full`, beyond rounding; NaN passes."""
    over = np.flatnonzero(np.ravel(sub) > np.ravel(full) * (1.0 + _CHECK_TOL))
    if over.size:
        raise RuntimeError(f"{what}: V(subgrid) > V(grid) at index {over[0]}")


def total_variation(values):
    """Sum of |consecutive differences| along axis 0; dominates every
    rho-variation."""
    v = np.asarray(values, dtype=float)
    return np.sum(np.abs(np.diff(v, axis=0)), axis=0)


@dataclass(eq=False)
class BracketSpec:
    """Fixed decreasing bracket edges t_1 > t_2 > ... with sample assignments.

    Bracket j collects the sample indices with time in [t_{j+1}, t_j]; both
    endpoints are admissible in the defining sup, so adjacent brackets may
    share an edge sample while their interiors stay disjoint.
    """

    edges: np.ndarray
    assignments: list

    @classmethod
    def from_times(cls, edges, sample_times):
        edges = np.asarray(edges, dtype=float)
        if np.any(np.diff(edges) >= 0.0):
            raise ValueError("bracket edges must be strictly decreasing")
        ts = np.asarray(sample_times, dtype=float)
        groups = []
        for hi, lo in zip(edges[:-1], edges[1:]):
            groups.append(np.nonzero((ts >= lo) & (ts <= hi))[0])
        return cls(edges, groups)


def oscillation(samples, edges, sample_times):
    """l2 combination over the brackets between decreasing `edges` of the
    within-bracket sample range.

    The sup of |g(e_j) - g(e_{j+1})| over pairs inside one bracket equals
    the bracket's max - min.  Empty brackets contribute zero.
    """
    column = np.asarray(samples, dtype=float)[:, None]
    brackets = BracketSpec.from_times(edges, sample_times)
    return float(oscillation_values(column, brackets)[0])


def oscillation_values(values, brackets):
    v = np.asarray(values, dtype=float)
    total = np.zeros(v.shape[1:])
    for idx in brackets.assignments:
        if len(idx) >= 2:
            block = v[idx]
            rng = np.max(block, axis=0) - np.min(block, axis=0)
            total += rng * rng
    return np.sqrt(total)


def jump_count(samples, lam):
    """Maximal number of disjoint pairs moving by more than lam.

    Greedy scan anchored at the earliest time: a pair is closed at the first
    index where the value escapes the running [min, max] window by more than
    lam, then the window restarts there; a move is the rounded difference
    g_t - g_s.  Closing each pair as early as possible is optimal (exchange
    argument; cross-checked against brute force in the tests).
    """
    column = np.asarray(samples, dtype=float)[:, None]
    return int(jump_count_values(column, lam)[0])


def jump_count_values(values, lam):
    lam = float(lam)
    if lam <= 0.0:
        raise ValueError("jump threshold must be positive")
    v = np.asarray(values, dtype=float)
    count = np.zeros(v.shape[1:], dtype=int)
    if not len(v):
        return count
    lo = hi = v[0]
    for row in v[1:]:
        hit = (row - lo > lam) | (hi - row > lam)
        count += hit
        lo = np.where(hit, row, np.minimum(lo, row))
        hi = np.where(hit, row, np.maximum(hi, row))
    return count


def dyadic_block_index(t):
    """k with t in (2^-k, 2^-k+1]."""
    return int(math.floor(-math.log2(t))) + 1


def short_variation(times, samples):
    """sqrt(sum_k V_k^2): V_k is the 2-variation inside dyadic block k."""
    column = np.asarray(samples, dtype=float)[:, None]
    return float(short_variation_values(times, column)[0])


def short_variation_values(times, values):
    ts = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    ks = np.array([dyadic_block_index(t) for t in ts])
    total = np.zeros(v.shape[1:])
    for k in sorted_unique(ks):
        idx = np.nonzero(ks == k)[0]
        if len(idx) >= 2:
            vk = rho_variation_values(v[idx], 2.0)
            total += vk * vk
    return np.sqrt(total)


# ---------------------------------------------------------------------------
# gamma square function


# cells, uniform in log t, and Gauss points per cell of the g-function rule
_G_CELLS = 48
_G_POINTS = 8


def _g_quadrature_nodes(gamma, lam_min, lam_max):
    # integrand (t lam)^(2 gamma) e^(-2 t lam) dt/t: support in log t is
    # [where (t lam_max)^(2g) is negligible, where e^(-2 t lam_min) is]
    delta = (2.0 * gamma * 1e-18) ** (1.0 / (2.0 * gamma))
    t_lo = delta / lam_max
    t_hi = (45.0 + 10.0 * gamma) / (2.0 * lam_min)
    s, ws = composite_rule(
        np.linspace(math.log(t_lo), math.log(t_hi), _G_CELLS + 1), _G_POINTS)
    return np.exp(s), ws  # dt/t = ds


def g_function(basis, gamma, c, x):
    """Pointwise g_gamma f(x) from the coefficient vector of f."""
    gamma = float(gamma)
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    c.check_basis(basis)
    nz = np.nonzero(c.values)[0]
    xs = np.asarray(x, dtype=float)
    if len(nz) == 0:
        vals = np.zeros(xs.size)
    else:
        lam_used = basis.zeros[nz]
        ts, ws = _g_quadrature_nodes(gamma, float(lam_used.min()),
                                     float(lam_used.max()))
        mults = poisson_multipliers(basis, ts, gamma)
        u = mode_sums(mults, mode_values(basis, xs, c.flavor), c.values)
        vals = np.sqrt(np.maximum((ws[:, None] * u * u).sum(axis=0), 0.0))
    return float(vals[0]) if np.isscalar(x) else vals.reshape(xs.shape)
