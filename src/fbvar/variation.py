"""Fluctuation functionals of one-parameter families sampled in time.

rho-variation (exact over all subsequences of the sample times, by dynamic
programming), oscillation over fixed brackets, the lambda-jump counter,
dyadic-block short variation, and the gamma-square function

    g_gamma f(x) = ( int_0^oo |t^gamma d_t^gamma P_t f(x)|^2 dt/t )^(1/2),

whose L2 norm carries the exact constant Gamma(2 gamma) / 2^(2 gamma).

The continuous suprema are replaced by suprema over the sampled times;
refinement of the time grid is the caller's accuracy knob.
"""

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, composite_rule
from .semigroups import poisson_multipliers
from .spectral import eigenfunction, mode_values


@dataclass
class VariationResult:
    """Value of the rho-variation plus the subsequence achieving it."""

    value: float
    witness: list
    rho: float

    def check(self, samples, tol=1e-12):
        samples = np.asarray(samples, dtype=float)
        if len(self.witness) < 2:
            return self.value == 0.0
        chain = samples[self.witness]
        total = float(np.sum(np.abs(np.diff(chain)) ** self.rho))
        return abs(total - self.value ** self.rho) <= tol * max(1.0, total)


def _check_rho(rho, allow_low_rho):
    rho = float(rho)
    if rho > 2.0:
        return rho
    if allow_low_rho and rho > 1.0:
        return rho
    raise ValueError(
        "rho must exceed 2 (pass allow_low_rho=True for the untested "
        "regime rho in (1, 2])")


def rho_variation(samples, rho, allow_low_rho=False):
    """Exact rho-variation over all subsequences of the sampled times.

    DP over chain ends: B[i] = max(0, max_{j<i} B[j] + |g_i - g_j|^rho),
    answer max_i B[i]^(1/rho).  O(M^2).  Ties prefer the shorter witness.
    """
    rho = _check_rho(rho, allow_low_rho)
    g = np.asarray(samples, dtype=float)
    M = len(g)
    if M < 2:
        return VariationResult(0.0, [], rho)
    B = np.zeros(M)
    length = np.zeros(M, dtype=int)
    parent = np.full(M, -1)
    for i in range(1, M):
        cand = B[:i] + np.abs(g[i] - g[:i]) ** rho
        best = float(np.max(cand))
        if best <= 0.0:
            continue
        ties = np.nonzero(cand == best)[0]
        j = int(ties[np.argmin(length[ties])])
        B[i] = best
        parent[i] = j
        length[i] = length[j] + 1
    top = float(np.max(B))
    if top <= 0.0:
        return VariationResult(0.0, [], rho)
    ends = np.nonzero(B == top)[0]
    end = int(ends[np.argmin(length[ends])])
    chain = []
    k = end
    while k >= 0:
        chain.append(k)
        k = parent[k]
    chain.reverse()
    return VariationResult(top ** (1.0 / rho), chain, rho)


def rho_variation_values(values, rho, allow_low_rho=False):
    """Vectorized DP: rho-variation along axis 0 for each trailing index."""
    rho = _check_rho(rho, allow_low_rho)
    v = np.asarray(values, dtype=float)
    T = v.shape[0]
    if T < 2:
        return np.zeros(v.shape[1:])
    B = np.zeros_like(v)
    best = np.zeros(v.shape[1:])
    for i in range(1, T):
        cand = B[:i] + np.abs(v[i] - v[:i]) ** rho
        Bi = np.max(cand, axis=0)
        np.maximum(Bi, 0.0, out=Bi)
        B[i] = Bi
        np.maximum(best, Bi, out=best)
    return best ** (1.0 / rho)


def total_variation(values, axis=0):
    """Sum of |consecutive differences|; dominates every rho-variation."""
    v = np.asarray(values, dtype=float)
    return np.sum(np.abs(np.diff(v, axis=axis)), axis=axis)


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


def _bracket_spec(brackets, sample_times):
    """A BracketSpec as given, or built from bracket edges and sample times."""
    if isinstance(brackets, BracketSpec):
        return brackets
    if brackets is None:
        raise ValueError("oscillation needs a BracketSpec")
    if sample_times is None:
        raise ValueError("bracket edges need sample_times to assign samples")
    return BracketSpec.from_times(brackets, sample_times)


def oscillation(samples, brackets, sample_times=None):
    """l2 combination over brackets of the within-bracket sample range.

    The sup of |g(e_j) - g(e_{j+1})| over pairs inside one bracket equals
    the bracket's max - min.  Empty brackets contribute zero.
    """
    column = np.asarray(samples, dtype=float)[:, None]
    brackets = _bracket_spec(brackets, sample_times)
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
    lam, then the window restarts there.  Closing each pair as early as
    possible is optimal (exchange argument; cross-checked against brute
    force in the tests).
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
    lo = v[0].copy()
    hi = v[0].copy()
    for i in range(1, v.shape[0]):
        hit = (v[i] > lo + lam) | (v[i] < hi - lam)
        count += hit
        lo[hit] = v[i][hit]
        hi[hit] = v[i][hit]
        keep = ~hit
        np.minimum(lo, np.where(keep, v[i], lo), out=lo)
        np.maximum(hi, np.where(keep, v[i], hi), out=hi)
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
    for k in np.unique(ks):
        idx = np.nonzero(ks == k)[0]
        if len(idx) >= 2:
            vk = rho_variation_values(v[idx], 2.0, allow_low_rho=True)
            total += vk * vk
    return np.sqrt(total)


def variation_field(samples, kind="rho_variation", rho=3.0, lam=1.0,
                    brackets=None):
    """Apply one fluctuation functional at every space node of FamilySamples."""
    v = samples.values
    if kind == "rho_variation":
        out = rho_variation_values(v, rho)
    elif kind == "oscillation":
        out = oscillation_values(
            v, _bracket_spec(brackets, samples.time_grid.times))
    elif kind == "jump_count":
        out = jump_count_values(v, lam).astype(float)
    elif kind == "short_variation":
        out = short_variation_values(samples.time_grid.times, v)
    else:
        raise ValueError(f"unknown functional {kind!r}")
    return GridFunction(samples.grid, out)


# ---------------------------------------------------------------------------
# gamma square function


def _g_quadrature_nodes(gamma, lam_min, lam_max, n_cells=48, p=8):
    # integrand (t lam)^(2 gamma) e^(-2 t lam) dt/t: support in log t is
    # [where (t lam_max)^(2g) is negligible, where e^(-2 t lam_min) is]
    delta = (2.0 * gamma * 1e-18) ** (1.0 / (2.0 * gamma))
    t_lo = delta / lam_max
    t_hi = (45.0 + 10.0 * gamma) / (2.0 * lam_min)
    s, ws = composite_rule(
        np.linspace(math.log(t_lo), math.log(t_hi), n_cells + 1), p)
    return np.exp(s), ws  # dt/t = ds


def g_function(basis, gamma, c, x):
    """Pointwise g_gamma f(x) from the coefficient vector of f.

    A single-mode f short-circuits to the closed form
    |c_n phi_n(x)| sqrt(Gamma(2 gamma)) / 2^gamma.
    """
    gamma = float(gamma)
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    c.check_basis(basis)
    nz = np.nonzero(c.values)[0]
    xs = np.asarray(x, dtype=float)
    if len(nz) == 1:
        n = int(nz[0]) + 1
        e = eigenfunction(basis, n, xs, c.flavor)
        out = np.abs(c.values[nz[0]] * e) * math.sqrt(math.gamma(2.0 * gamma)) / 2.0 ** gamma
        return out
    if len(nz) == 0:
        vals = np.zeros(xs.size)
    else:
        lam_used = basis.zeros[nz]
        ts, ws = _g_quadrature_nodes(gamma, float(lam_used.min()),
                                     float(lam_used.max()))
        mults = poisson_multipliers(basis, ts, gamma)
        mat = mode_values(basis, xs, c.flavor)
        u = (mults * c.values[None, :]) @ mat      # [times, points]
        vals = np.sqrt(np.maximum((ws[:, None] * u * u).sum(axis=0), 0.0))
    return float(vals[0]) if np.isscalar(x) else vals.reshape(xs.shape)
