"""Independent oracles and small input builders used across the test suite.

Everything here is deliberately implemented from scratch (or delegated to
mpmath/scipy), so no code path under test can confirm itself.
"""

import itertools
import math
import tracemalloc
from functools import lru_cache

import mpmath
import numpy as np

from fbvar.spectral import CoefficientVector
from fbvar.variation import VariationResult


def dyadic_both_ends_edges(n_cells):
    """Edges of n_cells cells on [0, 1] halving toward both ends: n_cells // 2
    cells with edges 0, 2^-k, ..., 1/2, then 1 - 2^-2, ..., 1."""
    n_left = n_cells // 2
    left = [0.0] + [2.0 ** (-j) for j in range(n_left, 0, -1)]
    right = [1.0 - 2.0 ** (-j) for j in range(2, n_cells - n_left + 1)] + [1.0]
    return np.array(left + right)


def times_diagonal(c, multiplier):
    """Coefficients m_n c_n: a diagonal operator applied to c."""
    return CoefficientVector(multiplier * c.values, c.basis, c.flavor)


def exhaustive_rho_variation(samples, rho):
    """Max over all subsequences of (sum |diff|^rho)^(1/rho), by enumeration."""
    g = list(samples)
    M = len(g)
    best = 0.0
    for L in range(2, M + 1):
        for comb in itertools.combinations(range(M), L):
            s = sum(abs(g[comb[i + 1]] - g[comb[i]]) ** rho
                    for i in range(L - 1))
            best = max(best, s)
    return best ** (1.0 / rho)


def reference_turning_mask(block):
    """[T, C] turning-point mask by its definition, one column and one sample
    at a time: with s_i the sign of step i -> i + 1 (NaN for a NaN step),
    sample 0 is kept, and sample i >= 1 is kept when s_{i-1} != 0 and the
    first nonzero sign from s_i on (0 if none) differs from s_{i-1}; a NaN
    sign differs from every sign."""
    block = np.asarray(block, dtype=float)
    T, C = block.shape
    keep = np.zeros((T, C), dtype=bool)
    with np.errstate(invalid="ignore"):
        steps = np.sign(np.diff(block, axis=0))
    for c in range(C):
        s = steps[:, c].tolist()
        keep[0, c] = True
        ahead = 0.0
        for i in range(T - 1, 0, -1):
            if i < T - 1 and s[i] != 0.0:
                ahead = s[i]
            keep[i, c] = s[i - 1] != 0.0 and ahead != s[i - 1]
    return keep


def reference_rho_variation(samples, rho):
    """All-pairs rho-variation DP over every sample, with the shortest
    witness on ties: B[i] = max(0, max_{j<i} B[j] + |g_i - g_j|^rho)."""
    rho = float(rho)
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
    root = np.array([top]) ** (1.0 / rho)   # as fbvar.variation takes it
    return VariationResult(float(root[0]), chain, rho)


def reference_rho_variation_values(values, rho):
    """All-pairs DP of reference_rho_variation along axis 0, vectorized."""
    rho = float(rho)
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


def brute_force_jump_count(samples, lam):
    """Max number of disjoint ordered pairs with |difference| > lam."""
    g = tuple(samples)
    M = len(g)

    @lru_cache(maxsize=None)
    def from_index(i):
        if i >= M - 1:
            return 0
        best = from_index(i + 1)        # skip i as a pair start
        for t in range(i + 1, M):
            if abs(g[t] - g[i]) > lam:
                best = max(best, 1 + from_index(t))
        return best

    return from_index(0)


def mp_bessel_j(nu, z, dps=40):
    """J_nu at each point of z, rounded from mpmath's value."""
    with mpmath.workdps(dps):
        return np.array([float(mpmath.besselj(nu, mpmath.mpf(float(v))))
                         for v in z])


def mp_bessel_j_extended(nu, z, dps=40):
    """J_nu at each extended-precision point of z, taken exactly as the sum
    of its leading double and the double of its remainder, rounded to
    np.longdouble by way of the same two parts."""
    out = []
    with mpmath.workdps(dps):
        for v in np.asarray(z, dtype=np.longdouble):
            hi = float(v)
            x = mpmath.mpf(hi) + mpmath.mpf(float(v - np.longdouble(hi)))
            j = mpmath.besselj(nu, x)
            hi = float(j)
            out.append(np.longdouble(hi) + np.longdouble(float(j - hi)))
    return np.array(out)


def mp_j_over_power(nu, z, dps=40):
    """J_nu(z) / z^nu at each point of z, with its limit
    2^-nu / Gamma(nu + 1) at z = 0, rounded from mpmath's value."""
    with mpmath.workdps(dps):
        return np.array([
            float(mpmath.besselj(nu, v) / v ** nu) if v else
            float(mpmath.mpf(2) ** -nu / mpmath.gamma(nu + 1))
            for v in map(mpmath.mpf, map(float, z))])


def weighted_step_coefficients(nu, zeros, breaks, heights, dps=30):
    """Coefficients against phi_n in L2(x^(2 nu + 1) dx) of the step function
    with value heights[k] on (breaks[k], breaks[k + 1]], in closed form:
    phi_n = sqrt2 J_nu(lam x) x^-nu / |J_{nu+1}(lam)| and, by DLMF 10.22.1,
    int x^(nu + 1) J_nu(lam x) dx = x^(nu + 1) J_{nu+1}(lam x) / lam."""
    out = []
    with mpmath.workdps(dps):
        nu1 = mpmath.mpf(nu) + 1
        for lam in map(mpmath.mpf, map(float, zeros)):
            prim = [mpmath.mpf(float(b)) ** nu1 * mpmath.besselj(nu1, lam * float(b))
                    for b in breaks]
            total = sum(h * (hi - lo)
                        for h, lo, hi in zip(heights, prim[:-1], prim[1:]))
            out.append(float(mpmath.sqrt(2) * total
                             / (lam * abs(mpmath.besselj(nu1, lam)))))
    return np.array(out)


def mp_bessel_zeros(nu, ns, dps=30):
    """Positive zeros of J_nu of the indices ns: scan once for sign changes,
    then bisect the bracket of each requested zero."""
    last = max(ns)
    with mpmath.workdps(dps):
        f = lambda x: mpmath.besselj(nu, x)
        hi_limit = math.pi * (last + nu / 2.0 + 1.0)
        step = 0.05
        x_prev, f_prev = 1e-8, f(1e-8)
        brackets = []
        x = x_prev + step
        while len(brackets) < last and x <= hi_limit + step:
            fx = f(x)
            if mpmath.sign(fx) != mpmath.sign(f_prev):
                brackets.append((x_prev, x))
            x_prev, f_prev = x, fx
            x += step
        if len(brackets) < last:
            raise RuntimeError(
                f"oracle found only {len(brackets)} zeros below {hi_limit}")
        out = []
        for n in ns:
            lo, hi = (mpmath.mpf(v) for v in brackets[n - 1])
            sign_lo = mpmath.sign(f(lo))
            for _ in range(200):
                mid = (lo + hi) / 2
                if mid == lo or mid == hi:
                    break           # the bracket no longer moves
                if mpmath.sign(f(mid)) == sign_lo:
                    lo = mid
                else:
                    hi = mid
            out.append(float((lo + hi) / 2))
    return out


def mp_bessel_zero(nu, n, dps=30):
    """n-th positive zero of J_nu (see mp_bessel_zeros)."""
    return mp_bessel_zeros(nu, [n], dps)[0]


def sine_series_heat_kernel(t, x, y, terms=200):
    """Dirichlet heat kernel oracle at nu = 1/2 via direct sine summation."""
    total = 0.0
    for n in range(1, terms + 1):
        total += 2.0 * math.exp(-t * (n * math.pi) ** 2) \
            * math.sin(n * math.pi * x) * math.sin(n * math.pi * y)
    return total / (x * y)


def images_free_kernel(t, x, y):
    """Method-of-images closed form of the free kernel at nu = 1/2."""
    return (math.exp(-(x - y) ** 2 / (4.0 * t))
            - math.exp(-(x + y) ** 2 / (4.0 * t))) \
        / (x * y * math.sqrt(4.0 * math.pi * t))


def decreasing_times(rng, size, lo=1e-3, hi=10.0):
    ts = np.sort(rng.uniform(lo, hi, size=size))[::-1]
    return ts


def traced_peak(call):
    """call()'s result and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
