"""Reference computations written apart from fbvar.

Each function here is an oracle the benchmark checks the program against:
a rho-variation dynamic program over turning points (a different
algorithm from the program's all-pairs DP), exhaustive enumeration of
chains and of jump pairs on short sequences, and Fourier-Bessel mode
values built from scipy's Bessel routines.
"""

import itertools
from functools import lru_cache

import numpy as np


def turning_points(x):
    """Indices of the first sample, the strict local extrema and the last
    sample, with every plateau collapsed to its first index.

    For rho >= 1 some optimal chain of the rho-variation uses only these
    samples, because same-sign increments satisfy |a + b|^rho >=
    |a|^rho + |b|^rho.
    """
    x = np.asarray(x, dtype=float)
    if len(x) == 0:
        return np.zeros(0, dtype=int)
    pos = np.concatenate(([0], np.nonzero(np.diff(x))[0] + 1))
    y = x[pos]
    d = np.diff(y)
    inner = np.nonzero(d[:-1] * d[1:] < 0.0)[0] + 1
    keep = np.concatenate(([0], inner, [len(y) - 1])) if len(y) > 1 else [0]
    return pos[np.asarray(keep, dtype=int)]


def turning_counts(values):
    """Length of the turning-point sequence of every column of a [T, ...]
    array: the number of monotone runs plus one (1 for a constant column)."""
    v = np.asarray(values, dtype=float)
    v = v.reshape(v.shape[0], int(np.prod(v.shape[1:])))
    if v.shape[0] < 2:
        return np.ones(v.shape[1], dtype=int)
    s = np.sign(np.diff(v, axis=0))
    rows = np.arange(s.shape[0])[:, None]
    last = np.maximum.accumulate(np.where(s != 0.0, rows, 0), axis=0)
    filled = np.take_along_axis(s, last, axis=0)
    prev = np.vstack([np.zeros((1, s.shape[1])), filled[:-1]])
    runs = np.count_nonzero((filled != 0.0) & (filled != prev), axis=0)
    return runs + 1


def rho_variation(x, rho):
    """Exact rho-variation of one sequence."""
    return float(rho_variation_columns(np.asarray(x, dtype=float)[:, None], rho)[0])


def rho_variation_columns(values, rho):
    """Exact rho-variation of every column of a [T, ...] array.

    Each column is cut to its turning points and padded to a common length
    by repeating its last value (a zero increment, which no chain gains
    from); the DP best[i] = max(0, max_{j<i} best[j] + |y_i - y_j|^rho) then
    runs over all columns at once.
    """
    v = np.asarray(values, dtype=float)
    flat = v.reshape(v.shape[0], int(np.prod(v.shape[1:])))
    if flat.shape[0] < 2:
        return np.zeros(v.shape[1:])
    cuts = [flat[turning_points(col), k] for k, col in enumerate(flat.T)]
    y = np.empty((max(len(c) for c in cuts), flat.shape[1]))
    for k, cut in enumerate(cuts):
        y[:len(cut), k] = cut
        y[len(cut):, k] = cut[-1]
    best = np.zeros_like(y)
    for i in range(1, len(y)):
        best[i] = np.maximum(0.0, np.max(best[:i] + np.abs(y[i] - y[:i]) ** rho, axis=0))
    return (best.max(axis=0) ** (1.0 / rho)).reshape(v.shape[1:])


def brute_rho_variation(x, rho):
    """Max over every chain of at least two samples of sum |increment|^rho,
    to the power 1/rho; exponential in len(x)."""
    x = [float(v) for v in x]
    best = 0.0
    for size in range(2, len(x) + 1):
        for chain in itertools.combinations(x, size):
            best = max(best, sum(abs(b - a) ** rho
                                 for a, b in zip(chain[:-1], chain[1:])))
    return best ** (1.0 / rho)


def brute_jump_count(x, lam):
    """Largest number of pairs s_1 < t_1 <= s_2 < t_2 <= ... with
    |x(t_k) - x(s_k)| > lam, by trying every pair start and end."""
    g = tuple(float(v) for v in x)

    @lru_cache(maxsize=None)
    def best_from(i):
        if i >= len(g) - 1:
            return 0
        best = best_from(i + 1)
        for t in range(i + 1, len(g)):
            if abs(g[t] - g[i]) > lam:
                best = max(best, 1 + best_from(t))
        return best

    return best_from(0)


def scipy_phi_table(nu, n_modes, x):
    """[n_modes, len(x)] table of phi_n(x) = d_n sqrt(lam_n) J_nu(lam_n x) x^-nu
    for integer nu, with zeros and Bessel values from scipy."""
    from scipy.special import jn_zeros, jv
    lam = jn_zeros(int(nu), n_modes)
    d = np.sqrt(2.0) / np.abs(np.sqrt(lam) * jv(nu + 1, lam))
    x = np.asarray(x, dtype=float)
    return (d * np.sqrt(lam))[:, None] * jv(nu, lam[:, None] * x[None, :]) \
        * x[None, :] ** (-float(nu)), lam
