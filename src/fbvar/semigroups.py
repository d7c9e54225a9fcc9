"""Heat and Poisson semigroups for both eigenfunction families.

The heat flow acts on coefficients as exp(-t lambda_n^2) and the Poisson
flow as exp(-t lambda_n); the latter is also the subordination integral

    P_t = (t / (2 sqrt(pi))) int_0^oo exp(-t^2/(4u)) u^(-3/2) W_u du,

computed here after the substitution v = t^2 / (4u), which turns the
integrand into a Gauss-type profile exp(-v) v^(-1/2) with no endpoint
singularity left.

Weyl fractional derivatives in t act per mode as
(-1)^(m+1) lambda^beta exp(-t lambda), m = floor(beta) + 1, and the family
t^beta d_t^beta P_t is realized by those multipliers.  The defining
s-integral is also evaluated directly (graded quadrature) so the two
routes can be checked against each other.

Kernel series are truncated at n_modes with an explicit absolute tail
certificate.  kernel_sums forms every truncated series
sum_n m_n(t) a_n(x) b_n(y) of the package and raises KernelTruncationError
below the certified time threshold t_min instead of silently returning an
unresolved sum.  Derivative tables and the Weyl beta > 0 families are held
to the kernel's own t_min; their tails are not certified separately.
"""

import math

import numpy as np

from . import bessel
from .grid import composite_rule, sorted_unique
from .spectral import mode_values


# absolute tail of a truncated kernel series that certifies a time
_TAIL_TOL = 1e-10
# lower end of the subordination integral in v = t^2 / (4u)
_V_LO = 1e-8
# cells and Gauss points of the Weyl s-integral
_WEYL_CELLS = 40
_WEYL_POINTS = 10
# relative multiplier floor and block size of the mode cut (_mode_cuts)
_CUT_LOG = 45.0
_CUT_BLOCK = 64
# least column block of a reduced mode_sums call: narrow products can
# take OpenBLAS's small-matrix path, which sums in another order (on
# OpenBLAS 0.3.31, blocks of 32 columns moved atom fields by 2.4e-15
# relative against whole-grid products; 64 and 128 moved no bit)
_COLUMN_BLOCK = 128
# floats of a reduced mode_sums call's stacked products, and of each
# [times, functions, columns] block it hands on.  With atoms' 201 times at
# 512 modes (sum_t K(t) = 53,632) a chunk is 4 functions, and every
# product keeps M N K above 10^6, where OpenBLAS 0.3.31 leaves its
# small-matrix path; at 2^17 a chunk is 2 functions and a third of the
# products take that path.  Each chunk reads the table once more: at
# 2,048 modes a chunk is one function, and atoms --nu 12 --n 2048 took
# 1.8 to 2.1 times as long as with every function in one chunk (10.2 s
# against 4.9 s, 10.8 s against 6.0 s; 2 vCPUs)
_SUM_BUDGET = 1 << 18
# smallest normal float: mode_sums zeroes products below it
_TINY = np.finfo(float).tiny


class KernelTruncationError(RuntimeError):
    """Requested time below the certified resolution of the truncated series."""

    def __init__(self, t, t_min, bound, n_modes):
        self.t = t
        self.t_min = t_min
        self.bound = bound
        self.n_modes = n_modes
        super().__init__(
            f"kernel series with {n_modes} modes is only certified for "
            f"t >= {t_min:.6g} (tail bound {bound:.3g} at t={t:.6g}); increase N")


def log_times(t_lo, t_hi, count, include=()):
    """Strictly decreasing array of `count` log-spaced times from t_hi down
    to t_lo, with the times in `include` merged in."""
    ts = np.append(np.geomspace(t_lo, t_hi, int(count)), include)
    return sorted_unique(ts)[::-1]


def _weyl_order(beta):
    """(m, sign) of the Weyl order beta >= 0: m = floor(beta) + 1, so
    m - 1 <= beta < m, and d_t^beta e^(-lam t) = sign lam^beta e^(-lam t)
    with sign = (-1)^(m+1)."""
    if not beta >= 0.0:
        raise ValueError("fractional order must be >= 0")
    m = int(math.floor(beta)) + 1
    return m, -1.0 if m % 2 == 0 else 1.0


def t_min(basis, kind):
    """Smallest t with tail_bound(basis, t, kind) <= _TAIL_TOL."""
    lam = float(basis.zeros[-1])
    need = (basis.nu + 1.5) * math.log(lam) + math.log(1.0 / _TAIL_TOL)
    return max(need, 0.0) / (lam ** 2 if kind == "heat" else lam)


def tail_bound(basis, t, kind):
    """exp(-t lam_N^2) lam_N^(nu + 3/2) for "heat", exp(-t lam_N) lam_N^(nu + 3/2)
    for "poisson": the absolute tail of the kernel series truncated at N."""
    lam = float(basis.zeros[-1])
    rate = t * lam * lam if kind == "heat" else t * lam
    return math.exp(-rate) * lam ** (basis.nu + 1.5)


def _check_kernel_time(basis, t, kind):
    t = float(t)
    if t <= 0.0:
        raise ValueError("time must be positive")
    limit = t_min(basis, kind)
    if t < limit:
        raise KernelTruncationError(t, limit, tail_bound(basis, t, kind),
                                    basis.n_modes)
    return t


def heat_multipliers(basis, times):
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    return np.exp(-ts[:, None] * basis.zeros[None, :] ** 2)


def poisson_multipliers(basis, times, beta=0.0):
    """Multiplier table for t^beta d_t^beta P_t; beta = 0 is plain Poisson."""
    b = float(beta)
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    lam = basis.zeros[None, :]
    base = np.exp(-ts[:, None] * lam)
    if b == 0.0:
        return base
    return _weyl_order(b)[1] * (ts[:, None] * lam) ** b * base


def _multipliers(basis, times, kind, beta):
    if kind == "heat":
        return heat_multipliers(basis, times)
    if kind == "poisson":
        return poisson_multipliers(basis, times, beta)
    raise ValueError(f"unknown kind {kind!r}")


def _mode_cuts(mag):
    """Modes summed per row of a table of |m_n|: through its last |m_n| >=
    e^-45 max_n |m_n|, rounded up to a multiple of _CUT_BLOCK, capped at N."""
    keep = mag >= math.exp(-_CUT_LOG) * mag.max(axis=1, keepdims=True)
    count = mag.shape[1] - np.argmax(keep[:, ::-1], axis=1)
    return np.minimum(-(-count // _CUT_BLOCK) * _CUT_BLOCK, mag.shape[1])


def _even_parts(size, most):
    """Edges of the fewest parts of range(size), of at most `most` (>= 1)
    each and sizes that differ by at most one, and the largest size."""
    parts = max(1, -(-size // max(1, most)))
    return [size * k // parts for k in range(parts + 1)], -(-size // parts)


def mode_sums(mults, table, coeffs, reduce=None):
    """sum_n mults[t, n] coeffs[a, n] table[n, p] for a coefficient vector
    (A = 1) or an [A, N] stack of them, row t summed over its first
    K = _mode_cuts(|mults|)[t] modes only: a function of that row of
    multipliers alone.  Products mults[t, n] coeffs[a, n] below the
    smallest normal float, tiny = np.finfo(float).tiny, in magnitude count
    as 0.  The dropped part of an entry is therefore at most
    e^-45 max_n |mults[t, n]| sum_{n >= K} |coeffs[a, n] table[n, p]| +
    tiny sum_{n < K} |table[n, p]|.

    Consecutive rows with equal K form one group, whose products are formed
    once for all functions in flight, t-major, and meet each block of
    columns of the table in one product.  Without `reduce` every function
    is in flight and the block is the whole table: the [times, A, P]
    result, [times, P] for one vector.  With it, the functions go in
    chunks, in order, and each chunk's columns in blocks, left to right;
    reduce(fn, cols, block) gets each [times, n, w] block, fn and cols its
    slices of the functions and columns, and nothing is returned; the next
    block overwrites it.  The chunks are the fewest of near-equal size
    whose products, n sum_t K(t) floats, and whose blocks of
    2 _COLUMN_BLOCK columns fit in _SUM_BUDGET; the blocks are the fewest
    of near-equal width with T n w <= _SUM_BUDGET.  Whatever the budget, a
    chunk may hold one function and a block _COLUMN_BLOCK columns.  An
    entry does not depend on the other functions of the stack, the chunks
    or the blocks, beyond rounding."""
    stack = np.atleast_2d(coeffs)
    cuts = _mode_cuts(np.abs(mults))
    starts = np.flatnonzero(np.diff(cuts, prepend=-1))
    spans = list(zip(starts, [*starts[1:], len(cuts)]))
    T, A, P = len(mults), len(stack), table.shape[1]
    chunks, n = _even_parts(A, A if reduce is None else _SUM_BUDGET // max(
        int(cuts.sum()), 2 * T * _COLUMN_BLOCK))
    blocks, w = _even_parts(P, P if reduce is None else max(
        _COLUMN_BLOCK, _SUM_BUDGET // (T * n)))
    buffer = np.empty(T * n * w)     # holds every block in turn
    for a0, a1 in zip(chunks[:-1], chunks[1:]):
        groups = []
        for r0, r1 in spans:
            k = cuts[r0]
            scaled = (mults[r0:r1, None, :k] * stack[a0:a1, :k]).reshape(-1, k)
            # a subnormal operand costs a microcode assist in every
            # multiply-add of the products that reads it; the rounded-up
            # cuts keep some, such as e^-t lambda with t lambda in
            # [708, 745], inside a cut.  Two comparisons find them with
            # boolean temporaries only, where |scaled| would copy the floats
            scaled[(scaled < _TINY) & (scaled > -_TINY)] = 0.0
            groups.append((r0, r1, scaled))
        for c0, c1 in zip(blocks[:-1], blocks[1:]):
            block = buffer[:T * (a1 - a0) * (c1 - c0)].reshape(T, a1 - a0, -1)
            for r0, r1, scaled in groups:
                np.matmul(scaled, table[:scaled.shape[1], c0:c1],
                          out=block[r0:r1].reshape(len(scaled), -1))
            if reduce is None:
                return block if np.ndim(coeffs) == 2 else block[:, 0]
            reduce(slice(a0, a1), slice(c0, c1), block)
        del groups, scaled  # freed before the next chunk's are formed


def kernel_sums(basis, times, products, kind, beta):
    """[times, P] table of sum_n m_n(t) products[n, p], for an [n_modes, P]
    table of products a_n(x_p) b_n(y_p) of mode values or derivatives at
    paired points and m_n the heat or t^beta d_t^beta P_t multipliers,
    through mode_sums.  Raises KernelTruncationError when the smallest time
    is below t_min(basis, kind).
    """
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    _check_kernel_time(basis, float(np.min(ts)), kind)
    return mode_sums(_multipliers(basis, ts, kind, beta), products, 1.0)


def kernel_family(basis, times, x, y, kind="poisson", flavor="phi"):
    """[times, *shape] table of heat or Poisson kernel values at paired
    (x, y) arrays, a scalar counting as one point, through kernel_sums and
    its t_min refusal.  The one point evaluator: at a single time t it is
    kernel_family(basis, [t], x, y, kind, flavor)[0]."""
    xs, ys = np.broadcast_arrays(np.atleast_1d(np.asarray(x, dtype=float)),
                                 np.atleast_1d(np.asarray(y, dtype=float)))
    ex, ey = np.split(mode_values(basis, np.concatenate([xs.ravel(), ys.ravel()]),
                                  flavor), 2, axis=1)
    vals = kernel_sums(basis, times, ex * ey, kind, 0.0)
    return vals.reshape((len(vals),) + xs.shape)


def apply_family(basis, c, times, grid, beta=0.0):
    """[times, nodes] array of t^beta d_t^beta P_t f over times x grid
    from coefficients of f.

    Operator path on the first n_modes eigenfunctions, for every t > 0,
    through mode_sums: each time leaves out the modes past its cut.
    """
    c.check_basis(basis)
    mults = poisson_multipliers(basis, times, beta)
    return mode_sums(mults, basis.matrix(grid, c.flavor), c.values)


def maximal_function(values):
    """sup over the sampled times, axis 0 of a [times, ...] table of
    T_t f, of |T_t f| at each node."""
    return np.max(np.abs(values), axis=0)


# ---------------------------------------------------------------------------
# subordination


def subordination_poisson_kernel(basis, t, x, y):
    """Poisson kernel via the heat kernel and the subordination integral.

    After v = t^2/(4u):  P_t = pi^(-1/2) int exp(-v) v^(-1/2) W_{t^2/(4v)} dv.
    The v-range is clamped so every needed heat time stays above the
    certified heat threshold; the discarded tail is exponentially small.
    """
    t = float(t)
    if t <= 0.0:
        raise ValueError("time must be positive")
    u_min = t_min(basis, "heat")
    v_hi = t * t / (4.0 * u_min)
    if v_hi < 30.0:
        raise KernelTruncationError(t, 2.0 * math.sqrt(30.0 * u_min),
                                    math.exp(-v_hi), basis.n_modes)
    v_hi = min(v_hi, 120.0)
    # 44 cells of 8 Gauss points, uniform in log v; dv = v d(log v)
    s, ws = composite_rule(np.linspace(math.log(_V_LO), math.log(v_hi), 45), 8)
    v = np.exp(s)
    w = ws * v
    u = t * t / (4.0 * v)
    fam = kernel_family(basis, u, x, y, kind="heat")
    integrand = ((np.exp(-v) / np.sqrt(v) / math.sqrt(math.pi))[:, None]
                 * fam.reshape(len(u), -1))
    return (w[:, None] * integrand).sum(axis=0).reshape(fam.shape[1:])


# ---------------------------------------------------------------------------
# Weyl derivative, integral route


def weyl_integral_check(beta, lam, t):
    """Sign-normalized Weyl derivative of e^(-lam s) at s = t, by quadrature.

    Evaluates -Gamma(m - beta)^(-1) int_0^oo h^(m)(t + s) s^(m - beta - 1) ds
    for h = exp(-lam .), then multiplies by (-1)^(m+1); the result must equal
    lam^beta e^(-lam t).  The s^(m-beta-1) endpoint is absorbed by the
    substitution w = s^(m-beta), whose mesh is graded exactly like the
    integrand's singularity; the tail is cut where e^(-lam s) underflows
    the target accuracy.
    """
    beta = float(beta)
    m, sign = _weyl_order(beta)
    lam = float(lam)
    t = float(t)
    if lam <= 0.0 or t < 0.0:
        raise ValueError("need lam > 0 and t >= 0")
    q = m - beta  # in (0, 1]
    s_max = 60.0 / lam
    w_max = s_max ** q
    # geometric cells toward w = 0 keep the w^(1/q) grading sharp
    edges = np.concatenate(
        ([0.0], w_max * 2.0 ** np.arange(-(_WEYL_CELLS - 1), 1.0)))
    wn, ww = composite_rule(edges, _WEYL_POINTS)
    s = wn ** (1.0 / q)
    integrand = np.exp(-lam * s)
    if integrand[-1] > 1e-14 * integrand.max():
        raise RuntimeError("Weyl integral tail did not decay; divergent input?")
    val = float((ww * integrand).sum()) / q  # = int e^(-lam s) s^(q-1) ds
    # h^(m)(t+s) = (-lam)^m e^(-lam t) e^(-lam s)
    derivative = -((-lam) ** m) * math.exp(-lam * t) * val / math.gamma(q)
    return sign * derivative


# ---------------------------------------------------------------------------
# auxiliary free-space kernel


def free_heat_kernel(nu, t, x, y):
    """(xy)^-nu / (2t) I_nu(xy / 2t) exp(-(x^2+y^2)/(4t)), overflow-safe.

    Written through the scaled modified Bessel function so the exponent
    collapses to -(x - y)^2 / (4t).  t, x and y broadcast against each other.
    """
    nu = float(nu)
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("time must be positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = x * y / (2.0 * t)
    scaled = bessel.bessel_i_scaled(nu, w)
    out = (x * y) ** (-nu) / (2.0 * t) * scaled * np.exp(-((x - y) ** 2) / (4.0 * t))
    if np.ndim(out) == 0:
        return float(out)
    return out
