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
from dataclasses import dataclass

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
# smallest column block of a reduced mode_sums call: narrow products can
# take OpenBLAS's small-matrix path, which sums in another order (on
# OpenBLAS 0.3.31, blocks of 32 columns moved atom fields by 2.4e-15
# relative against whole-grid products; 64 and 128 moved no bit)
_COLUMN_BLOCK = 128
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


@dataclass(eq=False)
class TimeGrid:
    """Strictly decreasing positive times t_1 > t_2 > ... > t_M."""

    times: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if len(self.times) == 0 or np.any(self.times <= 0.0):
            raise ValueError("times must be positive")
        if np.any(np.diff(self.times) >= 0.0):
            raise ValueError("times must be strictly decreasing")

    @property
    def size(self):
        return len(self.times)

    @classmethod
    def log_spaced(cls, t_min, t_max, count, include=()):
        ts = np.geomspace(t_min, t_max, int(count))
        if include:
            ts = np.concatenate([ts, np.asarray(include, dtype=float)])
        ts = sorted_unique(ts)[::-1]
        return cls(ts)


@dataclass(eq=False)
class FamilySamples:
    """Matrix of T_t f(x) over a time grid and a space grid."""

    time_grid: TimeGrid
    grid: object
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.time_grid.size, self.grid.size):
            raise ValueError("values must have shape (times, nodes)")


@dataclass(frozen=True)
class FractionalOrder:
    """Weyl order beta >= 0 with m = floor(beta) + 1, so m - 1 <= beta < m."""

    beta: float

    def __post_init__(self):
        if not self.beta >= 0.0:
            raise ValueError("fractional order must be >= 0")

    @property
    def m(self):
        return int(math.floor(self.beta)) + 1

    @property
    def sign(self):
        # d_t^beta e^(-lam t) = (-1)^(m+1) lam^beta e^(-lam t)
        return -1.0 if self.m % 2 == 0 else 1.0


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
    return FractionalOrder(b).sign * (ts[:, None] * lam) ** b * base


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
    once for all A functions, t-major, and meet each block of columns of
    the table in one product.  Without `reduce` the block is the whole
    table: the [times, A, P] result, [times, P] for one vector.  With it,
    each block of w columns, w the largest multiple of _COLUMN_BLOCK with
    A w <= P and at least _COLUMN_BLOCK, goes to reduce(cols, block) as a
    [times, A, w] array, cols its slice of the columns, and nothing is
    returned; the next block overwrites it.  An entry does not depend on
    the other functions of the stack or on the blocks, beyond rounding."""
    stack = np.atleast_2d(coeffs)
    cuts = _mode_cuts(np.abs(mults))
    starts = np.flatnonzero(np.diff(cuts, prepend=-1))
    groups = []
    for r0, r1 in zip(starts, [*starts[1:], len(cuts)]):
        k = cuts[r0]
        scaled = (mults[r0:r1, None, :k] * stack[:, :k]).reshape(-1, k)
        # a subnormal operand costs a microcode assist in every multiply-add
        # of the products that reads it; the rounded-up cuts keep some, such
        # as e^-t lambda with t lambda in [708, 745], inside a cut
        scaled[np.abs(scaled) < _TINY] = 0.0
        groups.append((r0, r1, scaled))
    T, A, P = len(mults), len(stack), table.shape[1]
    width = P if reduce is None else \
        min(P, max(_COLUMN_BLOCK, P // A // _COLUMN_BLOCK * _COLUMN_BLOCK))
    buffer = np.empty(T * A * width)     # holds every block in turn
    for c0 in range(0, P, width):
        cols = slice(c0, min(c0 + width, P))
        block = buffer[:T * A * (cols.stop - c0)].reshape(T, A, -1)
        for r0, r1, scaled in groups:
            np.matmul(scaled, table[:scaled.shape[1], cols],
                      out=block[r0:r1].reshape(len(scaled), -1))
        if reduce is None:
            return block if np.ndim(coeffs) == 2 else block[:, 0]
        reduce(cols, block)


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


def _pointwise(out, x, y):
    """A float for scalar x and y, else the array of kernel values."""
    if np.isscalar(x) and np.isscalar(y):
        return float(out.ravel()[0])
    return out


def kernel_family(basis, times, x, y, kind="poisson", flavor="phi"):
    """[times, *shape] table of heat or Poisson kernel values at paired
    (x, y) arrays, through kernel_sums and its t_min refusal."""
    xs, ys = np.broadcast_arrays(np.atleast_1d(np.asarray(x, dtype=float)),
                                 np.atleast_1d(np.asarray(y, dtype=float)))
    ex, ey = np.split(mode_values(basis, np.concatenate([xs.ravel(), ys.ravel()]),
                                  flavor), 2, axis=1)
    vals = kernel_sums(basis, times, ex * ey, kind, 0.0)
    return vals.reshape((len(vals),) + xs.shape)


def heat_kernel(basis, t, x, y, flavor="phi"):
    """W_t(x, y) (flavor "phi") or the conjugated kernel (flavor "psi")."""
    return _pointwise(kernel_family(basis, [t], x, y, "heat", flavor=flavor)[0],
                      x, y)


def poisson_kernel(basis, t, x, y):
    """The Poisson kernel P_t(x, y)."""
    return _pointwise(kernel_family(basis, [t], x, y, "poisson")[0], x, y)


def apply_family(basis, c, time_grid, grid, kind="poisson", beta=0.0):
    """FamilySamples of T_t f over time_grid x grid from coefficients of f.

    Operator path on the first n_modes eigenfunctions, for every t > 0,
    through mode_sums: each time leaves out the modes past its cut.
    """
    c.check_basis(basis)
    mults = _multipliers(basis, time_grid.times, kind, beta)
    values = mode_sums(mults, basis.matrix(grid, c.flavor), c.values)
    return FamilySamples(time_grid, grid, values)


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
    out = (w[:, None] * integrand).sum(axis=0).reshape(fam.shape[1:])
    return _pointwise(out, x, y)


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
    order = FractionalOrder(float(beta))
    lam = float(lam)
    t = float(t)
    if lam <= 0.0 or t < 0.0:
        raise ValueError("need lam > 0 and t >= 0")
    m = order.m
    q = m - order.beta  # in (0, 1]
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
    return order.sign * derivative


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
