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
certificate; evaluation below the certified time threshold raises
KernelTruncationError instead of silently returning an unresolved sum.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import bessel
from .grid import GridFunction, composite_rule
from .spectral import apply_operator_diagonal, mode_values


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
        ts = np.unique(ts)[::-1]
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


def _beta_value(beta):
    return beta.beta if isinstance(beta, FractionalOrder) else float(beta)


def t_min(basis, kind, tol=1e-10):
    """Smallest t with tail_bound(basis, t, kind) <= tol."""
    lam = float(basis.zeros[-1])
    need = (basis.nu + 1.5) * math.log(lam) + math.log(1.0 / tol)
    return max(need, 0.0) / (lam ** 2 if kind == "heat" else lam)


def tail_bound(basis, t, kind):
    """exp(-t lam_N^2) lam_N^(nu + 3/2) for "heat", exp(-t lam_N) lam_N^(nu + 3/2)
    for "poisson": the absolute tail of the kernel series truncated at N."""
    lam = float(basis.zeros[-1])
    rate = t * lam * lam if kind == "heat" else t * lam
    return math.exp(-rate) * lam ** (basis.nu + 1.5)


def _check_kernel_time(basis, t, kind, tol=1e-10):
    t = float(t)
    if t <= 0.0:
        raise ValueError("time must be positive")
    limit = t_min(basis, kind, tol)
    if t < limit:
        raise KernelTruncationError(t, limit, tail_bound(basis, t, kind),
                                    basis.n_modes)
    return t


def heat_multipliers(basis, times):
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    return np.exp(-ts[:, None] * basis.zeros[None, :] ** 2)


def poisson_multipliers(basis, times, beta=0.0):
    """Multiplier table for t^beta d_t^beta P_t; beta = 0 is plain Poisson."""
    b = _beta_value(beta)
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


def _kernel_values(basis, mults, x, y, flavor):
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    xs, ys = np.broadcast_arrays(xs, ys)
    ex, ey = np.split(mode_values(basis, np.concatenate([xs.ravel(), ys.ravel()]),
                                  flavor), 2, axis=1)
    vals = np.einsum("tn,np->tp", mults, ex * ey)
    return vals, xs.shape


def _pointwise(out, x, y):
    """A float for scalar x and y, else the array of kernel values."""
    if np.isscalar(x) and np.isscalar(y):
        return float(out.ravel()[0])
    return out


def kernel_family(basis, times, x, y, kind="poisson", beta=0.0, flavor="phi",
                  tol=1e-10):
    """[times, points] table of kernel values at paired (x, y) arrays.

    Raises KernelTruncationError when the smallest time is below the
    certified threshold t_min of the truncated series.
    """
    ts = np.asarray(times, dtype=float)
    _check_kernel_time(basis, float(np.min(ts)), kind, tol)
    vals, shape = _kernel_values(basis, _multipliers(basis, ts, kind, beta),
                                 x, y, flavor)
    return vals.reshape((len(ts),) + shape)


def heat_kernel(basis, t, x, y, flavor="phi", tol=1e-10):
    """W_t(x, y) (flavor "phi") or the conjugated kernel (flavor "psi")."""
    return _pointwise(kernel_family(basis, [t], x, y, "heat", flavor=flavor,
                                    tol=tol)[0], x, y)


def poisson_kernel(basis, t, x, y, beta=0.0, flavor="phi", tol=1e-10):
    """t^beta d_t^beta P_t(x, y); beta = 0 is the Poisson kernel itself."""
    return _pointwise(kernel_family(basis, [t], x, y, "poisson", beta, flavor,
                                    tol)[0], x, y)


def apply_family(basis, c, time_grid, grid, kind="poisson", beta=0.0):
    """FamilySamples of T_t f over time_grid x grid from coefficients of f.

    Operator path: exact on the span of the first n_modes eigenfunctions,
    for every t > 0 (no series tail is involved).
    """
    c.check_basis(basis)
    mults = _multipliers(basis, time_grid.times, kind, beta)
    mat = basis.matrix(grid, c.flavor)
    values = (mults * c.values[None, :]) @ mat
    return FamilySamples(time_grid, grid, values)


def maximal_function(samples):
    """Per-node sup over the sampled times of |T_t f|."""
    return GridFunction(samples.grid, np.max(np.abs(samples.values), axis=0))


# ---------------------------------------------------------------------------
# subordination


def _log_gauss_nodes(lo, hi, n_cells=44, p=8):
    s, ws = composite_rule(np.linspace(math.log(lo), math.log(hi), n_cells + 1), p)
    v = np.exp(s)
    return v, ws * v  # weights already include dv = v ds


def subordination_poisson_kernel(basis, t, x, y, flavor="phi", v_lo=1e-8,
                                 tol=1e-10):
    """Poisson kernel via the heat kernel and the subordination integral.

    After v = t^2/(4u):  P_t = pi^(-1/2) int exp(-v) v^(-1/2) W_{t^2/(4v)} dv.
    The v-range is clamped so every needed heat time stays above the
    certified heat threshold; the discarded tail is exponentially small.
    """
    t = float(t)
    if t <= 0.0:
        raise ValueError("time must be positive")
    u_min = t_min(basis, "heat", tol)
    v_hi = t * t / (4.0 * u_min)
    if v_hi < 30.0:
        raise KernelTruncationError(t, 2.0 * math.sqrt(30.0 * u_min),
                                    math.exp(-v_hi), basis.n_modes)
    v_hi = min(v_hi, 120.0)
    v, w = _log_gauss_nodes(v_lo, v_hi)
    u = t * t / (4.0 * v)
    mults = heat_multipliers(basis, u)
    vals, shape = _kernel_values(basis, mults, x, y, flavor)
    integrand = (np.exp(-v) / np.sqrt(v) / math.sqrt(math.pi))[:, None] * vals
    return _pointwise((w[:, None] * integrand).sum(axis=0).reshape(shape), x, y)


def subordination_factor(lam, t, v_lo=1e-8, v_hi=120.0):
    """Scalar subordination identity: the quadrature proxy for e^(-lam t)."""
    v, w = _log_gauss_nodes(v_lo, v_hi)
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    t = float(t)
    vals = np.exp(-v[:, None] - (lam[None, :] * t) ** 2 / (4.0 * v[:, None]))
    out = (w[:, None] * vals / np.sqrt(v)[:, None]).sum(axis=0) / math.sqrt(math.pi)
    return float(out[0]) if out.size == 1 else out


def subordination_poisson_apply(basis, t, c):
    """Poisson action on coefficients with subordination-quadrature multipliers."""
    if t <= 0.0:
        raise ValueError("time must be positive")
    c.check_basis(basis)
    mults = subordination_factor(basis.zeros, t)
    return apply_operator_diagonal(c, np.atleast_1d(mults))


# ---------------------------------------------------------------------------
# Weyl derivative, integral route


def weyl_integral_check(beta, lam, t, n_cells=40, p=10):
    """Sign-normalized Weyl derivative of e^(-lam s) at s = t, by quadrature.

    Evaluates -Gamma(m - beta)^(-1) int_0^oo h^(m)(t + s) s^(m - beta - 1) ds
    for h = exp(-lam .), then multiplies by (-1)^(m+1); the result must equal
    lam^beta e^(-lam t).  The s^(m-beta-1) endpoint is absorbed by the
    substitution w = s^(m-beta), whose mesh is graded exactly like the
    integrand's singularity; the tail is cut where e^(-lam s) underflows
    the target accuracy.
    """
    order = FractionalOrder(_beta_value(beta))
    lam = float(lam)
    t = float(t)
    if lam <= 0.0 or t < 0.0:
        raise ValueError("need lam > 0 and t >= 0")
    m = order.m
    q = m - order.beta  # in (0, 1]
    s_max = 60.0 / lam
    w_max = s_max ** q
    # geometric cells toward w = 0 keep the w^(1/q) grading sharp
    edges = np.concatenate(([0.0], w_max * 2.0 ** np.arange(-(n_cells - 1), 1.0)))
    wn, ww = composite_rule(edges, p)
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
    collapses to -(x - y)^2 / (4t).
    """
    nu = float(nu)
    t = float(t)
    if t <= 0.0:
        raise ValueError("time must be positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = x * y / (2.0 * t)
    scaled = bessel.bessel_i(nu, w, scaled=True)
    out = (x * y) ** (-nu) / (2.0 * t) * scaled * np.exp(-((x - y) ** 2) / (4.0 * t))
    if np.ndim(out) == 0:
        return float(out)
    return out
