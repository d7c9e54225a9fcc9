"""Numerical certification of the kernel estimates behind the boundedness theory.

For x != y the map t -> t^beta d_t^beta P_t(x, y) is a continuous curve
whose rho-variation norm obeys size bounds (split over three regions of
the square) and a regularity bound after one space derivative.  The same
holds for the conjugated kernel (xy)^(nu+1/2) P_t(x, y) with its own
right-hand sides.  None of the constants is pinned down analytically, so
"pass" means: the observed/bound ratio is finite on the mesh and moves by
less than a declared fraction under refinement of the time grid.

Mesh sweeps also certify the two-sided heat kernel envelope and the decay
of the space derivative of W_t.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import semigroups, variation
from .spectral import mode_values


def _by_region(x, y, lower, diagonal, upper):
    """`lower` where y <= x/2, `diagonal` where x/2 < y <= min(1, 3x/2),
    `upper` elsewhere."""
    return np.where(y <= 0.5 * x, lower,
                    np.where(y <= np.minimum(1.0, 1.5 * x), diagonal, upper))


def region(x, y):
    """Partition of the off-diagonal square: lower / diagonal / upper."""
    return str(_by_region(x, y, "lower", "diagonal", "upper"))


def size_bound_rhs(nu, x, y):
    """Right-hand side of the variation-norm size estimate, by region."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lower = x ** (-2.0 * (nu + 1.0))
    diag = (x * y) ** (-nu - 0.5) / np.abs(x - y)
    upper = y ** (-2.0 * (nu + 1.0))
    return _by_region(x, y, lower, diag, upper)


def s_size_bound_rhs(nu, x, y):
    """Size right-hand side for the conjugated kernel family."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lower = y ** (nu + 0.5) / x ** (nu + 1.5)
    diag = 1.0 / np.abs(x - y)
    upper = x ** (nu + 0.5) / y ** (nu + 1.5)
    return _by_region(x, y, lower, diag, upper)


@dataclass
class BoundReport:
    """Mesh sweep outcome: per-region max observed/bound ratios and stability."""

    check: str
    nu: float
    beta: float
    rho: float
    mesh_size: int
    region_max: dict
    refinement_delta: float
    witness: tuple
    verdict: str
    extras: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.verdict == "pass"


def default_time_grid(basis, n_points=200, t_lo=1e-3, t_hi=10.0, tol=1e-10):
    """Log-spaced kernel time grid clamped above the certified threshold."""
    lo = max(t_lo, semigroups.t_min(basis, "poisson", tol))
    return np.geomspace(lo, t_hi, int(n_points))[::-1].copy()


def mesh_points(mesh_size):
    m = int(mesh_size)
    return (np.arange(m) + 0.5) / m


def e_rho_kernel_norm(basis, beta, rho, x, y, time_grid=None, flavor="phi"):
    """Grid proxy for the variation norm of t -> t^beta d_t^beta P_t(x, y)."""
    if time_grid is None:
        time_grid = default_time_grid(basis)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    fam = semigroups.kernel_family(basis, time_grid, xs, ys,
                                   kind="poisson", beta=beta, flavor=flavor)
    out = variation.rho_variation_values(fam.reshape(len(time_grid), -1), rho)
    return float(out[0]) if np.isscalar(x) else out.reshape(xs.shape)


class _PairSweep:
    """Mode tables on the unique mesh points, reused across time grids.

    The kernel family over all mesh pairs is mults @ (mode(x_i) * mode(y_j)),
    so the Bessel evaluations happen once per point set instead of once per
    (time grid, offset) combination.
    """

    def __init__(self, basis, points, flavor, h=1e-4):
        self.basis = basis
        pts = np.concatenate([points, points + h, points - h])
        self.center, plus, minus = np.split(
            mode_values(basis, pts, flavor), 3, axis=1)
        self.deriv = (plus - minus) / (2.0 * h)

    def pair_products(self, ix, iy, offsets=None):
        if offsets not in (None, "x", "y"):
            raise ValueError(offsets)
        left = self.deriv if offsets == "x" else self.center
        right = self.deriv if offsets == "y" else self.center
        return left[:, ix] * right[:, iy]

    def norms(self, beta, rho, times, ix, iy, offsets=None):
        mults = semigroups.poisson_multipliers(self.basis, times, beta)
        fam = mults @ self.pair_products(ix, iy, offsets)
        return variation.rho_variation_values(fam, rho)


def _region_maxima(xs, ys, ratios):
    regions = _by_region(xs, ys, "lower", "diagonal", "upper")
    out = {}
    witness = None
    worst = -math.inf
    for name in ("lower", "diagonal", "upper"):
        mask = regions == name
        if not np.any(mask):
            out[name] = 0.0
            continue
        vals = ratios[mask]
        k = int(np.argmax(vals))
        out[name] = float(vals[k])
        if out[name] > worst:
            worst = out[name]
            witness = (float(xs[mask][k]), float(ys[mask][k]), out[name])
    return out, witness


def _verdict(region_max, delta, stability=0.10):
    finite = all(math.isfinite(v) for v in region_max.values())
    return "pass" if finite and delta < stability else "fail"


def _pair_indices(mesh_size, exclusion=0.02):
    """Mesh points and the index pairs (i, j) of the off-diagonal pairs:
    the band |x - y| < max(exclusion, 1/(2 m)) is removed."""
    pts = mesh_points(mesh_size)
    I, J = np.meshgrid(np.arange(mesh_size), np.arange(mesh_size),
                       indexing="ij")
    keep = np.abs(pts[I] - pts[J]) >= max(exclusion, 0.5 / mesh_size)
    return pts, I[keep], J[keep]


def _bound_sweep(check, basis, beta, rho, mesh_size, time_points, stability,
                 flavor, h, offsets, scale, extras=None):
    """The sweep behind the bound checks: at each off-diagonal mesh pair the
    sum over `offsets` of its variation norms, scaled by scale(obs, x, y)
    and maximized per region; the delta compares time_points with
    time_points // 2 times.  extras(observed, x, y) adds report entries."""
    pts, ix, iy = _pair_indices(mesh_size)
    xs, ys = pts[ix], pts[iy]
    sweep = _PairSweep(basis, pts, flavor, h)

    def observed(offs, n_times=time_points):
        times = default_time_grid(basis, n_times)
        return sum(sweep.norms(beta, rho, times, ix, iy, o) for o in offs)

    obs = observed(offsets)
    region_max, witness = _region_maxima(xs, ys, scale(obs, xs, ys))
    obs_c = observed(offsets, time_points // 2)
    with np.errstate(invalid="ignore", divide="ignore"):
        delta = float(np.max(np.abs(obs - obs_c) / np.maximum(obs, 1e-300)))
    report = BoundReport(check, basis.nu, float(beta), float(rho),
                         int(mesh_size), region_max, delta, witness,
                         _verdict(region_max, delta, stability))
    if extras is not None:
        report.extras.update(extras(observed, xs, ys))
    return report


def size_bound_check(basis, beta, rho, mesh_size=30, time_points=200,
                     stability=0.10):
    """Observed variation norms against the regional size bounds."""
    return _bound_sweep(
        "size", basis, beta, rho, mesh_size, time_points, stability, "phi",
        1e-4, (None,), lambda obs, x, y: obs / size_bound_rhs(basis.nu, x, y))


def regularity_bound_check(basis, beta, rho, mesh_size=20, time_points=200,
                           h=1e-4, stability=0.10):
    """(variation norm of d_x kernel + d_y kernel) * |x-y|^2 (xy)^(nu+1/2)."""
    return _bound_sweep(
        "regularity", basis, beta, rho, mesh_size, time_points, stability,
        "phi", h, ("x", "y"),
        lambda obs, x, y: obs * (x - y) ** 2 * (x * y) ** (basis.nu + 0.5))


def s_nu_bound_check(basis, beta, rho, mesh_size=30, time_points=200,
                     h=1e-4, stability=0.10):
    """Size and regularity sweep for the conjugated kernel family."""
    def regularity(observed_at, x, y):
        reg = observed_at(("x", "y"))
        return {"regularity_max": float(np.max(reg * (x - y) ** 2))}

    return _bound_sweep(
        "s_nu", basis, beta, rho, mesh_size, time_points, stability, "psi", h,
        (None,), lambda obs, x, y: obs / s_size_bound_rhs(basis.nu, x, y),
        regularity)


def heat_envelope_report(basis, times=(0.05, 0.1, 0.5, 1.0, 2.0),
                         mesh_size=20, refine_factor=1.4):
    """Two-sided heat kernel envelope: W_t over the explicit comparison profile.

    Returns the observed [c, C] spread of the ratio and its change under a
    mesh refinement by `refine_factor`.  Refinement densifies the base
    mesh's window [1/(2m), 1 - 1/(2m)] without extending it, so the delta
    measures discretization convergence rather than the slow drift of the
    sampled extrema toward the corners of the square.
    """
    margin = 0.5 / mesh_size

    def spread(m):
        pts = np.linspace(margin, 1.0 - margin, m)
        M = mode_values(basis, pts)
        lam1 = float(basis.zeros[0])
        x = np.repeat(pts, m)
        y = np.tile(pts, m)
        lo, hi = math.inf, -math.inf
        for t in times:
            mult = semigroups.heat_multipliers(basis, [t])[0]
            W = np.einsum("n,ni,nj->ij", mult, M, M).ravel()
            profile = ((1.0 + t) ** (basis.nu + 2.0)
                       / (t + x * y) ** (basis.nu + 0.5)
                       * np.minimum(1.0, (1.0 - x) * (1.0 - y) / t)
                       / math.sqrt(t)
                       * np.exp(-(x - y) ** 2 / (4.0 * t) - lam1 ** 2 * t))
            ratio = W / profile
            lo = min(lo, float(np.min(ratio)))
            hi = max(hi, float(np.max(ratio)))
        return lo, hi

    c0, C0 = spread(mesh_size)
    c1, C1 = spread(int(round(mesh_size * refine_factor)))
    env0, env1 = C0 / c0, C1 / c1
    delta = abs(env1 - env0) / env0
    return {
        "nu": basis.nu, "c": c0, "C": C0, "envelope": env0,
        "envelope_refined": env1, "refinement_delta": delta,
        "positive": c0 > 0.0,
        "verdict": "pass" if (c0 > 0.0 and math.isfinite(env0)
                              and delta < 0.10) else "fail",
    }


def heat_gradient_report(basis, times=(0.05, 0.1, 0.5, 1.0, 2.0),
                         mesh_size=20, h=1e-4, c_gauss=0.125):
    """Decay of d_x W_t: the product |d_x W| (xy)^(nu+1/2) t e^{c (x-y)^2 / t}.

    The Gaussian constant is not specified by the estimate; c_gauss = 1/8
    keeps the probe on the safe side of the expected 1/4 rate.
    """
    pts = mesh_points(mesh_size)
    sweep = _PairSweep(basis, pts, "phi", h)
    M, Md = sweep.center, sweep.deriv
    x = np.repeat(pts, mesh_size)
    y = np.tile(pts, mesh_size)
    worst = 0.0
    for t in times:
        mult = semigroups.heat_multipliers(basis, [t])[0]
        grad = np.einsum("n,ni,nj->ij", mult, Md, M).ravel()
        prod = np.abs(grad) * (x * y) ** (basis.nu + 0.5) * t \
            * np.exp(c_gauss * (x - y) ** 2 / t)
        worst = max(worst, float(np.max(prod)))
    return {"nu": basis.nu, "max_product": worst, "c_gauss": c_gauss,
            "verdict": "pass" if math.isfinite(worst) else "fail"}


def free_kernel_comparison(basis, mesh_size=20, times=None, refine_factor=1.5):
    """Fitted constant in |W_t - free-space kernel| <= C t near the left edge.

    The sweep covers the square (0, 0.525...)^2, i.e. the slightly inflated
    left half interval, for t in (0, 1].
    """
    if times is None:
        times = np.geomspace(0.05, 1.0, 12)
    edge = 0.25 + 0.25 * 1.05 ** 2

    def fit(m):
        pts = edge * (np.arange(m) + 0.5) / m
        M = mode_values(basis, pts)
        x = np.repeat(pts, m)
        y = np.tile(pts, m)
        best = 0.0
        for t in times:
            mult = semigroups.heat_multipliers(basis, [t])[0]
            W = np.einsum("n,ni,nj->ij", mult, M, M).ravel()
            F = semigroups.free_heat_kernel(basis.nu, t, x, y)
            best = max(best, float(np.max(np.abs(W - F))) / t)
        return best

    C0 = fit(mesh_size)
    C1 = fit(int(round(mesh_size * refine_factor)))
    delta = abs(C1 - C0) / max(C0, 1e-300)
    return {"nu": basis.nu, "C": C0, "C_refined": C1,
            "refinement_delta": delta, "edge": edge,
            "verdict": "pass" if math.isfinite(C0) and delta < 0.25 else "fail"}
