"""Numerical certification of the kernel estimates behind the boundedness theory.

For x != y the map t -> t^beta d_t^beta P_t(x, y) is a continuous curve
whose rho-variation norm obeys size bounds (split over three regions of
the square) and a regularity bound after one space derivative.  The same
holds for the conjugated kernel (xy)^(nu+1/2) P_t(x, y) with its own
right-hand sides.  None of the constants is pinned down analytically, so
"pass" means: the observed/bound ratio is finite on the mesh and the norms
move by less than a declared fraction from the time grid to every other time.

Mesh sweeps also certify the two-sided heat kernel envelope and the decay
of the space derivative of W_t.

Every kernel table here comes from semigroups.kernel_sums, so a sweep or
report asking for a time below the certified threshold t_min raises
KernelTruncationError rather than reporting an unresolved sum.
"""

import math

import numpy as np

from . import semigroups, variation
from .spectral import mode_values

# kernel time range before clamping to the certified threshold
_T_LO, _T_HI = 1e-3, 10.0
# largest refinement delta a bound check passes with
_STABILITY = 0.10
# central-difference step of the space derivatives, read at call time
_H = 1e-4
# half-width of the diagonal band the bound sweeps leave out
_EXCLUSION = 0.02
# heat times of the envelope and gradient reports
_HEAT_TIMES = np.array([0.05, 0.1, 0.5, 1.0, 2.0])
# smallest normal float: the envelope refuses a W_t or profile below it
_TINY = np.finfo(float).tiny
# Gaussian constant of the gradient probe: 1/8, safely below the expected 1/4
_C_GAUSS = 0.125
# times and mesh refinement of the free-kernel comparison
_FREE_TIMES = np.geomspace(0.05, 1.0, 12)
_FREE_REFINE = 1.5


def _by_region(x, y, lower, diagonal, upper):
    """`lower` where y <= x/2, `diagonal` where x/2 < y <= min(1, 3x/2),
    `upper` elsewhere."""
    return np.where(y <= 0.5 * x, lower,
                    np.where(y <= np.minimum(1.0, 1.5 * x), diagonal, upper))


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


def default_time_grid(basis, n_points=200):
    """Log-spaced kernel time grid clamped above the certified threshold."""
    lo = max(_T_LO, semigroups.t_min(basis, "poisson"))
    return semigroups.log_times(lo, _T_HI, n_points)


def mesh_points(mesh_size):
    m = int(mesh_size)
    return (np.arange(m) + 0.5) / m


def _mode_tables(basis, points, flavor):
    """[n_modes, len(points)] tables of the mode values at the points and of
    their central differences in x: (center, deriv)."""
    pts = np.concatenate([points, points + _H, points - _H])
    center, plus, minus = np.split(mode_values(basis, pts, flavor), 3, axis=1)
    return center, (plus - minus) / (2.0 * _H)


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


def _verdict(region_max, delta):
    finite = all(math.isfinite(v) for v in region_max.values())
    return "pass" if finite and delta < _STABILITY else "fail"


def _pair_indices(mesh_size):
    """Mesh points and the index pairs (i, j) of the off-diagonal pairs:
    the band |x - y| < max(_EXCLUSION, 1/(2 m)) is removed.  The pairs run
    in row-major order and hold (j, i) with every (i, j)."""
    pts = mesh_points(mesh_size)
    I, J = np.meshgrid(np.arange(mesh_size), np.arange(mesh_size),
                       indexing="ij")
    keep = np.abs(pts[I] - pts[J]) >= max(_EXCLUSION, 0.5 / mesh_size)
    return pts, I[keep], J[keep]


def _mirror(ix, iy):
    """Position of the pair (iy[k], ix[k]) for each pair k of _pair_indices."""
    m = int(max(ix.max(), iy.max())) + 1
    pos = np.empty((m, m), dtype=int)
    pos[ix, iy] = np.arange(len(ix))
    return pos[iy, ix]


def _bound_sweep(basis, beta, rho, mesh_size, time_points, flavor,
                 derivative, scale, extras=lambda norms, x, y: {}):
    """The sweep behind the bound checks: at each off-diagonal mesh pair the
    variation norm of the kernel family or, with `derivative`, the sum of
    the norms of its d_x and d_y families, scaled by scale(obs, x, y) and
    maximized per region; the delta compares them with the norms over
    every other time of the same tables, from the smallest on.
    extras(norms, x, y) adds report entries from norms(derivative), the
    grid norms of either observable.  Returns the report: region_max,
    refinement_delta, witness (x, y, ratio), verdict and the extras.

    A family is kernel_sums of products of the mode tables' columns, and
    products commute: the kernel at (i, j) is the kernel at (j, i), and the
    d_y family at (i, j) the d_x family at (j, i), with the same bits.  So
    each family is summed once per unordered pair: the kernel only at the
    pairs i < j, the d_x family at every pair, and each pair reads its
    mirror (j, i) by index.  The observables at (i, j) and (j, i) are equal
    bit for bit, and region maxima tie to the first in _pair_indices.  One
    family is held at a time.
    """
    pts, ix, iy = _pair_indices(mesh_size)
    xs, ys = pts[ix], pts[iy]
    mirror, lower = _mirror(ix, iy), ix > iy
    center, deriv = _mode_tables(basis, pts, flavor)
    times = default_time_grid(basis, time_points)

    def norms(derivative, subgrid=False):
        """Grid norms at every pair and, with `subgrid`, the subgrid's."""
        cols = slice(None) if derivative else ~lower
        # one [modes, pairs] table of products, freed before the DP runs
        products = (deriv if derivative else center)[:, ix[cols]]
        products *= center[:, iy[cols]]
        fam = semigroups.kernel_sums(basis, times, products, "poisson", beta)
        del products
        out = []
        for f in (fam, fam[::-2][::-1])[:1 + subgrid]:
            n = np.empty(len(ix))
            n[cols] = variation.rho_variation_values(f, rho)
            if derivative:
                n += n[mirror]
            else:
                n[lower] = n[mirror[lower]]
            out.append(n)
        return out

    ext = extras(lambda d: norms(d)[0], xs, ys)
    obs, sub = norms(derivative, subgrid=True)
    variation.check_nested(sub, obs, "bound sweep")
    region_max, witness = _region_maxima(xs, ys, scale(obs, xs, ys))
    with np.errstate(invalid="ignore", divide="ignore"):
        delta = float(np.max(np.abs(obs - sub) / np.maximum(obs, 1e-300)))
    return {"region_max": region_max, "refinement_delta": delta,
            "witness": witness, "verdict": _verdict(region_max, delta), **ext}


def size_bound_check(basis, beta, rho, mesh_size=30, time_points=200):
    """Observed variation norms against the regional size bounds."""
    return _bound_sweep(
        basis, beta, rho, mesh_size, time_points, "phi", False,
        lambda obs, x, y: obs / size_bound_rhs(basis.nu, x, y))


def regularity_bound_check(basis, beta, rho, mesh_size=20, time_points=200):
    """(variation norm of d_x kernel + d_y kernel) * |x-y|^2 (xy)^(nu+1/2)."""
    return _bound_sweep(
        basis, beta, rho, mesh_size, time_points, "phi", True,
        lambda obs, x, y: obs * (x - y) ** 2 * (x * y) ** (basis.nu + 0.5))


def s_nu_bound_check(basis, beta, rho, mesh_size=30, time_points=200):
    """Size and regularity sweep for the conjugated kernel family."""
    def regularity(norms, x, y):
        reg = norms(True)
        return {"regularity_max": float(np.max(reg * (x - y) ** 2))}

    return _bound_sweep(
        basis, beta, rho, mesh_size, time_points, "psi", False,
        lambda obs, x, y: obs / s_size_bound_rhs(basis.nu, x, y), regularity)


def _heat_table(basis, times, pts, left, right):
    """Heat kernel series at every pair (x, y) of the mesh pts, from
    [n_modes, len(pts)] tables `left` at x and `right` at y: the paired
    points x, y and the [times, len(pts)^2] table."""
    m = len(pts)
    ix, iy = np.repeat(np.arange(m), m), np.tile(np.arange(m), m)
    return pts[ix], pts[iy], semigroups.kernel_sums(
        basis, times, left[:, ix] * right[:, iy], "heat", 0.0)


def heat_envelope_report(basis, mesh_size=20, refine_factor=1.4):
    """Two-sided heat kernel envelope: W_t over the explicit comparison profile.

    Returns the observed [c, C] spread of the ratio and its change under a
    mesh refinement by `refine_factor`.  Refinement densifies the base
    mesh's window [1/(2m), 1 - 1/(2m)] without extending it, so the delta
    measures discretization convergence rather than the slow drift of the
    sampled extrema toward the corners of the square.  Raises
    FloatingPointError when W_t or the profile is below the smallest
    normal float at the largest heat time, as from nu = 14 on.
    """
    margin = 0.5 / mesh_size
    lam1 = float(basis.zeros[0])
    t = _HEAT_TIMES[:, None]

    def spread(m):
        pts = np.linspace(margin, 1.0 - margin, m)
        M = mode_values(basis, pts)
        x, y, W = _heat_table(basis, _HEAT_TIMES, pts, M, M)
        profile = ((1.0 + t) ** (basis.nu + 2.0)
                   / (t + x * y) ** (basis.nu + 0.5)
                   * np.minimum(1.0, (1.0 - x) * (1.0 - y) / t)
                   / np.sqrt(t)
                   * np.exp(-(x - y) ** 2 / (4.0 * t) - lam1 ** 2 * t))
        # both carry e^(-lambda_1^2 t), so they leave the normal floats
        # first at the largest time
        if min(np.min(np.abs(W[-1])), np.min(profile[-1])) < _TINY:
            raise FloatingPointError(
                f"heat envelope at nu={basis.nu}: W_t or its comparison "
                f"profile underflows at t = {_HEAT_TIMES[-1]:g}")
        ratio = W / profile
        return float(np.min(ratio)), float(np.max(ratio))

    c0, C0 = spread(mesh_size)
    c1, C1 = spread(int(round(mesh_size * refine_factor)))
    env0, env1 = C0 / c0, C1 / c1
    delta = abs(env1 - env0) / env0
    return {
        "nu": basis.nu, "c": c0, "C": C0, "envelope": env0,
        "envelope_refined": env1, "refinement_delta": delta,
        "positive": c0 > 0.0,
        "verdict": "pass" if (c0 > 0.0 and math.isfinite(env0)
                              and delta < _STABILITY) else "fail",
    }


def heat_gradient_report(basis, mesh_size=20):
    """Decay of d_x W_t: the product |d_x W| (xy)^(nu+1/2) t e^{c (x-y)^2 / t}.

    The Gaussian constant is not specified by the estimate; c = _C_GAUSS
    = 1/8 keeps the probe on the safe side of the expected 1/4 rate.
    """
    pts = mesh_points(mesh_size)
    center, deriv = _mode_tables(basis, pts, "phi")
    x, y, grad = _heat_table(basis, _HEAT_TIMES, pts, deriv, center)
    t = _HEAT_TIMES[:, None]
    prod = np.abs(grad) * (x * y) ** (basis.nu + 0.5) * t \
        * np.exp(_C_GAUSS * (x - y) ** 2 / t)
    worst = float(np.max(prod))
    return {"nu": basis.nu, "max_product": worst, "c_gauss": _C_GAUSS,
            "verdict": "pass" if math.isfinite(worst) else "fail"}


def free_kernel_comparison(basis, mesh_size=20):
    """Fitted constant in |W_t - free-space kernel| <= C t near the left edge.

    The sweep covers the square (0, 0.525...)^2, i.e. the slightly inflated
    left half interval, for t in (0, 1].
    """
    edge = 0.25 + 0.25 * 1.05 ** 2

    def fit(m):
        pts = edge * (np.arange(m) + 0.5) / m
        M = mode_values(basis, pts)
        x, y, W = _heat_table(basis, _FREE_TIMES, pts, M, M)
        F = semigroups.free_heat_kernel(basis.nu, _FREE_TIMES[:, None], x, y)
        return float(np.max(np.max(np.abs(W - F), axis=1) / _FREE_TIMES))

    C0 = fit(mesh_size)
    C1 = fit(int(round(mesh_size * _FREE_REFINE)))
    delta = abs(C1 - C0) / max(C0, 1e-300)
    return {"nu": basis.nu, "C": C0, "C_refined": C1,
            "refinement_delta": delta, "edge": edge,
            "verdict": "pass" if math.isfinite(C0) and delta < 0.25 else "fail"}
