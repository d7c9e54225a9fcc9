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

Every kernel table here comes from a semigroups.kernel_summer, so a sweep
or report asking for a time below the certified threshold t_min raises
KernelTruncationError, before any mode table is built, rather than
reporting an unresolved sum.  A run of the bound checks builds one mode
table, over the points of all three sweeps, and one multiplier table; each
heat report builds one of each for its base and refined meshes.
"""

import math

import numpy as np

from . import semigroups, variation
from .spectral import mode_values, psi_from_phi

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


def _offsets(points):
    """The points, then the points + _H, then the points - _H."""
    return np.concatenate([points, points + _H, points - _H])


def _differences(table, columns):
    """(center, deriv) from the thirds of `columns`, the columns of a table
    at some points, at the points + _H and at the points - _H: the values
    at the points and their central differences in x, each a new array."""
    center, plus, minus = [table[:, c] for c in np.split(columns, 3)]
    return center, (plus - minus) / (2.0 * _H)


def _mode_tables(basis, points, flavor):
    """[n_modes, len(points)] tables of the mode values at the points and of
    their central differences in x: (center, deriv)."""
    table = mode_values(basis, _offsets(points), flavor)
    return _differences(table, np.arange(table.shape[1]))


def _joint_values(basis, point_sets):
    """(nodes, table, columns): the union of the arrays of points, each
    point once, its phi table mode_values(basis, nodes) and, for each
    array, the columns of its points.  No entry depends on the points it is
    batched with, so table[:, columns[k]] is mode_values(basis,
    point_sets[k]) bit for bit."""
    nodes, index = np.unique(np.concatenate(point_sets), return_inverse=True)
    edges = np.cumsum([len(p) for p in point_sets])[:-1]
    return nodes, mode_values(basis, nodes), np.split(index, edges)


def _sweep_tables(basis, mesh_size, regularity_mesh):
    """The (center, deriv) tables of the three bound sweeps, each bit for
    bit the _mode_tables of its mesh and family: phi at the mesh of
    mesh_size, phi at the mesh of regularity_mesh and Psi at the mesh of
    mesh_size.  One _joint_values call gives the phi values, and
    psi_from_phi scales them to the Psi values."""
    offsets = [_offsets(mesh_points(m)) for m in (mesh_size, regularity_mesh)]
    nodes, phi, (size, regularity) = _joint_values(basis, offsets)
    psi = psi_from_phi(basis, phi, nodes)
    return (_differences(phi, size), _differences(phi, regularity),
            _differences(psi, size))


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


def _bound_sweep(sums, rho, mesh_size, tables, derivative, scale,
                 extras=lambda norms, x, y: {}):
    """The sweep behind the bound checks, from the (center, deriv) tables
    of the mesh of mesh_size and the kernel summer `sums`: at each
    off-diagonal mesh pair the variation norm of the kernel family or, with
    `derivative`, the sum of the norms of its d_x and d_y families, scaled
    by scale(obs, x, y) and maximized per region; the delta compares them
    with the norms over every other time of the same tables, from the
    smallest on.
    extras(norms, x, y) adds report entries from norms(derivative), the
    grid norms of either observable.  Returns the report: region_max,
    refinement_delta, witness (x, y, ratio), verdict and the extras.

    A family is the sums of products of the mode tables' columns, and
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
    center, deriv = tables

    def norms(derivative, subgrid=False):
        """Grid norms at every pair and, with `subgrid`, the subgrid's."""
        cols = slice(None) if derivative else ~lower
        left, right = ix[cols], iy[cols]
        factor = deriv if derivative else center
        # one [modes, pairs] table of products, freed before the DP runs,
        # formed one mesh row i of pairs at a time (the pairs are in
        # row-major order), so no table of gathered factors is held.  It
        # is column-major, as a gather of columns is: the sums' matrix
        # products read it in that layout
        products = np.empty((len(center), len(left)), order="F")
        edges = np.searchsorted(left, np.arange(mesh_size + 1))
        for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            np.multiply(factor[:, i, None], center[:, right[a:b]],
                        out=products[:, a:b])
        fam = sums(products)
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


def bound_checks(basis, beta, rho, mesh_size, regularity_mesh,
                 time_points=200):
    """The reports of the three bound checks on the kernel families
    t^beta d_t^beta P_t over default_time_grid(basis, time_points):

    - "size": observed variation norms against the regional size bounds,
      on the mesh of mesh_size;
    - "regularity": (variation norm of the d_x kernel + that of the d_y
      kernel) |x - y|^2 (xy)^(nu+1/2), on the mesh of regularity_mesh;
    - "s_nu": the size sweep of the conjugated family, on the mesh of
      mesh_size, with the largest regularity product as regularity_max.

    The sweeps share one mode table (_sweep_tables) and one kernel_summer,
    whose t_min refusal comes before the table is built.
    """
    nu = basis.nu
    sums = semigroups.kernel_summer(
        basis, default_time_grid(basis, time_points), "poisson", beta)
    size, regularity, psi = _sweep_tables(basis, mesh_size, regularity_mesh)

    def regularity_max(norms, x, y):
        return {"regularity_max": float(np.max(norms(True) * (x - y) ** 2))}

    return {
        "size": _bound_sweep(
            sums, rho, mesh_size, size, False,
            lambda obs, x, y: obs / size_bound_rhs(nu, x, y)),
        "regularity": _bound_sweep(
            sums, rho, regularity_mesh, regularity, True,
            lambda obs, x, y: obs * (x - y) ** 2 * (x * y) ** (nu + 0.5)),
        "s_nu": _bound_sweep(
            sums, rho, mesh_size, psi, False,
            lambda obs, x, y: obs / s_size_bound_rhs(nu, x, y),
            regularity_max),
    }


def _heat_table(sums, pts, pairs, left, right):
    """Heat kernel series of the kernel summer `sums` at the index pairs
    (ix, iy) of the mesh pts, from [n_modes, len(pts)] tables `left` at x
    and `right` at y: the paired points x, y and the [times, len(ix)]
    table.  W_t is symmetric, bit for bit when left is right, since
    products commute, so its reports pass the pairs i <= j; d_x W is not,
    and takes every ordered pair."""
    ix, iy = pairs
    return pts[ix], pts[iy], sums(left[:, ix] * right[:, iy])


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
    sums = semigroups.kernel_summer(basis, _HEAT_TIMES, "heat", 0.0)
    meshes = [np.linspace(margin, 1.0 - margin, m)
              for m in (mesh_size, int(round(mesh_size * refine_factor)))]

    def spread(pts, M):
        x, y, W = _heat_table(sums, pts, np.triu_indices(len(pts)), M, M)
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

    _, M, columns = _joint_values(basis, meshes)
    (c0, C0), (c1, C1) = [spread(pts, M[:, c])
                          for pts, c in zip(meshes, columns)]
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
    sums = semigroups.kernel_summer(basis, _HEAT_TIMES, "heat", 0.0)
    pts = mesh_points(mesh_size)
    m = len(pts)
    center, deriv = _mode_tables(basis, pts, "phi")
    x, y, grad = _heat_table(sums, pts, np.indices((m, m)).reshape(2, -1),
                             deriv, center)
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
    sums = semigroups.kernel_summer(basis, _FREE_TIMES, "heat", 0.0)
    meshes = [edge * (np.arange(m) + 0.5) / m
              for m in (mesh_size, int(round(mesh_size * _FREE_REFINE)))]

    def fit(pts, M):
        x, y, W = _heat_table(sums, pts, np.triu_indices(len(pts)), M, M)
        F = semigroups.free_heat_kernel(basis.nu, _FREE_TIMES[:, None], x, y)
        return float(np.max(np.max(np.abs(W - F), axis=1) / _FREE_TIMES))

    _, M, columns = _joint_values(basis, meshes)
    C0, C1 = [fit(pts, M[:, c]) for pts, c in zip(meshes, columns)]
    delta = abs(C1 - C0) / max(C0, 1e-300)
    return {"nu": basis.nu, "C": C0, "C_refined": C1,
            "refinement_delta": delta, "edge": edge,
            "verdict": "pass" if math.isfinite(C0) and delta < 0.25 else "fail"}
