"""Quadrature grids on (0, 1) and the two measures of the problem.

Composite Gauss-Legendre rules over a cell partition of (0, 1).  The
weighted measure m_nu = x^(2 nu + 1) dx is never built into the rule;
its density is sampled at the nodes, and accuracy near the x -> 0
singularity comes from dyadic grading of the cells instead.
"""

import math
from dataclasses import dataclass

import numpy as np

_rule_cache = {}


def _rule(p):
    if p not in _rule_cache:
        _rule_cache[p] = np.polynomial.legendre.leggauss(p)
    return _rule_cache[p]


@dataclass(frozen=True)
class MeasureTag:
    """Either Lebesgue dx or the weighted measure x^(2 nu + 1) dx."""

    kind: str
    nu: float = 0.0

    def __post_init__(self):
        if self.kind not in ("lebesgue", "weighted"):
            raise ValueError(f"unknown measure kind {self.kind!r}")
        if self.kind == "weighted" and not self.nu > -1.0:
            raise ValueError(
                f"weighted measure needs nu > -1 for integrability, got {self.nu}")


LEBESGUE = MeasureTag("lebesgue")


def weighted(nu):
    return MeasureTag("weighted", float(nu))


@dataclass(eq=False)
class RadialGrid:
    """Composite Gauss-Legendre nodes/weights on (0, 1)."""

    nodes: np.ndarray
    weights: np.ndarray
    edges: np.ndarray
    points_per_cell: int

    def __post_init__(self):
        if len(self.nodes) != len(self.weights):
            raise ValueError("nodes/weights length mismatch")
        if np.any(self.nodes <= 0.0) or np.any(self.nodes >= 1.0):
            raise ValueError("nodes must lie in the open interval (0, 1)")
        if np.any(np.diff(self.nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")

    @property
    def size(self):
        return len(self.nodes)

    def density(self, measure):
        if measure.kind == "lebesgue":
            return np.ones_like(self.nodes)
        return self.nodes ** (2.0 * measure.nu + 1.0)

    def sample(self, fn):
        return GridFunction(self, np.asarray(fn(self.nodes), dtype=float))


@dataclass(eq=False)
class GridFunction:
    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if len(self.values) != self.grid.size:
            raise ValueError("value vector does not match grid size")


def composite_rule(edges, p):
    """Nodes and weights of the p-point Gauss-Legendre rule on each cell
    between consecutive edges, flattened, in the dtype of the edges."""
    x, w = _rule(p)
    a, b = edges[:-1], edges[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    return nodes, (half[:, None] * w[None, :]).ravel()


def grid_from_edges(edges, points_per_cell):
    """Composite Gauss-Legendre grid over an explicit cell partition of [0, 1]."""
    p = int(points_per_cell)
    if not 2 <= p <= 32:
        raise ValueError("points_per_cell must lie in [2, 32]")
    edges = np.unique(np.asarray(edges, dtype=float))
    if edges[0] != 0.0 or edges[-1] != 1.0 or len(edges) < 2:
        raise ValueError("edges must start at 0 and end at 1")
    nodes, weights = composite_rule(edges, p)
    return RadialGrid(nodes, weights, edges, p)


def make_grid(n_cells, points_per_cell, grading="uniform"):
    """Quadrature grid with `n_cells` cells of `points_per_cell` Gauss points.

    grading "uniform" splits (0, 1) evenly; "dyadic_both_ends" halves the
    cells toward both endpoints, which is what integrable endpoint
    singularities (the x^(2 nu + 1) weight at 0, kernel factors at 1) need.
    """
    n = int(n_cells)
    if n < 1:
        raise ValueError("n_cells must be >= 1")
    if grading == "uniform":
        edges = np.linspace(0.0, 1.0, n + 1)
    elif grading == "dyadic_both_ends":
        if n == 1:
            edges = np.array([0.0, 1.0])
        else:
            n_left = n // 2
            n_right = n - n_left
            left = [0.0] + [2.0 ** (-j) for j in range(n_left, 0, -1)]
            right = [1.0 - 2.0 ** (-j) for j in range(2, n_right + 1)] + [1.0]
            edges = np.array(left + right)
    else:
        raise ValueError(f"unknown grading {grading!r}")
    return grid_from_edges(edges, points_per_cell)


def integrate(f, measure):
    """Quadrature of f against the given measure on (0, 1)."""
    g = f.grid
    return float(np.dot(g.weights * g.density(measure), f.values))


def lp_norm(f, p, measure):
    """L^p norm of a grid function; p = inf gives the max of |values|."""
    if p == math.inf or p == "inf":
        return float(np.max(np.abs(f.values)))
    p = float(p)
    if p < 1.0:
        raise ValueError("p must be >= 1")
    return integrate(GridFunction(f.grid, np.abs(f.values) ** p), measure) \
        ** (1.0 / p)


def weak_lp_quasinorm(f, measure, p=1.0):
    """sup_lambda lambda * mu({|f| > lambda})^(1/p), super-level sets node-wise.

    The sup is taken over the ladder of levels sitting just below each
    sampled |value|; this dominates any coarser logarithmic ladder and is
    exact for the discrete node-weight distribution.
    """
    p = float(p)
    g = f.grid
    mass = g.weights * g.density(measure)
    mag = np.abs(np.asarray(f.values, dtype=float))
    order = np.argsort(mag)[::-1]
    sorted_mag = mag[order]
    cum = np.cumsum(mass[order])
    if sorted_mag[0] == 0.0:
        return 0.0
    levels = sorted_mag * (1.0 - 1e-12)
    vals = levels * cum ** (1.0 / p)
    return float(np.max(vals))


def measure_of_interval(measure, a, b):
    """Measure of the interval (a, b): b - a, or (b^e - a^e) / e with
    e = 2 nu + 2 for x^(2 nu + 1) dx."""
    if measure.kind == "lebesgue":
        return b - a
    e = 2.0 * measure.nu + 2.0
    return (b ** e - a ** e) / e


def ball_measure(nu, x, r):
    """m_nu(B(x, r) intersected with (0, 1)) in closed form."""
    nu = float(nu)
    if not nu > -1.0:
        raise ValueError("nu must exceed -1")
    x = np.asarray(x, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("radius must be positive")
    out = measure_of_interval(weighted(nu), np.maximum(x - r, 0.0),
                              np.minimum(x + r, 1.0))
    if out.ndim == 0:
        return float(out)
    return out


_legendre_anti_cache = {}


def _legendre_antiderivative_tables(p):
    """Matrices mapping cell samples to Legendre coefficients and prefix values.

    coeff_mat[n, i]: a_n = (2n+1)/2 sum_i w_i h(u_i) P_n(u_i)  (exact for
    polynomials of degree < p).  anti_mat[j, n] = int_{-1}^{u_j} P_n(u) du.
    """
    if p in _legendre_anti_cache:
        return _legendre_anti_cache[p]
    u, w = _rule(p)
    # P_n(u_i) for n = 0..p-1
    P = np.zeros((p + 1, p))
    P[0] = 1.0
    P[1] = u
    for n in range(1, p):
        P[n + 1] = ((2 * n + 1) * u * P[n] - n * P[n - 1]) / (n + 1)
    coeff_mat = (np.arange(p)[:, None] + 0.5) * (P[:p] * w[None, :])
    # antiderivatives: int_{-1}^{u} P_0 = u + 1; for n >= 1,
    # int_{-1}^{u} P_n = (P_{n+1}(u) - P_{n-1}(u)) / (2n + 1)
    anti = np.zeros((p, p))
    anti[:, 0] = u + 1.0
    for n in range(1, p):
        anti[:, n] = (P[n + 1] - P[n - 1]) / (2 * n + 1)
    _legendre_anti_cache[p] = (coeff_mat, anti)
    return coeff_mat, anti


def cumulative_integral(f):
    """F(x_j) = int_0^{x_j} h dx for node samples h, via per-cell Legendre fits.

    The fit is exact for polynomials of degree < points_per_cell, so smooth
    integrands get spectral accuracy instead of the O(cell) error a plain
    running sum of quadrature weights would give.
    """
    g = f.grid
    p = g.points_per_cell
    coeff_mat, anti = _legendre_antiderivative_tables(p)
    h = np.asarray(f.values, dtype=float).reshape(-1, p)
    halves = 0.5 * np.diff(g.edges)
    coeffs = h @ coeff_mat.T                      # [ncells, p]
    partial = (coeffs @ anti.T) * halves[:, None]  # prefix within each cell
    full = coeffs[:, 0] * 2.0 * halves            # per-cell totals
    offsets = np.concatenate(([0.0], np.cumsum(full)[:-1]))
    F = (offsets[:, None] + partial).ravel()
    return GridFunction(g, F)
