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


def _legval(x, c):
    """sum_k c[k] P_k(x) by Clenshaw's recurrence, in the order of operations
    of numpy.polynomial.legendre.legval."""
    c0, c1 = (c[0], 0.0) if len(c) == 1 else (c[-2], c[-1])
    nd = len(c)
    for i in range(3, len(c) + 1):
        nd -= 1
        c0, c1 = (c[-i] - c1 * ((nd - 1) / nd),
                  c0 + c1 * x * ((2 * nd - 1) / nd))
    return c0 + c1 * x


def _rule(p):
    """Nodes and weights of the p-point Gauss-Legendre rule on [-1, 1], by
    the steps of numpy.polynomial.legendre.leggauss and equal to its output
    bit for bit, without importing numpy.polynomial: eigenvalues of the
    Jacobi matrix, one Newton step on P_p, weights 1 / (P_{p-1} P_p')
    symmetrized and scaled to sum to 2."""
    if p not in _rule_cache:
        k = np.arange(p)
        s = 1.0 / np.sqrt(2 * k + 1)
        jacobi = np.zeros((p, p))
        jacobi[k[1:], k[:-1]] = jacobi[k[:-1], k[1:]] = k[1:] * s[:-1] * s[1:]
        x = np.linalg.eigvalsh(jacobi)
        c = np.zeros(p + 1)
        c[p] = 1.0
        # P_p' = sum of (2k + 1) P_k over k < p with k = p - 1 (mod 2)
        df = _legval(x, np.where(k % 2 == (p - 1) % 2, 2.0 * k + 1.0, 0.0))
        x -= _legval(x, c) / df
        fm = _legval(x, c[1:])
        fm /= np.abs(fm).max()
        df /= np.abs(df).max()
        w = 1 / (fm * df)
        w = (w + w[::-1]) / 2
        x = (x - x[::-1]) / 2
        w *= 2.0 / w.sum()
        _rule_cache[p] = x, w
    return _rule_cache[p]


def sorted_unique(values):
    """The sorted distinct values of an array without NaNs, as np.unique
    returns them, by one sort and one comparison of neighbours.  np.unique
    itself imports numpy.ma on its first call."""
    a = np.sort(np.asarray(values).ravel())
    keep = np.empty(a.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


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
    edges = sorted_unique(np.asarray(edges, dtype=float))
    if edges[0] != 0.0 or edges[-1] != 1.0 or len(edges) < 2:
        raise ValueError("edges must start at 0 and end at 1")
    nodes, weights = composite_rule(edges, p)
    return RadialGrid(nodes, weights, edges)


def integrate(f, measure):
    """Quadrature of f against the given measure on (0, 1)."""
    g = f.grid
    return float(np.dot(g.weights * g.density(measure), f.values))


def lp_norm(f, p, measure):
    """L^p norm of a grid function; p = inf gives the max of |values|."""
    if p == math.inf:
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
