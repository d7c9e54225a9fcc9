"""Eigenfunctions of the Bessel operator pair on (0, 1) and coefficient maps.

Two orthonormal families share the zeros lambda_{n,nu} of J_nu:

    phi_n(x) = d_{n,nu} lambda^(1/2) J_nu(lambda x) x^(-nu)   in L2(x^(2nu+1) dx),
    Psi_n(x) = d_{n,nu} (lambda x)^(1/2) J_nu(lambda x)       in L2(dx),

with Psi_n = x^(nu + 1/2) phi_n.  Both diagonalize their operator with
eigenvalue lambda_{n,nu}^2, so semigroups and fractional derivatives act
as diagonal multipliers on the coefficients computed here.

Near x = 0 the factor x^(-nu) is cancelled analytically through
J_nu(z) / z^nu; no small-number division ever happens.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import bessel, grid as gridmod
from .grid import LEBESGUE, GridFunction, MeasureTag, weighted

# entries per Bessel call when building a table, and tables kept per basis
_TABLE_CHUNK = 16384
_MATRIX_CACHE = 4


@dataclass(eq=False)
class SpectralBasis:
    """Zeros, normalizers and cached node tables for one order nu."""

    nu: float
    zero_table: bessel.ZeroTable
    norm_consts: np.ndarray
    n_modes: int
    _matrices: dict = field(default_factory=dict, repr=False)

    @property
    def zeros(self):
        return self.zero_table.zeros

    def matrix(self, grid, flavor="phi"):
        """[n_modes, grid.size] table of eigenfunction values (cached).

        The _MATRIX_CACHE most recently used tables are kept.  An entry keeps
        a reference to its grid, so a recycled id() of a dead grid can never
        alias a live one.
        """
        key = (id(grid), flavor)
        entry = self._matrices.pop(key, None)
        if entry is None or entry[0] is not grid:
            entry = (grid, mode_values(self, grid.nodes, flavor))
        self._matrices[key] = entry
        if len(self._matrices) > _MATRIX_CACHE:
            del self._matrices[next(iter(self._matrices))]
        return entry[1]


def make_basis(nu, n_modes=64):
    nu = float(nu)
    n_modes = int(n_modes)
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    table = bessel.zero_table(nu, n_modes)
    d = bessel.norm_consts(nu, table.zeros)
    return SpectralBasis(nu, table, d, n_modes)


def reference_grid(nu, n_modes, points_per_cell=8, extra_edges=()):
    """Quadrature grid resolving the first n_modes eigenfunctions.

    Dyadic grading toward 0 deep enough that the mass of the first cell
    under x^(2 nu + 1) dx is below ~1e-12 (the rule cannot integrate the
    singular cell itself accurately, so it is made negligible), dyadic
    grading toward 1 for the boundary factors, and a bulk partition fine
    enough for ~12 Gauss points per oscillation of the top mode.  Points
    in extra_edges become cell edges too.
    """
    nu = float(nu)
    lam_max = bessel.mcmahon_guess(nu, n_modes) + math.pi
    h_max = min(0.125, points_per_cell / (2.0 * lam_max))
    depth_left = max(12, int(math.ceil(40.0 / (2.0 * nu + 2.0))) + 2)
    depth_right = 12
    pieces = [0.0, 1.0]
    pieces += [2.0 ** (-j) for j in range(1, depth_left + 1)]
    pieces += [1.0 - 2.0 ** (-j) for j in range(1, depth_right + 1)]
    base = np.unique(np.asarray(pieces))
    edges = [base[0]]
    for a, b in zip(base[:-1], base[1:]):
        if b - a > h_max:
            k = int(math.ceil((b - a) / h_max))
            edges.extend(np.linspace(a, b, k + 1)[1:])
        else:
            edges.append(b)
    return gridmod.grid_from_edges(
        np.concatenate([edges, np.asarray(extra_edges, dtype=float)]),
        points_per_cell)


def _table(basis, modes, x, flavor):
    """[len(modes), len(x)] values of the eigenfunctions with 0-based indices
    `modes`, from one J_nu(lam x) / (lam x)^nu call per _TABLE_CHUNK entries;
    no entry depends on the modes or points it is batched with."""
    if flavor not in ("phi", "psi"):
        raise ValueError(f"unknown flavor {flavor!r}")
    lam, d = basis.zeros[modes], basis.norm_consts[modes]
    scale = d * np.sqrt(lam) * lam ** basis.nu
    power = basis.nu + 0.5 if flavor == "psi" else 0.0     # Psi = x^power phi
    out = np.empty((len(modes), len(x)))
    flat = out.reshape(-1)
    for a in range(0, flat.size, _TABLE_CHUNK):
        k = np.arange(a, min(a + _TABLE_CHUNK, flat.size))
        i, j = np.divmod(k, len(x))
        ratio = bessel.bessel_j_over_power(basis.nu, lam[i] * x[j])
        flat[a:a + _TABLE_CHUNK] = scale[i] * ratio * x[j] ** power
    return out


def eigenfunction(basis, n, x, flavor="phi"):
    """phi_n ("phi") or Psi_n = x^(nu + 1/2) phi_n ("psi") at scalar or array x."""
    if not 1 <= n <= basis.n_modes:
        raise IndexError(f"mode index {n} outside 1..{basis.n_modes}")
    xs = np.asarray(x, dtype=float)
    return _table(basis, [n - 1], xs.ravel(), flavor)[0].reshape(xs.shape)[()]


def mode_values(basis, x, flavor="phi"):
    """[n_modes, len(x)] table of eigenfunction values at arbitrary points."""
    xs = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    return _table(basis, np.arange(basis.n_modes), xs, flavor)


@dataclass(eq=False)
class CoefficientVector:
    values: np.ndarray
    basis: SpectralBasis
    flavor: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if len(self.values) != self.basis.n_modes:
            raise ValueError("coefficient vector length must equal n_modes")
        if self.flavor not in ("phi", "psi"):
            raise ValueError(f"unknown flavor {self.flavor!r}")

    def copy_with(self, values):
        return CoefficientVector(values, self.basis, self.flavor)

    def check_basis(self, basis):
        """Raise ValueError unless these are coefficients in `basis`."""
        if self.basis is not basis:
            raise ValueError(
                f"coefficients belong to the basis nu={self.basis.nu}, "
                f"n_modes={self.basis.n_modes}, not to the basis "
                f"nu={basis.nu}, n_modes={basis.n_modes} they are used with")


# The Hardy-space setting whose operator each eigenfunction family diagonalizes.
SETTING_FLAVOR = {"delta_nu": "phi", "s_nu": "psi"}


def flavor_measure(nu, flavor):
    """The measure a family is orthonormal in: x^(2 nu + 1) dx for phi
    (setting delta_nu), dx for Psi (setting s_nu)."""
    return weighted(nu) if flavor == "phi" else LEBESGUE


def analyze(f, basis, flavor="phi", measure=None):
    """Coefficients of a grid function against phi (weighted) or Psi (Lebesgue).

    Passing a measure that does not match the flavor is an error: the phi
    family is orthonormal only in x^(2 nu + 1) dx, the Psi family only in dx.
    """
    expected = flavor_measure(basis.nu, flavor)
    if measure is not None and measure != expected:
        raise ValueError(
            f"flavor {flavor!r} requires the {expected.kind} measure")
    g = f.grid
    dens = g.density(expected)
    mat = basis.matrix(g, flavor)
    coeffs = mat @ (g.weights * dens * np.asarray(f.values, dtype=float))
    return CoefficientVector(coeffs, basis, flavor)


def synthesize(c, grid):
    """Sum_n c_n eigenfunction_n on the grid nodes.

    Accumulated in ascending n with Neumaier compensation so the result is
    independent of blocking and reproducible bit-for-bit.
    """
    mat = c.basis.matrix(grid, c.flavor)
    total = np.zeros(grid.size)
    comp = np.zeros(grid.size)
    for n in range(c.basis.n_modes):
        term = c.values[n] * mat[n]
        t = total + term
        lost = np.where(np.abs(total) >= np.abs(term),
                        (total - t) + term, (term - t) + total)
        comp += lost
        total = t
    return GridFunction(grid, total + comp)


def apply_operator_diagonal(c, multiplier):
    """New coefficients m_n c_n from an array of multipliers m."""
    m = np.asarray(multiplier, dtype=float)
    if m.shape != c.values.shape:
        raise ValueError("multiplier array must match coefficient length")
    return c.copy_with(m * c.values)


def gram_matrix(basis, grid, flavor="phi", n_max=None):
    """Inner-product matrix of the first n_max eigenfunctions on the grid."""
    n_max = basis.n_modes if n_max is None else int(n_max)
    mat = basis.matrix(grid, flavor)[:n_max]
    dens = grid.density(flavor_measure(basis.nu, flavor))
    return (mat * (grid.weights * dens)[None, :]) @ mat.T
