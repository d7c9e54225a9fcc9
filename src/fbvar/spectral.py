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
from .grid import GridFunction

# entries per block of a table, one bessel_j_over_power call each, whose
# temporaries are a few block-sized arrays: of 16k, 64k and 256k, 64k built
# the 512-mode tables at nu = 0, -0.6 and 15 fastest on a 2-vCPU host, as
# smaller blocks pay numpy's per-call cost more often and larger ones leave
# the cache.  And tables kept per basis.
_TABLE_BLOCK = 65536
_MATRIX_CACHE = 4


@dataclass(eq=False)
class SpectralBasis:
    """Zeros, normalizers and cached node tables for one order nu."""

    nu: float
    zero_table: bessel.ZeroTable
    norm_consts: np.ndarray
    _matrices: dict = field(default_factory=dict, repr=False)

    @property
    def zeros(self):
        return self.zero_table.zeros

    @property
    def n_modes(self):
        return self.zero_table.count

    def matrix(self, grid, flavor="phi"):
        """[n_modes, grid.size] table of eigenfunction values (cached).

        The _MATRIX_CACHE most recently used tables are kept.  The key holds
        the grid itself, and grids hash by identity, so a table answers only
        for the grid it was built on.  A Psi table asked for while the phi
        table of its grid is kept is that table times x^(nu + 1/2), bit for
        bit the entries mode_values builds, with no Bessel function
        evaluated.
        """
        key = (grid, flavor)
        table = self._matrices.pop(key, None)
        if table is None:
            phi = self._matrices.get((grid, "phi")) if flavor == "psi" else None
            table = (mode_values(self, grid.nodes, flavor) if phi is None
                     else phi * grid.nodes ** (self.nu + 0.5))
        self._matrices[key] = table
        if len(self._matrices) > _MATRIX_CACHE:
            del self._matrices[next(iter(self._matrices))]
        return table


def make_basis(nu, n_modes=64):
    nu = float(nu)
    n_modes = int(n_modes)
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    table = bessel.zero_table(nu, n_modes)
    d = bessel.norm_consts(table)
    return SpectralBasis(nu, table, d)


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
    base = gridmod.sorted_unique(pieces)
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
    `modes`, scale_n J_nu(lam_n x_j) / (lam_n x_j)^nu x_j^power, by
    bessel_j_over_power on blocks of whole rows, at most _TABLE_BLOCK
    entries or one row.  The row scales and the column powers are formed
    once per table; no entry depends on the modes or points it is batched
    with.  A phi entry is the product ratio * scale, and the Psi entry at
    the same point is that product times x^(nu + 1/2)."""
    if flavor not in ("phi", "psi"):
        raise ValueError(f"unknown flavor {flavor!r}")
    lam, d = basis.zeros[modes], basis.norm_consts[modes]
    scale = d * np.sqrt(lam) * lam ** basis.nu
    column = x ** (basis.nu + 0.5) if flavor == "psi" else None
    out = np.empty((len(modes), len(x)))
    rows = max(1, _TABLE_BLOCK // max(1, len(x)))
    for a in range(0, len(modes), rows):
        r = slice(a, a + rows)
        np.multiply(bessel.bessel_j_over_power(basis.nu, lam[r, None] * x),
                    scale[r, None], out=out[r])
        if column is not None:
            out[r] *= column
    return out


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

    def check_basis(self, basis):
        """Raise ValueError unless these are coefficients in `basis`."""
        if self.basis is not basis:
            raise ValueError(
                f"coefficients belong to the basis nu={self.basis.nu}, "
                f"n_modes={self.basis.n_modes}, not to the basis "
                f"nu={basis.nu}, n_modes={basis.n_modes} they are used with")


# The Hardy-space setting whose operator each eigenfunction family diagonalizes.
SETTING_FLAVOR = {"delta_nu": "phi", "s_nu": "psi"}


def flavor_order(nu, flavor):
    """Order of the measure a family is orthonormal in: nu for phi (setting
    delta_nu, x^(2 nu + 1) dx), -1/2 for Psi (setting s_nu, dx)."""
    return nu if flavor == "phi" else -0.5


def analyze(f, basis, flavor="phi"):
    """Coefficients of a grid function against phi (weighted) or Psi (Lebesgue)."""
    mass = f.grid.masses(flavor_order(basis.nu, flavor))
    coeffs = basis.matrix(f.grid, flavor) @ (mass * f.values)
    return CoefficientVector(coeffs, basis, flavor)


def synthesize(c, grid):
    """Sum_n c_n eigenfunction_n on the grid nodes, by mode_sums with
    multiplier 1, which keeps every mode."""
    from .semigroups import mode_sums   # semigroups imports this module
    mat = c.basis.matrix(grid, c.flavor)
    return GridFunction(grid, mode_sums(np.ones((1, len(mat))), mat, c.values)[0])


def gram_matrix(basis, grid, flavor="phi"):
    """Inner-product matrix of the basis eigenfunctions on the grid."""
    mat = basis.matrix(grid, flavor)
    return (mat * grid.masses(flavor_order(basis.nu, flavor))[None, :]) @ mat.T
