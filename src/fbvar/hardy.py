"""Atoms for the two Hardy spaces on (0, 1) and the norm-equivalence
experiments.

Atoms come in two flavors per setting: mean-zero bumps supported on an
interval with sup norm at most measure(I)^-1 ("a"), and normalized
indicators of the dyadic intervals I_j accumulating at the boundary ("b").
The weighted setting uses m_nu = x^(2 nu + 1) dx and the dyadic family
I_j = (1 - 2^-j, 1 - 2^-j-1], j >= 0; the Lebesgue setting adds the left
family I_j = (2^(j-1), 2^j] for j <= -1.

Experiments project atoms on the first n_modes eigenfunctions and drive
the Poisson family through the coefficient path, so no kernel-series time
threshold is involved.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import semigroups, spectral, variation
from .grid import GridFunction, integrate, lp_norm, measure_of_interval

# tolerances of validate_atom_samples: mean zero relative to 1/measure(I),
# and the sup-norm excess over 1/measure(I)
_MEAN_TOL = 1e-10
_HEIGHT_TOL = 1e-12
# smallest a-atom radius of atom_variation_experiment
_MIN_RADIUS = 2.0 ** -8
# most atoms in one sum of h1_equivalence_experiment
_MAX_TERMS = 4


class AtomError(ValueError):
    """Invalid atom specification; the message names the violated clause."""


@dataclass(frozen=True)
class AtomSpec:
    """Descriptor of a mean-zero ("a") or dyadic-indicator ("b") atom."""

    setting: str            # "delta_nu" | "s_nu"
    kind: str               # "a" | "b"
    nu: float = 0.0
    j: int = None
    center: float = None
    radius: float = None

    def __post_init__(self):
        if self.setting not in ("delta_nu", "s_nu"):
            raise AtomError(f"unknown setting {self.setting!r}")
        if self.kind not in ("a", "b"):
            raise AtomError(f"unknown atom kind {self.kind!r}")
        if not self.nu > -1.0:
            raise AtomError("atoms require nu > -1")


def _setting_measure(setting, nu):
    return spectral.flavor_measure(nu, spectral.SETTING_FLAVOR[setting])


def dyadic_interval(setting, j):
    """I_j = (1 - 2^-j, 1 - 2^-j-1] for j >= 0; (2^(j-1), 2^j] for j <= -1."""
    j = int(j)
    if j >= 0:
        if setting == "s_nu" and j == 0:
            raise AtomError("the Lebesgue-setting dyadic family excludes j = 0")
        return 1.0 - 2.0 ** (-j), 1.0 - 2.0 ** (-j - 1)
    if setting != "s_nu":
        raise AtomError("negative dyadic indices exist only in the s_nu setting")
    return 2.0 ** (j - 1), 2.0 ** j


def atom_interval(spec):
    if spec.kind == "b":
        if spec.j is None:
            raise AtomError("b-atoms need a dyadic index j")
        return dyadic_interval(spec.setting, spec.j)
    if spec.center is None or spec.radius is None:
        raise AtomError("a-atoms need a center and radius")
    a, b = spec.center - spec.radius, spec.center + spec.radius
    if not (0.0 < a < b < 1.0):
        raise AtomError("a-atom support must be contained in (0, 1)")
    return a, b


def atom_profile(spec):
    """Breakpoints and piece heights of the atom as a step function.

    b-atoms: measure(I_j)^-1 on I_j.  a-atoms: a two-level step, positive on
    the left half and negative on the right, with heights solving exact mean
    zero in the setting's measure and sup norm measure(I)^-1.
    """
    a, b = atom_interval(spec)
    mu = _setting_measure(spec.setting, spec.nu)
    if spec.kind == "b":
        height = 1.0 / measure_of_interval(mu, a, b)
        return (a, b), (height,)
    mid = 0.5 * (a + b)
    m_left = measure_of_interval(mu, a, mid)
    m_right = measure_of_interval(mu, mid, b)
    budget = 1.0 / measure_of_interval(mu, a, b)
    # h_left m_left = h_right m_right, max(h_left, h_right) = budget
    if m_left >= m_right:
        h_right = budget
        h_left = budget * m_right / m_left
    else:
        h_left = budget
        h_right = budget * m_left / m_right
    return (a, mid, b), (h_left, -h_right)


def make_atom(spec, grid):
    """Sample the atom on a grid and re-validate the samples.

    The grid must contain the atom's breakpoints among its cell edges,
    otherwise the sampled mean-zero and height constraints would be blurred
    by quadrature; atom_grid builds such grids.
    """
    breaks, heights = atom_profile(spec)
    for bp in breaks:
        if not np.any(np.isclose(grid.edges, bp, rtol=0.0, atol=1e-13)):
            raise AtomError(f"grid cell edges must include the atom "
                            f"breakpoint {bp}")
    vals = np.zeros(grid.size)
    for (lo, hi), h in zip(zip(breaks[:-1], breaks[1:]), heights):
        vals[(grid.nodes > lo) & (grid.nodes <= hi)] = h
    f = GridFunction(grid, vals)
    validate_atom_samples(spec, f)
    return f


def validate_atom_samples(spec, f):
    """Check the sampled atom against its defining clauses."""
    a, b = atom_interval(spec)
    mu = _setting_measure(spec.setting, spec.nu)
    budget = 1.0 / measure_of_interval(mu, a, b)
    sup = float(np.max(np.abs(f.values)))
    if sup > budget * (1.0 + _HEIGHT_TOL):
        raise AtomError(
            f"sup-norm clause violated: |a|_oo = {sup:.6g} exceeds "
            f"1/measure(I) = {budget:.6g}")
    outside = (f.grid.nodes <= a) | (f.grid.nodes > b)
    if np.any(f.values[outside] != 0.0):
        raise AtomError("support clause violated: nonzero samples outside I")
    if spec.kind == "a":
        mean = integrate(f, mu)
        if abs(mean) > _MEAN_TOL * max(1.0, budget):
            raise AtomError(
                f"mean-zero clause violated: integral = {mean:.3e}")
    return True


def atom_grid(nu, specs, points_per_cell=8, n_modes=64):
    """Reference grid whose cell edges include every atom breakpoint."""
    breaks = [bp for spec in specs for bp in atom_profile(spec)[0]]
    return spectral.reference_grid(nu, n_modes, points_per_cell, breaks)


# ---------------------------------------------------------------------------
# experiments


def _poisson_blocks(setting, basis, fs, time_grid, reduce):
    """Hand the Poisson families of the grid functions fs, all on one grid,
    to reduce(fn, cols, block) in chunks of functions and blocks of
    columns: block[t, a] is P_t fs[fn][a] at the nodes cols.  One
    mode_sums call serves every function."""
    flavor = spectral.SETTING_FLAVOR[setting]
    coeffs = np.array([spectral.analyze(f, basis, flavor).values for f in fs])
    semigroups.mode_sums(semigroups.poisson_multipliers(basis, time_grid.times),
                         basis.matrix(fs[0].grid, flavor), coeffs, reduce)


def _draw_index(rng, setting, stop, zero_swap):
    """Dyadic index uniform on 0..stop-1.  The s_nu family has no I_0, so
    there j = 0 becomes zero_swap, or an index drawn from it if a tuple."""
    j = int(rng.integers(0, stop))
    if setting == "s_nu" and j == 0:
        return int(rng.choice(zero_swap)) if isinstance(zero_swap, tuple) \
            else zero_swap
    return j


def _random_a_atom(rng, setting, nu, j, r_frac, r_cap=math.inf):
    """a-atom inside I_j, radius uniform on [min(r_cap, r_frac |I_j|),
    0.45 |I_j|], centre uniform where the support stays inside I_j."""
    lo, hi = dyadic_interval(setting, j)
    width = hi - lo
    radius = float(rng.uniform(min(r_cap, r_frac * width), 0.45 * width))
    center = float(rng.uniform(lo + radius, hi - radius))
    return AtomSpec(setting, "a", nu, center=center, radius=radius)


def atom_variation_experiment(setting, rho, basis, time_grid,
                              b_indices=(0, 1, 2, 3, 4, 5, 6),
                              n_a_atoms=20, seed=0, points_per_cell=8):
    """L1 norms of the Poisson variation field over a family of atoms.

    Reports per-atom norms, the max/min envelope over the family, and the
    trend over the dyadic index.  A uniform bound holds in the limit; the
    experiment certifies a flat envelope at desk scale.  The smallest atom
    scales must stay resolvable by the basis: radius and dyadic width down
    to _MIN_RADIUS = 2^-8 need lambda_max ~ 2 pi / _MIN_RADIUS, so the
    experiment wants n_modes >= ~512.  The atoms and their measure take
    the order nu of the basis.
    """
    nu = basis.nu
    rng = np.random.default_rng(seed)
    specs = [AtomSpec(setting, "b", nu, j=j) for j in b_indices]
    for _ in range(n_a_atoms):
        j = _draw_index(rng, setting, 6, (-2, -1, 1))
        specs.append(_random_a_atom(rng, setting, nu, j, 0.25, _MIN_RADIUS))
    g = atom_grid(nu, specs, points_per_cell, basis.n_modes)
    mu = _setting_measure(setting, nu)
    fields = np.empty((len(specs), g.size))

    def reduce(fn, cols, block):
        fields[fn, cols] = variation.rho_variation_values(block, rho)

    _poisson_blocks(setting, basis, [make_atom(spec, g) for spec in specs],
                    time_grid, reduce)
    rows = [{
        "kind": spec.kind,
        "j": spec.j,
        "center": spec.center,
        "radius": spec.radius,
        "l1_norm": lp_norm(GridFunction(g, field), 1.0, mu),
    } for spec, field in zip(specs, fields)]
    norms = np.array([r["l1_norm"] for r in rows])
    b_norms = np.array([r["l1_norm"] for r in rows if r["kind"] == "b"])
    return {
        "setting": setting, "nu": nu, "rho": rho, "seed": seed,
        "atoms": rows,
        "max_norm": float(norms.max()),
        "min_norm": float(norms.min()),
        "envelope": float(norms.max() / norms.min()),
        "b_norms": b_norms.tolist(),
    }


def h1_equivalence_experiment(setting, rho, basis, time_grid,
                              n_functions=12, seed=0, points_per_cell=8):
    """Ratio of the two H1-defining quantities over random atomic sums.

    Q1 = |f|_1 + |sup_t P_t f|_1 and Q2 = |f|_1 + |V_rho(P) f|_1 are
    equivalent norms; the experiment reports Q1/Q2 over the family and the
    envelope K with 1/K <= Q1/Q2 <= K.  The time grid must contain t = 1 so
    the discrete pointwise bound P_* <= V_rho + |P_1 f| is exact.  The
    atoms and their measure take the order nu of the basis.
    """
    nu = basis.nu
    if not np.any(np.isclose(time_grid.times, 1.0)):
        raise ValueError("time grid must contain t = 1")
    rng = np.random.default_rng(seed)
    all_specs = []
    combos = []
    for _ in range(n_functions):
        terms = int(rng.integers(1, _MAX_TERMS + 1))
        combo = []
        for _ in range(terms):
            lam = float(rng.uniform(0.2, 1.0))
            if rng.random() < 0.5:
                j = _draw_index(rng, setting, 7, (-2, -1, 1))
                spec = AtomSpec(setting, "b", nu, j=j)
            else:
                j = _draw_index(rng, setting, 7, 1)
                spec = _random_a_atom(rng, setting, nu, j, 0.05)
            combo.append((lam, spec))
            all_specs.append(spec)
        combos.append(combo)
    g = atom_grid(nu, all_specs, points_per_cell, basis.n_modes)
    mu = _setting_measure(setting, nu)
    i_one = int(np.argmin(np.abs(time_grid.times - 1.0)))
    fs = []
    for combo in combos:
        vals = np.zeros(g.size)
        for lam, spec in combo:
            vals += lam * make_atom(spec, g).values
        fs.append(GridFunction(g, vals))
    # per function: the rho-variation field, sup_t |P_t f| and P_1 f
    var, top, one = np.empty((3, len(fs), g.size))

    def reduce(fn, cols, block):
        var[fn, cols] = variation.rho_variation_values(block, rho)
        top[fn, cols] = semigroups.maximal_function(block)
        one[fn, cols] = block[i_one]

    _poisson_blocks(setting, basis, fs, time_grid, reduce)
    ratios = []
    rows = []
    for combo, f, *fields in zip(combos, fs, var, top, one):
        f1 = lp_norm(f, 1.0, mu)
        var_l1, p_star, p_one = [lp_norm(GridFunction(g, v), 1.0, mu)
                                 for v in fields]
        q1 = f1 + p_star
        q2 = f1 + var_l1
        ratios.append(q1 / q2)
        rows.append({"terms": len(combo), "Q1": q1, "Q2": q2,
                     "P1_l1": p_one, "lower_control_ok":
                     bool(q1 <= q2 + 2.0 * p_one + 1e-12 * q2)})
    ratios = np.array(ratios)
    K = float(max(ratios.max(), 1.0 / ratios.min()))
    return {
        "setting": setting, "nu": nu, "rho": rho, "seed": seed,
        "ratios": ratios.tolist(),
        "K": K,
        "functions": rows,
        "all_lower_control_ok": bool(all(r["lower_control_ok"] for r in rows)),
    }
