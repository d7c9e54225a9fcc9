"""Fourier-Bessel semigroups and fluctuation operators on the unit interval.

Building blocks: Bessel evaluation and zeros (bessel), quadrature grids and
measures (grid), eigenfunction expansions (spectral), heat/Poisson flows
with Weyl fractional derivatives (semigroups), variation / oscillation /
jump / square functionals (variation), kernel estimate certification
(kernel_bounds), Hardy-space atoms and experiments (hardy), and a batch
CLI (cli).
"""

__version__ = "0.1.0"

from .bessel import (ZeroFindingError, ZeroTable, bessel_i, bessel_j,
                     bessel_j_deriv, bessel_j_over_power, bessel_zero,
                     mcmahon_guess, norm_const, norm_consts, zero_table)
from .grid import (LEBESGUE, GridFunction, MeasureTag, RadialGrid,
                   ball_measure, cumulative_integral, grid_from_edges,
                   integrate, lp_norm, make_grid, weak_lp_quasinorm, weighted)
from .spectral import (CoefficientVector, SpectralBasis, analyze,
                       apply_operator_diagonal, eigenfunction, gram_matrix,
                       make_basis, mode_values, reference_grid, synthesize)
from .semigroups import (FamilySamples, FractionalOrder,
                         KernelTruncationError, TimeGrid, apply_family,
                         free_heat_kernel, heat_kernel, heat_multipliers,
                         maximal_function, poisson_kernel,
                         poisson_multipliers, subordination_factor,
                         subordination_poisson_apply,
                         subordination_poisson_kernel, t_min,
                         weyl_integral_check)
from .variation import (BracketSpec, VariationResult, g_function,
                        jump_count, jump_count_values, oscillation,
                        rho_variation, rho_variation_values, short_variation,
                        total_variation, variation_field)
from .kernel_bounds import (BoundReport, e_rho_kernel_norm,
                            free_kernel_comparison, heat_envelope_report,
                            heat_gradient_report, region,
                            regularity_bound_check, s_nu_bound_check,
                            size_bound_check)
from .hardy import (AtomError, AtomSpec, atom_grid,
                    atom_variation_experiment, dyadic_interval,
                    h1_equivalence_experiment, hardy_h0, hardy_hinf,
                    make_atom, validate_atom_samples, validate_atom_spec)
