"""Fourier-Bessel semigroups and fluctuation operators on the unit interval.

Building blocks: Bessel evaluation and zeros (bessel), quadrature grids and
measures (grid), eigenfunction expansions (spectral), heat/Poisson flows
with Weyl fractional derivatives (semigroups), variation / oscillation /
jump / square functionals (variation), kernel estimate certification
(kernel_bounds), Hardy-space atoms and experiments (hardy), and a batch
CLI (cli).
"""

__version__ = "0.1.0"
