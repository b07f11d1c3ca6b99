"""Depolarization shift and stability of a dense dipole-coupled gas.

The package computes regularized dipole interaction kernels, the
density-dependent depolarization shift of the polariton spectrum, the
resulting critical density, and cross-checks the mean-field picture
against a finite-size microscopic eigenvalue simulation.
"""

__version__ = "0.1.0"

from .constants import AtomSpecies, PhysicalConstants, CODATA, dicke_density
from .kernels import (CutoffProfile, GAUSSIAN, LORENTZIAN, gamma_k, gamma_r,
                      kernel_k, kernel_u, radial_scalars)
from .meanfield import (BranchPair, DispersionInput, RadialDistribution,
                        branch_frequencies, closed_form_branches,
                        critical_ratio_bisection, critical_ratio_from_overlap,
                        dispersion, overlap_integral, shift_slope)
from .microsim import (Configuration, ModeBasis, StabilityReport,
                       assemble_dynamical_matrix, build_mode_basis,
                       minimal_eigenvalue, sample_configuration,
                       stability_scan)

__all__ = [
    "__version__",
    "AtomSpecies", "PhysicalConstants", "CODATA", "dicke_density",
    "CutoffProfile", "GAUSSIAN", "LORENTZIAN", "gamma_k", "gamma_r",
    "kernel_k", "kernel_u", "radial_scalars",
    "BranchPair", "DispersionInput", "RadialDistribution",
    "branch_frequencies", "closed_form_branches",
    "critical_ratio_bisection", "critical_ratio_from_overlap",
    "dispersion", "overlap_integral", "shift_slope",
    "Configuration", "ModeBasis", "StabilityReport",
    "assemble_dynamical_matrix", "build_mode_basis", "minimal_eigenvalue",
    "sample_configuration", "stability_scan",
]
