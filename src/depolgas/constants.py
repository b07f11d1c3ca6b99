"""Physical constants, species data, and characteristic densities.

Everything in the package is SI: frequencies in rad/s, dipole moments in
C*m, lengths in m, number densities in 1/m^3.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA 2018 values used throughout."""

    hbar: float = 1.054571817e-34        # J s
    epsilon0: float = 8.8541878128e-12   # F / m
    c: float = 2.99792458e8              # m / s


CODATA = PhysicalConstants()


@dataclass(frozen=True)
class AtomSpecies:
    """A two-level (oscillator) species.

    Parameters
    ----------
    name : str
        Label echoed in outputs; carries no physics.
    omega : float
        Transition angular frequency, rad/s.
    dipole : float
        Transition dipole matrix element, C*m.
    core_diameter : float
        Effective hard-core diameter of the atom, m.  Enters pair
        statistics only; zero is allowed.
    """

    name: str
    omega: float
    dipole: float
    core_diameter: float = 0.0

    def __post_init__(self):
        if self.omega <= 0.0:
            raise ValueError("species omega must be positive")
        if self.dipole <= 0.0:
            raise ValueError("species dipole must be positive")
        if self.core_diameter < 0.0:
            raise ValueError("species core_diameter cannot be negative")


def dicke_density(species: AtomSpecies) -> float:
    """Characteristic density at which a bare two-oscillator gas destabilizes.

    n_D = hbar * omega * epsilon0 / (2 d^2).  Scales linearly in omega and
    as the inverse square of the dipole moment.
    """
    return CODATA.hbar * species.omega * CODATA.epsilon0 / (2.0 * species.dipole**2)

