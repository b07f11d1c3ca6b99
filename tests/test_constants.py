from __future__ import annotations

import pytest

from depolgas.constants import AtomSpecies, dicke_density

# frozen oracle: n_D = hbar omega eps0 / (2 d^2) for the Rb D1 line,
# omega = 2 pi c / 794.98 nm, d = 2.537e-29 C m
_RB_OMEGA = 2369432649008595.5
_RB_DIPOLE = 2.537e-29
_RB_ND = 1.7186930825110133e27


def _rb_species() -> AtomSpecies:
    return AtomSpecies(name="Rb87-D1", omega=_RB_OMEGA, dipole=_RB_DIPOLE,
                       core_diameter=4.4e-10)


def test_dicke_density_rubidium_matches_frozen_oracle():
    assert dicke_density(_rb_species()) == pytest.approx(_RB_ND, rel=1e-12)


def test_dicke_density_rubidium_near_quoted_value():
    # the configured line data land within 3% of the quoted 1.75e27 per m^3
    n_d = dicke_density(_rb_species())
    assert abs(n_d - 1.75e27) / 1.75e27 < 0.03


def test_dicke_density_scaling_in_omega_and_dipole():
    base = AtomSpecies(name="a", omega=1.0e15, dipole=1.0e-29)
    doubled_omega = AtomSpecies(name="b", omega=2.0e15, dipole=1.0e-29)
    doubled_dipole = AtomSpecies(name="c", omega=1.0e15, dipole=2.0e-29)
    n0 = dicke_density(base)
    assert dicke_density(doubled_omega) == pytest.approx(2.0 * n0, rel=1e-14)
    assert dicke_density(doubled_dipole) == pytest.approx(0.25 * n0, rel=1e-14)


def test_species_validation_rejects_nonpositive_parameters():
    with pytest.raises(ValueError):
        AtomSpecies(name="x", omega=0.0, dipole=1e-29)
    with pytest.raises(ValueError):
        AtomSpecies(name="x", omega=-1.0, dipole=1e-29)
    with pytest.raises(ValueError):
        AtomSpecies(name="x", omega=1e15, dipole=0.0)
    with pytest.raises(ValueError):
        AtomSpecies(name="x", omega=1e15, dipole=1e-29, core_diameter=-1e-10)
