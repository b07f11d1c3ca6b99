from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import erf

from depolgas.errors import NoCriticalDensityError
from depolgas.kernels import GAUSSIAN, LORENTZIAN, CutoffProfile
from depolgas.meanfield import (BranchPair, DispersionInput,
                                RadialDistribution, branch_frequencies,
                                closed_form_branches,
                                critical_ratio_bisection,
                                critical_ratio_from_overlap, dispersion,
                                overlap_integral, shift_slope)

# frozen oracle: scaled branch roots (-4 +- sqrt(10)) / 3 at omega = Omega,
# rho = 1, varsigma = 2/3 (quadratic x^2 + 8/3 x + 2/3, cross-checked with
# np.roots to 1e-16)
_ROOT_PLUS = -0.27924077994387342
_ROOT_MINUS = -2.3874258867227933


def _m_gauss(t: float) -> float:
    # independent closed form of the gaussian enclosed fraction
    return erf(0.5 * t) - t / math.sqrt(math.pi) * math.exp(-0.25 * t * t)


def _m_lor(t: float) -> float:
    return 1.0 - math.exp(-t) * (1.0 + t + 0.5 * t * t)


def _random_inputs(rng: np.random.Generator, tied_varsigma: bool) -> DispersionInput:
    omega = 10.0 ** rng.uniform(14.0, 16.0)
    big_omega = omega * 10.0 ** rng.uniform(-0.5, 0.5)
    rho = rng.uniform(0.05, 3.2)
    varsigma = 2.0 * rho / 3.0 if tied_varsigma else rng.uniform(0.0, 2.5)
    return DispersionInput(omega=omega, Omega=big_omega, density_ratio=rho,
                           varsigma=varsigma)


# ---------------------------------------------------------------------------
# radial distributions and the overlap integral


def test_ideal_gas_overlap_is_unity(profile):
    g = RadialDistribution.ideal()
    assert g.contact_value == 1.0
    assert overlap_integral(g, profile) == pytest.approx(1.0, abs=1e-10)


def test_hard_step_overlap_matches_closed_form(gaussian_profile, lorentzian_profile):
    # J = 1 - M(sigma); the package integrates numerically, the oracle is exact
    for sigma in (0.1, 0.5, 1.0):
        j = overlap_integral(RadialDistribution.hard_step(sigma), gaussian_profile)
        assert j == pytest.approx(1.0 - _m_gauss(sigma), abs=1e-10)
        j = overlap_integral(RadialDistribution.hard_step(sigma), lorentzian_profile)
        assert j == pytest.approx(1.0 - _m_lor(sigma), abs=1e-10)


def test_hard_step_contact_and_zero_core(profile):
    assert RadialDistribution.hard_step(0.5).contact_value == 0.0
    g0 = RadialDistribution.hard_step(0.0)
    assert overlap_integral(g0, profile) == pytest.approx(1.0, abs=1e-10)


def test_overlap_scaling_is_cubic_in_core_size(gaussian_profile):
    # 1 - J must shrink as (sigma/ell)^3; the prefactor drifts by less than
    # a factor 1.5 across a factor-4 range of core sizes
    rates = []
    for sigma in (0.2, 0.1, 0.05):
        j = overlap_integral(RadialDistribution.hard_step(sigma), gaussian_profile)
        rates.append((1.0 - j) / sigma**3)
    assert max(rates) / min(rates) < 1.5


def test_tabulated_distribution_behaves_like_its_table(profile):
    r = np.array([0.0, 0.3, 0.31, 2.0])
    g = np.array([0.0, 0.0, 1.0, 1.0])
    dist = RadialDistribution.tabulated(r, g)
    assert dist.contact_value == 0.0
    assert float(dist.evaluate(5.0)) == 1.0  # continues as 1 past the table
    with pytest.warns(UserWarning, match="past the cutoff length"):
        j_table = overlap_integral(dist, profile)  # table reaches 2 ell
    j_step = overlap_integral(RadialDistribution.hard_step(0.3), profile)
    assert j_table == pytest.approx(j_step, abs=1e-3)


def test_tabulated_distribution_validation():
    with pytest.raises(ValueError):
        RadialDistribution.tabulated([0.0, 1.0], [0.5, 0.9])  # tail far from 1
    with pytest.raises(ValueError):
        RadialDistribution.tabulated([1.0, 0.5], [1.0, 1.0])  # non-increasing r
    with pytest.raises(ValueError):
        RadialDistribution.tabulated([0.0, 1.0], [-0.2, 1.0])  # negative g
    with pytest.raises(ValueError):
        RadialDistribution.tabulated([0.0], [1.0])  # too short
    with pytest.raises(ValueError):
        RadialDistribution(model="hard_step", sigma=-1.0)
    with pytest.raises(ValueError):
        RadialDistribution(model="percus")


def test_overlap_warns_outside_dilute_regime(gaussian_profile):
    with pytest.warns(UserWarning):
        overlap_integral(RadialDistribution.hard_step(1.5), gaussian_profile)


# ---------------------------------------------------------------------------
# depolarization shift


def test_shift_slope_composition():
    assert shift_slope(1.0, 0.0) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert shift_slope(0.0, 0.0) == 0.0
    assert shift_slope(1.0, 1.0) == pytest.approx(1.0, rel=1e-15)


def test_depolarization_shift_is_linear_in_density(gaussian_profile):
    g = RadialDistribution.hard_step(0.5)
    slope = shift_slope(overlap_integral(g, gaussian_profile), g.contact_value)
    s1 = slope * 1.0
    s2 = slope * 2.0
    assert s2 == pytest.approx(2.0 * s1, rel=1e-12)
    expected = 2.0 * (1.0 - _m_gauss(0.5)) / 3.0
    assert s1 == pytest.approx(expected, abs=1e-10)
    assert slope * 0.0 == 0.0


# ---------------------------------------------------------------------------
# dispersion and branch roots


def test_branch_roots_match_frozen_oracle():
    for omega in (1.0, 2.4e15):
        inp = DispersionInput(omega=omega, Omega=omega, density_ratio=1.0,
                              varsigma=2.0 / 3.0)
        yp, ym = branch_frequencies(inp).scaled(omega, omega)
        assert yp == pytest.approx(_ROOT_PLUS, rel=1e-13)
        assert ym == pytest.approx(_ROOT_MINUS, rel=1e-13)


def test_branch_roots_zero_residual_of_dispersion_function():
    # D is dimensionless, so |D| at the roots is the natural residual
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        inp = _random_inputs(rng, tied_varsigma=False)
        pair = branch_frequencies(inp)
        worst = max(worst, abs(dispersion(pair.s2_plus, inp)),
                    abs(dispersion(pair.s2_minus, inp)))
    assert worst <= 1e-10


def test_branch_roots_match_polynomial_eigenvalue_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        inp = _random_inputs(rng, tied_varsigma=False)
        w2 = inp.omega**2 * (1.0 + inp.varsigma)
        o2 = inp.Omega**2
        roots = np.sort(np.roots(
            [1.0, w2 + o2, o2 * inp.omega**2 * (1.0 + inp.varsigma - inp.density_ratio)]))
        pair = branch_frequencies(inp)
        scale = inp.omega * inp.Omega
        assert pair.s2_minus / scale == pytest.approx(roots[0] / scale, abs=1e-10)
        assert pair.s2_plus / scale == pytest.approx(roots[1] / scale, abs=1e-10)


def test_closed_form_agrees_with_quartic_route():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        inp = _random_inputs(rng, tied_varsigma=True)
        general = branch_frequencies(inp)
        closed = closed_form_branches(inp)
        scale = inp.omega * inp.Omega
        for a, b in ((general.s2_plus, closed.s2_plus),
                     (general.s2_minus, closed.s2_minus)):
            # relative to the dimensionless branch coordinate
            assert abs(a - b) / scale <= 1e-10 * max(1.0, abs(a) / scale)


def test_closed_form_rejects_untied_varsigma():
    inp = DispersionInput(omega=1.0, Omega=1.0, density_ratio=1.0, varsigma=0.5)
    with pytest.raises(ValueError):
        closed_form_branches(inp)


def test_branches_at_zero_density_are_bare_frequencies():
    omega = 2.4e15
    pair = branch_frequencies(DispersionInput(omega=omega, Omega=omega,
                                              density_ratio=0.0))
    assert pair.s2_plus == pytest.approx(-omega * omega, rel=1e-14)
    assert pair.s2_minus == pytest.approx(-omega * omega, rel=1e-14)
    assert pair.stable


def test_branch_root_is_exactly_zero_at_criticality():
    # Vieta's form keeps the near-critical root exact: c = 0 gives s2_plus = 0
    inp = DispersionInput(omega=1.7e15, Omega=0.9e15, density_ratio=3.0,
                          varsigma=2.0)
    pair = branch_frequencies(inp)
    assert pair.s2_plus == 0.0
    assert pair.stable


def test_stability_flag_flips_across_criticality():
    below = DispersionInput(omega=1.0, Omega=1.0, density_ratio=2.9,
                            varsigma=2.0 * 2.9 / 3.0)
    above = DispersionInput(omega=1.0, Omega=1.0, density_ratio=3.1,
                            varsigma=2.0 * 3.1 / 3.0)
    assert branch_frequencies(below).stable
    assert not branch_frequencies(above).stable
    assert branch_frequencies(above).s2_plus > 0.0


def test_softening_branch_is_monotone_in_density():
    omega = 1.3e15
    slope = 2.0 / 3.0  # hard-core slope with J -> 1
    values = []
    for rho in np.linspace(0.0, 3.2, 33):
        inp = DispersionInput(omega=omega, Omega=0.7 * omega, density_ratio=rho,
                              varsigma=slope * rho)
        values.append(branch_frequencies(inp).s2_plus)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_dispersion_rejects_poles_and_bad_input():
    inp = DispersionInput(omega=1.0, Omega=2.0, density_ratio=1.0)
    with pytest.raises(ValueError):
        dispersion(-4.0, inp)  # s^2 = -Omega^2 is a pole
    with pytest.raises(ValueError):
        DispersionInput(omega=0.0, Omega=1.0, density_ratio=1.0)
    with pytest.raises(ValueError):
        DispersionInput(omega=1.0, Omega=1.0, density_ratio=-0.1)
    with pytest.raises(ValueError):
        DispersionInput(omega=1.0, Omega=1.0, density_ratio=1.0, varsigma=-0.2)


# ---------------------------------------------------------------------------
# critical density, two routes


def test_critical_ratio_reference_points():
    assert critical_ratio_from_overlap(0.0, 0.0) == 1.0  # bare instability
    assert critical_ratio_from_overlap(1.0, 0.0) == pytest.approx(3.0, rel=1e-14)
    assert critical_ratio_from_overlap(0.5, 0.5) == pytest.approx(2.0, rel=1e-14)


def test_critical_density_matches_inline_oracle(gaussian_profile, lorentzian_profile):
    for profile, m_of in ((gaussian_profile, _m_gauss), (lorentzian_profile, _m_lor)):
        sigma = 0.4
        g = RadialDistribution.hard_step(sigma)
        got = critical_ratio_from_overlap(overlap_integral(g, profile), g.contact_value)
        expected = 1.0 / (1.0 - 2.0 * (1.0 - m_of(sigma)) / 3.0)
        assert got == pytest.approx(expected, abs=1e-9)


def test_critical_density_small_core_approaches_three(profile):
    g = RadialDistribution.hard_step(0.02)
    got = critical_ratio_from_overlap(overlap_integral(g, profile), g.contact_value)
    assert abs(got - 3.0) <= 1e-3


def test_critical_density_profile_independence_at_small_core():
    g = RadialDistribution.hard_step(0.02)
    rc_gauss, rc_lor = (
        critical_ratio_from_overlap(overlap_integral(g, CutoffProfile(ell=1.0, shape=shape)),
                                    g.contact_value)
        for shape in (GAUSSIAN, LORENTZIAN))
    assert abs(rc_gauss - rc_lor) < 1e-4


def test_bisection_route_matches_analytic_route():
    for j, g0 in ((1.0, 0.0), (0.95, 0.0), (0.7, 0.1), (0.0, 0.0)):
        analytic = critical_ratio_from_overlap(j, g0)
        numeric = critical_ratio_bisection(j, g0, omega=2.4e15, Omega=1.1e15)
        assert numeric == pytest.approx(analytic, rel=1e-8)


def test_bisection_is_independent_of_mode_frequency():
    # the instability condition is density-only; Omega spans 3 decades
    reference = critical_ratio_bisection(1.0, 0.0, omega=2.4e15, Omega=1e13)
    for big_omega in (1e14, 1e15, 1e16):
        got = critical_ratio_bisection(1.0, 0.0, omega=2.4e15, Omega=big_omega)
        assert got == pytest.approx(reference, rel=1e-8)
    assert reference == pytest.approx(3.0, rel=1e-8)


def test_no_critical_density_for_ideal_gas(profile):
    # with g(0) = 1 the contact term exactly cancels the instability: the
    # slope is 2/3 + 1/3 = 1 and no finite critical density exists
    g = RadialDistribution.ideal()
    j = overlap_integral(g, profile)
    with pytest.raises(NoCriticalDensityError):
        critical_ratio_from_overlap(j, g.contact_value)
    with pytest.raises(NoCriticalDensityError):
        critical_ratio_bisection(j, g.contact_value, omega=1e15, Omega=1e15)


def test_no_critical_density_when_slope_exceeds_one():
    # slope = 2 J / 3 + g(0) / 3 = 1.2 here: the shift outruns the density
    with pytest.raises(NoCriticalDensityError):
        critical_ratio_from_overlap(1.3, 1.0)
    with pytest.raises(NoCriticalDensityError):
        critical_ratio_bisection(1.3, 1.0, omega=1e15, Omega=1e15)


def test_branch_pair_scaled_units():
    pair = BranchPair(s2_plus=-2.0, s2_minus=-8.0, stable=True)
    assert pair.scaled(2.0, 1.0) == (-1.0, -4.0)
