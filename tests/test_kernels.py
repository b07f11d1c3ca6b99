from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import spherical_jn
from scipy.special._ufuncs import _spherical_jn

from depolgas.kernels import (GAUSSIAN, LORENTZIAN, CutoffProfile,
                              QuadratureLog, contact_scalars, enclosed_fraction,
                              gamma_k, gamma_peak, gamma_r, kernel_k, kernel_u,
                              radial_scalars)

# frozen oracle: closed-form enclosed fractions at r/ell = 0.5, cross-checked
# against direct quadrature of 4 pi s^2 Gamma(s) (agreement ~4e-17)
_M_GAUSS_HALF = 0.011322857824208332
_M_LOR_HALF = 0.014387677966970713

_DIRECTION = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)

# frozen spectral-route (K_T, K_L) at ell = 1, as float.hex, keyed by r / ell
_SPECTRAL_HEX = {
    GAUSSIAN: {
        0.0: ("0x1.ea647f58a4cbep-7", "0x1.ea647f58a4cbep-7"),
        0.05: ("0x1.ea065fa3b4700p-7", "0x1.ea356e25f239bp-7"),
        0.7: ("0x1.a6d766b45baadp-7", "0x1.c7e074b0be2a0p-7"),
        3.1: ("-0x1.28329e7467c1ep-13", "0x1.1cc5351113910p-8"),
        7.9: ("-0x1.5279f1ad7ee91p-13", "0x1.527bf659ab371p-12"),
    },
    LORENTZIAN: {
        0.0: ("0x1.b2995e7b7b603p-6", "0x1.b2995e7b7b603p-6"),
        0.05: ("0x1.9acb2da5486fap-6", "0x1.a29f7e2834d71p-6"),
        0.7: ("0x1.83e435ae838f6p-7", "0x1.038e1d12b3605p-6"),
        3.1: ("0x1.946baf06c5dc7p-13", "0x1.a353e0937de19p-9"),
        7.9: ("-0x1.2e8405a01c1f9p-13", "0x1.4d73a0ebaa4a1p-12"),
    },
}


def _grad_grad_coulomb(rvec) -> np.ndarray:
    """(grad grad G)(r) = (I - 3 rhat rhat) / (4 pi r^3) for G = -1/(4 pi r)."""
    rvec = np.asarray(rvec, dtype=float)
    r = np.linalg.norm(rvec)
    if r == 0.0:
        raise ValueError("grad grad G is singular at r = 0")
    rhat = rvec / r
    return (np.eye(3) - 3.0 * np.outer(rhat, rhat)) / (4.0 * math.pi * r**3)


def test_profile_validation():
    with pytest.raises(ValueError):
        CutoffProfile(ell=0.0)
    with pytest.raises(ValueError):
        CutoffProfile(ell=-1.0)
    with pytest.raises(ValueError):
        CutoffProfile(ell=1.0, shape="boxcar")


def test_gamma_k_reference_values(gaussian_profile, lorentzian_profile):
    assert gamma_k(gaussian_profile, 0.0) == 1.0
    assert gamma_k(lorentzian_profile, 0.0) == 1.0
    assert gamma_k(gaussian_profile, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-14)
    assert gamma_k(lorentzian_profile, 1.0) == pytest.approx(0.5, rel=1e-14)
    with pytest.raises(ValueError):
        gamma_k(gaussian_profile, -1.0)


def test_gamma_r_unit_normalization(profile):
    # Int Gamma d^3r = 1 by construction; verified by direct quadrature
    val, err = integrate.quad(
        lambda r: 4.0 * math.pi * r * r * float(gamma_r(profile, r)), 0.0, 40.0)
    assert err < 1e-10
    assert val == pytest.approx(1.0, abs=1e-10)


def test_gamma_peak_values_and_scaling():
    assert gamma_peak(CutoffProfile(ell=1.0, shape=GAUSSIAN)) == pytest.approx(
        (4.0 * math.pi) ** -1.5, rel=1e-14)
    assert gamma_peak(CutoffProfile(ell=1.0, shape=LORENTZIAN)) == pytest.approx(
        1.0 / (8.0 * math.pi), rel=1e-14)
    # Gamma carries 1/ell^3 units
    assert gamma_peak(CutoffProfile(ell=2.0, shape=GAUSSIAN)) == pytest.approx(
        (4.0 * math.pi) ** -1.5 / 8.0, rel=1e-14)


def test_enclosed_fraction_frozen_values(gaussian_profile, lorentzian_profile):
    assert float(enclosed_fraction(gaussian_profile, 0.5)) == pytest.approx(
        _M_GAUSS_HALF, rel=1e-13)
    assert float(enclosed_fraction(lorentzian_profile, 0.5)) == pytest.approx(
        _M_LOR_HALF, rel=1e-13)


def test_enclosed_fraction_matches_quadrature_of_gamma(profile):
    for r in (0.25, 1.0, 3.0):
        val, _ = integrate.quad(
            lambda s: 4.0 * math.pi * s * s * float(gamma_r(profile, s)), 0.0, r)
        assert float(enclosed_fraction(profile, r)) == pytest.approx(val, abs=1e-12)


def test_enclosed_fraction_limits_and_monotonicity(profile):
    grid = np.linspace(0.0, 30.0, 400)
    m = enclosed_fraction(profile, grid)
    assert m[0] == 0.0
    assert np.all(np.diff(m) >= 0.0)  # saturates at exactly 1 in the far tail
    assert np.all(np.diff(m)[grid[:-1] < 6.0] > 0.0)
    assert m[-1] == pytest.approx(1.0, abs=1e-10)


def test_kernel_routes_agree(profile):
    # the two K evaluation routes are independent (closed forms vs spectral
    # Bessel quadrature); disagreement stays far below the 1e-6 Gamma(0) budget
    peak = gamma_peak(profile)
    worst = 0.0
    for r in (0.0, 0.1, 0.5, 1.0, 1.7, 2.5, 4.0, 6.0, 8.0):
        kt_re, kl_re = radial_scalars(profile, r, route="real")
        kt_sp, kl_sp = radial_scalars(profile, r, route="spectral")
        worst = max(worst, abs(kt_re - kt_sp), abs(kl_re - kl_sp))
    # Small radii are hardest for the spectral route: the transverse/longitudinal
    # recombination divides oscillatory tail integrals by (r/ell)^3.  Measured
    # worst case is ~2e-8 * peak at r = 0.1 ell, well inside the 1e-6 budget.
    assert worst <= 1e-7 * peak


def test_kernel_at_origin_is_isotropic_two_thirds_peak(profile):
    expected = 2.0 / 3.0 * gamma_peak(profile) * np.eye(3)
    for route in ("real", "spectral"):
        k0 = kernel_k(profile, [0.0, 0.0, 0.0], route=route)
        assert np.allclose(k0, expected, rtol=1e-9, atol=0.0)


def test_bessel_ufunc_is_bitwise_the_public_spherical_jn():
    # the spectral integrands call the ufunc directly; z reaches
    # x0 * u = 2000 * 8 = 1.6e4 at the largest kernel-check radius
    z = np.concatenate([[0.0, 1e-9, 0.3, 0.999, 1.0, 1.7, 2.0, 2.5, 3.1],
                        np.geomspace(1e-3, 1.6e4, 4001)])
    for n in (0, 1, 2):
        assert np.array_equal(_spherical_jn(n, z), spherical_jn(n, z))
        for zi in z[::97].tolist():
            value = _spherical_jn(n, zi)
            assert type(value) is np.float64
            assert value == spherical_jn(n, zi)


def test_spectral_route_is_frozen(profile):
    for r, (kt_hex, kl_hex) in _SPECTRAL_HEX[profile.shape].items():
        kt, kl = radial_scalars(profile, r, route="spectral")
        assert (float(kt).hex(), float(kl).hex()) == (kt_hex, kl_hex)


def test_quadrature_log_records_only_inside_its_block(profile):
    radial_scalars(profile, 0.7, route="spectral")  # no active log: no effect
    with QuadratureLog() as log:
        radial_scalars(profile, 0.7, route="spectral")
        radial_scalars(profile, 0.7, route="real")
    assert log.calls >= 2  # the direct p and q quadratures at least
    assert 0.0 < log.error_max < 1e-7
    assert log.seconds > 0.0
    calls = log.calls
    radial_scalars(profile, 0.7, route="spectral")
    assert log.calls == calls


def test_trace_identity_real_route(profile):
    # tr K = 2 Gamma holds identically in the closed-form route
    for r in (0.3, 1.0, 2.4, 5.0, 8.0):
        k = kernel_k(profile, _DIRECTION * r, route="real")
        gam = float(gamma_r(profile, r))
        assert np.trace(k) == pytest.approx(2.0 * gam, abs=1e-13 * gamma_peak(profile))


def test_trace_identity_spectral_route(profile):
    for r in (0.5, 2.0, 6.0):
        k = kernel_k(profile, _DIRECTION * r, route="spectral")
        gam = float(gamma_r(profile, r))
        assert np.trace(k) == pytest.approx(2.0 * gam, abs=1e-9 * gamma_peak(profile))


def test_contact_trace_is_twice_gamma(profile):
    # the delta part of u lives at the origin only; off the origin
    # tr u = tr K = 2 Gamma because grad grad G is traceless
    for r in (0.2, 1.3, 4.0):
        u = kernel_u(profile, _DIRECTION * r)
        assert np.trace(u) == pytest.approx(2.0 * float(gamma_r(profile, r)),
                                            abs=1e-12 * gamma_peak(profile))


def test_kernel_isotropy_and_symmetry(profile):
    rng = np.random.default_rng(7)
    for _ in range(4):
        rvec = rng.normal(size=3)
        k = kernel_k(profile, rvec)
        assert np.array_equal(k, k.T)
        assert np.allclose(k, kernel_k(profile, -rvec), rtol=0.0, atol=0.0)
        # same radius, different direction: identical eigenvalue content
        other = kernel_k(profile, np.linalg.norm(rvec) * _DIRECTION)
        assert np.allclose(np.linalg.eigvalsh(k), np.linalg.eigvalsh(other),
                           rtol=1e-12, atol=1e-15 * gamma_peak(profile))


def test_kernel_far_field_approaches_static_dipole_tensor():
    # u = K + grad grad G decays on the cutoff scale, so K -> -grad grad G;
    # the lorentzian remainder decays only exponentially in r/ell
    # The exponential smearing tail decays much more slowly than the gaussian
    # one, so at 8 ell the regularized kernel still deviates by a few percent.
    cases = ((GAUSSIAN, 8.0, 1e-4), (LORENTZIAN, 8.0, 1e-1), (LORENTZIAN, 16.0, 5e-4))
    for shape, r, tol in cases:
        profile = CutoffProfile(ell=1.0, shape=shape)
        rvec = _DIRECTION * r
        k = kernel_k(profile, rvec)
        dip = _grad_grad_coulomb(rvec)
        assert np.max(np.abs(k + dip)) <= tol * np.max(np.abs(dip))


def test_transverse_scalar_changes_sign(gaussian_profile):
    kt_near, kl_near = radial_scalars(gaussian_profile, 0.1)
    kt_far, kl_far = radial_scalars(gaussian_profile, 4.0)
    assert kt_near > 0.0 and kt_far < 0.0
    assert kl_near > 0.0 and kl_far > 0.0  # K_L = M / (2 pi r^3) stays positive


def test_contact_kernel_longitudinal_attraction(profile):
    # the longitudinal contact eigenvalue is strictly negative at finite r,
    # which is what makes close pairs soften the stability matrix
    for r in (0.3, 1.0, 2.0):
        ut, ul = contact_scalars(profile, r)
        assert ul < 0.0
        assert ut > 0.0


def test_contact_scalars_match_kernel_u(profile):
    radii = np.array([0.2, 0.9, 3.1])
    ut, ul = contact_scalars(profile, radii)
    for i, r in enumerate(radii):
        u = kernel_u(profile, np.array([r, 0.0, 0.0]))
        assert u[1, 1] == pytest.approx(ut[i], rel=1e-13)
        assert u[0, 0] == pytest.approx(ul[i], rel=1e-13)


def test_contact_kernel_rejects_origin(profile):
    with pytest.raises(ValueError):
        kernel_u(profile, [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        contact_scalars(profile, np.array([1.0, 0.0]))


def test_grad_grad_coulomb_properties():
    rvec = np.array([0.3, -1.2, 0.4])
    t = _grad_grad_coulomb(rvec)
    assert np.trace(t) == pytest.approx(0.0, abs=1e-16 / np.linalg.norm(rvec) ** 3)
    r = np.linalg.norm(rvec)
    rhat = rvec / r
    expected = (np.eye(3) - 3.0 * np.outer(rhat, rhat)) / (4.0 * math.pi * r**3)
    assert np.allclose(t, expected, rtol=1e-14)
    with pytest.raises(ValueError):
        _grad_grad_coulomb([0.0, 0.0, 0.0])


def test_invalid_inputs_raise(profile):
    with pytest.raises(ValueError):
        gamma_r(profile, -0.1)
    with pytest.raises(ValueError):
        enclosed_fraction(profile, np.array([0.5, -1.0]))
    with pytest.raises(ValueError):
        radial_scalars(profile, -1.0)
    with pytest.raises(ValueError):
        radial_scalars(profile, 1.0, route="mixed")
