"""Regularized transverse kernels for dipole-coupled oscillators.

The cutoff profile gamma(k) (gamma(0) = 1, decaying at large k) defines a
smeared delta function Gamma(r) whose Fourier transform is gamma(k)^2 and
whose volume integral is exactly 1.  Two families are built in:

* ``gaussian``:   gamma(k) = exp(-k^2 l^2 / 2),
                  Gamma(r) = (4 pi l^2)^(-3/2) exp(-r^2 / 4 l^2)
* ``lorentzian``: gamma(k) = 1 / (1 + k^2 l^2),
                  Gamma(r) = exp(-r / l) / (8 pi l^3)

The transverse kernel is the 3x3 matrix

    K(r) = Int d^3k/(2pi)^3 gamma(k)^2 (I - khat khat) e^{i k.r}
         = Gamma(r) I  -  (grad grad)(Gamma * G),     G(r) = -1/(4 pi r),

and the contact kernel u(r) = K(r) + (grad grad G)(r) subtracts the far
dipole field, leaving a matrix supported on the scale of the cutoff length.
Both K evaluation routes are implemented and cross-checked in the tests:

* ``real``:     closed forms built from Gamma and the enclosed fraction
                M(r) = Int_0^r 4 pi s^2 Gamma(s) ds; by isotropy
                K_T = Gamma - M/(4 pi r^3),  K_L = M/(2 pi r^3).
* ``spectral``: 1D radial quadrature of the plane-wave expansion; the
                angular integrals reduce to spherical Bessel weights
                j0, j1/z, j2 with z = k r.  The integrands call the C ufunc
                behind ``scipy.special.spherical_jn`` directly: for real
                z >= 0 the values are the same bits, at ~1/30 of the cost
                of the public wrapper's per-call array handling.

Trace identities hold in either route: tr K = 2 Gamma everywhere and
tr u = 2 Gamma away from the origin (u carries the remaining delta
contribution symbolically; u(0) is never evaluated).
"""

from __future__ import annotations

import math
import time
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import erf
from scipy.special._ufuncs import _spherical_jn

from .errors import QuadratureConvergenceError

GAUSSIAN = "gaussian"
LORENTZIAN = "lorentzian"
_SHAPES = (GAUSSIAN, LORENTZIAN)

# dimensionless quadrature knobs (x = k * ell); every spectral quad runs at
# QUADPACK's default epsabs = epsrel = 1.49e-8 and its error estimate is
# gated at 1e-7 * max(|value|, reference scale) in _quad
_X_CORE = 40.0          # default upper limit of the direct Bessel quadrature
_X_CORE_MAX = 2000.0    # cap when the limit is stretched at small r
_QUAD_LIMIT = 800


@dataclass(frozen=True)
class CutoffProfile:
    """A cutoff family and its length ell (m)."""

    ell: float
    shape: str = GAUSSIAN

    def __post_init__(self):
        if self.ell <= 0.0:
            raise ValueError("cutoff length ell must be positive")
        if self.shape not in _SHAPES:
            raise ValueError(f"unknown cutoff shape {self.shape!r}; choose from {_SHAPES}")


def gamma_k(profile: CutoffProfile, k):
    """Cutoff profile gamma(k) for k >= 0 (rad/m).  Vectorized."""
    k = np.asarray(k, dtype=float)
    if np.any(k < 0.0):
        raise ValueError("wavenumber k must be non-negative")
    return _gamma_of_x(profile.shape, k * profile.ell)


def _gamma_of_x(shape: str, x):
    """gamma at x = k * ell, on an array or on one float."""
    if shape == GAUSSIAN:
        return np.exp(-0.5 * x * x)
    return 1.0 / (1.0 + x * x)


def gamma_r(profile: CutoffProfile, r):
    """Smeared delta Gamma(r); normalized so Int Gamma d^3r = 1.  Vectorized."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("radius r must be non-negative")
    return _gamma_of_r(profile, r)


def _gamma_of_r(profile: CutoffProfile, r):
    """Gamma at r >= 0, on an array or on one float, without checking r."""
    ell = profile.ell
    if profile.shape == GAUSSIAN:
        return (4.0 * math.pi * ell * ell) ** -1.5 * np.exp(-r * r / (4.0 * ell * ell))
    return np.exp(-r / ell) / (8.0 * math.pi * ell**3)


def gamma_peak(profile: CutoffProfile) -> float:
    """Gamma(0), the natural magnitude scale of the kernels."""
    return float(gamma_r(profile, 0.0))


def enclosed_fraction(profile: CutoffProfile, r):
    """M(r) = Int_0^r 4 pi s^2 Gamma(s) ds, rising from 0 to 1.  Vectorized."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("radius r must be non-negative")
    t = r / profile.ell
    if profile.shape == GAUSSIAN:
        return erf(0.5 * t) - t / math.sqrt(math.pi) * np.exp(-0.25 * t * t)
    return 1.0 - np.exp(-t) * (1.0 + t + 0.5 * t * t)


# ---------------------------------------------------------------------------
# scalar (transverse, longitudinal) reductions of K


def _radial_scalars_real(profile: CutoffProfile, r: float) -> tuple[float, float]:
    if r == 0.0:
        kt = 2.0 / 3.0 * gamma_peak(profile)
        return kt, kt
    m = float(enclosed_fraction(profile, r))
    g = float(gamma_r(profile, r))
    kt = g - m / (4.0 * math.pi * r**3)
    kl = m / (2.0 * math.pi * r**3)
    return kt, kl


class QuadratureLog:
    """Time spent in, and worst gated error of, the quadratures of a block.

    ``with QuadratureLog() as log:`` makes the log active in the current
    context.  Every spectral kernel quadrature and every mean-field overlap
    quadrature run there adds its seconds and err / max(|value|, scale), the
    ratio its convergence gate bounds by 1e-7; a failing quadrature is added
    before it raises.
    """

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.error_max = 0.0
        self._token = None

    def __enter__(self) -> "QuadratureLog":
        self._token = _ACTIVE_LOG.set(self)
        return self

    def __exit__(self, *exc_info) -> None:
        _ACTIVE_LOG.reset(self._token)

    def add(self, seconds: float, error: float) -> None:
        self.calls += 1
        self.seconds += seconds
        self.error_max = max(self.error_max, error)


_ACTIVE_LOG: ContextVar[QuadratureLog | None] = ContextVar("quadrature_log", default=None)


def log_quadrature(started: float, err: float, val: float, scale: float) -> None:
    """Add a quadrature begun at perf_counter ``started`` to the active log."""
    log = _ACTIVE_LOG.get()
    if log is not None:
        log.add(time.perf_counter() - started, err / max(abs(val), scale))


def _quad(f, a, b, scale: float, **kw) -> float:
    started = time.perf_counter()
    val, err = integrate.quad(f, a, b, limit=_QUAD_LIMIT, **kw)
    log_quadrature(started, err, val, scale)
    # oscillatory pieces can be much smaller than the full spectral weight,
    # so convergence is judged against the caller-supplied reference scale
    if err > 1e-7 * max(abs(val), scale):
        raise QuadratureConvergenceError(
            f"kernel quadrature reached error {err:.3e} on value {val:.3e}")
    return val


def _radial_scalars_spectral(profile: CutoffProfile, r: float) -> tuple[float, float]:
    ell, shape = profile.ell, profile.shape
    u = r / ell

    def g2(x):
        # gamma_k's arithmetic on one float; the (x / ell) * ell round trip
        # keeps every byte of the results
        return float(_gamma_of_x(shape, (x / ell) * ell)) ** 2

    ref = 2.0 * math.pi**2 * ell**3 * gamma_peak(profile)

    if u == 0.0:
        i0 = _quad(lambda x: x * x * g2(x), 0.0, np.inf, scale=ref)
        p = 2.0 / 3.0 * i0
        q = 0.0
    else:
        # direct Bessel quadrature on [0, x0]; stretch x0 at small u so the
        # Fourier tail below never gets amplified by the 1/u^3 recombination
        x0 = min(max(_X_CORE, 10.0 / u), _X_CORE_MAX)

        def f_p(x):
            z = x * u
            if z < 1e-8:
                w = 2.0 / 3.0 - z * z * (2.0 / 15.0)
            else:
                w = _spherical_jn(0, z) - _spherical_jn(1, z) / z
            return x * x * g2(x) * w

        def f_q(x):
            return x * x * g2(x) * _spherical_jn(2, x * u)

        p = _quad(f_p, 0.0, x0, scale=ref)
        q = _quad(f_q, 0.0, x0, scale=ref)

        # profiles with slow spectral decay keep a tail beyond x0; expand the
        # Bessel weights into sin/cos pieces and use Fourier quadrature
        if g2(x0) > 1e-300:
            a = _quad(lambda x: x * g2(x), x0, np.inf, scale=ref, weight="sin", wvar=u)
            b = _quad(lambda x: g2(x) / x, x0, np.inf, scale=ref, weight="sin", wvar=u)
            c = _quad(lambda x: g2(x), x0, np.inf, scale=ref, weight="cos", wvar=u)
            p += a / u + c / u**2 - b / u**3
            q += -a / u - 3.0 * c / u**2 + 3.0 * b / u**3

    norm = 2.0 * math.pi**2 * ell**3
    kt = p / norm
    kl = (p + q) / norm
    return kt, kl


def radial_scalars(profile: CutoffProfile, r: float, route: str = "real") -> tuple[float, float]:
    """Transverse and longitudinal scalars (K_T, K_L) of K at radius r."""
    if r < 0.0:
        raise ValueError("radius r must be non-negative")
    if route == "real":
        return _radial_scalars_real(profile, r)
    if route == "spectral":
        return _radial_scalars_spectral(profile, r)
    raise ValueError(f"unknown route {route!r}; use 'real' or 'spectral'")


def _tensor_from_scalars(rvec: np.ndarray, kt: float, kl: float) -> np.ndarray:
    r = np.linalg.norm(rvec)
    if r == 0.0:
        return kt * np.eye(3)
    rhat = rvec / r
    proj = np.outer(rhat, rhat)
    return kt * (np.eye(3) - proj) + kl * proj


def kernel_k(profile: CutoffProfile, rvec, route: str = "real") -> np.ndarray:
    """Transverse kernel K(r) as a symmetric 3x3 matrix."""
    rvec = np.asarray(rvec, dtype=float)
    kt, kl = radial_scalars(profile, float(np.linalg.norm(rvec)), route)
    return _tensor_from_scalars(rvec, kt, kl)


def kernel_u(profile: CutoffProfile, rvec) -> np.ndarray:
    """Contact kernel u(r) = K(r) + (grad grad G)(r), r != 0 only, with K
    from the real-space route."""
    rvec = np.asarray(rvec, dtype=float)
    r = float(np.linalg.norm(rvec))
    if r == 0.0:
        raise ValueError("u(0) is distribution-valued and never evaluated; "
                         "the contact term enters through g(0) instead")
    kt, kl = radial_scalars(profile, r)
    ut = kt + 1.0 / (4.0 * math.pi * r**3)
    ul = kl - 1.0 / (2.0 * math.pi * r**3)
    return _tensor_from_scalars(rvec, ut, ul)


def contact_scalars(profile: CutoffProfile, r):
    """Vectorized (u_T, u_L) via the real-space route; r > 0 elementwise.

    This is the hot path of the finite-N simulation, so it works directly on
    arrays of pair distances.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("contact_scalars requires strictly positive radii")
    remainder = 1.0 - enclosed_fraction(profile, r)
    ut = _gamma_of_r(profile, r) + remainder / (4.0 * math.pi * r**3)
    ul = -remainder / (2.0 * math.pi * r**3)
    return ut, ul
