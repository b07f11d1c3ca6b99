"""Mean-field depolarization shift, polariton branches, and critical density.

Densities appear as the dimensionless ratio rho = n / n_D against the
species' characteristic density (see :func:`depolgas.constants.dicke_density`).
The pair statistics of the gas enter through two numbers only: the overlap

    J = Int g(r) Gamma(r) d^3r

between the radial distribution g and the smeared delta Gamma, and the
contact value g(0).  Together they set the depolarization shift

    varsigma(rho) = rho * (2 J / 3 + g(0) / 3),

which stiffens the effective oscillator frequency omega^2 -> omega^2 (1 +
varsigma) and pushes the instability of the coupled atom-field system from
rho = 1 out to rho_c = 1 / (1 - 2 J / 3 - g(0) / 3); for an ideal hard-core
gas (J -> 1, g(0) = 0) that is rho_c = 3.
"""

from __future__ import annotations

import math
import sys
import time
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import BracketingError, NoCriticalDensityError, QuadratureConvergenceError
from .kernels import CutoffProfile, _gamma_of_r, enclosed_fraction, log_quadrature

IDEAL = "ideal"
HARD_STEP = "hard_step"
TABULATED = "tabulated"

_TABLE_END_TOL = 1e-3
_OVERLAP_TOL = 1e-7
# critical_ratio_bisection's relative bracket width, iteration cap and the
# ratio past which an instability lies outside model validity
_BISECT_REL_TOL, _BISECT_MAX_ITER, _BISECT_MAX_RATIO = 1e-9, 200, 1e6


@dataclass(frozen=True)
class RadialDistribution:
    """Radial distribution function model g(r).

    ``ideal`` is g = 1 everywhere (no correlations, g(0) = 1, exposing the
    size of the contact term a repulsive core would remove).  ``hard_step``
    is 0 below the core diameter sigma and 1 above (g(0) = 0).
    ``tabulated`` interpolates (r, g) samples linearly and continues as
    exactly 1 beyond the last point; the table must therefore end within
    1e-3 of 1.
    """

    model: str
    sigma: float = 0.0
    table_r: np.ndarray | None = None
    table_g: np.ndarray | None = None

    def __post_init__(self):
        if self.model not in (IDEAL, HARD_STEP, TABULATED):
            raise ValueError(f"unknown radial distribution model {self.model!r}")
        if self.model == HARD_STEP and self.sigma < 0.0:
            raise ValueError("hard_step sigma cannot be negative")
        if self.model == TABULATED:
            if self.table_r is None or self.table_g is None:
                raise ValueError("tabulated model requires table_r and table_g")
            r = np.asarray(self.table_r, dtype=float)
            g = np.asarray(self.table_g, dtype=float)
            if r.ndim != 1 or r.shape != g.shape or r.size < 2:
                raise ValueError("table_r and table_g must be 1d arrays of equal length >= 2")
            if r[0] < 0.0 or np.any(np.diff(r) <= 0.0):
                raise ValueError("table_r must be non-negative and strictly increasing")
            if np.any(g < 0.0):
                raise ValueError("g(r) cannot be negative")
            if abs(g[-1] - 1.0) > _TABLE_END_TOL:
                raise ValueError(
                    f"tabulated g must approach 1 at its last point; got {g[-1]!r}"
                )
            object.__setattr__(self, "table_r", r)
            object.__setattr__(self, "table_g", g)

    @classmethod
    def ideal(cls) -> "RadialDistribution":
        return cls(model=IDEAL)

    @classmethod
    def hard_step(cls, sigma: float) -> "RadialDistribution":
        return cls(model=HARD_STEP, sigma=sigma)

    @classmethod
    def tabulated(cls, r, g) -> "RadialDistribution":
        return cls(model=TABULATED, table_r=np.asarray(r, float), table_g=np.asarray(g, float))

    @property
    def contact_value(self) -> float:
        """g(0): 1 for ideal, 0 for hard_step, table head for tabulated."""
        if self.model == IDEAL:
            return 1.0
        if self.model == HARD_STEP:
            return 0.0
        return float(self.evaluate(0.0))

    def evaluate(self, r):
        """g(r), vectorized over r >= 0."""
        r = np.asarray(r, dtype=float)
        if np.any(r < 0.0):
            raise ValueError("radius r must be non-negative")
        return self._value(r)

    def _value(self, r):
        """g at r >= 0, on an array or on one float, without checking r."""
        if self.model == IDEAL:
            return np.ones_like(r)
        if self.model == HARD_STEP:
            return np.where(r < self.sigma, 0.0, 1.0)
        return np.interp(r, self.table_r, self.table_g, right=1.0)

    def _support_edge(self) -> float:
        """Radius beyond which g is identically 1."""
        if self.model == IDEAL:
            return 0.0
        if self.model == HARD_STEP:
            return self.sigma
        return float(self.table_r[-1])


def overlap_integral(g: RadialDistribution, profile: CutoffProfile) -> float:
    """J = Int g(r) Gamma(r) d^3r by radial quadrature.

    The integrand is cut at a finite radius R (past the core, past the
    table, and far into the tail of Gamma); beyond R where g = 1 the exact
    remainder 1 - M(R) is added in closed form.  The quadrature error
    estimate must stay below 1e-7 of the result (of 1 for |J| < 1); the
    active :class:`~depolgas.kernels.QuadratureLog` records that ratio.
    """
    edge = g._support_edge()
    if edge > profile.ell:
        warnings.warn(
            "radial distribution structure extends past the cutoff length; "
            "the mean-field overlap is outside its dilute-core regime",
            stacklevel=2,
        )
    # 30 ell covers the slowest built-in Gamma tail to below 1e-12
    r_cut = max(30.0 * profile.ell, 2.0 * edge)

    # quad passes one float r in [0, r_cut] per call: no checks needed
    def integrand(r):
        return 4.0 * math.pi * r * r * float(g._value(r)) * float(_gamma_of_r(profile, r))

    # break at the support edge and, for tables, at every interpolation kink
    knots = tuple(g.table_r) if g.model == TABULATED else (edge,)
    points = [p for p in knots if 0.0 < p < r_cut]
    started = time.perf_counter()
    val, err = integrate.quad(integrand, 0.0, r_cut, points=points or None, limit=400)
    log_quadrature(started, err, val, 1.0)
    if err > _OVERLAP_TOL * max(1.0, abs(val)):
        raise QuadratureConvergenceError(f"overlap quadrature reached error {err:.3e}")
    tail = 1.0 - float(enclosed_fraction(profile, r_cut))
    return val + tail


def shift_slope(overlap: float, contact_value: float) -> float:
    """d varsigma / d rho = 2 J / 3 + g(0) / 3."""
    return 2.0 * overlap / 3.0 + contact_value / 3.0


@dataclass(frozen=True)
class DispersionInput:
    """Parameters of one branch-pair evaluation.

    omega and Omega are the oscillator and mode angular frequencies (rad/s),
    density_ratio is n / n_D, and varsigma the depolarization shift.
    """

    omega: float
    Omega: float
    density_ratio: float
    varsigma: float = 0.0

    def __post_init__(self):
        if self.omega <= 0.0 or self.Omega <= 0.0:
            raise ValueError("omega and Omega must be positive")
        if self.density_ratio < 0.0:
            raise ValueError("density ratio must be non-negative")
        if self.varsigma < 0.0:
            raise ValueError("varsigma must be non-negative")


def dispersion(s_squared, inp: DispersionInput):
    """Dispersion function D(s^2); its zeros are the squared branch rates.

    D = 1 - rho Omega^2 omega^2 / [(s^2 + Omega^2)(s^2 + omega^2 (1 + vs))].
    Accepts real or complex s^2; evaluation at either pole is rejected.
    """
    w2 = inp.omega**2 * (1.0 + inp.varsigma)
    o2 = inp.Omega**2
    d1 = s_squared + o2
    d2 = s_squared + w2
    if d1 == 0.0 or d2 == 0.0:
        raise ValueError("dispersion evaluated at a pole of the response")
    return 1.0 - inp.density_ratio * o2 * inp.omega**2 / (d1 * d2)


@dataclass(frozen=True)
class BranchPair:
    """Squared rates of the two polariton branches, s^2 in (rad/s)^2.

    The system is dynamically stable exactly when the upper branch satisfies
    s2_plus <= 0 (all normal-mode rates purely imaginary).
    """

    s2_plus: float
    s2_minus: float
    stable: bool

    def scaled(self, omega: float, Omega: float) -> tuple[float, float]:
        """Branch pair in the dimensionless omega*Omega units."""
        return self.s2_plus / (omega * Omega), self.s2_minus / (omega * Omega)


def branch_frequencies(inp: DispersionInput) -> BranchPair:
    """Authoritative branch pair from the quadratic in x = s^2:

        x^2 + x [omega^2 (1 + vs) + Omega^2]
            + Omega^2 omega^2 [(1 + vs) - rho] = 0.

    The discriminant rearranges to (omega^2 (1 + vs) - Omega^2)^2
    + 4 Omega^2 omega^2 rho, manifestly non-negative for physical input, and
    is evaluated in that cancellation-free form.  The smaller root comes
    from the stable -(b + sqrt)/2 expression and the larger from Vieta,
    which keeps the near-critical root accurate when c ~ 0.
    """
    w2 = inp.omega**2 * (1.0 + inp.varsigma)
    o2 = inp.Omega**2
    b = w2 + o2
    c = o2 * inp.omega**2 * ((1.0 + inp.varsigma) - inp.density_ratio)
    disc = (w2 - o2) ** 2 + 4.0 * o2 * inp.omega**2 * inp.density_ratio
    root = math.sqrt(disc)
    s2_minus = -0.5 * (b + root)
    s2_plus = c / s2_minus
    return BranchPair(s2_plus=s2_plus, s2_minus=s2_minus, stable=s2_plus <= 0.0)


def closed_form_branches(inp: DispersionInput) -> BranchPair:
    """Closed-form cross-check, valid when varsigma = (2/3) rho exactly:

        s^2_{+-} / (omega Omega) = -S +- sqrt(S^2 + rho/3 - 1),
        S = [omega^2 (1 + vs) + Omega^2] / (2 omega Omega).

    Kept as an independent route; callers enforce the varsigma convention.
    """
    expected = 2.0 * inp.density_ratio / 3.0
    if not math.isclose(inp.varsigma, expected, rel_tol=1e-12, abs_tol=1e-300):
        raise ValueError("closed form requires varsigma = (2/3) * density_ratio")
    scale = inp.omega * inp.Omega
    s = (inp.omega**2 * (1.0 + inp.varsigma) + inp.Omega**2) / (2.0 * scale)
    arg = s * s + inp.density_ratio / 3.0 - 1.0
    if arg < 0.0:
        raise ValueError("closed-form discriminant negative; outside validity")
    root = math.sqrt(arg)
    return BranchPair(
        s2_plus=(-s + root) * scale,
        s2_minus=(-s - root) * scale,
        stable=(-s + root) <= 0.0,
    )


def critical_ratio_from_overlap(overlap: float, contact_value: float) -> float:
    """rho_c = 1 / (1 - 2 J / 3 - g(0) / 3); raises when no instability exists."""
    slope = shift_slope(overlap, contact_value)
    denom = 1.0 - slope
    # guard against J values a rounding error below 1 (e.g. an ideal-gas
    # distribution), which would otherwise return an astronomically large ratio
    if denom <= 64.0 * sys.float_info.epsilon:
        raise NoCriticalDensityError(
            "no instability at any density within model validity: "
            f"2J/3 + g(0)/3 = {slope:.6g} >= 1"
        )
    return 1.0 / denom


def critical_ratio_bisection(overlap: float, contact_value: float, omega: float,
                             Omega: float) -> float:
    """Independent route to rho_c: bisection on the sign of s2_plus(rho).

    The branch root with the self-consistent shift varsigma(rho) crosses
    zero at the critical ratio; this never uses the closed form above.
    Ratios beyond 1e6 are treated as outside model validity.
    """
    slope = shift_slope(overlap, contact_value)

    def s2_plus(rho: float) -> float:
        inp = DispersionInput(omega=omega, Omega=Omega, density_ratio=rho,
                              varsigma=slope * rho)
        return branch_frequencies(inp).s2_plus

    lo, hi = 0.0, 1.0
    while s2_plus(hi) <= 0.0:
        lo, hi = hi, 2.0 * hi
        if hi > _BISECT_MAX_RATIO:
            raise NoCriticalDensityError(
                "no instability at any density within model validity "
                f"(no sign change below {_BISECT_MAX_RATIO:g} times the reference density)"
            )
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if s2_plus(mid) > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= _BISECT_REL_TOL * hi:
            return 0.5 * (lo + hi)
    raise BracketingError(
        f"critical-density bisection did not converge after {_BISECT_MAX_ITER} iterations"
    )
