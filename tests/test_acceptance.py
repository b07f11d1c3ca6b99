"""End-to-end validation gate.

Each test covers one numbered acceptance check and prints a single
``ACCEPTANCE n: PASS/FAIL`` line with the measured figures.  Check 7 is
property-based at desktop scale; its final 20% threshold window targets the
homogeneous long-wavelength limit, which finite boxes cannot reach (every
available mode has k*ell of order 1, where the contact suppression caps the
instability threshold near n_D).  That check is implemented faithfully, its
measured trend is asserted, and the window clause is expected to fail; see
README.md for the quantitative argument.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from conftest import ELL, synthetic_species
from depolgas.cli import main as cli_main
from depolgas.constants import AtomSpecies, dicke_density
from depolgas.kernels import (GAUSSIAN, LORENTZIAN, CutoffProfile, gamma_peak,
                              gamma_r, kernel_k)
from depolgas.meanfield import (DispersionInput, RadialDistribution,
                                branch_frequencies, closed_form_branches,
                                critical_ratio_bisection,
                                critical_ratio_from_overlap, dispersion,
                                overlap_integral)
from depolgas.microsim import stability_scan

_RB_OMEGA = 2.0 * math.pi * 2.99792458e8 / 794.98e-9
_RB_DIPOLE = 2.537e-29

# geometry ladder for check 7: growing box and mode cutoff at fixed
# core / cutoff ratio, replicas and seed pinned for reproducibility
_LADDER = ((8.0, 6.0), (10.0, 7.5), (12.0, 9.0))
_GRID = (0.25, 0.5, 0.75, 1.0, 1.2, 1.4, 1.6, 1.75)
_REPLICAS = 10
_MASTER_SEED = 2026
_BISECT_STEPS = 8


def _announce(capsys, line: str) -> None:
    with capsys.disabled():
        print(line, flush=True)


@pytest.fixture(scope="module")
def ladder_reports():
    species = synthetic_species()
    n_dicke = dicke_density(species)
    profile = CutoffProfile(ell=ELL, shape=GAUSSIAN)
    reports = []
    for box, lam in _LADDER:
        reports.append(stability_scan(
            [r * n_dicke for r in _GRID], species, profile, box * ELL, lam * ELL,
            replicas=_REPLICAS, master_seed=_MASTER_SEED,
            bisect_steps=_BISECT_STEPS, include_contact=True,
            min_ell_over_core=0.8))
    return reports, n_dicke


def test_acceptance_1_rubidium_dicke_density(capsys):
    species = AtomSpecies(name="Rb87-D1", omega=_RB_OMEGA, dipole=_RB_DIPOLE,
                          core_diameter=4.4e-10)
    n_dicke = dicke_density(species)
    profile = CutoffProfile(ell=5.0e-9, shape=GAUSSIAN)
    g = RadialDistribution.hard_step(4.4e-10)
    ratio = critical_ratio_from_overlap(overlap_integral(g, profile), g.contact_value)
    n_c = ratio * n_dicke
    err_d = abs(n_dicke - 1.75e27) / 1.75e27
    err_c = abs(n_c - 5.25e27) / 5.25e27
    _announce(capsys, f"ACCEPTANCE 1: PASS - Rb D1 n_D = {n_dicke:.4e} /m^3 "
                      f"({100 * err_d:.2f}% from 1.75e27); n_c = {n_c:.4e} "
                      f"({100 * err_c:.2f}% from 5.25e27)")
    assert err_d <= 0.03
    assert err_c <= 0.03


def test_acceptance_2_shifted_criticality(capsys):
    g = RadialDistribution.hard_step(0.02)
    overlaps, ratios = {}, {}
    for shape in (GAUSSIAN, LORENTZIAN):
        overlaps[shape] = overlap_integral(g, CutoffProfile(ell=1.0, shape=shape))
        ratios[shape] = critical_ratio_from_overlap(overlaps[shape], g.contact_value)
        assert abs(ratios[shape] - 3.0) <= 1e-3
    j = overlaps[GAUSSIAN]
    bisected = [critical_ratio_bisection(j, 0.0, omega=2.4e15, Omega=big_omega)
                for big_omega in (1e13, 1e14, 1e15, 1e16)]
    spread = max(bisected) - min(bisected)
    assert spread <= 1e-6
    assert abs(bisected[0] - ratios[GAUSSIAN]) <= 1e-6
    _announce(capsys, "ACCEPTANCE 2: PASS - hard-step sigma/ell = 0.02 gives "
                      f"n_c/n_D = {ratios[GAUSSIAN]:.6f} (gaussian) / "
                      f"{ratios[LORENTZIAN]:.6f} (lorentzian); "
                      f"Omega spread over 3 decades = {spread:.2e}")


def test_acceptance_3_bare_dicke_recovery(capsys):
    analytic = critical_ratio_from_overlap(0.0, 0.0)
    numeric = critical_ratio_bisection(0.0, 0.0, omega=2.4e15, Omega=1.1e15)
    _announce(capsys, "ACCEPTANCE 3: PASS - contact disabled gives n_c/n_D = "
                      f"{analytic:.12f} (analytic) / {numeric:.12f} (bisection)")
    assert abs(analytic - 1.0) <= 1e-9
    assert abs(numeric - 1.0) <= 1e-9


def test_acceptance_4_trace_identity(capsys):
    direction = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    worst = {}
    for shape in (GAUSSIAN, LORENTZIAN):
        profile = CutoffProfile(ell=1.0, shape=shape)
        peak = gamma_peak(profile)
        errs = []
        for r in np.linspace(0.0, 8.0, 20):
            gam = float(gamma_r(profile, r))
            for route in ("real", "spectral"):
                k = kernel_k(profile, direction * r, route=route)
                errs.append(abs(float(np.trace(k)) - 2.0 * gam))
        worst[shape] = max(errs) / peak
        assert worst[shape] <= 1e-6
    _announce(capsys, "ACCEPTANCE 4: PASS - max |tr K - 2 Gamma| = "
                      f"{worst[GAUSSIAN]:.2e} Gamma(0) (gaussian) / "
                      f"{worst[LORENTZIAN]:.2e} Gamma(0) (lorentzian), "
                      "20 radii, both routes")


def test_acceptance_5_branch_roots_and_softening(capsys):
    rng = np.random.default_rng(20260814)
    worst_residual = 0.0
    worst_agreement = 0.0
    for _ in range(1000):
        omega = 10.0 ** rng.uniform(14.0, 16.0)
        big_omega = omega * 10.0 ** rng.uniform(-0.5, 0.5)
        rho = rng.uniform(0.05, 3.2)
        inp = DispersionInput(omega=omega, Omega=big_omega, density_ratio=rho,
                              varsigma=2.0 * rho / 3.0)
        pair = branch_frequencies(inp)
        worst_residual = max(worst_residual,
                             abs(dispersion(pair.s2_plus, inp)),
                             abs(dispersion(pair.s2_minus, inp)))
        closed = closed_form_branches(inp)
        scale = omega * big_omega
        for a, b in ((pair.s2_plus, closed.s2_plus),
                     (pair.s2_minus, closed.s2_minus)):
            worst_agreement = max(
                worst_agreement, abs(a - b) / scale / max(1.0, abs(a) / scale))
    assert worst_residual <= 1e-10
    assert worst_agreement <= 1e-10

    # softening: s2_plus rises monotonically and crosses zero at n_c
    omega = 2.4e15
    slope = 2.0 / 3.0
    curve = [branch_frequencies(
        DispersionInput(omega=omega, Omega=0.6 * omega, density_ratio=rho,
                        varsigma=slope * rho)).s2_plus
        for rho in np.linspace(0.0, 3.2, 65)]
    assert all(b > a for a, b in zip(curve, curve[1:]))
    crossing = critical_ratio_bisection(1.0, 0.0, omega=omega, Omega=0.6 * omega)
    analytic = critical_ratio_from_overlap(1.0, 0.0)
    assert abs(crossing - analytic) <= 5e-9
    _announce(capsys, "ACCEPTANCE 5: PASS - max |D(s2)| = "
                      f"{worst_residual:.2e}, closed-vs-quartic = "
                      f"{worst_agreement:.2e} (1000 tuples); softening "
                      f"crosses zero at {crossing:.9f} n_D")


def test_acceptance_6_overlap_scaling(capsys):
    from scipy.special import erf

    profile = CutoffProfile(ell=1.0, shape=GAUSSIAN)
    rates = {}
    for sigma in (0.2, 0.1, 0.05):
        j = overlap_integral(RadialDistribution.hard_step(sigma), profile)
        oracle = erf(0.5 * sigma) - sigma / math.sqrt(math.pi) * math.exp(
            -0.25 * sigma * sigma)
        assert abs((1.0 - j) - oracle) <= 1e-9
        rates[sigma] = (1.0 - j) / sigma**3
    factor = max(rates.values()) / min(rates.values())
    assert factor < 1.5
    _announce(capsys, "ACCEPTANCE 6: PASS - (1 - J)/(sigma/ell)^3 = "
                      f"{rates[0.2]:.4f} / {rates[0.1]:.4f} / {rates[0.05]:.4f} "
                      f"at sigma/ell = 0.2 / 0.1 / 0.05; drift factor "
                      f"{factor:.3f} < 1.5")


def test_acceptance_7_microsim_cross_check(capsys, ladder_reports):
    reports, n_dicke = ladder_reports
    thresholds = []
    for (box, lam), report in zip(_LADDER, reports):
        means = report.min_eig_mean
        assert np.all(np.diff(means) < 0.0), f"curve not monotone at box {box}"
        low = report.density_grid <= 0.5 * n_dicke
        assert np.all(means[low] > 0.0), f"unstable below 0.5 n_D at box {box}"
        assert report.threshold_low is not None, f"no bracket at box {box}"
        thresholds.append(0.5 * (report.threshold_low + report.threshold_high)
                          / n_dicke)

    # the criterion's N range is reached by the largest geometry
    top = reports[-1]
    assert 256 <= int(top.atoms_per_density.max()) <= 512
    # threshold estimates move toward 3 n_D as box and mode count grow
    assert thresholds[0] < thresholds[1] < thresholds[2] < 3.0

    in_window = 2.4 <= thresholds[-1] <= 3.6
    trend = " -> ".join(f"{t:.3f}" for t in thresholds)
    verdict = "PASS" if in_window else "FAIL"
    _announce(capsys, f"ACCEPTANCE 7: {verdict} - thresholds {trend} n_D over "
                      f"boxes {', '.join(str(b) for b, _ in _LADDER)} ell; "
                      "curves monotone, stable at n <= 0.5 n_D, trend toward "
                      f"3 n_D; final bracket {'inside' if in_window else 'outside'} "
                      "the [2.4, 3.6] n_D window")
    assert in_window, (
        f"bracketed threshold {thresholds[-1]:.3f} n_D lies outside the "
        "[2.4, 3.6] n_D window. The window targets the homogeneous "
        "long-wavelength limit, which no matrix of <= 512 atoms can reach: "
        "(a) every mode in these boxes has k*ell >= 0.52, where the "
        "finite-wavevector contact suppression (quadrature oracle in "
        "test_microsim.py) already caps the mean-field threshold at "
        "1.19-1.57 n_D, and (b) with only 60-500 atoms, disorder in the "
        "contact network and in the mode couplings softens the measured "
        "crossing to about 0.6x that mean-field value, a ratio that climbs "
        "(0.58 -> 0.60 -> 0.62) as the boxes grow. All structural "
        f"properties hold, and the measured trend ({trend} n_D) moves toward "
        "3 n_D as the geometry grows; see README.md for the scaling argument.")


def test_acceptance_8_determinism(capsys, tmp_path):
    species = synthetic_species()
    text = "\n".join([
        "species.name = synthetic",
        f"species.omega_rad_per_s = {species.omega!r}",
        f"species.dipole_Cm = {species.dipole!r}",
        f"species.core_diameter_m = {species.core_diameter!r}",
        f"cutoff.ell_m = {ELL!r}",
        f"rdf.sigma_m = {0.5 * ELL!r}",
        "validation.min_ell_over_core = 0.8",
        "microsim.box_over_ell = 6.0",
        "microsim.lambda_min_over_ell = 4.0",
        "microsim.density_ratios = 0.3,0.5",
        "microsim.replicas = 3",
    ]) + "\n"
    cfg = tmp_path / "run.conf"
    cfg.write_text(text, encoding="utf-8")

    digests = {}
    for command in ("critical", "microsim"):
        bodies = []
        for attempt in range(2):
            out = tmp_path / f"{command}{attempt}"
            assert cli_main([command, "--config", str(cfg),
                             "--out", str(out)]) == 0
            bodies.append((out / f"{command}.csv").read_bytes())
        assert bodies[0] == bodies[1]
        digests[command] = hashlib.sha256(bodies[0]).hexdigest()[:12]
    _announce(capsys, "ACCEPTANCE 8: PASS - byte-identical CSV bodies on "
                      f"repeat runs (critical {digests['critical']}, "
                      f"microsim {digests['microsim']})")
