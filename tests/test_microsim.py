from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, linalg
from scipy.sparse.linalg import LinearOperator, eigsh
from scipy.special import erf, spherical_jn

from conftest import ELL, EPS0, HBAR, ND_PER_ELL3, OMEGA_SYNTH, synthetic_species
from depolgas.constants import CODATA, dicke_density
from depolgas.errors import (ConfigError, InfeasiblePackingError,
                             ScaleSeparationError)
from depolgas.kernels import GAUSSIAN, LORENTZIAN, CutoffProfile, contact_scalars
from depolgas.meanfield import DispersionInput, branch_frequencies
from depolgas import microsim
from depolgas.microsim import (_LANCZOS_TOL, _MAX_MATRIX_DIM, Configuration,
                               ModeBasis, assemble_dynamical_matrix,
                               build_mode_basis, check_scan_separation,
                               minimal_eigenvalue, minimum_image,
                               sample_configuration, stability_scan)

_PROFILE = CutoffProfile(ell=ELL, shape=GAUSSIAN)
# keyword settings of the test scans: few replicas and probes keep them
# fast, and the core gate admits the test species' core of 1.15 ell
_SCAN_KNOBS = dict(replicas=4, master_seed=7, bisect_steps=6,
                   include_contact=True, min_ell_over_core=0.8)

# frozen oracle: finite-wavevector depolarization slope for a gaussian
# profile and hard core sigma = 1.15 ell, by independent radial quadrature;
# the k -> 0 limit reproduces (2/3)(1 - M(sigma)) = 0.588185...
_ISLOPE_K0 = 0.58818548420401351
_ISLOPE_TABLE = {
    0.7853981633974483: 0.16010645246003077,   # k ell = 2 pi / 8
    1.5707963267948966: -0.20860307197297714,  # k ell = 2 pi / 4
}


def _pair_distances(cfg: Configuration) -> np.ndarray:
    iu, ju = np.triu_indices(cfg.n_atoms, k=1)
    d = minimum_image(cfg.positions[iu] - cfg.positions[ju], cfg.box_length)
    return np.sqrt(np.einsum("ij,ij->i", d, d))


def _pair_correlation(configs: list[Configuration], n_bins: int, r_max: float):
    """Histogram estimate of g(r) averaged over configurations.

    Returns (bin_centers, g_hat).  r_max must stay below half the box.
    """
    if not configs:
        raise ValueError("need at least one configuration")
    box = configs[0].box_length
    if r_max > box / 2.0:
        raise ValueError("r_max must not exceed half the box length")
    edges = np.linspace(0.0, r_max, n_bins + 1)
    counts = np.zeros(n_bins)
    norm = 0.0
    for cfg in configs:
        n = cfg.n_atoms
        counts += np.histogram(_pair_distances(cfg), bins=edges)[0]
        norm += n * (n - 1) / 2.0 / box**3
    shell = 4.0 * math.pi / 3.0 * (edges[1:] ** 3 - edges[:-1] ** 3)
    centers = 0.5 * (edges[1:] + edges[:-1])
    return centers, counts / (norm * shell)


def _reference_rsa(density: float, box_length: float, core_diameter: float, seed,
                   attempts_per_atom: int) -> tuple[np.ndarray, int]:
    """One trial at a time, each tested against every accepted sphere.

    Oracle for the block sampler, which must accept the same positions bit
    for bit and stall on the same trial; returns (positions, trials used).
    """
    n = int(round(density * box_length**3))
    packing = n * (math.pi / 6.0) * core_diameter**3 / box_length**3
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    positions = np.empty((n, 3))
    sigma2 = core_diameter * core_diameter
    budget = attempts_per_atom * n
    accepted = 0
    while accepted < n:
        if budget <= 0:
            raise InfeasiblePackingError(
                f"insertion stalled at {accepted}/{n} spheres "
                f"(packing fraction {packing:.3f})"
            )
        trial = rng.uniform(0.0, box_length, 3)
        budget -= 1
        if accepted and sigma2 > 0.0:
            d = minimum_image(positions[:accepted] - trial, box_length)
            if np.min(np.einsum("ij,ij->i", d, d)) < sigma2:
                continue
        positions[accepted] = trial
        accepted += 1
    return positions, attempts_per_atom * n - budget


def _reference_matrix(config: Configuration, basis: ModeBasis, species,
                      profile: CutoffProfile, include_contact: bool = True) -> np.ndarray:
    """Dense (3N+M)^2 dynamical matrix from the (N, N, 3, 3) pair tensor.

    Oracle for the i < j block assembly, whose blocks must give the same bytes.
    """
    pos = config.positions
    n = config.n_atoms
    m = basis.n_modes
    dim = 3 * n + m
    omega = species.omega
    matrix = np.zeros((dim, dim))
    if include_contact and n > 1:
        diff = minimum_image(pos[:, None, :] - pos[None, :, :], config.box_length)
        r = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        np.fill_diagonal(r, 1.0)  # placeholder, pair blocks zeroed below
        ut, ul = contact_scalars(profile, r)
        rhat = diff / r[:, :, None]
        outer = np.einsum("ija,ijb->ijab", rhat, rhat)
        blocks = ut[:, :, None, None] * np.eye(3) + (ul - ut)[:, :, None, None] * outer
        idx = np.arange(n)
        blocks[idx, idx] = 0.0
        coupling = 2.0 * species.dipole**2 * omega / (CODATA.hbar * CODATA.epsilon0)
        matrix[: 3 * n, : 3 * n] = coupling * blocks.transpose(0, 2, 1, 3).reshape(3 * n, 3 * n)
    diagonal = np.arange(3 * n)
    matrix[diagonal, diagonal] += omega * omega
    if m > 0:
        phase = pos @ basis.k.T
        wave = np.where(basis.parity[None, :] == 0, np.cos(phase), np.sin(phase))
        scal = (species.dipole * np.sqrt(omega * basis.Omega)[None, :]
                / (CODATA.hbar * CODATA.epsilon0)
                * basis.amplitude[None, :] * wave)
        cross = scal[:, None, :] * basis.pol.T[None, :, :]
        matrix[: 3 * n, 3 * n:] = cross.reshape(3 * n, m)
        matrix[3 * n:, : 3 * n] = matrix[: 3 * n, 3 * n:].T
        matrix[3 * n:, 3 * n:] = np.diag(basis.Omega**2)
    return matrix


def _blocks(matrix: np.ndarray, n_modes: int):
    """(a, b, d) cut from a dense dynamical matrix with ``n_modes`` mode rows."""
    n3 = matrix.shape[0] - n_modes
    return matrix[:n3, :n3], matrix[:n3, n3:], np.diag(matrix[n3:, n3:])


def _reference_minimal_eigenvalue(matrix: np.ndarray, n_modes: int) -> float:
    """The mode elimination on a dense matrix, re-slicing its blocks.

    Oracle for the block solver, which must return the same float.
    """
    a, b, d = _blocks(matrix, n_modes)
    # the solver's in-place BLAS update, on a copy of the dense slice: at more
    # than one BLAS thread its last bits differ from a - (b / d) @ b.T
    schur = a.copy()
    linalg.blas.dgemm(-1.0, b.T, (b / d).T, beta=1.0, c=schur.T, trans_a=1,
                      overwrite_c=1)
    op = LinearOperator(schur.shape, dtype=schur.dtype,
                        matvec=lambda x: linalg.blas.dsymv(1.0, schur.T, x))
    v0 = np.random.default_rng(0).standard_normal(schur.shape[0])
    vals, vecs = eigsh(op, k=1, which="SA", tol=_LANCZOS_TOL, v0=v0)
    lam = float(vals[0])
    x = b.T @ vecs[:, 0]
    return lam - float(np.sum(x * x * lam / (d * (d - lam))))


def _assert_matches_the_dense_matrix(blocks, matrix: np.ndarray, n_modes: int):
    """Blocks byte for byte, then the solver's float against the dense route."""
    for got, expected in zip(blocks, _blocks(matrix, n_modes), strict=True):
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
    assert (minimal_eigenvalue(*blocks).value
            == _reference_minimal_eigenvalue(matrix, n_modes))


def _mode_field(basis: ModeBasis, positions: np.ndarray) -> np.ndarray:
    """Mode functions f_nu at given points; shape (M, P, 3)."""
    phase = positions @ basis.k.T            # (P, M)
    wave = np.where(basis.parity[None, :] == 0, np.cos(phase), np.sin(phase))
    scal = basis.amplitude[None, :] * wave   # (P, M)
    return np.einsum("pm,mc->mpc", scal, basis.pol)


def _finite_k_slope(k_ell: float, sigma_over_ell: float) -> float:
    """Mean-field depolarization slope seen by a mode of wavenumber k.

    Angular reduction of Int g(r) u(r) e^{ikr} contracted with a transverse
    polarization; independent quadrature oracle for the matrix route.
    """

    def gamma(s: float) -> float:
        return (4.0 * math.pi) ** -1.5 * math.exp(-s * s / 4.0)

    def enclosed(s: float) -> float:
        return erf(0.5 * s) - s / math.sqrt(math.pi) * math.exp(-0.25 * s * s)

    def integrand(s: float) -> float:
        z = k_ell * s
        j0 = spherical_jn(0, z)
        j1z = spherical_jn(1, z) / z if z > 1e-10 else 1.0 / 3.0 - z * z / 30.0
        j2 = spherical_jn(2, z)
        return (4.0 * math.pi * s * s * gamma(s) * (j0 - j1z)
                - (1.0 - enclosed(s)) * j2 / s)

    val, err = integrate.quad(integrand, sigma_over_ell, 40.0, limit=400,
                              epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-9
    return val


# ---------------------------------------------------------------------------
# hard-sphere sampling


def test_sample_configuration_count_and_core_exclusion():
    density = 1.0 * ND_PER_ELL3 / ELL**3
    box = 8.0 * ELL
    cfg = sample_configuration(density, box, 1.15 * ELL, seed=5)
    assert cfg.n_atoms == int(round(density * box**3)) == 84
    assert np.all(cfg.positions >= 0.0) and np.all(cfg.positions < box)
    assert _pair_distances(cfg).min() >= 1.15 * ELL


def test_sample_configuration_determinism():
    args = (0.5 * ND_PER_ELL3 / ELL**3, 8.0 * ELL, 1.15 * ELL)
    a = sample_configuration(*args, seed=(7, 3))
    b = sample_configuration(*args, seed=(7, 3))
    c = sample_configuration(*args, seed=(7, 4))
    assert np.array_equal(a.positions, b.positions)
    assert not np.array_equal(a.positions, c.positions)


def test_sample_configuration_rejects_bad_input():
    with pytest.raises(ValueError):
        sample_configuration(0.0, 1.0, 0.1, seed=0)
    with pytest.raises(ValueError):
        sample_configuration(1.0, -1.0, 0.1, seed=0)
    with pytest.raises(InfeasiblePackingError):
        sample_configuration(1e-3, 1.0, 0.1, seed=0)  # rounds to zero atoms
    with pytest.raises(InfeasiblePackingError):
        sample_configuration(1000.0, 1.0, 0.12, seed=0)  # packing above 0.3
    with pytest.raises(InfeasiblePackingError):
        sample_configuration(2.0, 1.0, 0.6, seed=0)  # core vs minimum image


# (box / ell, density / n_D): sparse and dense small boxes, the ladder's
# largest rung and the next one
_GEOMETRIES = [(8.0, 0.25), (8.0, 1.75), (12.0, 1.75), (16.0, 1.4)]


@pytest.mark.parametrize("sigma_over_ell", [1.15, 0.0])
@pytest.mark.parametrize("box_over_ell, rho", _GEOMETRIES)
def test_sample_configuration_matches_the_per_trial_loop(box_over_ell, rho,
                                                         sigma_over_ell):
    args = (rho * ND_PER_ELL3 / ELL**3, box_over_ell * ELL, sigma_over_ell * ELL)
    for replica in range(3):
        expected, _ = _reference_rsa(*args, seed=(23, replica),
                                     attempts_per_atom=microsim._ATTEMPTS_PER_ATOM)
        got = sample_configuration(*args, seed=(23, replica))
        assert got.positions.tobytes() == expected.tobytes()


# 75 spheres of diameter 1.15 in a box of 6 (packing fraction 0.277): with
# seed 173 the per-trial loop places the 75th sphere on trial 975 = 13 * 75
_TIGHT = (75 / 6.0**3, 6.0, 1.15)
_TIGHT_SEED = 173


@pytest.mark.parametrize("attempts", [1, 2, 5, 12])
def test_sampler_stalls_on_the_same_trial_as_the_per_trial_loop(monkeypatch,
                                                                attempts):
    with pytest.raises(InfeasiblePackingError, match="insertion stalled") as ref:
        _reference_rsa(*_TIGHT, seed=_TIGHT_SEED, attempts_per_atom=attempts)
    monkeypatch.setattr(microsim, "_ATTEMPTS_PER_ATOM", attempts)
    with pytest.raises(InfeasiblePackingError) as got:
        sample_configuration(*_TIGHT, seed=_TIGHT_SEED)
    assert str(got.value) == str(ref.value)


def test_sampler_places_the_last_sphere_on_the_last_allowed_trial(monkeypatch):
    expected, trials = _reference_rsa(*_TIGHT, seed=_TIGHT_SEED, attempts_per_atom=13)
    assert trials == 13 * 75
    monkeypatch.setattr(microsim, "_ATTEMPTS_PER_ATOM", 13)
    got = sample_configuration(*_TIGHT, seed=_TIGHT_SEED)
    assert got.positions.tobytes() == expected.tobytes()


def test_pair_correlation_of_the_sampler():
    density = 0.5 * ND_PER_ELL3 / ELL**3
    box = 8.0 * ELL
    sigma = 1.15 * ELL
    configs = [sample_configuration(density, box, sigma, seed=(11, i))
               for i in range(200)]
    centers, g_hat = _pair_correlation(configs, n_bins=25, r_max=0.5 * box)
    assert np.all(g_hat[centers < sigma] < 0.05)
    far = g_hat[centers > 2.0 * sigma]
    assert far.size > 5
    assert np.all(np.abs(far - 1.0) < 0.1)


def test_pair_correlation_validation():
    with pytest.raises(ValueError):
        _pair_correlation([], n_bins=10, r_max=1.0)
    cfg = sample_configuration(10.0, 2.0, 0.0, seed=0)
    with pytest.raises(ValueError):
        _pair_correlation([cfg], n_bins=10, r_max=1.5)  # beyond half the box


# ---------------------------------------------------------------------------
# mode basis


def test_mode_basis_count_matches_lattice_enumeration():
    basis = build_mode_basis(box_length=4.0, lambda_min=1.0)
    # independent brute force: nonzero integer vectors with |m| <= 4, one
    # representative per +-m pair, 2 polarizations, 2 parities
    full = sum(1
               for mx in range(-4, 5) for my in range(-4, 5) for mz in range(-4, 5)
               if (mx, my, mz) != (0, 0, 0) and mx**2 + my**2 + mz**2 <= 16)
    assert full == 256
    assert basis.n_modes == (full // 2) * 4 == 512


def test_mode_basis_geometry_and_frequencies():
    basis = build_mode_basis(box_length=8.0, lambda_min=4.0)
    base = 2.0 * math.pi / 8.0
    m = basis.k / base
    assert np.allclose(m, np.rint(m), atol=1e-12)  # commensurate wavevectors
    assert np.all(np.linalg.norm(basis.k, axis=1) <= 2.0 * math.pi / 4.0 + 1e-12)
    # transversality at rounding level and unit polarizations
    cosines = (np.einsum("mc,mc->m", basis.k, basis.pol)
               / np.linalg.norm(basis.k, axis=1))
    assert np.max(np.abs(cosines)) < 1e-14
    assert np.allclose(np.linalg.norm(basis.pol, axis=1), 1.0, rtol=1e-14)
    assert np.allclose(basis.Omega, CODATA.c * np.linalg.norm(basis.k, axis=1),
                       rtol=1e-14)
    expected_amp = np.sqrt(4.0 * CODATA.hbar * basis.Omega * CODATA.epsilon0 / 8.0**3)
    assert np.allclose(basis.amplitude, expected_amp, rtol=1e-14)


def test_mode_basis_has_one_representative_per_pair():
    basis = build_mode_basis(box_length=6.0, lambda_min=3.0)
    seen = {tuple(np.rint(k / (2.0 * math.pi / 6.0)).astype(int)) for k in basis.k}
    for m in seen:
        assert tuple(-v for v in m) not in seen
    # every (k, pol) carries exactly the cos and the sin parity
    keys = [(tuple(k), tuple(p)) for k, p in zip(basis.k, basis.pol)]
    for key in set(keys):
        matching = [par for (kk, pp), par in zip(keys, basis.parity) if (kk, pp) == key]
        assert sorted(matching) == [0, 1]


def _reference_mode_basis(box_length: float, lambda_min: float) -> dict:
    """The former per-wavevector loop, kept as the byte oracle."""

    def _polarization_pair(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # integer constructions keep k . pol at exact zero before normalization
        mx, my, mz = (float(v) for v in m)
        if mx == 0.0 and my == 0.0:
            return np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
        e1 = np.array([my, -mx, 0.0])
        e2 = np.array([mz * mx, mz * my, -(mx * mx + my * my)])
        return e1 / np.linalg.norm(e1), e2 / np.linalg.norm(e2)

    m_max = box_length / lambda_min
    limit = int(math.floor(m_max))
    ks, pols, parities, omegas = [], [], [], []
    base = 2.0 * math.pi / box_length
    for mx in range(-limit, limit + 1):
        for my in range(-limit, limit + 1):
            for mz in range(-limit, limit + 1):
                m = (mx, my, mz)
                if m == (0, 0, 0):
                    continue
                # canonical representative of the +-m pair
                if not (mx > 0 or (mx == 0 and (my > 0 or (my == 0 and mz > 0)))):
                    continue
                if mx * mx + my * my + mz * mz > m_max * m_max:
                    continue
                marr = np.array(m, dtype=float)
                kvec = base * marr
                e1, e2 = _polarization_pair(marr)
                for pol in (e1, e2):
                    for parity in (0, 1):
                        ks.append(kvec)
                        pols.append(pol)
                        parities.append(parity)
                        omegas.append(CODATA.c * np.linalg.norm(kvec))
    k = np.array(ks)
    omega_arr = np.array(omegas)
    volume = box_length**3
    amplitude = np.sqrt(4.0 * CODATA.hbar * omega_arr * CODATA.epsilon0 / volume)
    return {"k": k, "pol": np.array(pols),
            "parity": np.array(parities, dtype=np.int8),
            "Omega": omega_arr, "amplitude": amplitude}


@pytest.mark.parametrize("box_over_ell, box_over_lambda", [
    (8.0, 8.0 / 6.0), (12.0, 12.0 / 9.0), (16.0, 16.0 / 12.0),  # ladder, big box
    (8.0, 2.0),                                # CLI defaults: off-axis shells
    (7.3, 3.0), (7.3, 4.0), (8.0, 5.0),        # norm(axis=1) rounds |k| differently
    (6.0, 1.5), (10.0, 2.5),
])
def test_mode_basis_is_byte_identical_to_the_loop(box_over_ell, box_over_lambda):
    box = box_over_ell * ELL
    basis = build_mode_basis(box, box / box_over_lambda)
    reference = _reference_mode_basis(box, box / box_over_lambda)
    for name, expected in reference.items():
        got = getattr(basis, name)
        assert got.dtype == expected.dtype and got.shape == expected.shape, name
        assert got.tobytes() == expected.tobytes(), name


def test_mode_basis_rejects_empty_and_invalid():
    with pytest.raises(ConfigError):
        build_mode_basis(box_length=2.0, lambda_min=3.0)
    with pytest.raises(ValueError):
        build_mode_basis(box_length=-1.0, lambda_min=1.0)
    with pytest.raises(ValueError):
        build_mode_basis(box_length=1.0, lambda_min=0.0)


def test_mode_field_matches_direct_evaluation():
    # the cross block of the assembled matrix is
    # g_{j,nu} = d sqrt(omega Omega_nu) / (hbar eps0) f_nu(x_j), and the
    # oracle f_nu agrees with a scalar evaluation of every mode at every atom
    box = 8.0 * ELL
    basis = build_mode_basis(box, 6.0 * ELL)
    species = synthetic_species()
    pos = np.random.default_rng(2).uniform(0.0, box, (5, 3))
    field = _mode_field(basis, pos)
    assert field.shape == (basis.n_modes, 5, 3)
    for nu in range(basis.n_modes):
        for p in range(5):
            phase = float(pos[p] @ basis.k[nu])
            wave = math.cos(phase) if basis.parity[nu] == 0 else math.sin(phase)
            expected = basis.amplitude[nu] * wave * basis.pol[nu]
            assert np.allclose(field[nu, p], expected, rtol=1e-13, atol=0.0)

    cfg = Configuration(box_length=box, positions=pos)
    _, b, _ = assemble_dynamical_matrix(cfg, basis, species, _PROFILE,
                                        include_contact=True)
    coupling = (species.dipole * np.sqrt(species.omega * basis.Omega)
                / (CODATA.hbar * CODATA.epsilon0))
    expected = coupling[:, None, None] * field               # (M, P, 3)
    cross = b.reshape(5, 3, basis.n_modes)                   # (P, 3, M)
    assert np.allclose(cross, expected.transpose(1, 2, 0), rtol=1e-13, atol=0.0)


def test_mode_normalization_on_grid():
    # Int f_nu . f_mu d^3x = 2 hbar Omega_nu eps0 delta_numu, checked by a
    # Riemann sum that is exact for commensurate trigonometric products
    box = 8.0
    basis = build_mode_basis(box_length=box, lambda_min=4.0)
    n_grid = 32
    axis = np.arange(n_grid) * (box / n_grid)
    xs, ys, zs = np.meshgrid(axis, axis, axis, indexing="ij")
    points = np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)
    field = _mode_field(basis, points)                     # (M, P, 3)
    weight = (box / n_grid) ** 3
    gram = weight * np.einsum("mpc,npc->mn", field, field)
    target = 2.0 * CODATA.hbar * basis.Omega * CODATA.epsilon0
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(np.diag(gram) / target - 1.0)) < 1e-6
    assert np.max(np.abs(off)) < 1e-6 * target.min()


# ---------------------------------------------------------------------------
# dynamical matrix


def _single_mode_basis(basis: ModeBasis, index: int) -> ModeBasis:
    sel = np.array([index])
    return dataclasses.replace(basis, k=basis.k[sel], pol=basis.pol[sel],
                               parity=basis.parity[sel], Omega=basis.Omega[sel],
                               amplitude=basis.amplitude[sel])


def _shell_basis(basis: ModeBasis, box_length: float, m_norm2: int) -> ModeBasis:
    base = 2.0 * math.pi / box_length
    m2 = np.rint(np.einsum("mc,mc->m", basis.k, basis.k) / base**2).astype(int)
    sel = np.flatnonzero(m2 == m_norm2)
    return dataclasses.replace(basis, k=basis.k[sel], pol=basis.pol[sel],
                               parity=basis.parity[sel], Omega=basis.Omega[sel],
                               amplitude=basis.amplitude[sel])


def test_dynamical_matrix_is_exactly_symmetric():
    density = 1.0 * ND_PER_ELL3 / ELL**3
    cfg = sample_configuration(density, 8.0 * ELL, 1.15 * ELL, seed=3)
    basis = build_mode_basis(8.0 * ELL, 6.0 * ELL)
    a, b, d = assemble_dynamical_matrix(cfg, basis, synthetic_species(), _PROFILE,
                                        include_contact=True)
    assert a.shape == (3 * cfg.n_atoms,) * 2
    assert b.shape == (3 * cfg.n_atoms, basis.n_modes)
    assert d.shape == (basis.n_modes,)
    assert np.array_equal(a, a.T)


@pytest.mark.parametrize("shape", [GAUSSIAN, LORENTZIAN])
@pytest.mark.parametrize("box_over_ell, rho", _GEOMETRIES)
def test_dynamical_matrix_matches_the_dense_pair_tensor(box_over_ell, rho, shape):
    species = synthetic_species()
    profile = CutoffProfile(ell=ELL, shape=shape)
    box = box_over_ell * ELL
    cfg = sample_configuration(rho * ND_PER_ELL3 / ELL**3, box,
                               species.core_diameter, seed=(29, 0))
    basis = build_mode_basis(box, 0.75 * box)
    blocks = assemble_dynamical_matrix(cfg, basis, species, profile,
                                       include_contact=True)
    expected = _reference_matrix(cfg, basis, species, profile)
    _assert_matches_the_dense_matrix(blocks, expected, basis.n_modes)


@pytest.mark.parametrize("sigma_over_ell, include_contact", [(0.0, True), (1.15, False)])
def test_dynamical_matrix_matches_the_dense_pair_tensor_without_a_core_or_contact(
        sigma_over_ell, include_contact):
    species = synthetic_species()
    box = 8.0 * ELL
    cfg = sample_configuration(1.0 * ND_PER_ELL3 / ELL**3, box, sigma_over_ell * ELL,
                               seed=(29, 1))
    basis = build_mode_basis(box, 6.0 * ELL)
    blocks = assemble_dynamical_matrix(cfg, basis, species, _PROFILE,
                                       include_contact=include_contact)
    expected = _reference_matrix(cfg, basis, species, _PROFILE, include_contact)
    _assert_matches_the_dense_matrix(blocks, expected, basis.n_modes)


@pytest.mark.parametrize("shape", [GAUSSIAN, LORENTZIAN])
def test_pair_chunks_tile_the_contact_block_exactly(monkeypatch, shape):
    # 51 atoms give 1275 pairs, not a multiple of 7: the last chunk is short
    species = synthetic_species()
    profile = CutoffProfile(ell=ELL, shape=shape)
    box = 8.0 * ELL
    cfg = sample_configuration(0.6 * ND_PER_ELL3 / ELL**3, box,
                               species.core_diameter, seed=(29, 2))
    n_pairs = cfg.n_atoms * (cfg.n_atoms - 1) // 2
    assert n_pairs == 1275 and n_pairs % 7 != 0
    basis = build_mode_basis(box, 6.0 * ELL)
    expected = _reference_matrix(cfg, basis, species, profile)[: 3 * cfg.n_atoms,
                                                               : 3 * cfg.n_atoms]
    for chunk in (1, 7, n_pairs + 1):
        monkeypatch.setattr(microsim, "_PAIR_CHUNK", chunk)
        a, _, _ = assemble_dynamical_matrix(cfg, basis, species, profile,
                                            include_contact=True)
        assert a.tobytes() == expected.tobytes(), chunk


def test_include_contact_has_no_default():
    cfg = Configuration(box_length=8.0 * ELL, positions=np.zeros((1, 3)))
    basis = build_mode_basis(8.0 * ELL, 6.0 * ELL)
    with pytest.raises(TypeError, match="include_contact"):
        assemble_dynamical_matrix(cfg, basis, synthetic_species(), _PROFILE)


def test_dynamical_matrix_without_contact_is_block_diagonal_plus_coupling():
    cfg = sample_configuration(20.0 / (8.0 * ELL) ** 3, 8.0 * ELL,
                               1.15 * ELL, seed=9)
    basis = build_mode_basis(8.0 * ELL, 6.0 * ELL)
    species = synthetic_species()
    a, b, d = assemble_dynamical_matrix(cfg, basis, species, _PROFILE,
                                        include_contact=False)
    assert np.array_equal(a, species.omega**2 * np.eye(3 * cfg.n_atoms))
    assert np.array_equal(d, basis.Omega**2)
    assert np.any(b != 0.0)


def test_dynamical_matrix_decouples_at_vanishing_dipole():
    # a feeble dipole leaves omega^2 I in the atom block (pair terms scale as
    # dipole^2) and the cross block scales exactly linearly with the dipole;
    # eliminating the Omega^2 mode block resolves the minimal eigenvalue on
    # the atom scale, where it is omega^2
    density = 0.5 * ND_PER_ELL3 / ELL**3
    cfg = sample_configuration(density, 8.0 * ELL, 1.15 * ELL, seed=4)
    basis = build_mode_basis(8.0 * ELL, 6.0 * ELL)
    feeble = dataclasses.replace(synthetic_species(), dipole=1e-45)
    a, b, d = assemble_dynamical_matrix(cfg, basis, feeble, _PROFILE,
                                        include_contact=True)
    off_diag = a - feeble.omega**2 * np.eye(3 * cfg.n_atoms)
    assert np.max(np.abs(off_diag)) <= 1e-12 * feeble.omega**2
    assert np.array_equal(d, basis.Omega**2)
    halved = dataclasses.replace(feeble, dipole=0.5e-45)
    _, b_half, _ = assemble_dynamical_matrix(cfg, basis, halved, _PROFILE,
                                             include_contact=True)
    assert np.array_equal(b_half, 0.5 * b)
    assert minimal_eigenvalue(a, b, d).value == pytest.approx(feeble.omega**2, rel=1e-12)


def _secular_fixed_point(a: np.ndarray, b: np.ndarray, d: np.ndarray,
                         steps: int = 4) -> float:
    """Dense reference: iterate lambda = lambda_min(A - B (D - lambda)^-1 B^T).

    Each step moves lambda by a relative omega^2 / Omega^2 of the previous
    move, so four steps from lambda = 0 reach the fixed point to rounding.
    """
    lam = 0.0
    for _ in range(steps):
        lam = float(linalg.eigh(a - (b / (d - lam)) @ b.T, eigvals_only=True,
                                subset_by_index=[0, 0])[0])
    return lam


@pytest.mark.parametrize("rho", [0.5, 1.0, 1.75])
def test_minimal_eigenvalue_matches_the_secular_fixed_point(rho):
    # a dense solve of the whole matrix is off by eps * Omega^2, 1e-7 to 1e-4
    # of the answer; the mode elimination must hold it to rounding
    species = synthetic_species()
    basis = build_mode_basis(8.0 * ELL, 6.0 * ELL)
    cfg = sample_configuration(rho * ND_PER_ELL3 / ELL**3, 8.0 * ELL,
                               species.core_diameter, seed=(17, 0))
    a, b, d = assemble_dynamical_matrix(cfg, basis, species, _PROFILE,
                                        include_contact=True)
    reference = _secular_fixed_point(a, b, d)  # before a is overwritten
    assert minimal_eigenvalue(a, b, d).value == pytest.approx(reference, rel=1e-12)


@pytest.mark.parametrize("box_over_ell", [8.0, 10.0])
@pytest.mark.parametrize("rho", [0.6, 0.8, 1.0])
def test_minimal_eigenvalue_near_the_onset_is_exact_to_rounding(box_over_ell, rho):
    # near the onset |lambda| << omega^2, so a relative check says little:
    # the Lanczos stop must leave lambda within a few ulps of omega^2 of the
    # dense fixed point (a stop at tol = 1e-6 moves it by up to ~1e-13 omega^2)
    species = synthetic_species()
    box = box_over_ell * ELL
    basis = build_mode_basis(box, 0.75 * box)
    for replica in range(2):
        cfg = sample_configuration(rho * ND_PER_ELL3 / ELL**3, box,
                                   species.core_diameter, seed=(43, replica))
        a, b, d = assemble_dynamical_matrix(cfg, basis, species, _PROFILE,
                                            include_contact=True)
        reference = _secular_fixed_point(a, b, d)
        got = minimal_eigenvalue(a, b, d).value
        assert abs(got - reference) <= 2e-15 * species.omega**2


def test_a_solve_counts_its_matvecs_and_measures_its_residual(monkeypatch):
    # every Schur-complement product but the residual's is a Lanczos matvec,
    # and the Ritz pair meets ARPACK's relative stop
    species = synthetic_species()
    box = 8.0 * ELL
    cfg = sample_configuration(0.8 * ND_PER_ELL3 / ELL**3, box,
                               species.core_diameter, seed=(43, 0))
    a, b, d = assemble_dynamical_matrix(cfg, build_mode_basis(box, 6.0 * ELL),
                                        species, _PROFILE, include_contact=True)
    calls = []
    dsymv = microsim.blas.dsymv
    monkeypatch.setattr(microsim.blas, "dsymv",
                        lambda *args, **kw: calls.append(1) or dsymv(*args, **kw))
    solve = minimal_eigenvalue(a, b, d)
    assert solve.matvecs == len(calls) - 1 > 0
    assert 0.0 < solve.residual <= _LANCZOS_TOL * abs(solve.value)


@pytest.mark.parametrize("box_over_ell, rho", _GEOMETRIES[:3])
def test_schur_complement_is_formed_in_place_to_rounding(box_over_ell, rho):
    # the in-place BLAS update may round differently from the out-of-place
    # product (it does at two BLAS threads), but only by a few ulps of the
    # terms it sums
    species = synthetic_species()
    box = box_over_ell * ELL
    cfg = sample_configuration(rho * ND_PER_ELL3 / ELL**3, box,
                               species.core_diameter, seed=(29, 0))
    a, b, d = assemble_dynamical_matrix(cfg, build_mode_basis(box, 0.75 * box),
                                        species, _PROFILE, include_contact=True)
    before = a.copy()
    minimal_eigenvalue(a, b, d)  # overwrites a with the Schur complement
    scale = np.abs(before) + np.abs(b / d) @ np.abs(b).T
    error = np.abs(a - (before - (b / d) @ b.T))
    assert np.all(error <= 16.0 * np.finfo(float).eps * scale)


def test_minimal_eigenvalue_of_a_strided_atom_block_leaves_it_as_it_was():
    # BLAS updates only a C-ordered atom block in place; a slice of the dense
    # matrix is copied, and the solve still returns the oracle's float
    species = synthetic_species()
    box = 8.0 * ELL
    cfg = sample_configuration(1.0 * ND_PER_ELL3 / ELL**3, box,
                               species.core_diameter, seed=(29, 3))
    basis = build_mode_basis(box, 6.0 * ELL)
    matrix = _reference_matrix(cfg, basis, species, _PROFILE)
    before = matrix.copy()
    got = minimal_eigenvalue(*_blocks(matrix, basis.n_modes)).value
    assert got == _reference_minimal_eigenvalue(before, basis.n_modes)
    assert matrix.tobytes() == before.tobytes()


def test_a_solve_holds_one_atom_block_beyond_its_inputs():
    # the largest geometry, N = 946: the pair chunks and the in-place Schur
    # complement leave a as the only array that grows as N^2
    species = synthetic_species()
    box = 16.0 * ELL
    cfg = sample_configuration(1.4 * ND_PER_ELL3 / ELL**3, box,
                               species.core_diameter, seed=(29, 0))
    assert cfg.n_atoms == 946
    basis = build_mode_basis(box, 0.75 * box)
    tracemalloc.start()
    try:
        a, b, d = assemble_dynamical_matrix(cfg, basis, species, _PROFILE,
                                            include_contact=True)
        minimal_eigenvalue(a, b, d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= a.nbytes + b.nbytes + 16 * 2**20


def test_a_scan_frees_each_replica_before_the_next_assembly(monkeypatch):
    # the ladder's largest rung at its densest point, N = 499, two replicas:
    # holding a replica's blocks through the next assembly doubles the peak;
    # tracemalloc sees this process only, so the replicas are solved here
    monkeypatch.setattr(microsim, "_worker_count", lambda: 1)
    species = synthetic_species()
    box = 12.0 * ELL
    density = 1.75 * dicke_density(species)
    n3 = 3 * int(round(density * box**3))
    tracemalloc.start()
    try:
        stability_scan([density], species, _PROFILE, box, 9.0 * ELL,
                       **dict(_SCAN_KNOBS, replicas=2, bisect_steps=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n3 == 1497
    assert peak <= 8 * n3 * n3 + 4 * 2**20



def test_dynamical_matrix_dimension_guard():
    # the scan refuses before sampling: the densest grid point alone holds
    # more atoms than the guard allows (and far more than fit the box)
    species = synthetic_species()
    too_many = (_MAX_MATRIX_DIM // 3 + 1) / (8.0 * ELL) ** 3
    with pytest.raises(ConfigError, match="exceeds the guard"):
        stability_scan([0.5 * dicke_density(species), too_many], species,
                       _PROFILE, 8.0 * ELL, 6.0 * ELL, **_SCAN_KNOBS)


def test_single_atom_matches_two_level_mean_field():
    # one atom coupled to one cosine mode: the block reduces to a 2x2 whose
    # smallest eigenvalue is -s2_plus at the effective density 2 cos^2 / V
    box = 8.0 * ELL
    species = synthetic_species()
    basis = build_mode_basis(box, 6.0 * ELL)
    k_norm = np.linalg.norm(basis.k, axis=1)
    idx = int(np.flatnonzero(
        (basis.parity == 0) & np.isclose(k_norm, 2.0 * math.pi / box))[0])
    single = _single_mode_basis(basis, idx)
    kvec = single.k[0]
    axis = int(np.argmax(np.abs(kvec)))
    x0 = np.zeros(3)
    x0[axis] = (math.pi / 4.0) / kvec[axis]
    cfg = Configuration(box_length=box, positions=x0[None, :])

    measured = minimal_eigenvalue(*assemble_dynamical_matrix(
        cfg, single, species, _PROFILE, include_contact=True)).value

    c0 = math.cos(float(x0 @ kvec))
    rho_eff = (2.0 * c0 * c0 / box**3) / dicke_density(species)
    pair = branch_frequencies(DispersionInput(
        omega=species.omega, Omega=float(single.Omega[0]), density_ratio=rho_eff))
    assert measured == pytest.approx(-pair.s2_plus, rel=1e-6)


def test_dilute_lattice_matches_mean_field_density():
    # 4^3 atoms on a lattice with 8 ell spacing: contact terms are negligible,
    # every |m| = 1 mode sees Sum cos^2 = N/2 exactly, and the minimal
    # eigenvalue must reproduce the mean-field branch at rho = n / n_D
    box = 32.0 * ELL
    spacing = box / 4.0
    coords = (np.arange(4) + 0.125) * spacing
    xs, ys, zs = np.meshgrid(coords, coords, coords, indexing="ij")
    positions = np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)

    n_dicke = 2.0 * 64.0 / box**3  # rho = 0.5 for this lattice
    dipole = math.sqrt(HBAR * OMEGA_SYNTH * EPS0 / (2.0 * n_dicke))
    species = dataclasses.replace(synthetic_species(), dipole=dipole)
    profile = CutoffProfile(ell=ELL, shape=GAUSSIAN)
    basis = build_mode_basis(box, 24.0 * ELL)
    assert basis.n_modes == 12  # the |m| = 1 shell only

    cfg = Configuration(box_length=box, positions=positions)
    measured = minimal_eigenvalue(*assemble_dynamical_matrix(
        cfg, basis, species, profile, include_contact=True)).value

    pair = branch_frequencies(DispersionInput(
        omega=species.omega, Omega=float(basis.Omega[0]), density_ratio=0.5))
    assert measured == pytest.approx(-pair.s2_plus, rel=1e-3)


# ---------------------------------------------------------------------------
# finite-wavevector cross-check of the contact suppression


def test_finite_k_slope_quadrature_matches_frozen_values():
    assert _finite_k_slope(1e-6, 1.15) == pytest.approx(_ISLOPE_K0, abs=1e-9)
    for k_ell, frozen in _ISLOPE_TABLE.items():
        assert _finite_k_slope(k_ell, 1.15) == pytest.approx(frozen, abs=1e-6)


def _measured_shell_threshold(m_norm2: int, grid: np.ndarray, seed: int) -> float:
    box = 8.0 * ELL
    species = synthetic_species()
    n_dicke = dicke_density(species)
    basis = _shell_basis(build_mode_basis(box, 4.0 * ELL), box, m_norm2)
    means = []
    for i, rho in enumerate(grid):
        eigs = []
        for j in range(6):
            cfg = sample_configuration(rho * n_dicke, box, species.core_diameter,
                                       seed=(seed, i, j))
            eigs.append(minimal_eigenvalue(*assemble_dynamical_matrix(
                cfg, basis, species, _PROFILE, include_contact=True)).value)
        means.append(np.mean(eigs))
    means = np.asarray(means)
    sign_change = np.flatnonzero((means[:-1] > 0.0) & (means[1:] <= 0.0))
    assert sign_change.size > 0, "no instability inside the scanned density range"
    i = int(sign_change[0])
    # linear interpolation of the mean curve across the crossing
    return float(grid[i] + (grid[i + 1] - grid[i])
                 * means[i] / (means[i] - means[i + 1]))


def test_shell_thresholds_follow_finite_k_suppression():
    # mode-resolved thresholds: the longest-wavelength shell destabilizes
    # near 1 / (1 - Ihat(k)), and the shorter-wavelength shell strictly
    # earlier; disorder lowers both against the homogeneous estimate
    grid = np.array([0.4, 0.6, 0.8, 1.0, 1.2])
    measured_1 = _measured_shell_threshold(1, grid, seed=31)
    measured_4 = _measured_shell_threshold(4, grid, seed=37)

    k1 = 2.0 * math.pi / 8.0
    k2 = 2.0 * math.pi / 4.0
    predicted_1 = 1.0 / (1.0 - _ISLOPE_TABLE[k1])
    predicted_4 = 1.0 / (1.0 - _ISLOPE_TABLE[k2])

    assert measured_4 < measured_1
    assert 0.5 * predicted_1 < measured_1 < 1.15 * predicted_1
    assert 0.5 * predicted_4 < measured_4 < 1.15 * predicted_4


# ---------------------------------------------------------------------------
# the density scan


def test_check_scan_separation_gates():
    species = synthetic_species()  # core = 1.15 ell
    with pytest.raises(ScaleSeparationError, match="ell >="):
        check_scan_separation(species, ELL, 6.0 * ELL, 4.0)
    check_scan_separation(species, ELL, 6.0 * ELL, 0.8)
    with pytest.raises(ScaleSeparationError, match="lambda_min >="):
        check_scan_separation(species, ELL, 2.0 * ELL, 0.8)
    # ell = factor * core and lambda_min = 4 ell both pass; the default
    # microsim.lambda_min_over_ell = 4.0 sits exactly on the second bound
    core = synthetic_species(core_diameter_over_ell=0.25)
    check_scan_separation(core, ELL, 4.0 * ELL, 4.0)
    with pytest.raises(ScaleSeparationError, match="ell >="):
        check_scan_separation(core, ELL, 4.0 * ELL, 4.0 * (1.0 + 1e-12))
    with pytest.raises(ScaleSeparationError, match="lambda_min >="):
        check_scan_separation(core, ELL, 4.0 * ELL * (1.0 - 1e-12), 4.0)


def _smoke_scan(master_seed: int = 7, densities=(0.25, 0.5, 1.0)):
    species = synthetic_species()
    n_dicke = dicke_density(species)
    knobs = dict(_SCAN_KNOBS, master_seed=master_seed)
    return stability_scan([r * n_dicke for r in densities], species, _PROFILE,
                          8.0 * ELL, 6.0 * ELL, **knobs), n_dicke


def test_stability_scan_brackets_a_threshold(capsys):
    report, n_dicke = _smoke_scan()
    assert np.all(np.diff(report.min_eig_mean) < 0.0)
    assert report.min_eig_mean[0] > 0.0
    assert report.min_eig_mean[-1] <= 0.0
    assert report.unstable_fraction[0] == 0.0
    assert np.array_equal(
        report.atoms_per_density,
        np.round(report.density_grid * (8.0 * ELL) ** 3).astype(int))
    assert report.threshold_low is not None
    lo = report.threshold_low / n_dicke
    hi = report.threshold_high / n_dicke
    assert 0.55 < lo < hi < 0.85
    assert hi - lo <= (1.0 - 0.5) / 2**6 + 1e-12
    assert len(report.probes) == 6
    progress = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in progress] == (
        [f"microsim grid {i}/3" for i in (1, 2, 3)]
        + [f"microsim probe {i}/6" for i in range(1, 7)])
    assert set(report.phase_s) == {"sample", "assemble", "eig"}
    assert all(seconds > 0.0 for seconds in report.phase_s.values())


def test_a_pooled_scan_reports_each_density_in_order(monkeypatch, capsys):
    # the CLI tests compare its bytes with those of the in-process scan
    monkeypatch.setattr(microsim, "_worker_count", lambda: 2)
    report, _ = _smoke_scan()
    assert report.workers == 2
    assert report.worker_peak_rss_mb > 0.0
    assert len(report.probes) == 6
    # one line per grid density and per probe, in order, as each is solved
    progress = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in progress] == (
        [f"microsim grid {i}/3" for i in (1, 2, 3)]
        + [f"microsim probe {i}/6" for i in range(1, 7)])
    elapsed = [float(line.split(", ")[-1].split()[0]) for line in progress]
    assert elapsed == sorted(elapsed)


@pytest.mark.parametrize("threads, cores, workers", [
    ({}, 4, 1),
    (dict.fromkeys(microsim.BLAS_THREAD_VARS, "1"), 4, 4),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 4, 2),
    ({"OMP_NUM_THREADS": "3"}, 4, 1),
    ({"OMP_NUM_THREADS": "abc", "OPENBLAS_NUM_THREADS": "1"}, 4, 1),
    ({"OMP_NUM_THREADS": "0", "OPENBLAS_NUM_THREADS": "1"}, 4, 1),
    ({"OMP_NUM_THREADS": "8"}, 4, 1),
    (dict.fromkeys(microsim.BLAS_THREAD_VARS, "1"), 1, 1),
])
def test_worker_count_divides_the_cores_by_the_blas_threads(monkeypatch, threads,
                                                             cores, workers):
    for var in microsim.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in threads.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(microsim.os, "sched_getaffinity",
                        lambda pid: set(range(cores)), raising=False)
    assert microsim._worker_count() == workers


def test_stability_scan_is_deterministic_in_the_master_seed():
    a, _ = _smoke_scan(master_seed=12)
    b, _ = _smoke_scan(master_seed=12)
    c, _ = _smoke_scan(master_seed=13)
    assert np.array_equal(a.min_eig_mean, b.min_eig_mean)
    assert a.threshold_low == b.threshold_low
    assert a.probes == b.probes
    assert not np.array_equal(a.min_eig_mean, c.min_eig_mean)


def test_stability_scan_without_crossing_reports_none():
    report, _ = _smoke_scan(densities=(0.2, 0.3))
    assert report.threshold_low is None
    assert report.threshold_high is None
    assert report.probes == []


def test_stability_scan_validation():
    species = synthetic_species()
    lengths = (8.0 * ELL, 6.0 * ELL)
    with pytest.raises(ValueError):
        stability_scan([], species, _PROFILE, *lengths, **_SCAN_KNOBS)
    with pytest.raises(ValueError):
        stability_scan([-1.0], species, _PROFILE, *lengths, **_SCAN_KNOBS)
    with pytest.raises(ValueError):
        stability_scan([1.0], species, _PROFILE, *lengths,
                       **dict(_SCAN_KNOBS, replicas=0))
    # the lambda_min gate reads ell from the profile
    with pytest.raises(ScaleSeparationError, match="lambda_min >="):
        stability_scan([1.0], species, CutoffProfile(ell=2.0 * ELL, shape=GAUSSIAN),
                       *lengths, **_SCAN_KNOBS)
