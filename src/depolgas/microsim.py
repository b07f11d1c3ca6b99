"""Finite-N eigenvalue simulation of the coupled atom-mode system.

A periodic cube of side L holds N = round(n L^3) hard spheres (random
sequential insertion, minimum-image convention) and a basis of transverse
standing-wave modes commensurate with the box.  Linearizing the coupled
oscillator equations and rescaling atom coordinates by sqrt(omega) and mode
amplitudes by sqrt(Omega_nu) yields one real symmetric dynamical matrix,
held as its atom block, its coupling block g and its mode diagonal Omega^2

    [ omega^2 I + (2 d^2 omega / hbar eps0) u(x_ij)   g_{j,nu}          ]
    [ g_{j,nu}^T                                      Omega_nu^2 delta  ]

with g_{j,nu} = (d sqrt(omega Omega_nu) / hbar eps0) f_nu(x_j).  The gas is
dynamically stable exactly when this matrix is positive semidefinite, so a
density scan tracks its minimal eigenvalue and brackets the instability
threshold by the sign change of the replica average.
"""

from __future__ import annotations

import itertools
import math
import os
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np
from scipy.linalg import blas
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh
from scipy.spatial import cKDTree

from .constants import CODATA, AtomSpecies, dicke_density
from .errors import (ConfigError, EigensolverConvergenceError,
                     InfeasiblePackingError, ScaleSeparationError)
from .kernels import CutoffProfile, contact_scalars

MAX_PACKING = 0.3          # RSA stays well clear of its jamming fraction
_ATTEMPTS_PER_ATOM = 3000  # insertion attempts allowed per atom
_MIN_BLOCK = 64            # fewest trials drawn at once
# tree search radius over the core diameter: the tree's periodic distance
# and the exact minimum-image test differ only by rounding
_SEARCH_SLACK = 1.001
_MAX_MATRIX_DIM = 8000
# i < j pairs assembled at once; bounds the pair-length arrays of an assembly
_PAIR_CHUNK = 1 << 12
_MIN_LAMBDA_OVER_ELL = 4.0  # ell << lambda_min
# ARPACK's relative stop; minimal_eigenvalue says why it leaves lambda at
# rounding (1e-6 moves lambda by up to ~1e-13 omega^2)
_LANCZOS_TOL = 1e-8

# the thread counts BLAS reads at start-up: a scan divides the cores by them,
# and the CLI manifest records them
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# ru_maxrss is in kB, except on macOS, where it is in bytes
_RSS_UNITS_PER_MB = 2**20 if sys.platform == "darwin" else 2**10


@dataclass(frozen=True)
class Configuration:
    """One sampled hard-sphere configuration in a periodic cube."""

    box_length: float
    positions: np.ndarray  # (N, 3), coordinates in [0, L)

    @property
    def n_atoms(self) -> int:
        return self.positions.shape[0]


def minimum_image(delta: np.ndarray, box_length: float) -> np.ndarray:
    """Map displacement vectors into the centered box."""
    return delta - box_length * np.rint(delta / box_length)


def _overlapping(earlier: np.ndarray, later: np.ndarray, box_length: float,
                 sigma2: float) -> np.ndarray:
    """Exact hard-core test of row pairs (the earlier insertion first)."""
    d = minimum_image(earlier - later, box_length)
    return np.einsum("ij,ij->i", d, d) < sigma2


def sample_configuration(density: float, box_length: float, core_diameter: float,
                         seed) -> Configuration:
    """Random sequential insertion of round(n L^3) hard spheres.

    Refuses packing fractions of 0.3 and above, where sequential insertion
    degrades; below that it terminates fast.  ``seed`` may be anything
    accepted by ``np.random.SeedSequence``; equal seeds give identical
    configurations.

    Trials are drawn in blocks, which yields the same numbers as one draw
    per trial.  Periodic KD-trees over a slightly larger radius find the
    candidate overlaps with the accepted spheres and inside the block;
    the exact minimum-image test decides them, and overlaps inside a block
    are settled in trial order.  The accepted positions are therefore those
    of inserting one trial at a time, and the attempt budget, charged per
    trial, runs out on the same trial.
    """
    if density <= 0.0 or box_length <= 0.0:
        raise ValueError("density and box_length must be positive")
    n = int(round(density * box_length**3))
    if n < 1:
        raise InfeasiblePackingError(
            f"density {density:g} in box {box_length:g} rounds to zero atoms"
        )
    packing = n * (math.pi / 6.0) * core_diameter**3 / box_length**3
    if packing >= MAX_PACKING:
        raise InfeasiblePackingError(
            f"packing fraction {packing:.3f} >= {MAX_PACKING} for {n} spheres of "
            f"diameter {core_diameter:g} in box {box_length:g}"
        )
    if core_diameter > 0.0 and core_diameter >= box_length / 2.0:
        raise InfeasiblePackingError(
            "core diameter must be below half the box length for minimum image"
        )

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    positions = np.empty((n, 3))
    sigma2 = core_diameter * core_diameter
    radius = _SEARCH_SLACK * core_diameter
    budget = _ATTEMPTS_PER_ATOM * n
    accepted = used = 0
    while accepted < n:
        if used >= budget:
            raise InfeasiblePackingError(
                f"insertion stalled at {accepted}/{n} spheres "
                f"(packing fraction {packing:.3f})"
            )
        # enough trials for the missing spheres at the acceptance rate so far
        size = min(budget - used,
                   max(_MIN_BLOCK, (n - accepted) * (used + 1) // (accepted + 1)))
        trials = rng.uniform(0.0, box_length, (size, 3))
        used += size
        near = cKDTree(trials, boxsize=box_length).sparse_distance_matrix(
            cKDTree(positions[:accepted], boxsize=box_length), radius,
            output_type="ndarray")
        hit = _overlapping(positions[near["j"]], trials[near["i"]],
                           box_length, sigma2)
        free = np.ones(size, dtype=bool)
        free[near["i"][hit]] = False
        trials = trials[free]
        pairs = cKDTree(trials, boxsize=box_length).query_pairs(
            radius, output_type="ndarray")
        pairs = pairs[_overlapping(trials[pairs[:, 0]], trials[pairs[:, 1]],
                                   box_length, sigma2)]
        # in order of the later trial, so each earlier one is already settled
        keep = np.ones(len(trials), dtype=bool)
        for i, j in pairs[np.argsort(pairs[:, 1], kind="stable")].tolist():
            if keep[i]:
                keep[j] = False
        kept = trials[keep][: n - accepted]
        positions[accepted: accepted + len(kept)] = kept
        accepted += len(kept)
    return Configuration(box_length=box_length, positions=positions)


# ---------------------------------------------------------------------------
# transverse standing-wave mode basis


@dataclass(frozen=True)
class ModeBasis:
    """Real transverse modes of a periodic cube, |k| <= 2 pi / lambda_min.

    One canonical wavevector per +-k pair, two unit polarizations
    perpendicular to k, and cos/sin parities (0 = cos, 1 = sin).  Mode
    functions are f_nu(x) = amplitude * pol * {cos|sin}(k . x) with
    amplitude^2 = 4 hbar Omega eps0 / V, which realizes the normalization
    Int f_nu . f_mu d^3x = 2 hbar Omega_nu eps0 delta_numu.
    """

    k: np.ndarray          # (M, 3) rad/m
    pol: np.ndarray        # (M, 3) unit vectors
    parity: np.ndarray     # (M,) 0 cos, 1 sin
    Omega: np.ndarray      # (M,) rad/s
    amplitude: np.ndarray  # (M,)

    @property
    def n_modes(self) -> int:
        return self.k.shape[0]


def build_mode_basis(box_length: float, lambda_min: float) -> ModeBasis:
    """Enumerate box-commensurate transverse modes with 0 < |k| <= 2 pi / lambda_min.

    Wavevectors k = 2 pi m / L run over the integer lattice m in mx-major
    order; each gives four consecutive modes: e1 cos, e1 sin, e2 cos, e2 sin.
    """
    if lambda_min <= 0.0 or box_length <= 0.0:
        raise ValueError("box_length and lambda_min must be positive")
    m_max = box_length / lambda_min
    if m_max < 1.0:
        raise ConfigError(
            f"no modes fit: lambda_min {lambda_min:g} exceeds box length {box_length:g}"
        )
    # float entries, so zero components of e1 and e2 keep their IEEE sign
    axis = np.arange(-math.floor(m_max), math.floor(m_max) + 1, dtype=float)
    m = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    mx, my, mz = m.T
    # canonical representative of the +-m pair, inside the sphere |m| <= m_max
    canonical = (mx > 0) | ((mx == 0) & ((my > 0) | ((my == 0) & (mz > 0))))
    m = m[canonical & ((m * m).sum(axis=1) <= m_max * m_max)]
    mx, my, mz = m.T
    # integer-valued polarizations keep k . pol at exact zero before
    # normalization, and their squared norms are exact
    e1 = np.stack([my, -mx, np.zeros_like(mx)], axis=1)
    e2 = np.stack([mz * mx, mz * my, -(mx * mx + my * my)], axis=1)
    on_z = (mx == 0) & (my == 0)
    e1[on_z] = (1.0, 0.0, 0.0)
    e2[on_z] = (0.0, 1.0, 0.0)
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    e2 /= np.linalg.norm(e2, axis=1)[:, None]
    k = (2.0 * math.pi / box_length) * m
    # |k| by one dot product per row rounds like a 1-D norm; norm(axis=1) does not
    omega = CODATA.c * np.sqrt((k[:, None, :] @ k[:, :, None]).ravel())
    omega = np.repeat(omega, 4)
    amplitude = np.sqrt(4.0 * CODATA.hbar * omega * CODATA.epsilon0 / box_length**3)
    return ModeBasis(k=np.repeat(k, 4, axis=0),
                     pol=np.stack([e1, e1, e2, e2], axis=1).reshape(-1, 3),
                     parity=np.tile(np.array([0, 1], dtype=np.int8), 2 * len(m)),
                     Omega=omega, amplitude=amplitude)


# ---------------------------------------------------------------------------
# dynamical matrix


def assemble_dynamical_matrix(config: Configuration, basis: ModeBasis,
                              species: AtomSpecies, profile: CutoffProfile, *,
                              include_contact: bool
                              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blocks (a, b, d) of the dynamical matrix [[a, b], [b^T, diag(d)]].

    ``a`` is the 3N x 3N atom block, ``b`` the 3N x M atom-mode coupling and
    ``d`` = Omega^2 the diagonal of the mode block (values in (rad/s)^2).
    ``a`` is the only array of the call whose size grows as N^2.
    """
    pos = config.positions
    n = config.n_atoms
    n3 = 3 * n
    omega = species.omega
    a = np.zeros((n3, n3))

    # atom-atom: omega^2 on the diagonal plus the contact kernel on pairs.
    # Minimum-image differences are exactly antisymmetric, so the i < j
    # pairs give every block.  They are taken in row-major order, _PAIR_CHUNK
    # at a time; each of the 6 unique (alpha, beta) components of a chunk is
    # scattered into both triangles of the flat matrix, at 3 (i 3N + j) +
    # (alpha 3N + beta) and at the transposed offsets
    if include_contact and n > 1:
        coupling = 2.0 * species.dipole**2 * omega / (CODATA.hbar * CODATA.epsilon0)
        flat = a.reshape(-1)
        rows = np.arange(n - 1)
        row_start = rows * (2 * n - rows - 1) // 2  # index of the pair (i, i + 1)
        n_pairs = n * (n - 1) // 2
        for first in range(0, n_pairs, _PAIR_CHUNK):
            pair = np.arange(first, min(first + _PAIR_CHUNK, n_pairs))
            i = np.searchsorted(row_start, pair, side="right") - 1
            j = pair - row_start[i] + i + 1
            diff = minimum_image(np.take(pos, i, axis=0) - np.take(pos, j, axis=0),
                                 config.box_length)
            r = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            ut, ul = contact_scalars(profile, r)
            dl = ul - ut
            rhat = np.ascontiguousarray((diff / r[:, None]).T)
            upper, lower = 3 * (i * n3 + j), 3 * (j * n3 + i)
            for alpha in range(3):
                for beta in range(alpha, 3):
                    delta = 1.0 if alpha == beta else 0.0
                    value = coupling * (ut * delta + dl * (rhat[alpha] * rhat[beta]))
                    # a view starting at the component's offset takes the
                    # pair offsets as they are
                    for offset in {alpha * n3 + beta, beta * n3 + alpha}:
                        component = flat[offset:]
                        component[upper] = component[lower] = value
    a[np.diag_indices(n3)] += omega * omega

    # atom-mode: d sqrt(omega Omega) / (hbar eps0) * f_nu(x_j)
    phase = pos @ basis.k.T
    wave = np.where(basis.parity[None, :] == 0, np.cos(phase), np.sin(phase))
    scal = (species.dipole * np.sqrt(omega * basis.Omega)[None, :]
            / (CODATA.hbar * CODATA.epsilon0)
            * basis.amplitude[None, :] * wave)          # (N, M)
    b = (scal[:, None, :] * basis.pol.T[None, :, :]).reshape(3 * n, basis.n_modes)
    return a, b, basis.Omega**2


class LanczosSolve(NamedTuple):
    """The minimal eigenvalue of one dynamical matrix and what finding it took."""

    value: float     # lambda_min of the full matrix, (rad/s)^2
    matvecs: int     # Schur-complement products of the Lanczos iteration
    residual: float  # ||S v - theta v|| of its Ritz pair, (rad/s)^2


def minimal_eigenvalue(a: np.ndarray, b: np.ndarray, d: np.ndarray) -> LanczosSolve:
    """Smallest eigenvalue of the dynamical matrix [[a, b], [b^T, diag(d)]].

    Overwrites ``a`` (C-ordered, as assembled) with the Schur complement.
    The mode block d = Omega^2 is some 1e11 times the atom scale omega^2, so
    a dense solve of the whole matrix resolves the small eigenvalues only to
    eps * Omega^2.  Eliminating the modes exactly leaves the atom-scale Schur
    complement S = a - b d^-1 b^T, whose lowest Ritz pair (theta, v) Lanczos
    refines until its residual estimate is below _LANCZOS_TOL * |theta|.
    theta is the Rayleigh quotient of v, so its error is at most
    ||S v - theta v||^2 / gap, far below the rounding already in S.  One
    dgemm forms S in place, so no second 3N x 3N array is allocated; it is
    the transposed-first call numpy makes for (b / d) @ b.T, and at one BLAS
    thread gives the same bytes (at more threads the last bits differ).  The
    eigenvalues of the full matrix below min(d) solve
    lambda = lambda_min(a - b (d - lambda)^-1 b^T); one first-order step of
    that secular equation from theta, with x = b^T v, gives lambda to
    rounding, because the step is of relative size omega^2 / Omega^2.
    Returns lambda with the solve's matvec count and its true residual
    ||S v - theta v||, which one more matvec measures.  Raises
    EigensolverConvergenceError when Lanczos does not converge.
    """
    n3 = a.shape[0]
    # a C-ordered a is, as a.T, the Fortran-ordered array BLAS updates in
    # place; BLAS copies an a of any other layout and leaves it as it was
    s = blas.dgemm(-1.0, b.T, (b / d).T, beta=1.0, c=a.T, trans_a=1,
                   overwrite_c=1).T
    matvecs = 0

    # Lanczos time is all matvecs: a symmetric one reads half of the matrix
    def matvec(x):
        nonlocal matvecs
        matvecs += 1
        return blas.dsymv(1.0, s.T, x)

    op = LinearOperator(s.shape, dtype=s.dtype, matvec=matvec)
    # a fixed start vector keeps the solve, and so the CSV, deterministic
    v0 = np.random.default_rng(0).standard_normal(n3)
    try:
        vals, vecs = eigsh(op, k=1, which="SA", tol=_LANCZOS_TOL, v0=v0)
    except ArpackNoConvergence as exc:
        raise EigensolverConvergenceError(
            f"Lanczos found no minimal eigenvalue of the {n3}-dimensional "
            f"Schur complement: {exc}") from exc
    theta = float(vals[0])
    v = vecs[:, 0]
    residual = float(np.linalg.norm(blas.dsymv(1.0, s.T, v, beta=-theta, y=v)))
    x = b.T @ v
    return LanczosSolve(theta - float(np.sum(x * x * theta / (d * (d - theta)))),
                        matvecs, residual)


# ---------------------------------------------------------------------------
# density scan


@dataclass
class StabilityReport:
    """Replica-averaged minimal-eigenvalue curve and threshold bracket."""

    density_grid: np.ndarray       # 1/m^3
    min_eig_mean: np.ndarray       # (rad/s)^2
    min_eig_std: np.ndarray
    unstable_fraction: np.ndarray
    atoms_per_density: np.ndarray
    replicas: int
    n_modes: int                   # M, the mode rows of every matrix of the scan
    threshold_low: float | None = None   # 1/m^3
    threshold_high: float | None = None
    probes: list = field(default_factory=list)
    # over every grid and probe solve: Lanczos matvecs, and the largest
    # residual ||S v - theta v|| in (rad/s)^2
    lanczos_matvecs: int = 0
    lanczos_residual_max: float = 0.0
    # perf_counter seconds spent per phase over every replica of the scan,
    # summed over the worker processes
    phase_s: dict = field(default_factory=lambda: dict.fromkeys(
        ("sample", "assemble", "eig"), 0.0))
    workers: int = 1               # processes the replicas were solved in
    worker_peak_rss_mb: float = 0.0  # largest peak RSS of those processes


def check_scan_separation(species: AtomSpecies, ell: float, lambda_min: float,
                          min_ell_over_core: float) -> None:
    """Hard gate on the scale ordering core << ell << lambda_min (lengths in m)."""
    sigma = species.core_diameter
    if sigma > 0.0 and ell < min_ell_over_core * sigma:
        raise ScaleSeparationError(
            "scale separation violated: require ell >= "
            f"{min_ell_over_core:g} * core_diameter (core << ell), got "
            f"ell = {ell:g} m, core_diameter = {sigma:g} m"
        )
    if lambda_min < _MIN_LAMBDA_OVER_ELL * ell:
        raise ScaleSeparationError(
            "scale separation violated: require lambda_min >= "
            f"{_MIN_LAMBDA_OVER_ELL:g} * ell (ell << lambda_min), got "
            f"lambda_min = {lambda_min:g} m, ell = {ell:g} m"
        )


class _ReplicaSolve(NamedTuple):
    """What one (density, replica) task of a scan returns."""

    solve: LanczosSolve
    seconds: tuple[float, float, float]  # sampling, assembly, eigen-solve
    peak_rss_mb: float                   # of the process that ran the task


def _solve_replica(density: float, seed: tuple, *, box_length: float,
                   basis: ModeBasis, species: AtomSpecies, profile: CutoffProfile,
                   include_contact: bool) -> _ReplicaSolve:
    """Sample, assemble and solve one replica; its blocks die on return."""
    t0 = time.perf_counter()
    cfg = sample_configuration(density, box_length, species.core_diameter, seed=seed)
    t1 = time.perf_counter()
    a, b, d = assemble_dynamical_matrix(cfg, basis, species, profile,
                                        include_contact=include_contact)
    t2 = time.perf_counter()
    solve = minimal_eigenvalue(a, b, d)
    t3 = time.perf_counter()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / _RSS_UNITS_PER_MB
    return _ReplicaSolve(solve, (t1 - t0, t2 - t1, t3 - t2), peak)


def _worker_count() -> int:
    """Processes a scan solves its replicas in: the cores over the BLAS threads.

    The BLAS threads are the largest value set among BLAS_THREAD_VARS; with
    none set, or one that is not a positive integer, BLAS may use every core
    and the count is 1.  It is also 1 where workers cannot be forked or the
    usable cores are not known.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    values = [os.environ[var] for var in BLAS_THREAD_VARS if var in os.environ]
    try:
        threads = [int(value) for value in values]
    except ValueError:
        return 1
    if not threads or min(threads) < 1:
        return 1
    return max(1, len(os.sched_getaffinity(0)) // max(threads))


@contextmanager
def _replica_map(workers: int):
    """An ordered map over ``workers`` processes; plain ``map`` for one.

    The workers are forked, so they start at once with numpy and scipy
    loaded and see the caller's module state; a fresh interpreter per worker
    would pay those imports on every scan.  Each worker runs BLAS at the
    pinned thread count, so together they use no more threads than cores.
    Leaving the block, on success or error, drops the tasks not yet started
    and joins every worker.
    """
    if workers == 1:
        yield map
        return
    # imported only here, so that importing the package does not pay for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        yield pool.map
    finally:
        pool.shutdown(cancel_futures=True)


def _collect(report: StabilityReport, results) -> np.ndarray:
    """Add a density's replica solves to the report; return their eigenvalues."""
    eigs = []
    for solve, seconds, peak in results:
        eigs.append(solve.value)
        report.lanczos_matvecs += solve.matvecs
        report.lanczos_residual_max = max(report.lanczos_residual_max, solve.residual)
        report.worker_peak_rss_mb = max(report.worker_peak_rss_mb, peak)
        for phase, spent in zip(report.phase_s, seconds):
            report.phase_s[phase] += spent
    return np.array(eigs)


def _progress(step: str, density_over_nd: float, n_atoms: int, started: float) -> None:
    print(f"microsim {step}: {density_over_nd:.6g} n_D, N = {n_atoms}, "
          f"{time.perf_counter() - started:.2f} s elapsed", file=sys.stderr, flush=True)


def stability_scan(densities, species: AtomSpecies, profile: CutoffProfile,
                   box_length: float, lambda_min: float, *, replicas: int,
                   master_seed: int, bisect_steps: int, include_contact: bool,
                   min_ell_over_core: float) -> StabilityReport:
    """Minimal-eigenvalue curve over a density grid plus threshold bisection.

    Lengths are in metres; the cutoff length ell is ``profile.ell``.

    Each (density, replica) task owns an independent RNG stream derived from
    (master_seed, phase, task indices), so results are reproducible and
    independent of evaluation order.  The tasks run in as many processes as
    the cores over the BLAS threads (in this one when that is 1) and are
    reduced in task order, so the report does not depend on the process
    count.  After the grid pass, the first sign change of the
    replica-averaged minimal eigenvalue is refined by ``bisect_steps``
    density bisections with fresh replicas.  Each grid density and each
    bisection probe reports one progress line on stderr, once its replicas
    are solved.
    """
    check_scan_separation(species, profile.ell, lambda_min, min_ell_over_core)
    if replicas < 1:
        raise ValueError("need at least one replica")
    densities = np.sort(np.asarray(list(densities), dtype=float))
    if densities.size == 0 or np.any(densities <= 0.0):
        raise ValueError("density grid must be non-empty and positive")

    basis = build_mode_basis(box_length, lambda_min)
    # the largest matrix of the scan is known before any sampling
    worst_dim = 3 * int(round(densities[-1] * box_length**3)) + basis.n_modes
    if worst_dim > _MAX_MATRIX_DIM:
        raise ConfigError(
            f"dynamical matrix dimension {worst_dim} exceeds the guard "
            f"{_MAX_MATRIX_DIM}; reduce the density grid or the box"
        )
    mean = np.empty(densities.size)
    std = np.empty(densities.size)
    frac = np.empty(densities.size)
    atoms = np.empty(densities.size, dtype=int)
    report = StabilityReport(density_grid=densities, min_eig_mean=mean,
                             min_eig_std=std, unstable_fraction=frac,
                             atoms_per_density=atoms, replicas=replicas,
                             n_modes=basis.n_modes)
    n_dicke = dicke_density(species)
    solve = partial(_solve_replica, box_length=box_length, basis=basis,
                    species=species, profile=profile, include_contact=include_contact)
    report.workers = _worker_count()
    started = time.perf_counter()
    with _replica_map(report.workers) as replica_map:
        # every grid task at once, read back in task order
        results = replica_map(solve, np.repeat(densities, replicas),
                              [(master_seed, 0, i, j) for i in range(densities.size)
                               for j in range(replicas)])
        for i, density in enumerate(densities):
            eigs = _collect(report, itertools.islice(results, replicas))
            mean[i] = eigs.mean()
            std[i] = eigs.std(ddof=1) if replicas > 1 else 0.0
            frac[i] = np.mean(eigs < 0.0)
            atoms[i] = int(round(density * box_length**3))
            _progress(f"grid {i + 1}/{densities.size}", density / n_dicke, atoms[i],
                      started)

        crossing = None
        for i in range(densities.size - 1):
            if mean[i] > 0.0 >= mean[i + 1]:
                crossing = i
                break
        if crossing is None:
            return report

        lo, hi = densities[crossing], densities[crossing + 1]
        for step in range(bisect_steps):
            mid = 0.5 * (lo + hi)
            eigs = _collect(report, replica_map(
                solve, [mid] * replicas, [(master_seed, 1, step, j) for j in range(replicas)]))
            report.probes.append((mid, float(eigs.mean())))
            _progress(f"probe {step + 1}/{bisect_steps}", mid / n_dicke,
                      int(round(mid * box_length**3)), started)
            if eigs.mean() <= 0.0:
                hi = mid
            else:
                lo = mid
    report.threshold_low = lo
    report.threshold_high = hi
    return report
