"""Command-line front end.

Every subcommand reads one config file, writes into a fresh output
directory (existing files are never overwritten), and produces three
artifacts: ``<command>.csv``, ``resolved_config.txt`` and ``manifest.txt``.
CSV bodies are deterministic for a fixed config and seed on one machine,
numpy/scipy build and BLAS thread count; the manifest additionally records
the BLAS thread variables and wall time, which is excluded from the
determinism contract; ``microsim`` adds its bisection probes, the size of
its largest matrix, its Lanczos matvec count and largest residual, its
worker count, the largest peak RSS of its workers, and its per-phase
timings there, and the commands that integrate (all but ``microsim``) add
the worst gated quadrature error and the time spent in quadrature.  The
``microsim`` phase timings are summed over its worker processes, so with
more than one worker they can exceed the wall time.

Exit codes: 0 success, 2 configuration error, 3 numerical non-convergence,
4 infeasible sampling.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

from . import __version__
from .config import (RunConfig, check_lengths_for_meanfield, load_config,
                     resolved_lines, FORMAT_VERSION)
from .constants import dicke_density
from .errors import (ConfigError, DepolgasError, InfeasiblePackingError,
                     NoCriticalDensityError)
from .kernels import QuadratureLog, gamma_peak, gamma_r, kernel_k, kernel_u
from .meanfield import (DispersionInput, branch_frequencies,
                        critical_ratio_bisection, critical_ratio_from_overlap,
                        overlap_integral, shift_slope)
from .microsim import BLAS_THREAD_VARS, stability_scan

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_NUMERICAL = 3
_EXIT_SAMPLING = 4


def _fmt(value, precision: int) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None or value == "":
        return ""
    if isinstance(value, str):  # row-level error messages; must stay comma-free
        return value.replace(",", ";")
    return format(float(value), f".{precision}g")


def _exit_code(exc: DepolgasError) -> int:
    """The exit code of a package error, for a whole run and for one row."""
    if isinstance(exc, ConfigError):
        return _EXIT_CONFIG
    if isinstance(exc, InfeasiblePackingError):
        return _EXIT_SAMPLING
    return _EXIT_NUMERICAL


class _RowErrors:
    """Tracks the worst row-level failure for the final exit code."""

    def __init__(self):
        self.exit_code = _EXIT_OK

    def classify(self, exc: DepolgasError) -> str:
        self.exit_code = max(self.exit_code, _exit_code(exc))
        return str(exc)


class _Output(NamedTuple):
    """What a subcommand produces: the CSV parts and extra manifest lines."""

    header: list[str]
    rows: list[list]
    footer: list[str]
    manifest: tuple[str, ...] = ()


def _quadrature_lines(log: QuadratureLog, precision: int) -> tuple[str, ...]:
    """Manifest lines of the quadratures a command ran; none for microsim."""
    if not log.calls:
        return ()
    return (f"quadrature_error_max = {_fmt(log.error_max, precision)}",
            f"phase_s.quadrature = {log.seconds:.3f}  # excluded from determinism")


def _write_outputs(out_dir: Path, command: str, output: _Output, cfg: RunConfig,
                   seed, started: float) -> None:
    precision = cfg.values["output.precision"]
    out_dir.mkdir(parents=True, exist_ok=True)

    body_lines = [",".join(output.header)]
    for row in output.rows:
        body_lines.append(",".join(_fmt(v, precision) for v in row))
    body_lines.extend(output.footer)
    body = "\n".join(body_lines) + "\n"

    config_text = "\n".join(resolved_lines(cfg)) + "\n"
    # the eigenvalue columns depend on the BLAS threads in the last digits
    blas_threads = ",".join(f"{var}={os.environ.get(var, 'unset')}"
                            for var in BLAS_THREAD_VARS)
    try:
        with open(out_dir / f"{command}.csv", "x", encoding="utf-8", newline="\n") as fh:
            fh.write(body)
        with open(out_dir / "resolved_config.txt", "x", encoding="utf-8", newline="\n") as fh:
            fh.write(config_text)
        manifest = [f"command = {command}",
                    f"format_version = {FORMAT_VERSION}",
                    f"package_version = {__version__}",
                    f"numpy_version = {np.__version__}",
                    f"scipy_version = {scipy.__version__}",
                    f"python_version = {sys.version.split()[0]}",
                    f"blas_threads = {blas_threads}",
                    f"seed = {seed}"]
        manifest += [f"config.{line}" for line in resolved_lines(cfg)]
        manifest += [f"csv_sha256 = {hashlib.sha256(body.encode()).hexdigest()}",
                     *output.manifest,
                     f"wall_time_s = {time.monotonic() - started:.3f}  # excluded from determinism"]
        with open(out_dir / "manifest.txt", "x", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(manifest) + "\n")
    except FileExistsError as exc:
        raise ConfigError(f"refusing to overwrite existing output: {exc.filename}") from exc


# ---------------------------------------------------------------------------
# subcommands


def _cmd_kernel_check(cfg: RunConfig, args, errors: _RowErrors):
    profile = cfg.profile()
    peak = gamma_peak(profile)
    # isotropy makes the direction irrelevant; fix one off-axis unit vector
    direction = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)

    def one(r_over_ell: float):
        try:
            rvec = direction * (r_over_ell * profile.ell)
            k_real = kernel_k(profile, rvec, route="real")
            k_spec = kernel_k(profile, rvec, route="spectral")
            gam = float(gamma_r(profile, r_over_ell * profile.ell))
            disagreement = float(np.max(np.abs(k_real - k_spec))) / peak
            tr_u = float(np.trace(kernel_u(profile, rvec))) if r_over_ell > 0.0 else ""
            return [r_over_ell, gam, float(np.trace(k_real)), 2.0 * gam,
                    tr_u, disagreement, ""]
        except DepolgasError as exc:
            return [r_over_ell, "", "", "", "", "", errors.classify(exc)]

    rows = [one(r) for r in cfg.values["kernel_check.r_over_ell"]]
    header = ["r_over_ell", "Gamma", "trK", "2Gamma", "trU",
              "route_disagreement", "error"]
    return _Output(header, rows, [])


def _shift_context(cfg: RunConfig):
    check_lengths_for_meanfield(cfg)
    profile = cfg.profile()
    g = cfg.rdf()
    j = overlap_integral(g, profile)
    return profile, g, j


def _cmd_shift(cfg: RunConfig, args, errors: _RowErrors):
    _, g, j = _shift_context(cfg)
    slope = shift_slope(j, g.contact_value)
    rows = [[rho, slope * rho, ""] for rho in cfg.values["meanfield.density_ratios"]]
    footer = [f"# J_overlap = {j:.17g}", f"# g_zero = {g.contact_value:.17g}"]
    return _Output(["density_ratio", "varsigma", "error"], rows, footer)


def _cmd_dispersion(cfg: RunConfig, args, errors: _RowErrors):
    _, g, j = _shift_context(cfg)
    slope = shift_slope(j, g.contact_value)
    omega = cfg.values["species.omega_rad_per_s"]

    def one(big_omega: float, rho: float):
        try:
            varsigma = slope * rho
            pair = branch_frequencies(DispersionInput(
                omega=omega, Omega=big_omega, density_ratio=rho, varsigma=varsigma))
            yp, ym = pair.scaled(omega, big_omega)
            return [big_omega, rho, varsigma, yp, ym,
                    pair.s2_plus, pair.s2_minus, pair.stable, ""]
        except DepolgasError as exc:
            return [big_omega, rho, "", "", "", "", "", "", errors.classify(exc)]

    rows = [one(big_omega, rho)
            for big_omega in cfg.omega_list()
            for rho in cfg.values["meanfield.density_ratios"]]
    header = ["Omega_rad_per_s", "density_ratio", "varsigma",
              "s2_plus_over_wW", "s2_minus_over_wW",
              "s2_plus_rad2_per_s2", "s2_minus_rad2_per_s2", "stable", "error"]
    return _Output(header, rows, [])


def _cmd_critical(cfg: RunConfig, args, errors: _RowErrors):
    _, g, j = _shift_context(cfg)
    species = cfg.species()
    n_dicke = dicke_density(species)
    omega = species.omega
    try:
        ratio = critical_ratio_from_overlap(j, g.contact_value)
        bisect = critical_ratio_bisection(j, g.contact_value, omega,
                                          cfg.omega_list()[0])
        varsigma_c = shift_slope(j, g.contact_value) * ratio
        row = [ratio, ratio * n_dicke, j, g.contact_value, varsigma_c, bisect, ""]
    except NoCriticalDensityError as exc:
        row = ["", "", j, g.contact_value, "", "", str(exc)]
    header = ["n_c_over_nD", "n_c_per_m3", "J_overlap", "g_zero",
              "varsigma_at_critical", "bisection_n_c_over_nD", "error"]
    footer = [f"# n_D_per_m3 = {n_dicke:.17g}"]
    return _Output(header, [row], footer)


def _cmd_microsim(cfg: RunConfig, args, errors: _RowErrors):
    species = cfg.species()
    profile = cfg.profile()
    n_dicke = dicke_density(species)
    ratios = cfg.values["microsim.density_ratios"]
    report = stability_scan(
        [r * n_dicke for r in ratios], species, profile,
        cfg.values["microsim.box_over_ell"] * profile.ell,
        cfg.values["microsim.lambda_min_over_ell"] * profile.ell,
        replicas=cfg.values["microsim.replicas"], master_seed=args.seed,
        bisect_steps=cfg.values["microsim.bisect_steps"],
        include_contact=cfg.values["microsim.include_contact"],
        min_ell_over_core=cfg.values["validation.min_ell_over_core"])
    rows = []
    for i, density in enumerate(report.density_grid):
        rows.append([density / n_dicke, density, int(report.atoms_per_density[i]),
                     report.min_eig_mean[i], report.min_eig_std[i],
                     report.unstable_fraction[i], ""])
    p = cfg.values["output.precision"]
    if report.threshold_low is None:
        footer = ["# threshold_low_over_nD = none", "# threshold_high_over_nD = none"]
    else:
        footer = [
            f"# threshold_low_over_nD = {_fmt(report.threshold_low / n_dicke, p)}",
            f"# threshold_high_over_nD = {_fmt(report.threshold_high / n_dicke, p)}",
            f"# threshold_low_per_m3 = {_fmt(report.threshold_low, p)}",
            f"# threshold_high_per_m3 = {_fmt(report.threshold_high, p)}",
        ]
    footer.append(f"# n_D_per_m3 = {_fmt(n_dicke, p)}")
    header = ["density_over_nD", "n_per_m3", "n_atoms", "min_eig_mean",
              "min_eig_std", "unstable_fraction", "error"]
    # the bisection probes in the order they ran: density over n_D, mean
    probes = tuple(f"probe.{k} = {_fmt(density / n_dicke, p)} {_fmt(mean, p)}"
                   for k, (density, mean) in enumerate(report.probes, 1))
    # the largest solve of the scan: no probe holds more atoms than the
    # densest grid point, and (a, b) is all of its float64 matrix storage
    n3 = 3 * int(report.atoms_per_density.max())
    sizes = (f"matrix_dim_max = {n3 + report.n_modes}",
             f"matrix_bytes_max = {8 * n3 * (n3 + report.n_modes)}")
    # what the scan's solves took and how far their Ritz pairs are from exact
    lanczos = (f"lanczos_matvecs = {report.lanczos_matvecs}",
               "lanczos_residual_max_over_omega2 = "
               f"{_fmt(report.lanczos_residual_max / species.omega**2, p)}")
    # the phases are summed over the workers, so they can exceed the wall time
    timings = (f"workers = {report.workers}  # excluded from determinism",
               f"worker_peak_rss_mb = {report.worker_peak_rss_mb:.1f}"
               "  # excluded from determinism",
               *(f"phase_s.{phase} = {seconds:.3f}  # excluded from determinism"
                 for phase, seconds in report.phase_s.items()))
    return _Output(header, rows, footer, probes + sizes + lanczos + timings)


_COMMANDS = {
    "kernel-check": _cmd_kernel_check,
    "shift": _cmd_shift,
    "dispersion": _cmd_dispersion,
    "critical": _cmd_critical,
    "microsim": _cmd_microsim,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depolgas",
        description="Stability analysis of a dense gas of dipole-coupled oscillators.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to key=value config file")
        p.add_argument("--out", required=True, help="output directory (create-only files)")
        p.add_argument("--workers", type=int, default=1,
                       help="accepted and ignored, so existing command lines keep "
                            "working; microsim solves its replicas in as many "
                            "processes as the cores over the BLAS threads set in "
                            "OMP/OPENBLAS/MKL_NUM_THREADS, the other commands "
                            "run their rows serially")
        p.add_argument("--seed", type=int, default=None,
                       help="override microsim.seed from the config")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    errors = _RowErrors()
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed cannot be negative, got {args.seed}")
        cfg = load_config(args.config)
        if args.seed is None:
            args.seed = cfg.values["microsim.seed"]
        with QuadratureLog() as quadrature:
            output = _COMMANDS[args.command](cfg, args, errors)
        output = output._replace(manifest=output.manifest + _quadrature_lines(
            quadrature, cfg.values["output.precision"]))
        _write_outputs(Path(args.out), args.command, output, cfg, args.seed, started)
    except DepolgasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    return errors.exit_code


if __name__ == "__main__":
    sys.exit(main())
