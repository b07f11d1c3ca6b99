from __future__ import annotations

import hashlib
import importlib.util
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.sparse.linalg import ArpackNoConvergence

import depolgas
from conftest import ELL, ND_PER_ELL3, synthetic_species
from depolgas import cli, microsim
from depolgas.cli import main
from depolgas.errors import QuadratureConvergenceError

_BISECTION_COLUMN = "bisection_n_c_over_nD"


def _base_config(**overrides: str) -> str:
    species = synthetic_species()
    values = {
        "species.name": "synthetic",
        "species.omega_rad_per_s": repr(species.omega),
        "species.dipole_Cm": repr(species.dipole),
        "species.core_diameter_m": repr(species.core_diameter),
        "cutoff.ell_m": repr(ELL),
        "validation.min_ell_over_core": "0.8",
    }
    values.update(overrides)
    return "\n".join(f"{k} = {v}" for k, v in values.items() if v is not None) + "\n"


def _write_config(tmp_path, text: str, name: str = "run.conf"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _read_rows(out_dir, command: str):
    lines = (out_dir / f"{command}.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]
            if line and not line.startswith("#")]
    footer = [line for line in lines if line.startswith("#")]
    return rows, footer


def _quadrature_error(manifest_lines) -> float:
    """Check both quadrature lines of a manifest; return the gated error."""
    (error,) = [line for line in manifest_lines if line.startswith("quadrature_error_max")]
    (timing,) = [line for line in manifest_lines if line.startswith("phase_s.")]
    key, value = timing.split(" = ")
    seconds, note = value.split("  # ")
    assert key == "phase_s.quadrature"
    assert float(seconds) >= 0.0
    assert note == "excluded from determinism"
    return float(error.split(" = ")[1])


def test_kernel_check_runs_and_manifests_are_consistent(tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    cfg = _write_config(tmp_path, _base_config(
        **{"kernel_check.r_over_ell": "0.0,1.0,2.0"}))
    out = tmp_path / "out"
    assert main(["kernel-check", "--config", cfg, "--out", str(out)]) == 0
    rows, _ = _read_rows(out, "kernel-check")
    assert [row["r_over_ell"] for row in rows] == ["0", "1", "2"]
    for row in rows:
        assert float(row["route_disagreement"]) < 1e-9
        assert row["error"] == ""
        assert float(row["trK"]) == pytest.approx(float(row["2Gamma"]), rel=1e-12)
    # manifest hash covers the exact CSV body
    body = (out / "kernel-check.csv").read_bytes()
    manifest = (out / "manifest.txt").read_text()
    assert f"csv_sha256 = {hashlib.sha256(body).hexdigest()}" in manifest
    assert "wall_time_s" in manifest
    assert ("blas_threads = OMP_NUM_THREADS=1,OPENBLAS_NUM_THREADS=unset,"
            "MKL_NUM_THREADS=2") in manifest.splitlines()
    assert 0.0 < _quadrature_error(manifest.splitlines()) < 1e-7
    assert (out / "resolved_config.txt").exists()


def test_kernel_check_workers_do_not_change_output(tmp_path):
    cfg = _write_config(tmp_path, _base_config(
        **{"kernel_check.r_over_ell": "0.0,0.5,1.0,3.0"}))
    out1, out4 = tmp_path / "w1", tmp_path / "w4"
    assert main(["kernel-check", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["kernel-check", "--config", cfg, "--out", str(out4),
                 "--workers", "4"]) == 0
    assert (out1 / "kernel-check.csv").read_bytes() == \
        (out4 / "kernel-check.csv").read_bytes()
    # --workers is accepted and ignored: the same rows feed the same quadrature log
    errors = [[line for line in (out / "manifest.txt").read_text().splitlines()
               if line.startswith("quadrature_error_max")] for out in (out1, out4)]
    assert errors[0] == errors[1] and len(errors[0]) == 1


def test_row_error_fills_its_row_and_sets_the_numerical_exit_code(tmp_path,
                                                                  monkeypatch):
    cfg = _write_config(tmp_path, _base_config(
        **{"kernel_check.r_over_ell": "0.5,1.0,2.0"}))
    assert main(["kernel-check", "--config", cfg, "--out", str(tmp_path / "ok")]) == 0
    expected, _ = _read_rows(tmp_path / "ok", "kernel-check")
    kernel_k = cli.kernel_k

    def fails_at_one_ell(profile, rvec, route="real"):
        if math.isclose(math.hypot(*rvec), ELL):
            raise QuadratureConvergenceError("no convergence at r = ell")
        return kernel_k(profile, rvec, route=route)

    monkeypatch.setattr(cli, "kernel_k", fails_at_one_ell)
    out = tmp_path / "out"
    assert main(["kernel-check", "--config", cfg, "--out", str(out)]) == 3
    rows, _ = _read_rows(out, "kernel-check")
    assert [row["r_over_ell"] for row in rows] == ["0.5", "1", "2"]
    assert rows[1]["error"] == "no convergence at r = ell"
    assert rows[1]["trK"] == rows[1]["route_disagreement"] == ""
    assert [rows[0], rows[2]] == [expected[0], expected[2]]


@pytest.mark.parametrize("command", ["kernel-check", "shift", "dispersion", "critical"])
def test_quadrature_manifest_lines_are_deterministic(tmp_path, command):
    cfg = _write_config(tmp_path, _base_config(
        **{"kernel_check.r_over_ell": "0.0,0.3,2.5",
           "meanfield.density_ratios": "0.5,1.0",
           "rdf.sigma_m": repr(0.02 * ELL)}))
    outs = [tmp_path / f"out{i}" for i in range(2)]
    for out in outs:
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
    m0, m1 = ((out / "manifest.txt").read_text().splitlines() for out in outs)
    # manifests agree line for line except the timings
    diff = [a for a, b in zip(m0, m1) if a != b]
    assert all(line.startswith(("wall_time_s", "phase_s.")) for line in diff)
    assert 0.0 < _quadrature_error(m0) < 1e-7
    assert _quadrature_error(m0) == _quadrature_error(m1)


def test_shift_outputs_linear_shift(tmp_path):
    cfg = _write_config(tmp_path, _base_config(
        **{"meanfield.density_ratios": "0.0,1.0,2.0",
           "rdf.sigma_m": repr(0.5 * ELL)}))
    out = tmp_path / "out"
    assert main(["shift", "--config", cfg, "--out", str(out)]) == 0
    rows, footer = _read_rows(out, "shift")
    assert float(rows[0]["varsigma"]) == 0.0
    s1 = float(rows[1]["varsigma"])
    s2 = float(rows[2]["varsigma"])
    assert s2 == pytest.approx(2.0 * s1, rel=1e-12)
    assert any(line.startswith("# J_overlap = ") for line in footer)
    assert any(line.startswith("# g_zero = 0") for line in footer)


def test_dispersion_reference_rows(tmp_path):
    # with a vanishing core the hard-step overlap is exactly the unit J,
    # reproducing the reference branch values at rho = 0, 1, 3
    cfg = _write_config(tmp_path, _base_config(
        **{"species.core_diameter_m": "0.0",
           "meanfield.density_ratios": "0.0,1.0,3.0"}))
    out = tmp_path / "out"
    assert main(["dispersion", "--config", cfg, "--out", str(out)]) == 0
    rows, _ = _read_rows(out, "dispersion")
    assert len(rows) == 3
    by_rho = {row["density_ratio"]: row for row in rows}
    assert float(by_rho["0"]["s2_plus_over_wW"]) == pytest.approx(-1.0, rel=1e-12)
    assert float(by_rho["1"]["s2_plus_over_wW"]) == pytest.approx(
        (-4.0 + math.sqrt(10.0)) / 3.0, rel=1e-9)
    assert abs(float(by_rho["3"]["s2_plus_over_wW"])) < 1e-8
    assert by_rho["1"]["stable"] == "true"


def test_critical_small_core_lands_near_three(tmp_path):
    cfg = _write_config(tmp_path, _base_config(
        **{"rdf.sigma_m": repr(0.02 * ELL)}))
    out = tmp_path / "out"
    assert main(["critical", "--config", cfg, "--out", str(out)]) == 0
    rows, footer = _read_rows(out, "critical")
    (row,) = rows
    ratio = float(row["n_c_over_nD"])
    assert abs(ratio - 3.0) < 1e-3
    assert float(row[_BISECTION_COLUMN]) == pytest.approx(ratio, rel=1e-7)
    n_dicke = ND_PER_ELL3 / ELL**3
    assert float(row["n_c_per_m3"]) == pytest.approx(ratio * n_dicke, rel=1e-6)
    assert any(line.startswith("# n_D_per_m3 = ") for line in footer)


def test_critical_reports_missing_instability_in_the_row(tmp_path):
    # an ideal-gas distribution has no critical density; that is a converged
    # answer, reported in the row error column with a success exit code
    cfg = _write_config(tmp_path, _base_config(**{"rdf.model": "ideal"}))
    out = tmp_path / "out"
    assert main(["critical", "--config", cfg, "--out", str(out)]) == 0
    rows, _ = _read_rows(out, "critical")
    (row,) = rows
    assert row["n_c_over_nD"] == ""
    assert "no instability" in row["error"]
    assert float(row["J_overlap"]) == pytest.approx(1.0, abs=1e-9)


def test_microsim_smoke_run_without_crossing(tmp_path, capsys):
    # one long-wavelength mode shell; densities far below its threshold
    cfg = _write_config(tmp_path, _base_config(
        **{"microsim.box_over_ell": "8.0",
           "microsim.lambda_min_over_ell": "8.0",
           "microsim.density_ratios": "0.3,0.5",
           "microsim.replicas": "3"}))
    out = tmp_path / "out"
    assert main(["microsim", "--config", cfg, "--out", str(out)]) == 0
    rows, footer = _read_rows(out, "microsim")
    volume = (8.0 * ELL) ** 3
    n_dicke = ND_PER_ELL3 / ELL**3
    for row, rho in zip(rows, (0.3, 0.5)):
        assert float(row["density_over_nD"]) == pytest.approx(rho, rel=1e-12)
        assert int(row["n_atoms"]) == round(rho * n_dicke * volume)
        assert float(row["min_eig_mean"]) > 0.0
        assert row["error"] == ""
    assert "# threshold_low_over_nD = none" in footer
    # one progress line per grid density on stderr, none of it in the CSV
    progress = capsys.readouterr().err.splitlines()
    assert len(progress) == 2
    for line, rho, row in zip(progress, ("0.3", "0.5"), rows):
        assert line.startswith("microsim grid ")
        assert f": {rho} n_D, N = {row['n_atoms']}, " in line
        assert line.endswith(" s elapsed")
    assert "elapsed" not in (out / "microsim.csv").read_text()


def test_microsim_csv_is_deterministic_and_seed_sensitive(tmp_path):
    text = _base_config(
        **{"microsim.box_over_ell": "6.0",
           "microsim.lambda_min_over_ell": "4.0",
           "microsim.density_ratios": "0.4,0.6",
           "microsim.replicas": "2"})
    cfg = _write_config(tmp_path, text)
    outs = [tmp_path / f"out{i}" for i in range(3)]
    assert main(["microsim", "--config", cfg, "--out", str(outs[0])]) == 0
    assert main(["microsim", "--config", cfg, "--out", str(outs[1])]) == 0
    assert main(["microsim", "--config", cfg, "--out", str(outs[2]),
                 "--seed", "99"]) == 0
    body0 = (outs[0] / "microsim.csv").read_bytes()
    assert body0 == (outs[1] / "microsim.csv").read_bytes()
    assert body0 != (outs[2] / "microsim.csv").read_bytes()
    assert "seed = 99" in (outs[2] / "manifest.txt").read_text()
    # manifests agree line for line except the timings
    m0 = (outs[0] / "manifest.txt").read_text().splitlines()
    m1 = (outs[1] / "manifest.txt").read_text().splitlines()
    diff = [a for a, b in zip(m0, m1) if a != b]
    assert all(line.startswith(("wall_time_s", "worker_peak_rss_mb", "phase_s."))
               for line in diff)
    phases = [line.split(" = ") for line in m0 if line.startswith("phase_s.")]
    assert [key for key, _ in phases] == ["phase_s.sample", "phase_s.assemble",
                                          "phase_s.eig"]
    assert not any(line.startswith("quadrature_error_max") for line in m0)
    for _, value in phases:
        seconds, note = value.split("  # ")
        assert float(seconds) >= 0.0
        assert note == "excluded from determinism"


def test_microsim_manifest_records_the_bisection_probes(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path, _base_config(
        **{"microsim.box_over_ell": "8.0",
           "microsim.lambda_min_over_ell": "6.0",
           "microsim.density_ratios": "0.25,0.5,1.0",
           "microsim.replicas": "2",
           "microsim.bisect_steps": "4"}))
    # every solve's eigenvalue, which bounds ARPACK's relative stop; the
    # recording wrapper sees the solves of this process only
    monkeypatch.setattr(microsim, "_worker_count", lambda: 1)
    values = []
    solve = microsim.minimal_eigenvalue

    def recording(*blocks):
        result = solve(*blocks)
        values.append(result.value)
        return result

    monkeypatch.setattr(microsim, "minimal_eigenvalue", recording)
    probes, sizes, lanczos = [], [], []
    for name in ("a", "b"):
        assert main(["microsim", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        lines = (tmp_path / name / "manifest.txt").read_text().splitlines()
        probes.append([line for line in lines if line.startswith("probe.")])
        sizes.append([line for line in lines if line.startswith("matrix_")])
        lanczos.append(dict(line.split(" = ") for line in lines
                            if line.startswith("lanczos_")))
    assert probes[0] == probes[1]
    # the densest grid point holds 84 atoms, and the box keeps the 12 modes
    # of the |m| = 1 shell: a is 252 x 252 and b is 252 x 12
    assert sizes[0] == sizes[1] == ["matrix_dim_max = 264",
                                    f"matrix_bytes_max = {8 * 252 * 264}"]
    # 3 grid points and 4 probes of 2 replicas each, run twice
    assert len(values) == 2 * 2 * (3 + 4)
    assert lanczos[0] == lanczos[1]
    assert list(lanczos[0]) == ["lanczos_matvecs", "lanczos_residual_max_over_omega2"]
    assert int(lanczos[0]["lanczos_matvecs"]) > 0
    # theta and lambda differ by a relative omega^2 / Omega^2
    omega2 = synthetic_species().omega ** 2
    residual = float(lanczos[0]["lanczos_residual_max_over_omega2"])
    assert 0.0 < residual <= microsim._LANCZOS_TOL * max(map(abs, values)) / omega2
    assert [line.split(" = ")[0] for line in probes[0]] == [
        f"probe.{k}" for k in (1, 2, 3, 4)]
    # each probe halves the bracket it was taken in, on the side of its sign
    rows, footer = _read_rows(tmp_path / "a", "microsim")
    means = [float(row["min_eig_mean"]) for row in rows]
    assert means[1] > 0.0 >= means[2]
    lo, hi = 0.5, 1.0
    for line in probes[0]:
        density, mean = map(float, line.split(" = ")[1].split())
        assert density == pytest.approx(0.5 * (lo + hi), rel=1e-12)
        lo, hi = (lo, density) if mean <= 0.0 else (density, hi)
    assert f"# threshold_low_over_nD = {lo:.17g}" in footer
    assert f"# threshold_high_over_nD = {hi:.17g}" in footer
    assert "probe" not in (tmp_path / "a" / "microsim.csv").read_text()


def test_microsim_output_does_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path, _base_config(
        **{"microsim.box_over_ell": "8.0",
           "microsim.lambda_min_over_ell": "6.0",
           "microsim.density_ratios": "0.25,0.5,1.0",
           "microsim.replicas": "2",
           "microsim.bisect_steps": "4"}))
    bodies, manifests = [], []
    for workers in (1, 2):
        monkeypatch.setattr(microsim, "_worker_count", lambda: workers)
        out = tmp_path / f"workers{workers}"
        assert main(["microsim", "--config", cfg, "--out", str(out)]) == 0
        bodies.append((out / "microsim.csv").read_bytes())
        manifests.append((out / "manifest.txt").read_text().splitlines())
    assert bodies[0] == bodies[1]
    kept = [[line for line in lines if not line.endswith("# excluded from determinism")]
            for lines in manifests]
    assert kept[0] == kept[1]
    assert sum(line.startswith("probe.") for line in kept[0]) == 4
    for workers, lines in zip((1, 2), manifests):
        assert f"workers = {workers}  # excluded from determinism" in lines
        (peak,) = [line for line in lines if line.startswith("worker_peak_rss_mb = ")]
        assert float(peak.split(" = ")[1].split("  # ")[0]) > 0.0
    assert multiprocessing.active_children() == []


def test_microsim_eigenvalues_do_not_depend_on_the_blas_thread_count(tmp_path):
    # BLAS reads its thread count at start-up, so each run is its own process;
    # a dense solve of the whole matrix moved min_eig_mean here by 1.5e-4
    cfg = _write_config(tmp_path, _base_config(
        **{"microsim.box_over_ell": "8.0",
           "microsim.lambda_min_over_ell": "6.0",
           "microsim.density_ratios": "1.0",
           "microsim.replicas": "1"}))
    src = str(Path(depolgas.__file__).resolve().parents[1])
    means = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "depolgas.cli", "microsim",
                        "--config", cfg, "--out", str(out)],
                       env=env, check=True, timeout=120)
        (row,) = _read_rows(out, "microsim")[0]
        means.append(float(row["min_eig_mean"]))
    assert means[1] == pytest.approx(means[0], rel=1e-10)


def test_eigensolver_failure_exits_with_numerical_error(tmp_path, monkeypatch,
                                                        capsys):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence", [], [])

    monkeypatch.setattr(microsim, "eigsh", no_convergence)
    cfg = _write_config(tmp_path, _base_config(
        **{"microsim.box_over_ell": "8.0",
           "microsim.lambda_min_over_ell": "8.0",
           "microsim.density_ratios": "0.3",
           "microsim.replicas": "1"}))
    assert main(["microsim", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "Lanczos found no minimal eigenvalue" in capsys.readouterr().err


def test_eigensolver_failure_in_a_worker_exits_and_joins_the_workers(
        tmp_path, monkeypatch, capsys):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence", [], [])

    # the forked workers inherit the patched solver
    monkeypatch.setattr(microsim, "eigsh", no_convergence)
    monkeypatch.setattr(microsim, "_worker_count", lambda: 2)
    cfg = _write_config(tmp_path, _base_config(
        **{"microsim.box_over_ell": "8.0",
           "microsim.lambda_min_over_ell": "8.0",
           "microsim.density_ratios": "0.2,0.3",
           "microsim.replicas": "2"}))
    assert main(["microsim", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "Lanczos found no minimal eigenvalue" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


def test_output_directory_is_create_only(tmp_path, capsys):
    cfg = _write_config(tmp_path, _base_config(**{"rdf.sigma_m": repr(0.5 * ELL)}))
    out = tmp_path / "out"
    assert main(["critical", "--config", cfg, "--out", str(out)]) == 0
    assert main(["critical", "--config", cfg, "--out", str(out)]) == 2
    assert "refusing to overwrite" in capsys.readouterr().err


def test_missing_required_key_exits_with_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, _base_config(**{"species.dipole_Cm": None}))
    assert main(["critical", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "missing required config key" in capsys.readouterr().err


def test_empty_value_of_a_non_optional_key_exits_with_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, _base_config(**{"microsim.include_contact": ""}))
    assert main(["microsim", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "microsim.include_contact cannot be empty" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_removed_lambda_factor_key_exits_with_config_error(tmp_path, capsys):
    # ell << lambda_min is a fixed factor of 4, no longer a config key
    cfg = _write_config(tmp_path, _base_config(
        **{"validation.min_lambda_over_ell": "2.0"}))
    assert main(["critical", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert ("unknown config keys: validation.min_lambda_over_ell"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


def test_scale_separation_violation_exits_with_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, _base_config(
        **{"microsim.lambda_min_over_ell": "1.0"}))
    assert main(["microsim", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "lambda_min >= 4" in capsys.readouterr().err


@pytest.mark.parametrize("route", ["config", "flag"])
def test_negative_seed_exits_with_config_error(tmp_path, capsys, route):
    overrides = {"microsim.density_ratios": "0.3", "microsim.replicas": "1"}
    argv = []
    if route == "config":
        overrides["microsim.seed"] = "-3"
    else:
        argv = ["--seed", "-1"]
    cfg = _write_config(tmp_path, _base_config(**overrides))
    assert main(["microsim", "--config", cfg, "--out", str(tmp_path / "o")]
                + argv) == 2
    assert "seed cannot be negative" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_infeasible_packing_exits_with_sampling_error(tmp_path, capsys):
    # ratio 3.0 keeps the matrix under the dimension guard but pushes the
    # hard-sphere packing fraction to 0.39, past the insertion refusal at 0.3
    cfg = _write_config(tmp_path, _base_config(
        **{"microsim.density_ratios": "3.0", "microsim.replicas": "2"}))
    assert main(["microsim", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert "packing fraction" in capsys.readouterr().err


def test_environment_override_reaches_the_run(tmp_path, monkeypatch):
    monkeypatch.setenv("DEPOLGAS_RDF_SIGMA_M", repr(0.5 * ELL))
    cfg = _write_config(tmp_path, _base_config())
    out = tmp_path / "out"
    assert main(["critical", "--config", cfg, "--out", str(out)]) == 0
    resolved = (out / "resolved_config.txt").read_text()
    assert f"rdf.sigma_m = {0.5 * ELL!r}" in resolved
    rows, _ = _read_rows(out, "critical")
    # sigma = 0.5 ell keeps more of the overlap than the 1.15 ell core would
    assert float(rows[0]["J_overlap"]) > 0.98


def _benchmark_workloads():
    """The benchmark's workload module, imported as it stands in the repository."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_benchmark_pass_runs_clean_through_its_own_interface(tmp_path):
    # the benchmark drives main() with its own argv and config keys; an op it
    # cannot run, or whose output fails its checks, voids the benchmark
    workloads = _benchmark_workloads()
    ladder = workloads.WORKLOADS["ladder"].parts[0]
    workload = workloads.Combined(
        workloads.BoxScans(rungs=ladder.rungs[:1], grid=ladder.grid,
                           replicas=ladder.replicas,
                           bisect_steps=ladder.bisect_steps),
        workloads.MEANFIELD)
    ops = workload.prepare(0, tmp_path)
    workloads.run(ops)
    workloads.check(workload, ops)
    assert [(op.label, op.rc, op.failure) for op in ops] == \
        [(op.label, 0, "") for op in ops]


def test_package_exports_resolve_and_removed_names_are_gone():
    missing = [name for name in depolgas.__all__ if not hasattr(depolgas, name)]
    assert missing == []
    # the scan takes plain lengths and the mean-field ratio is composed from
    # critical_ratio_from_overlap and overlap_integral
    for name in ("ScanGeometry", "critical_density", "depolarization_shift"):
        assert not hasattr(depolgas, name)
        assert name not in depolgas.__all__
