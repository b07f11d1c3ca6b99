"""The benchmark's workloads: inputs made from a seed, one timed pass, checks.

Every workload drives ``depolgas.cli.main`` in-process, one command after
another (a closed loop with one caller).  A pass is a list of operations,
one CLI command each; ``prepare`` writes the inputs of a pass from its seed
(untimed), ``run`` executes the commands (timed), and ``check`` reads the
outputs back and records a failure message on every operation whose output
is wrong.

The checks test physics that legitimate program changes keep: a different
RNG stream or eigenvalues moved by ~1e-6 relative leave every check
passing.  The acceptance-7 window [2.4, 3.6] n_D is deliberately not a
check; each rung's bracket is reported instead.
"""

from __future__ import annotations

import math
import random
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# synthetic species shared with the test suite: an optical-band oscillator
# whose Dicke density is 0.165 per cutoff volume
ELL = 1.0e-6
N_DICKE = 0.165 / ELL**3
OMEGA = 3.0e8
DIPOLE = math.sqrt(1.054571817e-34 * OMEGA * 8.8541878128e-12 / (2.0 * N_DICKE))


def _species_lines(core_over_ell: float) -> list[str]:
    return ["species.name = synthetic",
            f"species.omega_rad_per_s = {OMEGA!r}",
            f"species.dipole_Cm = {DIPOLE!r}",
            f"species.core_diameter_m = {core_over_ell * ELL!r}",
            f"cutoff.ell_m = {ELL!r}"]


def _write_config(path: Path, lines: list[str]) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _read_csv(path: Path):
    """Rows as dicts keyed by the header, and the `# key = value` footer."""
    header, rows, footer = None, [], {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            footer[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(dict(zip(header, line.split(","))))
    return rows, footer


@dataclass
class Op:
    """One CLI command of a pass and what became of it."""

    label: str
    command: str
    config: Path
    out: Path
    seed: int
    rc: int | None = None
    failure: str = ""
    values: dict = field(default_factory=dict)

    @property
    def csv(self) -> Path:
        return self.out / f"{self.command}.csv"

    def argv(self) -> list[str]:
        return [self.command, "--config", str(self.config), "--out", str(self.out),
                "--workers", "1", "--seed", str(self.seed)]


def run(ops: list[Op]) -> None:
    """Execute a pass; an exception fails its operation, not the benchmark."""
    from depolgas import cli

    for op in ops:
        try:
            op.rc = cli.main(op.argv())
        except Exception:  # noqa: BLE001 - reported as a failed operation
            op.failure = "raised " + traceback.format_exc(limit=-1).strip()


def check(workload, ops: list[Op]) -> None:
    """Fill ``failure`` on every operation whose outputs are wrong."""
    for op in ops:
        if op.failure:
            continue
        if op.rc != 0:
            op.failure = f"exit code {op.rc}"
            continue
        try:
            op.failure = workload.check_op(op) or ""
        except (OSError, KeyError, ValueError) as exc:
            op.failure = f"unreadable output: {exc!r}"
    workload.check_pass(ops)


# ---------------------------------------------------------------------------
# microsim box scans


class BoxScans:
    """Microsim density scans over a list of (box, lambda_min) rungs.

    One operation is one box scan.  The pass seed is forwarded to every rung
    as ``--seed``, as the acceptance-7 ladder uses one master seed.  Each
    rung's threshold must exceed the previous (smaller) rung's.
    """

    def __init__(self, rungs, grid, replicas, bisect_steps):
        self.rungs = rungs
        self.grid = grid
        self.replicas = replicas
        self.bisect_steps = bisect_steps

    def prepare(self, seed: int, work: Path) -> list[Op]:
        """Write the configs of one pass into the empty directory ``work``."""
        ops = []
        for box, lam in self.rungs:
            config = _write_config(work / f"box{box:g}.conf", _species_lines(1.15) + [
                "validation.min_ell_over_core = 0.8",
                f"microsim.box_over_ell = {box!r}",
                f"microsim.lambda_min_over_ell = {lam!r}",
                "microsim.density_ratios = " + ",".join(map(repr, self.grid)),
                f"microsim.replicas = {self.replicas}",
                f"microsim.bisect_steps = {self.bisect_steps}",
            ])
            ops.append(Op(f"box {box:g}", "microsim", config, work / f"box{box:g}",
                          seed=seed))
        return ops

    def check_op(self, op: Op) -> str | None:
        rows, footer = _read_csv(op.csv)
        if len(rows) != len(self.grid):
            return f"{len(rows)} grid rows, expected {len(self.grid)}"
        for row in rows:
            if float(row["density_over_nD"]) <= 0.5 and not float(row["min_eig_mean"]) > 0.0:
                return f"unstable at {row['density_over_nD']} n_D"
        low = footer.get("threshold_low_over_nD", "none")
        high = footer.get("threshold_high_over_nD", "none")
        if "none" in (low, high):
            return "no threshold bracket"
        op.values["bracket"] = (float(low), float(high))
        if not float(low) < float(high):
            return f"bracket [{low}, {high}] is not ordered"
        return None

    def check_pass(self, ops: list[Op]) -> None:
        for smaller, op in zip(ops, ops[1:]):
            if op.failure or "bracket" not in smaller.values:
                continue
            low, mid = (0.5 * sum(o.values["bracket"]) for o in (smaller, op))
            if not mid > low:
                op.failure = (f"threshold {mid:.4f} n_D does not exceed the "
                              f"smaller box's {low:.4f} n_D")

    def describe(self, ops: list[Op]) -> str:
        parts = []
        for op in ops:
            bracket = op.values.get("bracket")
            text = "none" if bracket is None else f"[{bracket[0]:.4f}, {bracket[1]:.4f}]"
            parts.append(f"{op.label}: {text}")
        return f"seed {ops[0].seed} brackets (n_D): " + "; ".join(parts)


# ---------------------------------------------------------------------------
# mean-field commands


_SHAPES = ("gaussian", "lorentzian")
_CORE_OVER_ELL = 0.02          # hard-step core well inside the cutoff length
_DENSITY_GRID = 17             # the CLI's default 0.0 .. 3.2 ratio grid


def gamma_peak(shape: str, ell: float = ELL) -> float:
    """Gamma(0) from the closed forms of both cutoff families."""
    if shape == "gaussian":
        return (4.0 * math.pi * ell * ell) ** -1.5
    return 1.0 / (8.0 * math.pi * ell**3)


class MeanField:
    """kernel-check, shift, dispersion and critical for both cutoff profiles,
    plus an ideal-gas critical run that takes the no-instability row path.

    The seed draws the kernel-check radii (r = 0 plus one radius in each of
    ``radii`` equal strata of [0.4, 8] ell; below 0.4 ell the quadrature
    limit stretches, which would make the cost depend on the draw) and the
    mode frequencies, log-uniform over two decades around omega.
    """

    def __init__(self, radii: int, n_omega: int):
        self.radii = radii
        self.n_omega = n_omega

    def prepare(self, seed: int, work: Path) -> list[Op]:
        rng = random.Random(seed)
        radii = [0.0] + [0.4 + 7.6 * (i + rng.random()) / self.radii
                         for i in range(self.radii)]
        omegas = [OMEGA * 10.0 ** rng.uniform(-1.0, 1.0) for _ in range(self.n_omega)]
        common = [f"meanfield.Omega_rad_per_s = {','.join(map(repr, omegas))}"]
        ops = []
        for shape in _SHAPES:
            config = _write_config(work / f"{shape}.conf", _species_lines(
                _CORE_OVER_ELL) + common + [
                    f"cutoff.shape = {shape}",
                    "kernel_check.r_over_ell = " + ",".join(map(repr, radii))])
            for command in ("kernel-check", "shift", "dispersion", "critical"):
                ops.append(Op(f"{command} {shape}", command, config,
                              work / f"{shape}-{command}", seed=seed,
                              values={"shape": shape, "radii": len(radii)}))
        config = _write_config(work / "ideal.conf",
                               _species_lines(_CORE_OVER_ELL) + common
                               + ["rdf.model = ideal"])
        ops.append(Op("critical ideal", "critical", config,
                      work / "ideal-critical", seed=seed,
                      values={"shape": "ideal"}))
        return ops

    def check_op(self, op: Op) -> str | None:
        rows, footer = _read_csv(op.csv)
        shape = op.values["shape"]
        if op.command == "kernel-check":
            return self._check_kernel(rows, shape, op.values["radii"])
        if op.command == "shift":
            return self._check_shift(rows, footer)
        if op.command == "dispersion":
            if len(rows) != self.n_omega * _DENSITY_GRID:
                return f"{len(rows)} dispersion rows"
            op.values["rows"] = rows
            return None
        (row,) = rows
        if shape == "ideal":
            if row["n_c_over_nD"] != "" or "no instability" not in row["error"]:
                return f"ideal gas reported a critical density: {row}"
            return None
        ratio = float(row["n_c_over_nD"])
        op.values["ratio"] = ratio
        if abs(ratio - 3.0) > 1e-3:
            return f"n_c/n_D = {ratio!r}, expected 3 within 1e-3"
        bisect = float(row["bisection_n_c_over_nD"])
        if abs(bisect - ratio) > 1e-6 * ratio:
            return f"bisection {bisect!r} disagrees with analytic {ratio!r}"
        return None

    @staticmethod
    def _check_kernel(rows, shape, expected_rows) -> str | None:
        if len(rows) != expected_rows:
            return f"{len(rows)} kernel rows, expected {expected_rows}"
        tol = 1e-6 * gamma_peak(shape)
        for row in rows:
            if row["error"]:
                return f"r = {row['r_over_ell']} ell: {row['error']}"
            if abs(float(row["trK"]) - float(row["2Gamma"])) > tol:
                return f"trace identity broken at r = {row['r_over_ell']} ell"
            if float(row["route_disagreement"]) > 1e-6:
                return f"routes disagree at r = {row['r_over_ell']} ell"
        return None

    @staticmethod
    def _check_shift(rows, footer) -> str | None:
        j = float(footer["J_overlap"])
        if abs(j - 1.0) > 1e-3 or float(footer["g_zero"]) != 0.0:
            return f"hard-step overlap J = {j!r}, g(0) = {footer['g_zero']}"
        if len(rows) != _DENSITY_GRID:
            return f"{len(rows)} shift rows"
        for row in rows:
            rho = float(row["density_ratio"])
            if not math.isclose(float(row["varsigma"]), 2.0 * j / 3.0 * rho,
                                rel_tol=1e-12):
                return f"varsigma at {rho} n_D is not 2J/3 * rho"
        return None

    def check_pass(self, ops: list[Op]) -> None:
        # dispersion flags must flip at the critical density of the same profile
        ratios = {op.values["shape"]: op.values.get("ratio")
                  for op in ops if op.command == "critical"}
        for op in ops:
            rows = op.values.pop("rows", None)
            ratio = ratios.get(op.values["shape"])
            if rows is None or op.failure or ratio is None:
                continue
            for row in rows:
                rho = float(row["density_ratio"])
                if abs(rho - ratio) > 1e-3 * ratio and \
                        (row["stable"] == "true") != (rho < ratio):
                    op.failure = f"stability flag wrong at {rho} n_D"
                    break

    def describe(self, ops: list[Op]) -> str:
        ratios = ", ".join(f"{op.values['shape']} {op.values['ratio']:.9f}"
                           for op in ops if "ratio" in op.values)
        return f"seed {ops[0].seed} n_c/n_D: {ratios}"


# ---------------------------------------------------------------------------
# several workloads in one pass


class Combined:
    """The operations of several workloads run as one pass; each operation
    is checked and described by the workload that made it."""

    def __init__(self, *parts):
        self.parts = parts

    def prepare(self, seed: int, work: Path) -> list[Op]:
        ops = []
        for i, part in enumerate(self.parts):
            part_dir = work / f"part{i}"
            part_dir.mkdir()
            for op in part.prepare(seed, part_dir):
                op.values["part"] = part
                ops.append(op)
        return ops

    def _split(self, ops: list[Op]):
        return [(part, [op for op in ops if op.values["part"] is part])
                for part in self.parts]

    def check_op(self, op: Op) -> str | None:
        return op.values["part"].check_op(op)

    def check_pass(self, ops: list[Op]) -> None:
        for part, own in self._split(ops):
            part.check_pass(own)

    def describe(self, ops: list[Op]) -> str:
        return "; ".join(part.describe(own) for part, own in self._split(ops))


# The mean-field commands run inside the ladder pass, not as a workload of
# their own: their interpreter-bound quadrature runs up to 2x slower for
# spells of minutes on a shared host (0.6 to 1.4 s for the same pass within
# ten minutes on a 2-vCPU VM), and ten runs of them alone spread by up to
# 0.35 of their median, past any bound the benchmark may set.  Inside the
# ladder they are about 13% of a pass.
MEANFIELD = MeanField(radii=16, n_omega=3)

# The acceptance-7 ladder at four replicas (10 in the test): geometry, grid
# and bisection depth are kept, and four replicas keep the rung thresholds
# ordered (their gap is ~3.5 standard deviations of the replica noise)
# while a pass fits the run length.
WORKLOADS = {
    "ladder": Combined(BoxScans(rungs=((8.0, 6.0), (10.0, 7.5), (12.0, 9.0)),
                                grid=(0.25, 0.5, 0.75, 1.0, 1.2, 1.4, 1.6, 1.75),
                                replicas=4, bisect_steps=8),
                       MEANFIELD),
    # the ladder's next rung, where the O(dim^3) eigen-solve and the O(N^2)
    # contact tensor dominate and sampling is ~5%.  One bisection step keeps
    # the work independent of the seed: the probe is always at 1.1 n_D, while
    # a second probe would land at 0.95 or 1.25 n_D (N = 643 or 845, a 2.3x
    # difference in eigen-solve cost) depending on the sign at 1.1 n_D.
    "big-box": BoxScans(rungs=((16.0, 12.0),), grid=(0.5, 0.8, 1.4),
                        replicas=1, bisect_steps=1),
}
