"""Plain-text run configuration: dotted keys, one `key = value` per line.

Values come from the config file, may be overridden by environment
variables (``DEPOLGAS_`` + the dotted key uppercased with dots replaced by
underscores), and are validated against a fixed schema; unknown keys are
hard errors.  The mean-field commands (here) and the simulation
(``microsim.check_scan_separation``) check core << ell with the factor
``validation.min_ell_over_core``; the simulation fixes lambda_min >= 4 ell.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .constants import AtomSpecies
from .errors import ConfigError, ScaleSeparationError
from .kernels import GAUSSIAN, LORENTZIAN, CutoffProfile
from .meanfield import HARD_STEP, IDEAL, TABULATED, RadialDistribution

_ENV_PREFIX = "DEPOLGAS_"
FORMAT_VERSION = 1


def _default_ratio_grid() -> str:
    return ",".join(f"{0.2 * i:.1f}" for i in range(17))  # 0.0 .. 3.2


def _default_kernel_grid() -> str:
    return ",".join(f"{0.4 * i:.1f}" for i in range(21))  # 0.0 .. 8.0


# key -> (type, default); default None means required, "" means optional,
# and only an optional key may be given an empty value
_SCHEMA: dict[str, tuple[str, str | None]] = {
    "species.name": ("str", None),
    "species.omega_rad_per_s": ("float", None),
    "species.dipole_Cm": ("float", None),
    "species.core_diameter_m": ("float", "0.0"),
    "cutoff.shape": ("str", GAUSSIAN),
    "cutoff.ell_m": ("float", None),
    "rdf.model": ("str", HARD_STEP),
    "rdf.sigma_m": ("float", ""),          # defaults to species.core_diameter_m
    "rdf.table_path": ("str", ""),
    "kernel_check.r_over_ell": ("floatlist", _default_kernel_grid()),
    "meanfield.Omega_rad_per_s": ("floatlist", ""),  # defaults to species omega
    "meanfield.density_ratios": ("floatlist", _default_ratio_grid()),
    "microsim.box_over_ell": ("float", "8.0"),
    "microsim.lambda_min_over_ell": ("float", "4.0"),
    "microsim.density_ratios": ("floatlist", "0.25,0.5,1.0,1.5,2.0,2.4,2.8"),
    "microsim.replicas": ("int", "10"),
    "microsim.seed": ("int", "0"),
    "microsim.bisect_steps": ("int", "8"),
    "microsim.include_contact": ("bool", "true"),
    "validation.min_ell_over_core": ("float", "4.0"),
    "output.precision": ("int", "17"),
}


def parse_kv_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment, blanks are skipped."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def env_name(key: str) -> str:
    return _ENV_PREFIX + key.upper().replace(".", "_")


def _finite(key: str, raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ConfigError(f"config key {key}: {raw!r} is not a finite number")
    return value


def _coerce(key: str, kind: str, raw: str):
    try:
        if kind == "float":
            return _finite(key, raw)
        if kind == "int":
            return int(raw)
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if kind == "floatlist":
            values = [_finite(key, tok) for tok in raw.split(",") if tok.strip() != ""]
            if not values:
                raise ValueError(raw)
            return values
        return raw
    except ValueError:
        raise ConfigError(f"config key {key}: cannot parse {raw!r} as {kind}") from None


@dataclass
class RunConfig:
    """Fully resolved configuration plus the flat echo used in outputs."""

    values: dict = field(default_factory=dict)
    resolved: dict = field(default_factory=dict)
    base_dir: Path = Path(".")

    def species(self) -> AtomSpecies:
        return AtomSpecies(
            name=self.values["species.name"],
            omega=self.values["species.omega_rad_per_s"],
            dipole=self.values["species.dipole_Cm"],
            core_diameter=self.values["species.core_diameter_m"],
        )

    def profile(self) -> CutoffProfile:
        return CutoffProfile(ell=self.values["cutoff.ell_m"],
                             shape=self.values["cutoff.shape"])

    def rdf(self) -> RadialDistribution:
        model = self.values["rdf.model"]
        if model == IDEAL:
            return RadialDistribution.ideal()
        if model == HARD_STEP:
            return RadialDistribution.hard_step(self.rdf_sigma())
        if model == TABULATED:
            path = self.values["rdf.table_path"]
            if not path:
                raise ConfigError("rdf.model = tabulated requires rdf.table_path")
            full = self.base_dir / path
            try:
                table = np.loadtxt(full)
            except OSError as exc:
                raise ConfigError(f"cannot read rdf table {full}: {exc}") from exc
            if table.ndim != 2 or table.shape[1] != 2:
                raise ConfigError("rdf table must have two columns: r_m g")
            try:
                return RadialDistribution.tabulated(table[:, 0], table[:, 1])
            except ValueError as exc:
                raise ConfigError(f"invalid rdf table: {exc}") from exc
        raise ConfigError(f"unknown rdf.model {model!r}")

    def rdf_sigma(self) -> float:
        raw = self.values["rdf.sigma_m"]
        if raw == "":
            return self.values["species.core_diameter_m"]
        return raw

    def omega_list(self) -> list[float]:
        lst = self.values["meanfield.Omega_rad_per_s"]
        if not lst:
            return [self.values["species.omega_rad_per_s"]]
        return lst


def load_config(path: str | Path, env: dict | None = None) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    raw = parse_kv_text(text, source=str(path))

    unknown = sorted(set(raw) - set(_SCHEMA))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    env = os.environ if env is None else env
    values: dict = {}
    resolved: dict = {}
    for key, (kind, default) in _SCHEMA.items():
        source = raw.get(key, default)
        override = env.get(env_name(key))
        if override is not None:
            source = override
        if source is None:
            raise ConfigError(f"missing required config key {key}")
        if source == "":
            if default != "":
                raise ConfigError(f"config key {key} cannot be empty")
            # optional keys keep an empty sentinel ("" or [])
            values[key] = [] if kind == "floatlist" else ""
            resolved[key] = ""
            continue
        values[key] = _coerce(key, kind, source)
        resolved[key] = source
    cfg = RunConfig(values=values, resolved=resolved, base_dir=path.parent)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    v = cfg.values
    if v["cutoff.shape"] not in (GAUSSIAN, LORENTZIAN):
        raise ConfigError(f"cutoff.shape must be one of gaussian, lorentzian; "
                          f"got {v['cutoff.shape']!r}")
    for key in ("species.omega_rad_per_s", "species.dipole_Cm", "cutoff.ell_m"):
        if not v[key] > 0.0:
            raise ConfigError(f"config key {key} must be positive")
    if v["species.core_diameter_m"] < 0.0:
        raise ConfigError("species.core_diameter_m cannot be negative")
    if v["output.precision"] < 1 or v["output.precision"] > 17:
        raise ConfigError("output.precision must lie in 1..17")
    for key in ("microsim.box_over_ell", "microsim.lambda_min_over_ell"):
        if not v[key] > 0.0:
            raise ConfigError(f"config key {key} must be positive")
    for key in ("microsim.replicas", "microsim.bisect_steps"):
        if v[key] < 1:
            raise ConfigError(f"config key {key} must be at least 1")
    if v["microsim.seed"] < 0:
        raise ConfigError("microsim.seed cannot be negative")
    ratios = v["meanfield.density_ratios"]
    if any(r < 0.0 for r in ratios):
        raise ConfigError("meanfield.density_ratios must be non-negative")
    if any(r <= 0.0 for r in v["microsim.density_ratios"]):
        raise ConfigError("microsim.density_ratios must be positive")
    if any(o <= 0.0 for o in cfg.omega_list()):
        raise ConfigError("meanfield.Omega_rad_per_s entries must be positive")
    if any(r < 0.0 for r in v["kernel_check.r_over_ell"]):
        raise ConfigError("kernel_check.r_over_ell must be non-negative")


def check_lengths_for_meanfield(cfg: RunConfig) -> None:
    """core << ell gate for the mean-field commands."""
    ell = cfg.values["cutoff.ell_m"]
    sigma = cfg.rdf_sigma()
    factor = cfg.values["validation.min_ell_over_core"]
    if sigma > 0.0 and ell < factor * sigma:
        raise ScaleSeparationError(
            f"scale separation violated: require ell >= {factor:g} * sigma "
            f"(core << ell), got ell = {ell:g} m, sigma = {sigma:g} m; "
            "lower validation.min_ell_over_core to override"
        )


def resolved_lines(cfg: RunConfig) -> list[str]:
    """Canonical `key = value` echo of the resolved configuration."""
    out = []
    for key in sorted(_SCHEMA):
        out.append(f"{key} = {cfg.resolved.get(key, '')}")
    return out
