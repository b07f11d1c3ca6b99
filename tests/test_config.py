from __future__ import annotations

import numpy as np
import pytest

from conftest import synthetic_species
from depolgas.config import (check_lengths_for_meanfield, env_name,
                             load_config, parse_kv_text, resolved_lines)
from depolgas.errors import ConfigError, ScaleSeparationError
from depolgas.kernels import GAUSSIAN


def _minimal_text(**overrides: str) -> str:
    species = synthetic_species()
    values = {
        "species.name": "synthetic",
        "species.omega_rad_per_s": repr(species.omega),
        "species.dipole_Cm": repr(species.dipole),
        "species.core_diameter_m": repr(species.core_diameter),
        "cutoff.ell_m": "1e-6",
    }
    values.update(overrides)
    return "\n".join(f"{k} = {v}" for k, v in values.items() if v is not None) + "\n"


def _write(tmp_path, text: str):
    path = tmp_path / "run.conf"
    path.write_text(text, encoding="utf-8")
    return path


def test_parse_kv_text_skips_comments_and_blanks():
    values = parse_kv_text("# heading\n\na.b = 1  # trailing\n  c.d = x y\n")
    assert values == {"a.b": "1", "c.d": "x y"}


def test_parse_kv_text_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match=":2:"):
        parse_kv_text("a = 1\nnot a pair\n", source="f")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_kv_text("a = 1\na = 2\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_kv_text("= 3\n")


def test_env_name_mapping():
    assert env_name("cutoff.ell_m") == "DEPOLGAS_CUTOFF_ELL_M"
    assert env_name("microsim.density_ratios") == "DEPOLGAS_MICROSIM_DENSITY_RATIOS"


def test_load_config_minimal_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, _minimal_text()), env={})
    assert cfg.values["cutoff.shape"] == GAUSSIAN
    assert cfg.values["rdf.model"] == "hard_step"
    assert cfg.values["microsim.replicas"] == 10
    assert cfg.values["microsim.include_contact"] is True
    assert cfg.values["output.precision"] == 17
    assert cfg.values["meanfield.density_ratios"][:3] == [0.0, 0.2, 0.4]
    # optional keys resolve to empty sentinels
    assert cfg.values["rdf.sigma_m"] == ""
    assert cfg.values["meanfield.Omega_rad_per_s"] == []
    species = cfg.species()
    assert species.name == "synthetic"
    assert cfg.profile().ell == 1e-6
    # sigma falls back to the species core diameter
    assert cfg.rdf_sigma() == species.core_diameter
    assert cfg.omega_list() == [species.omega]


def test_resolved_lines_echo_every_schema_key(tmp_path):
    cfg = load_config(_write(tmp_path, _minimal_text()), env={})
    lines = resolved_lines(cfg)
    assert lines == sorted(lines)
    keys = {line.split(" = ")[0] for line in lines}
    assert "cutoff.shape" in keys and "validation.min_ell_over_core" in keys
    assert any(line == "cutoff.ell_m = 1e-6" for line in lines)


def test_load_config_rejects_unknown_and_missing_keys(tmp_path):
    with pytest.raises(ConfigError, match="unknown config keys"):
        load_config(_write(tmp_path, _minimal_text() + "species.mass = 1\n"), env={})
    text = _minimal_text(**{"species.dipole_Cm": None})
    with pytest.raises(ConfigError, match="missing required config key"):
        load_config(_write(tmp_path, text), env={})
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "absent.conf", env={})


def test_load_config_type_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(_write(tmp_path, _minimal_text(**{"cutoff.ell_m": "banana"})),
                    env={})
    bad_bool = _minimal_text(**{"microsim.include_contact": "perhaps"})
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(_write(tmp_path, bad_bool), env={})


@pytest.mark.parametrize("key, value", [
    ("microsim.replicas", ""),
    ("output.precision", ""),
    ("species.omega_rad_per_s", ""),
    ("microsim.density_ratios", ""),
    ("microsim.include_contact", ""),
    ("microsim.density_ratios", ","),
    ("kernel_check.r_over_ell", " , "),
])
def test_load_config_rejects_empty_values_of_non_optional_keys(tmp_path, key, value):
    # only the keys whose default is empty may be given empty; an empty bool
    # must not silently read as false
    with pytest.raises(ConfigError, match=key):
        load_config(_write(tmp_path, _minimal_text(**{key: value})), env={})
    with pytest.raises(ConfigError, match=key):
        load_config(_write(tmp_path, _minimal_text()), env={env_name(key): value})


def test_load_config_optional_keys_accept_empty_values(tmp_path):
    empty = {"rdf.sigma_m": "", "rdf.table_path": "", "meanfield.Omega_rad_per_s": ""}
    for cfg in (load_config(_write(tmp_path, _minimal_text(**empty)), env={}),
                load_config(_write(tmp_path, _minimal_text()),
                            env={env_name(key): "" for key in empty})):
        assert cfg.values["rdf.sigma_m"] == "" and cfg.values["rdf.table_path"] == ""
        assert cfg.omega_list() == [cfg.values["species.omega_rad_per_s"]]
        assert cfg.rdf_sigma() == cfg.values["species.core_diameter_m"]


def test_load_config_validation_errors(tmp_path):
    cases = {
        "cutoff.shape": "boxcar",
        "cutoff.ell_m": "-1e-6",
        "output.precision": "18",
        "microsim.replicas": "0",
        "microsim.lambda_min_over_ell": "-2",
        "microsim.density_ratios": "0.5,-1.0",
        "microsim.seed": "-3",
        "meanfield.Omega_rad_per_s": "0",
        "kernel_check.r_over_ell": "-0.5",
    }
    for key, value in cases.items():
        with pytest.raises(ConfigError):
            load_config(_write(tmp_path, _minimal_text(**{key: value})), env={})


@pytest.mark.parametrize("key, value", [
    ("cutoff.ell_m", "nan"),
    ("species.core_diameter_m", "inf"),
    ("microsim.box_over_ell", "-inf"),
    ("microsim.density_ratios", "0.25,nan"),
    ("microsim.density_ratios", "0.25,inf"),
    ("meanfield.Omega_rad_per_s", "3e8,NaN"),
])
def test_load_config_rejects_non_finite_floats(tmp_path, key, value):
    # every float and float-list value, whether from the file or from the
    # environment, is refused before it reaches a command
    with pytest.raises(ConfigError, match="not a finite number"):
        load_config(_write(tmp_path, _minimal_text(**{key: value})), env={})
    with pytest.raises(ConfigError, match="not a finite number"):
        load_config(_write(tmp_path, _minimal_text()), env={env_name(key): value})


def test_environment_overrides_config_values(tmp_path):
    path = _write(tmp_path, _minimal_text())
    cfg = load_config(path, env={"DEPOLGAS_RDF_SIGMA_M": "5e-7",
                                 "DEPOLGAS_OUTPUT_PRECISION": "6"})
    assert cfg.rdf_sigma() == 5e-7
    assert cfg.values["output.precision"] == 6
    assert "rdf.sigma_m = 5e-7" in resolved_lines(cfg)


def test_tabulated_rdf_roundtrip(tmp_path):
    table = np.column_stack([np.linspace(0.0, 3e-6, 7),
                             [0.0, 0.0, 0.6, 1.1, 1.0, 1.0, 1.0]])
    np.savetxt(tmp_path / "g.dat", table)
    text = _minimal_text(**{"rdf.model": "tabulated", "rdf.table_path": "g.dat"})
    cfg = load_config(_write(tmp_path, text), env={})
    g = cfg.rdf()
    assert g.contact_value == 0.0
    assert float(g.evaluate(1e-5)) == 1.0


def test_tabulated_rdf_errors(tmp_path):
    text = _minimal_text(**{"rdf.model": "tabulated"})
    with pytest.raises(ConfigError, match="table_path"):
        load_config(_write(tmp_path, text), env={}).rdf()

    np.savetxt(tmp_path / "bad.dat",
               np.column_stack([np.linspace(0.0, 3e-6, 4), [0.0, 0.1, 0.3, 0.5]]))
    text = _minimal_text(**{"rdf.model": "tabulated", "rdf.table_path": "bad.dat"})
    with pytest.raises(ConfigError, match="approach 1"):
        load_config(_write(tmp_path, text), env={}).rdf()

    np.savetxt(tmp_path / "shape.dat", np.ones((4, 3)))
    text = _minimal_text(**{"rdf.model": "tabulated", "rdf.table_path": "shape.dat"})
    with pytest.raises(ConfigError, match="two columns"):
        load_config(_write(tmp_path, text), env={}).rdf()


def test_meanfield_length_gate(tmp_path):
    # core 1.15 ell violates the default core << ell factor of 4
    cfg = load_config(_write(tmp_path, _minimal_text()), env={})
    with pytest.raises(ScaleSeparationError, match="ell >= 4"):
        check_lengths_for_meanfield(cfg)
    relaxed = load_config(
        _write(tmp_path, _minimal_text(**{"validation.min_ell_over_core": "0.8"})),
        env={})
    check_lengths_for_meanfield(relaxed)

