import dataclasses
import re
from pathlib import Path

import pytest

from memflow.config import ConfigError, SimulationConfig, parse_config
from memflow.constitutive import CATALOG, INI_MODELS, model_catalog

MINIMAL = """
[grid]
n = 64

[flow]
viscosity = 1.0
dt = 1e-3
t_final = 1.0

[model]
name = oldroyd-b
"""


def write(tmp_path, text):
    p = tmp_path / "sim.ini"
    p.write_text(text)
    return p


class TestParsing:
    def test_minimal_file_with_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL))
        assert cfg.n == 64
        assert cfg.viscosity == 1.0
        assert cfg.dt == 1e-3
        assert cfg.t_final == 1.0
        assert cfg.model_name == "oldroyd-b"
        assert cfg.q == 8 and cfg.r == 4  # documented defaults
        assert cfg.eps_tail == 1e-6
        assert cfg.cadence == 1
        assert not cfg.fatal_on_violation

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(write(tmp_path, MINIMAL + "\n[output]\ncolor = red\n"))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(write(tmp_path, MINIMAL + "\n[plotting]\nstyle = fancy\n"))

    def test_missing_required_key(self, tmp_path):
        with pytest.raises(ConfigError, match="t_final"):
            parse_config(write(tmp_path, "[grid]\nn = 64\n[flow]\nviscosity = 1\ndt = 1e-3\n[model]\nname = oldroyd-b\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.ini")

    def test_model_params_forwarded(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL.replace("oldroyd-b", "psm-raw") + "alpha = 2.0\n"))
        assert cfg.model_params == {"alpha": 2.0}

    def test_inline_comments(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL + "\n[diagnostics]\nq = 10  # norm exponent\n"))
        assert cfg.q == 10


class TestValidation:
    def test_exponent_hypothesis_enforced(self):
        with pytest.raises(ConfigError, match="1/q"):
            SimulationConfig(n=64, viscosity=1.0, dt=1e-3, t_final=1.0, model_name="oldroyd-b", q=4, r=4)

    def test_default_exponents_satisfy_hypothesis(self):
        cfg = SimulationConfig(n=64, viscosity=1.0, dt=1e-3, t_final=1.0, model_name="oldroyd-b")
        assert 1.0 / cfg.q + 1.0 / cfg.r < 0.5

    def test_grid_power_of_two(self):
        with pytest.raises(ConfigError, match="power of two"):
            SimulationConfig(n=100, viscosity=1.0, dt=1e-3, t_final=1.0, model_name="oldroyd-b")

    def test_positive_viscosity(self):
        with pytest.raises(ConfigError, match="viscosity"):
            SimulationConfig(n=64, viscosity=0.0, dt=1e-3, t_final=1.0, model_name="oldroyd-b")

    def test_model_name_checked(self):
        with pytest.raises(ConfigError, match="catalog"):
            SimulationConfig(n=64, viscosity=1.0, dt=1e-3, t_final=1.0, model_name="ptt")

    def test_model_params_whitelisted(self):
        with pytest.raises(ConfigError, match="not valid"):
            SimulationConfig(
                n=64, viscosity=1.0, dt=1e-3, t_final=1.0, model_name="psm-raw", model_params={"beta": 1.0}
            )

    def test_eps_tail_range(self):
        with pytest.raises(ConfigError, match="eps_tail"):
            SimulationConfig(n=64, viscosity=1.0, dt=1e-3, t_final=1.0, model_name="oldroyd-b", eps_tail=0.5)

    @pytest.mark.parametrize("band", [0, -1])
    def test_random_band_without_modes_refused(self, band):
        # a band below 1 holds no mode: the velocity would be zero
        with pytest.raises(ConfigError, match=rf"velocity.band must be >= 1 for velocity.kind = random-band, "
                                              rf"got {band}"):
            SimulationConfig(n=64, viscosity=1.0, dt=1e-3, t_final=1.0, model_name="oldroyd-b",
                             velocity_kind="random-band", velocity_band=band)

    def test_negative_history_slice_refused(self, tmp_path):
        with pytest.raises(ConfigError, match=r"output.history_slices must be >= 0, got \[0, -3\]"):
            parse_config(write(tmp_path, MINIMAL + "\n[output]\nhistory_slices = 0, -3\n"))

    @pytest.mark.parametrize("name", ["taylor-green-psm.ini", "oldroyd-oracle.ini"])
    def test_bundled_history_slices_inside_age_grid(self, name):
        from memflow.agegrid import build_age_grid

        cfg = parse_config(Path(__file__).resolve().parents[1] / "configs" / name)
        kernel, _ = model_catalog(cfg.model_name, **cfg.model_params)
        assert all(0 <= j < build_age_grid(kernel, cfg.dt, cfg.eps_tail).n_nodes for j in cfg.history_slices)

    def test_oracle_requires_oldroyd(self):
        from memflow.simulation import run

        cfg = SimulationConfig(n=16, viscosity=1.0, dt=0.05, t_final=0.1, model_name="psm-raw",
                               eps_tail=5e-2, oracle=True)
        with pytest.raises(ConfigError, match="oracle"):
            run(cfg)

    def test_history_too_long_surfaced(self):
        # tight memory cap turns the tail tolerance into an explicit error
        from memflow.agegrid import HistoryTooLongError
        from memflow.simulation import run

        cfg = SimulationConfig(
            n=64, viscosity=1.0, dt=1e-3, t_final=1.0, model_name="oldroyd-b",
            eps_tail=1e-8, memory_cap_mb=10.0,
        )
        with pytest.raises(HistoryTooLongError, match="history too long") as err:
            run(cfg)
        assert err.value.required_nodes == 18422


class TestCatalogAgreement:
    @pytest.mark.parametrize("name", INI_MODELS)
    def test_every_parameter_settable(self, tmp_path, name):
        for key, default in CATALOG[name].defaults.items():
            value = 2 * default
            cfg = parse_config(write(tmp_path, MINIMAL.replace("oldroyd-b", name) + f"{key} = {value}\n"))
            assert cfg.model_params == {key: value}
            assert type(cfg.model_params[key]) is type(default)
            model_catalog(name, **cfg.model_params)

    @pytest.mark.parametrize("name", INI_MODELS)
    def test_other_models_parameters_refused(self, tmp_path, name):
        foreign = {key for other in INI_MODELS for key in CATALOG[other].defaults} - CATALOG[name].defaults.keys()
        assert foreign
        for key in sorted(foreign):
            with pytest.raises(ConfigError, match="not valid"):
                parse_config(write(tmp_path, MINIMAL.replace("oldroyd-b", name) + f"{key} = 2\n"))
            with pytest.raises(ValueError, match="unknown parameters"):
                model_catalog(name, **{key: 2.0})

    def test_python_only_model_refused(self, tmp_path):
        assert "kbkz-custom" in CATALOG and "kbkz-custom" not in INI_MODELS
        with pytest.raises(ConfigError, match="not in catalog"):
            parse_config(write(tmp_path, MINIMAL.replace("oldroyd-b", "kbkz-custom")))


def test_readme_lists_the_defaults(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"Optional sections and their defaults:\s*```ini\n(.*?)```", readme, re.S).group(1)
    required = "[flow]\nviscosity = 1.0\ndt = 1e-3\nt_final = 1.0\n"
    text = "[grid]\nn = 64\n[model]\nname = oldroyd-b\n" + block.replace("[flow]\n", required, 1)
    cfg = parse_config(write(tmp_path, text))
    expected = SimulationConfig(n=64, viscosity=1.0, dt=1e-3, t_final=1.0, model_name="oldroyd-b")
    for f in dataclasses.fields(SimulationConfig):
        assert getattr(cfg, f.name) == getattr(expected, f.name), f.name
