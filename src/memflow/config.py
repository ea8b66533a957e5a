"""Simulation configuration: INI files with strict validation.

Unknown sections or keys are fatal, so a typo cannot silently misconfigure
a long run.  Every numeric invariant is checked here, naming the offending
key; module code downstream can assume a valid configuration.
Each INI key is named once, in ``_INI_FIELDS``: its type, its default and
whether it is required come from :class:`SimulationConfig`, and the
``[model]`` parameters with their defaults from ``constitutive.CATALOG``.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .constitutive import CATALOG, INI_MODELS


class ConfigError(ValueError):
    pass


@dataclass
class SimulationConfig:
    n: int
    viscosity: float
    dt: float
    t_final: float
    model_name: str
    model_params: dict = field(default_factory=dict)
    cfl_safety: float = 0.5
    eps_tail: float = 1e-6
    mu_min: float = 1.0
    initial_history: str = "identity"
    memory_cap_mb: float = 4096.0
    velocity_kind: str = "taylor-green"
    velocity_amplitude: float = 1.0
    velocity_seed: int = 0
    velocity_band: int = 4
    velocity_path: str = ""
    q: int = 8
    r: int = 4
    cadence: int = 1
    det_tol: float = 1e-2  # discretization-dependent; documented for n = 128
    stress_tol: float = 1e-8
    fatal_on_violation: bool = False
    oracle: bool = False
    output_dir: str = ""
    snapshot_every: int = 0
    history_slices: tuple[int, ...] = ()
    checkpoint: bool = True

    def __post_init__(self):
        validate(self)

    @property
    def n_steps(self) -> int:
        return round(self.t_final / self.dt)


def validate(cfg: SimulationConfig):
    numbers = [(f"{section}.{key}", getattr(cfg, name)) for section, keys in _INI_FIELDS.items()
               for key, name in keys.items()] + [(f"model.{key}", v) for key, v in cfg.model_params.items()]
    for key, value in numbers:
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value!r}")
    n = cfg.n
    if n < 16 or n & (n - 1):
        raise ConfigError(f"grid.n must be a power of two >= 16, got {n}")
    if cfg.viscosity <= 0:
        raise ConfigError("flow.viscosity must be positive")
    if cfg.dt <= 0:
        raise ConfigError("flow.dt must be positive")
    if cfg.t_final < cfg.dt:
        raise ConfigError("flow.t_final must cover at least one step")
    if not 0.0 < cfg.cfl_safety <= 1.0:
        raise ConfigError("flow.cfl_safety must lie in (0, 1]")
    if cfg.model_name not in INI_MODELS:
        raise ConfigError(f"model.name {cfg.model_name!r} not in catalog {sorted(INI_MODELS)}")
    extra = cfg.model_params.keys() - CATALOG[cfg.model_name].defaults.keys()
    if extra:
        raise ConfigError(f"model parameters {sorted(extra)} not valid for {cfg.model_name!r}")
    if not 0.0 < cfg.eps_tail < 0.1:
        raise ConfigError("history.eps_tail must lie in (0, 0.1)")
    if cfg.mu_min <= 0:
        raise ConfigError("history.mu_min must be positive")
    if cfg.memory_cap_mb <= 0:
        raise ConfigError("history.memory_cap_mb must be positive")
    if cfg.velocity_kind not in ("taylor-green", "random-band", "snapshot", "zero"):
        raise ConfigError(f"velocity.kind {cfg.velocity_kind!r} unknown")
    if cfg.velocity_kind == "snapshot" and not cfg.velocity_path:
        raise ConfigError("velocity.path required for velocity.kind = snapshot")
    if cfg.velocity_kind == "random-band" and cfg.velocity_band < 1:  # no mode 0 < max|k| <= band
        raise ConfigError(f"velocity.band must be >= 1 for velocity.kind = random-band, got {cfg.velocity_band}")
    if not (isinstance(cfg.q, int) and isinstance(cfg.r, int)) or cfg.q < 1 or cfg.r < 1:
        raise ConfigError("diagnostics.q and diagnostics.r must be positive integers")
    if 1.0 / cfg.q + 1.0 / cfg.r >= 0.5:
        raise ConfigError(
            f"diagnostics exponents must satisfy 1/q + 1/r < 1/2, got 1/{cfg.q} + 1/{cfg.r}"
        )
    if cfg.cadence < 1:
        raise ConfigError("diagnostics.cadence must be >= 1")
    if cfg.snapshot_every < 0:
        raise ConfigError("output.snapshot_every must be >= 0")
    if any(j < 0 for j in cfg.history_slices):  # the upper end, N_s - 1, is known once the age grid is built
        raise ConfigError(f"output.history_slices must be >= 0, got {list(cfg.history_slices)}")


# [section] -> {key: SimulationConfig field}; [model] also takes the
# parameters of the catalog's INI models, which go to model_params
_INI_FIELDS = {
    "grid": {"n": "n"},
    "flow": {key: key for key in ("viscosity", "dt", "t_final", "cfl_safety")},
    "model": {"name": "model_name"},
    "history": {
        "eps_tail": "eps_tail", "mu_min": "mu_min", "initial": "initial_history", "memory_cap_mb": "memory_cap_mb",
    },
    "velocity": {key: f"velocity_{key}" for key in ("kind", "amplitude", "seed", "band", "path")},
    "diagnostics": {
        key: key for key in ("q", "r", "cadence", "det_tol", "stress_tol", "fatal_on_violation", "oracle")
    },
    "output": {
        "directory": "output_dir", "snapshot_every": "snapshot_every", "history_slices": "history_slices",
        "checkpoint": "checkpoint",
    },
}
_MODEL_KEYS = {key: type(default) for name in INI_MODELS for key, default in CATALOG[name].defaults.items()}
_REQUIRED_FIELDS = {
    f.name for f in dataclasses.fields(SimulationConfig) if f.default is f.default_factory is dataclasses.MISSING
}
_TYPES = typing.get_type_hints(SimulationConfig)


def _ini_value(parser: configparser.ConfigParser, section: str, key: str, kind):
    raw = parser.get(section, key)
    try:
        if kind is bool:
            return parser.getboolean(section, key)
        if kind == tuple[int, ...]:  # comma- or space-separated
            return tuple(int(tok) for tok in raw.replace(",", " ").split())
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc


def parse_config(path) -> SimulationConfig:
    """Read and validate an INI configuration file (strict mode)."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} not found")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    for section in parser.sections():
        if section not in _INI_FIELDS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _INI_FIELDS[section] and not (section == "model" and key in _MODEL_KEYS):
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    values = {}
    for section, keys in _INI_FIELDS.items():
        for key, name in keys.items():
            if parser.has_option(section, key):
                values[name] = _ini_value(parser, section, key, _TYPES[name])
            elif name in _REQUIRED_FIELDS:
                raise ConfigError(f"missing required key {key!r} in section [{section}]")
    values["model_params"] = {
        key: _ini_value(parser, "model", key, _MODEL_KEYS[key]) for key in parser["model"] if key != "name"
    }
    return SimulationConfig(**values)
