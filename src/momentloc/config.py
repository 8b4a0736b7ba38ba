"""Typed INI run-configuration files.

Grammar: sections ``[data]``, ``[model]``, ``[train]`` and ``[synth]``. The
keys and their defaults are the fields of the config dataclasses
(``DataConfig``; ``TrainConfig`` with its ``GridConfig``; ``SynthConfig``),
so an empty file is a valid configuration. A key parses as its default's
type: int, float or string, and a tuple default means a comma-separated int
list. Three settings are spelled differently from the fields they set:
``[model] window_sizes``/``stride`` build the grid, ``[train] loss`` picks
the ``use_bce``/``use_tmp``/``use_smt`` switches, and ``[synth]
tokens_min``/``tokens_max`` form ``tokens_per_sentence``. Unknown sections
or keys are rejected by name.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import MISSING, dataclass, fields

from .data import DataConfig, open_text
from .errors import ConfigError
from .segments import GridConfig
from .synthetic import SynthConfig
from .training import TrainConfig

_LOSSES = ("bce", "tmp", "smt")


def _defaults(cls) -> dict:
    """Field name -> default, for the fields of ``cls`` with a plain default."""
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


def _schema() -> dict:
    train = _defaults(TrainConfig)
    model = {key: train.pop(key) for key in ("d", "depth_self", "depth_cross")}
    loss = ",".join(name for name in _LOSSES if train.pop(f"use_{name}"))
    synth = _defaults(SynthConfig)
    synth["tokens_min"], synth["tokens_max"] = synth.pop("tokens_per_sentence")
    return {
        "data": _defaults(DataConfig),
        "model": {**model, **_defaults(GridConfig)},
        "train": {**train, "loss": loss},
        "synth": synth,
    }


# section -> key -> default; a key's type is its default's type
SCHEMA = _schema()


def _convert(section: str, key: str, default, raw: str):
    try:
        if isinstance(default, tuple):
            return tuple(int(part) for part in raw.split(",") if part.strip())
        return type(default)(raw.strip())
    except ValueError:
        kind = "intlist" if isinstance(default, tuple) else type(default).__name__
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} as {kind}") from None


def parse_loss_switches(spec: str) -> tuple:
    """'bce,tmp,smt' style selector -> (use_bce, use_tmp, use_smt)."""
    parts = [p.strip() for p in spec.split(",") if p.strip()]
    unknown = [p for p in parts if p not in _LOSSES]
    if unknown:
        raise ConfigError(f"unknown loss component {unknown[0]!r}")
    if not parts:
        raise ConfigError("loss selector must name at least one component")
    return tuple(name in parts for name in _LOSSES)


@dataclass
class RunConfig:
    """Fully resolved configuration values, one dict per section."""

    values: dict

    def __getitem__(self, section: str) -> dict:
        return self.values[section]

    def data_config(self) -> DataConfig:
        return DataConfig(**self.values["data"])

    def train_config(self, loss: str | None = None, seed: int | None = None) -> TrainConfig:
        model, train = dict(self.values["model"]), dict(self.values["train"])
        grid = GridConfig(model.pop("window_sizes"), model.pop("stride"))
        spec = train.pop("loss")
        use_bce, use_tmp, use_smt = parse_loss_switches(spec if loss is None else loss)
        if seed is not None:
            train["seed"] = seed
        return TrainConfig(**model, **train, grid=grid,
                           use_bce=use_bce, use_tmp=use_tmp, use_smt=use_smt)

    def synth_config(self) -> SynthConfig:
        synth = dict(self.values["synth"])
        synth["tokens_per_sentence"] = (synth.pop("tokens_min"), synth.pop("tokens_max"))
        return SynthConfig(**synth)


def default_run_config() -> RunConfig:
    return RunConfig({section: dict(keys) for section, keys in SCHEMA.items()})


def load_run_config(path) -> RunConfig:
    """Parse and validate an INI file against the schema."""
    if not os.path.exists(path):
        raise ConfigError(f"config file {path} does not exist")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open_text(path, ConfigError) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    run = default_run_config()
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown config key [{section}] {key}")
            run.values[section][key] = _convert(section, key, SCHEMA[section][key], raw)
    # fail fast on a bad loss selector even if training never runs
    parse_loss_switches(run.values["train"]["loss"])
    return run
