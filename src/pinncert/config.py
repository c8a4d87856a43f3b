"""Experiment configuration: a flat INI-style file, fully determining a run.

Every output directory receives a copy of the resolved config so runs can
be diffed and replayed.  Two executions from the same config are
byte-identical.
"""

import configparser
import math
from dataclasses import asdict, dataclass, field, fields
from typing import ClassVar

from .certify import CertifyConfig
from .ode import ConfigurationError, require_int
from .train import TrainingRun

PRESETS = ("decay1d", "pendulum")


@dataclass(slots=True)
class ExperimentConfig:
    # experiment
    preset: str = "decay1d"
    seed: int = 0
    out_dir: str = "out"
    # network
    hidden: list = field(default_factory=lambda: [4, 4])
    # training
    optimizer: str = TrainingRun.optimizer
    epochs: int = 5000
    lr: float = TrainingRun.lr
    gamma_data: float = TrainingRun.gamma_data
    gamma_phys: float = TrainingRun.gamma_phys
    colloc_count: int = 200
    data_count: int = 1
    # certification
    L_override: float = CertifyConfig.L
    cert_colloc_count: int = CertifyConfig.colloc_count
    query_points: int = 101
    # surrogate
    surr_count: int = 100
    surr_hidden: list = field(default_factory=lambda: [4, 4])
    surr_under_weight: float = 1000.0
    surr_epochs: int = 2000
    surr_holdout: int = 200
    # the indicator is always fitted by L-BFGS, which takes no learning rate
    surr_optimizer: ClassVar[str] = "lbfgs"
    surr_lr: ClassVar[float] = TrainingRun.lr

    def validate(self):
        """Experiment-level rules, then those of the run objects the config maps to."""
        if self.preset not in PRESETS:
            raise ConfigurationError(f"unknown preset {self.preset!r}")
        require_int("seed", self.seed, 0)
        for key in ("colloc_count", "data_count", "cert_colloc_count", "query_points",
                    "surr_count", "surr_holdout"):
            require_int(key, getattr(self, key), 1)
        if not 1 <= self.surr_under_weight < math.inf:
            raise ConfigurationError(f"surr_under_weight must be finite and >= 1, "
                                     f"got {self.surr_under_weight}")
        for key in ("hidden", "surr_hidden"):
            widths = getattr(self, key)
            # an empty list would save as an empty value, which loads as None
            if not (isinstance(widths, list) and widths
                    and all(isinstance(w, int) and w >= 1 for w in widths)):
                raise ConfigurationError(f"{key} must be a non-empty list of ints >= 1, "
                                         f"got {widths!r}")
        for section, run in (("training", build_training_run(self)),
                             ("certify", certify_config(self)),
                             ("surrogate", surrogate_run(self))):
            try:
                run.validate()
            except ConfigurationError as exc:
                raise ConfigurationError(f"[{section}] {exc}") from None


def preset_config(name, seed=None, desk_scale=True) -> ExperimentConfig:
    """Defaults for the two benchmark experiments.

    The pendulum full-scale settings (10000 collocation points, 100000
    L-BFGS epochs) match the published experiment; desk scale keeps the
    same architecture at a fraction of the budget.  Each preset ships a
    known-good seed; the 1D run also down-weights the data loss so the
    trained error keeps a visible offset instead of oscillating through
    zero, which keeps the certificate-to-error ratio informative.
    """
    if name == "decay1d":
        return ExperimentConfig(preset="decay1d", seed=1 if seed is None else seed,
                                gamma_data=0.1)
    if name == "pendulum":
        cfg = ExperimentConfig(
            preset="pendulum", seed=0 if seed is None else seed,
            hidden=[32, 32, 32, 32],
            optimizer="lbfgs", epochs=100000, lr=3e-3,
            colloc_count=10000, data_count=50,
            cert_colloc_count=20000,
            surr_count=25000, surr_hidden=[32] * 8, surr_under_weight=1.0,
            surr_epochs=100000,
        )
        if desk_scale:
            cfg.optimizer = "adam"
            cfg.epochs = 1500
            cfg.colloc_count = 1500
            cfg.cert_colloc_count = 4000
            cfg.surr_count = 300
            cfg.surr_hidden = [32, 32]
            cfg.surr_epochs = 1500
        return cfg
    raise ConfigurationError(f"unknown preset {name!r}")


_SECTIONS = {
    "experiment": ["preset", "seed", "out_dir"],
    "network": ["hidden"],
    "training": ["optimizer", "epochs", "lr", "gamma_data", "gamma_phys",
                 "colloc_count", "data_count"],
    "certify": ["L_override", "cert_colloc_count", "query_points"],
    "surrogate": ["surr_count", "surr_hidden", "surr_under_weight", "surr_epochs",
                  "surr_holdout"],
}

# a key's reader, by its field's type; only a field that defaults to None may be empty
_PARSERS = {int: int, float: float, str: str,
            list: lambda raw: [int(x) for x in raw.split(",") if x.strip()]}
_FIELDS = {f.name: f for f in fields(ExperimentConfig)}


def save_config(cfg: ExperimentConfig, path):
    values = asdict(cfg)
    with open(path, "w") as fh:
        for section, keys in _SECTIONS.items():
            fh.write(f"[{section}]\n")
            for key in keys:
                v = values[key]
                if isinstance(v, list):
                    v = ",".join(str(x) for x in v)
                fh.write(f"{key} = {'' if v is None else v}\n")
            fh.write("\n")


def load_config(path) -> ExperimentConfig:
    # values are read as written: a '%' in out_dir is a character, not interpolation
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str   # keys are case sensitive (L_override)
    try:
        if not parser.read(path):
            raise ConfigurationError(f"cannot read config file {path}")
    except configparser.Error as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    cfg = ExperimentConfig()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigurationError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                raise ConfigurationError(f"unknown key {key!r} in [{section}]")
            raw = raw.strip()
            if raw == "":
                if _FIELDS[key].default is not None:
                    raise ConfigurationError(f"{key} in [{section}] needs a value")
                value = None
            else:
                try:
                    value = _PARSERS[_FIELDS[key].type](raw)
                except ValueError:
                    raise ConfigurationError(f"{key} in [{section}]: cannot read {raw!r}") from None
            setattr(cfg, key, value)
    cfg.validate()
    return cfg


def build_training_run(cfg: ExperimentConfig) -> TrainingRun:
    return TrainingRun(
        gamma_data=cfg.gamma_data, gamma_phys=cfg.gamma_phys,
        optimizer=cfg.optimizer, epochs=cfg.epochs, seed=cfg.seed, lr=cfg.lr)


def certify_config(cfg: ExperimentConfig) -> CertifyConfig:
    return CertifyConfig(L=cfg.L_override, colloc_count=cfg.cert_colloc_count,
                         colloc_seed=cfg.seed + 17)


def surrogate_run(cfg: ExperimentConfig) -> TrainingRun:
    """The error net's fit: the data loss alone, on its own seed."""
    return TrainingRun(gamma_data=1.0, gamma_phys=0.0, optimizer=cfg.surr_optimizer,
                       epochs=cfg.surr_epochs, seed=cfg.seed + 28, lr=cfg.surr_lr)
