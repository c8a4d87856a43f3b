"""Experiment configuration: a flat INI-style file, fully determining a run.

Every output directory receives a copy of the resolved config so runs can
be diffed and replayed.  Two executions from the same config are
byte-identical.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import asdict, dataclass, field

from .autodiff import ACTIVATIONS
from .certify import MU_POLICIES
from .ode import ConfigurationError
from .train import OPTIMIZERS

PRESETS = ("decay1d", "pendulum")


@dataclass
class ExperimentConfig:
    # experiment
    preset: str = "decay1d"
    seed: int = 0
    out_dir: str = "out"
    desk_scale: bool = True
    # network
    hidden: list = field(default_factory=lambda: [4, 4])
    activation: str = "tanh"
    # training
    optimizer: str = "adam"
    epochs: int = 5000
    lr: float = 1e-2
    gamma_data: float = 1.0
    gamma_phys: float = 1.0
    colloc_count: int = 200
    data_count: int = 1
    # certification
    cert_mode: str = "auto"
    eps: float = 0.33
    mu_policy: str = "tenth_of_mean"
    mu: float = None
    K_grid: int = 200
    safety_factor: float = 1.5
    L_override: float = None
    n_override: int = None
    cert_colloc_count: int = 400
    query_points: int = 101
    # surrogate
    surr_count: int = 100
    surr_hidden: list = field(default_factory=lambda: [4, 4])
    surr_under_weight: float = 1000.0
    surr_optimizer: str = "lbfgs"
    surr_epochs: int = 2000
    surr_lr: float = 1e-2
    surr_holdout: int = 200

    def validate(self):
        if self.preset not in PRESETS:
            raise ConfigurationError(f"unknown preset {self.preset!r}")
        if self.epochs < 0 or self.colloc_count < 1:
            raise ConfigurationError("epochs must be >= 0 and colloc_count >= 1")
        if self.cert_mode not in ("auto", "linear", "nonlinear"):
            raise ConfigurationError(f"unknown certification mode {self.cert_mode!r}")
        for key in ("optimizer", "surr_optimizer"):
            if getattr(self, key) not in OPTIMIZERS:
                raise ConfigurationError(f"unknown {key} {getattr(self, key)!r}")
        if self.activation not in ACTIVATIONS:
            raise ConfigurationError(f"unknown activation {self.activation!r}")
        if self.mu_policy not in MU_POLICIES:
            raise ConfigurationError(f"unknown mu_policy {self.mu_policy!r}")
        if self.mu_policy == "explicit" and (self.mu is None or not self.mu >= 0):
            raise ConfigurationError("mu_policy = explicit needs mu >= 0")
        if not (self.eps > 0 and self.K_grid >= 10 and self.safety_factor >= 1):
            raise ConfigurationError("need eps > 0, K_grid >= 10 and safety_factor >= 1")
        if self.L_override is not None and not 0 <= self.L_override < math.inf:
            raise ConfigurationError(f"L_override must be finite and >= 0, got {self.L_override}")
        for key in ("lr", "surr_lr"):
            if not 0 < getattr(self, key) < math.inf:
                raise ConfigurationError(f"{key} must be finite and > 0, got {getattr(self, key)}")
        if self.surr_epochs < 0 or self.query_points < 1:
            raise ConfigurationError("surr_epochs must be >= 0 and query_points >= 1")
        for key in ("gamma_data", "gamma_phys"):
            if not 0 <= getattr(self, key) < math.inf:
                raise ConfigurationError(f"{key} must be finite and >= 0, got {getattr(self, key)}")
        if self.n_override is not None and not (isinstance(self.n_override, int)
                                                and self.n_override >= 1):
            raise ConfigurationError(f"n_override must be empty or an int >= 1, "
                                     f"got {self.n_override!r}")
        for key in ("data_count", "cert_colloc_count", "surr_count", "surr_holdout"):
            if getattr(self, key) < 1:
                raise ConfigurationError(f"{key} must be >= 1, got {getattr(self, key)}")
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
                                gamma_data=0.1, desk_scale=desk_scale)
    if name == "pendulum":
        cfg = ExperimentConfig(
            preset="pendulum", seed=0 if seed is None else seed, desk_scale=desk_scale,
            hidden=[32, 32, 32, 32], activation="tanh",
            optimizer="lbfgs", epochs=100000, lr=3e-3,
            colloc_count=10000, data_count=50,
            cert_mode="nonlinear", cert_colloc_count=20000,
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
    "experiment": ["preset", "seed", "out_dir", "desk_scale"],
    "network": ["hidden", "activation"],
    "training": ["optimizer", "epochs", "lr", "gamma_data", "gamma_phys",
                 "colloc_count", "data_count"],
    "certify": ["cert_mode", "eps", "mu_policy", "mu", "K_grid", "safety_factor",
                "L_override", "n_override", "cert_colloc_count", "query_points"],
    "surrogate": ["surr_count", "surr_hidden", "surr_under_weight",
                  "surr_optimizer", "surr_epochs", "surr_lr", "surr_holdout"],
}

_INT_FIELDS = {"seed", "epochs", "colloc_count", "data_count", "K_grid",
               "n_override", "cert_colloc_count", "query_points", "surr_count",
               "surr_epochs", "surr_holdout"}
_FLOAT_FIELDS = {"lr", "gamma_data", "gamma_phys", "eps", "mu", "safety_factor",
                 "L_override", "surr_under_weight", "surr_lr"}
_LIST_FIELDS = {"hidden", "surr_hidden"}
_BOOL_FIELDS = {"desk_scale"}
_OPTIONAL_FIELDS = {"mu", "L_override", "n_override"}


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
    parser = configparser.ConfigParser()
    parser.optionxform = str   # keys are case sensitive (K_grid, L_override)
    if not parser.read(path):
        raise ConfigurationError(f"cannot read config file {path}")
    cfg = ExperimentConfig()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigurationError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                raise ConfigurationError(f"unknown key {key!r} in [{section}]")
            raw = raw.strip()
            if raw == "":
                if key not in _OPTIONAL_FIELDS:
                    raise ConfigurationError(f"{key} in [{section}] needs a value")
                value = None
            elif key in _LIST_FIELDS:
                value = [int(x) for x in raw.split(",") if x.strip()]
            elif key in _INT_FIELDS:
                value = int(raw)
            elif key in _FLOAT_FIELDS:
                value = float(raw)
            elif key in _BOOL_FIELDS:
                value = raw.lower() in ("1", "true", "yes")
            else:
                value = raw
            setattr(cfg, key, value)
    cfg.validate()
    return cfg
