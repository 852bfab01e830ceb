"""Run configuration: defaults, flat key=value config files, validation.

Config files are UTF-8 text with one ``key = value`` pair per line and
``#`` comments. CLI flags override file values, which override defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import get_type_hints

from ..errors import ConfigError

DEGRADATION_TAGS = ("none", "rgb_degraded", "x_degraded", "both_noisy")


@dataclass
class RunConfig:
    seed: int = 0

    # frame and backbone geometry
    channels: int = 1
    patch_size: int = 4
    template_size: int = 16
    search_size: int = 32
    model_dim: int = 72
    depth: int = 4
    heads: int = 4
    mlp_ratio: int = 2
    head_hidden: int = 64

    # adapter hyperparameters
    n_experts: int = 4
    top_k: int = 1
    reduction_g: int = 12
    shared_m: int = 4

    # fusion
    epsilon_mode: str = "auto"
    epsilon_value: float = 1.0

    # losses
    lambda_iou: float = 2.0
    lambda_l1: float = 5.0
    alpha: float = 0.001

    # optimization
    lr: float = 0.01
    steps: int = 500
    batch_size: int = 4
    log_interval: int = 50

    # ablation toggles
    toggle_sdmoe: bool = True
    toggle_mff: bool = True
    toggle_gram: bool = True
    toggle_mhg: bool = True

    # dataset sizes
    n_train: int = 8
    n_eval: int = 64

    def __post_init__(self):
        positive = (
            "channels", "patch_size", "template_size", "search_size", "model_dim",
            "depth", "heads", "mlp_ratio", "head_hidden", "n_experts", "top_k",
            "reduction_g", "shared_m", "steps", "batch_size", "log_interval",
            "n_train", "n_eval",
        )
        for name in positive:
            if getattr(self, name) < 1:
                raise ConfigError(f"config key {name} must be positive")
        for name in ("lr", "epsilon_value", "lambda_iou", "lambda_l1", "alpha"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"config key {name} must be finite")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.search_size % self.patch_size or self.template_size % self.patch_size:
            raise ConfigError(
                f"frame sizes ({self.template_size}, {self.search_size}) must be "
                f"divisible by patch_size {self.patch_size}"
            )
        if self.search_size < 8 or self.template_size < 4:
            raise ConfigError("frame sizes too small to place a target")
        if self.model_dim % self.heads:
            raise ConfigError(
                f"model_dim {self.model_dim} not divisible by heads {self.heads}"
            )
        if self.epsilon_mode not in ("auto", "fixed"):
            raise ConfigError(f"epsilon_mode must be auto or fixed, got {self.epsilon_mode}")
        if self.epsilon_mode == "fixed" and not self.epsilon_value > 0:
            raise ConfigError("epsilon_value must be positive in fixed mode")
        if not 1 <= self.top_k < self.n_experts:
            raise ConfigError(
                f"top_k must satisfy 1 <= K < N, got K={self.top_k}, N={self.n_experts}"
            )
        if self.model_dim % self.reduction_g:
            raise ConfigError(
                f"model_dim {self.model_dim} not divisible by reduction_g {self.reduction_g}"
            )
        if self.lambda_iou < 0 or self.lambda_l1 < 0 or self.alpha < 0:
            raise ConfigError("loss weights must be nonnegative")

    @property
    def n_template_tokens(self) -> int:
        return (self.template_size // self.patch_size) ** 2

    @property
    def n_search_tokens(self) -> int:
        return (self.search_size // self.patch_size) ** 2

    @property
    def heatmap_side(self) -> int:
        return self.search_size // self.patch_size

    @property
    def level_taps(self) -> tuple[int, ...]:
        """The blocks, counted from 1, whose outputs multi-level fusion reads."""
        return tuple(sorted({max(1, round(self.depth * q)) for q in (0.25, 0.5, 0.75, 1.0)}))

    def with_toggles(self, sdmoe: bool, mff: bool, gram: bool, mhg: bool) -> "RunConfig":
        return replace(
            self, toggle_sdmoe=sdmoe, toggle_mff=mff, toggle_gram=gram, toggle_mhg=mhg
        )


_BOOL_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_value(name: str, text: str, target_type):
    text = text.strip()
    try:
        if target_type is bool:
            return _BOOL_VALUES[text.lower()]
        if target_type is int:
            return int(text)
        if target_type is float:
            return float(text)
        return text
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"config key {name}: cannot parse value {text!r}") from exc


def parse_config_text(text: str) -> dict[str, str]:
    """The file's key = value pairs; a key set on two lines is a ``ConfigError``."""
    pairs: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in pairs:
            raise ConfigError(
                f"config key {key} set twice, on lines {first_line[key]} and {lineno}")
        pairs[key], first_line[key] = value, lineno
    return pairs


def load_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from defaults, an optional file, and overrides."""
    type_of = get_type_hints(RunConfig)  # each field's type
    values: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for key, raw in parse_config_text(text).items():
            if key not in type_of:
                raise ConfigError(f"unknown config key: {key}")
            values[key] = _parse_value(key, raw, type_of[key])
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in type_of:
            raise ConfigError(f"unknown config key: {key}")
        values[key] = value
    return RunConfig(**values)
