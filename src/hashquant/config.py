"""Run configuration for `train`: key=value files, CLI overrides, and the echo record.

`train` echoes every key before it trains, so the parser is strict: unknown
keys are rejected rather than ignored, and a value the trainer would reject
fails here, before anything is echoed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ConfigError, IoFailure
from .trainer import LossWeights, TrainConfig


@dataclass(frozen=True)
class RunConfig:
    """The `train` vocabulary; defaults and checks are TrainConfig's and LossWeights'."""

    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    learning_rate: float = TrainConfig.learning_rate
    seed: int = TrainConfig.seed
    depth: int = TrainConfig.depth
    lambda_sim: float = LossWeights.lambda_sim
    lambda_h: float = LossWeights.lambda_h
    lambda_b: float = LossWeights.lambda_b
    lambda_q: float = LossWeights.lambda_q
    m: int = TrainConfig.num_books
    k: int = TrainConfig.book_size
    alternations: int = TrainConfig.alternations

    def __post_init__(self):
        try:
            self.train_config()
            self.loss_weights()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            alternations=self.alternations,
            seed=self.seed,
            depth=self.depth,
            num_books=self.m,
            book_size=self.k,
        )

    def loss_weights(self) -> LossWeights:
        return LossWeights(
            lambda_sim=self.lambda_sim,
            lambda_h=self.lambda_h,
            lambda_b=self.lambda_b,
            lambda_q=self.lambda_q,
        )

    def echo_lines(self) -> list[str]:
        """One key=value line per field, stable order, for report embedding."""
        return [f"{field.name}={getattr(self, field.name)}" for field in fields(self)]


_FIELD_TYPES = {field.name: field.type for field in fields(RunConfig)}


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    try:
        if kind in ("int", int):
            return int(raw)
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key}={raw!r} as {kind}") from exc


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse `key = value` lines; # starts a comment; unknown keys fail."""
    parsed = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected key = value, got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in parsed:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        parsed[key] = _coerce(key, raw)
    return parsed


def parse_config_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def load_run_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then config file values, then overrides (flags win); bad input is ConfigError."""
    merged = {}
    if path is not None:
        merged.update(parse_config_file(path))
    for key, raw in (overrides or {}).items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        merged[key] = _coerce(key, str(raw))
    return RunConfig(**merged)
