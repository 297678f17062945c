"""The `train` key table: key=value files, CLI overrides, and the echo record.

Each key names one field of `TrainConfig` or `LossWeights`, the two types
`train()` takes, so the echo describes the objects that ran.  `train` echoes
every key before it trains, so the parser is strict: unknown keys are
rejected rather than ignored, and a value the trainer would reject fails
here, before anything is echoed.
"""

from __future__ import annotations

from dataclasses import fields

from .errors import ConfigError, IoFailure
from .trainer import LossWeights, TrainConfig

# (key, owner, field) in echo order; only m and k are renamed
_KEYS = (
    ("epochs", TrainConfig, "epochs"),
    ("batch_size", TrainConfig, "batch_size"),
    ("learning_rate", TrainConfig, "learning_rate"),
    ("seed", TrainConfig, "seed"),
    ("depth", TrainConfig, "depth"),
    ("lambda_sim", LossWeights, "lambda_sim"),
    ("lambda_h", LossWeights, "lambda_h"),
    ("lambda_b", LossWeights, "lambda_b"),
    ("lambda_q", LossWeights, "lambda_q"),
    ("m", TrainConfig, "num_books"),
    ("k", TrainConfig, "book_size"),
    ("alternations", TrainConfig, "alternations"),
)
_OWNER_FIELD = {key: (owner, field) for key, owner, field in _KEYS}


def _coerce(key: str, raw: str):
    owner, name = _OWNER_FIELD[key]
    kind = next(field.type for field in fields(owner) if field.name == name)
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
        if key not in _OWNER_FIELD:
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


def load_run_config(path=None, overrides: dict | None = None) -> tuple[TrainConfig, LossWeights]:
    """Defaults, then config file values, then overrides (flags win); bad input is ConfigError."""
    merged = {}
    if path is not None:
        merged.update(parse_config_file(path))
    for key, raw in (overrides or {}).items():
        if key not in _OWNER_FIELD:
            raise ConfigError(f"unknown config key {key!r}")
        merged[key] = _coerce(key, str(raw))
    settings = {TrainConfig: {}, LossWeights: {}}
    for key, value in merged.items():
        owner, name = _OWNER_FIELD[key]
        try:
            owner(**{name: value})  # every trainer check reads one field, so this names the key at fault
        except ValueError as exc:
            raise ConfigError(f"{key}={value}: {exc}") from exc
        settings[owner][name] = value
    return TrainConfig(**settings[TrainConfig]), LossWeights(**settings[LossWeights])


def echo_lines(config: TrainConfig, weights: LossWeights) -> list[str]:
    """One key=value line per key, in table order, for report embedding."""
    objects = {TrainConfig: config, LossWeights: weights}
    return [f"{key}={getattr(objects[owner], name)}" for key, owner, name in _KEYS]
