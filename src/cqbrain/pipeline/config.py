"""key = value configuration files with per-command schemas.

Unknown keys are rejected outright (typo safety), values are typed per
schema, and input paths are validated before any compute starts: an
`in_file` key must name an existing file, an `in_dir` key an existing
directory. Floats must be finite, and a field's strict lower bound (if
any) holds for its value, or for every entry of an `ints` list.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from ..errors import ConfigError

_MISSING = object()


@dataclass(frozen=True)
class Field:
    kind: str  # int | float | ints (comma-separated) | str | bool | in_file | in_dir | out_path | choice
    default: object = _MISSING
    choices: tuple[str, ...] = ()
    low: float | None = None  # numeric values must be > low

    @property
    def required(self) -> bool:
        return self.default is _MISSING


def parse_config_text(text: str) -> dict[str, str]:
    """Raw key -> value strings from `key = value` lines; '#' starts a comment."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


_INPUT_KINDS = {"in_file": (Path.is_file, "file"), "in_dir": (Path.is_dir, "directory")}


def _check_low(key: str, number: float, field: Field) -> None:
    if field.low is not None and not number > field.low:
        raise ConfigError(f"{key}: must be > {field.low:g}, got {number}")


def _convert(key: str, value: str, field: Field):
    try:
        if field.kind == "int":
            number = int(value)
            _check_low(key, number, field)
            return number
        if field.kind == "float":
            number = float(value)
            if not math.isfinite(number):
                raise ConfigError(f"{key}: must be finite, got {value!r}")
            _check_low(key, number, field)
            return number
        if field.kind == "ints":
            numbers = tuple(int(part) for part in value.split(","))
            for number in numbers:
                _check_low(key, number, field)
            return numbers
        if field.kind == "bool":
            lowered = value.lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ConfigError(f"{key}: cannot parse {value!r} as bool")
        if field.kind == "choice":
            if value not in field.choices:
                raise ConfigError(f"{key}: cannot parse {value!r} as choice (must be one of {field.choices})")
            return value
        if field.kind in _INPUT_KINDS:
            path = Path(value)
            if not path.exists():
                raise ConfigError(f"{key}: path {value!r} does not exist")
            is_kind, noun = _INPUT_KINDS[field.kind]
            if not is_kind(path):
                raise ConfigError(f"{key}: path {value!r} is not a {noun}")
            return path
        if field.kind == "out_path":
            return Path(value)
        return value  # str
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: cannot parse {value!r} as {field.kind} ({exc})") from exc
    except OSError as exc:  # a path the system will not look up, such as an over-long name
        raise ConfigError(f"{key}: cannot check path {value!r} ({exc.strerror or exc})") from exc


def resolve_config(raw: dict[str, str], schema: dict[str, Field]) -> dict:
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(unknown)}")
    resolved: dict = {}
    for key, field in schema.items():
        if key in raw:
            resolved[key] = _convert(key, raw[key], field)
        elif field.required:
            raise ConfigError(f"missing required key {key!r}")
        else:
            resolved[key] = field.default
    return resolved


def load_config(path: str | Path, schema: dict[str, Field]) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return resolve_config(parse_config_text(text), schema)
