"""Small shared helpers: the flat key-value config format (`key = value`
lines, # comments) and atomic file replacement."""

from __future__ import annotations

import contextlib
import errno
import os
import uuid
from pathlib import Path

from .errors import ConfigError


@contextlib.contextmanager
def replaced(paths: list[Path]):
    """Yields a temporary path beside each of `paths`; moves them all into place at the end.

    Each move is an `os.replace`, so a reader sees a path's old file or its
    whole new one. If the block raises, no path changes and the temporary
    files are deleted. A path whose directory is missing raises
    FileNotFoundError naming that path, before any temporary file is made.
    """
    for p in paths:
        if not p.parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(p))
    temps = [p.with_name(f".{p.name}.{uuid.uuid4().hex[:12]}.tmp") for p in paths]
    try:
        yield temps
        for tmp, path in zip(temps, paths):
            os.replace(tmp, path)
    finally:
        for tmp in temps:
            tmp.unlink(missing_ok=True)


def parse_kv(text: str) -> dict:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


_REQUIRED = object()


def kv_get(kv: dict, key: str, cast, default=_REQUIRED):
    """Typed lookup; a missing key without a default is a config error."""
    if key not in kv:
        if default is _REQUIRED:
            raise ConfigError(f"missing config key {key!r}")
        return default
    try:
        if cast is bool:
            v = kv[key].lower()
            if v in ("1", "true", "yes"):
                return True
            if v in ("0", "false", "no"):
                return False
            raise ValueError(v)
        return cast(kv[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {kv[key]!r}") from exc
