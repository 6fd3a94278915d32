"""Report writing: every CSV, JSON and SVG file the program writes goes through here.

JSON reports are indented by two, have sorted keys and end in a newline,
so equal reports are equal bytes.  A path that cannot be written is a
``ConfigError`` naming it.
"""

from __future__ import annotations

import json

from .config import ConfigError


def json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_text(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def write_json(path: str, payload):
    write_text(path, json_text(payload))
