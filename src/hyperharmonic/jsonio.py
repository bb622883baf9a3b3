"""Atomic file replacement, the CSV writer, and the JSON writer and reader of the package."""

from __future__ import annotations

import contextlib
import csv
import json
import os

from .errors import ValidationError


@contextlib.contextmanager
def replacing(path):
    """Yield a temporary path beside ``path``; move it into place on success.

    Readers then find either no file or a complete one, never a truncated one.
    """
    tmp = f"{path}.tmp"
    try:
        yield tmp
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    os.replace(tmp, path)


@contextlib.contextmanager
def csv_writer(path):
    """Yield a ``csv.writer`` ('\\n' line ends) whose file replaces ``path`` on success."""
    with replacing(path) as tmp, open(tmp, "w", newline="") as fh:
        yield csv.writer(fh, lineterminator="\n")


def write_json(path, payload) -> None:
    with replacing(path) as tmp, open(tmp, "w", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def require_keys(payload, keys, what: str) -> dict:
    """``payload`` when it is a JSON object holding every key; ValidationError otherwise."""
    if not isinstance(payload, dict):
        raise ValidationError(f"{what}: expected a JSON object, got {type(payload).__name__}")
    missing = [key for key in keys if key not in payload]
    if missing:
        raise ValidationError(f"{what}: missing {', '.join(map(repr, missing))}")
    return payload


def read_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
