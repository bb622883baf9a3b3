"""Atomic file replacement and the one JSON writer and reader of the package."""

from __future__ import annotations

import contextlib
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


def write_json(path, payload) -> None:
    with replacing(path) as tmp, open(tmp, "w", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def read_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
