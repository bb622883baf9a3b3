"""Atomic file replacement, the UTF-8 text reader, the CSV and JSON writers, the
JSON reader and parsing rule, and the ``.npy`` arrays that JSON headers name."""

from __future__ import annotations

import contextlib
import csv
import json
import numbers
import os

import numpy as np

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


@contextlib.contextmanager
def parsing(what: str):
    """Read a payload's fields inside the block: a missing key, a value of the
    wrong type or range, or a ValidationError of the object built from them,
    leaves it as a ValidationError that starts with ``what``, the file."""
    try:
        yield
    except KeyError as exc:
        raise ValidationError(f"{what}: missing key {exc}") from exc
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what}: {exc}") from exc


def integer(value, name: str) -> int:
    """``value`` as an int: an integer, or a float with no fractional part.
    A bool, a string or anything else is a ValidationError naming ``name``."""
    if not isinstance(value, bool) and (isinstance(value, numbers.Integral)
                                        or isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ValidationError(f"{name} must be an integer, got {value!r}")


def number_array(value, name: str) -> np.ndarray:
    """``value``, a list (of lists) of numbers, as a float array. A bool, a
    string or anything else among its items is a ValidationError naming ``name``."""
    array = np.array(value, dtype=object)
    for item in array.flat:
        if isinstance(item, bool) or not isinstance(item, numbers.Real):
            raise ValidationError(f"{name} must hold numbers only, got {item!r}")
    return array.astype(float)


def read_text(path, what: str) -> str:
    """The text of the file at ``path``, line ends untranslated. Every input is
    UTF-8; other bytes are a ValidationError naming the file as invalid ``what``."""
    with parsing(f"{path}: invalid {what}"), open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def read_json(path) -> dict:
    """The JSON object in the file at ``path``: every artifact is one."""
    try:
        payload = json.loads(read_text(path, "JSON"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    return payload


def read_header(path, fmt: int, what: str, command: str) -> dict:
    """The JSON object at ``path``, which must record ``"format": fmt``; a file
    with no format key is older and is regenerated with ``command``."""
    payload = read_json(path)
    if "format" not in payload:
        raise ValidationError(f"{path}: not a format-{fmt} {what} (format-1 files held its arrays "
                              f"inline); regenerate it with `hyperharmonic {command}`")
    if payload["format"] != fmt:
        raise ValidationError(
            f"{path}: unknown {what} format {payload['format']!r}, expected {fmt}"
        )
    return payload


def write_sidecar(header_path, key: str, array: np.ndarray) -> str:
    """Save ``array`` atomically to ``<stem>_<key>.npy`` beside ``header_path``
    and return the bare file name for the header to record.

    An older header at ``header_path`` is removed first, and the new one is
    written after all of its arrays: a header that exists names complete
    arrays of one write, even after a write failed part way.
    """
    with contextlib.suppress(FileNotFoundError):
        os.remove(header_path)
    path = f"{os.path.splitext(header_path)[0]}_{key}.npy"
    with replacing(path) as tmp, open(tmp, "wb") as fh:
        np.save(fh, array, allow_pickle=False)
    return os.path.basename(path)


def read_sidecar(header_path, name, what: str) -> np.ndarray:
    """The array in the file ``name`` that the header at ``header_path`` names.

    ``name`` must be a bare file name in the header's directory; a pickled or
    unreadable array is a ValidationError (``parsing`` names the header), a
    missing file an OSError.
    """
    if not isinstance(name, str) or name in ("", ".", "..") or os.path.basename(name) != name:
        raise ValidationError(f"{what} must be a bare file name, got {name!r}")
    with open(os.path.join(os.path.dirname(header_path), name), "rb") as fh:
        try:
            return np.lib.format.read_array(fh, allow_pickle=False)
        except ValueError as exc:
            raise ValidationError(f"unreadable {what} {name}: {exc}") from exc
