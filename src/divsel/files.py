"""File boundary shared by the loaders and writers: opening a path for reading
or writing, reading a text file, parsing line-delimited JSON rows or a
whole-file JSON object, decoding a JSON object onto typed defaults, and reading
a counted run of bytes from a binary file. A missing file, an output path that
cannot be written, text that is not UTF-8, or a malformed row or object raises
ConfigError; a binary file shorter than its counts say raises
MemoryFormatError."""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Iterator, Mapping, TypeVar

from .errors import ConfigError, DivselError, MemoryFormatError

T = TypeVar("T")

# What a parser raises on a malformed value: bad JSON (ValueError, or
# RecursionError for nesting deeper than the interpreter's limit), a missing
# key, a wrongly typed or out-of-range value (OverflowError for an integer too
# large for a float), or a non-object.
_MALFORMED = (
    DivselError, KeyError, TypeError, ValueError, AttributeError, OverflowError, RecursionError
)


def open_input(path: str | Path, binary: bool = False):
    """Open a file for reading; a missing or unreadable path raises ConfigError."""
    try:
        if binary:
            return open(path, "rb")
        return open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot open {path}: {exc.strerror or exc}") from exc


def open_output(path: str | Path, binary: bool = False):
    """Open a file for writing, replacing it; a path that cannot be written
    (a missing directory, a directory, no permission) raises ConfigError."""
    try:
        if binary:
            return open(path, "wb")
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def read_text(path: str | Path) -> str:
    """A whole text file; a missing or unreadable path raises ConfigError."""
    with open_input(path) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def read_rows(path: str | Path, parse: Callable[[Mapping], T]) -> Iterator[T]:
    """Parse every non-blank JSONL line; a malformed row raises ConfigError
    naming path:line."""
    with open_input(path) as fh:
        try:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    item = parse(json.loads(line))
                except _MALFORMED as exc:
                    raise ConfigError(
                        f"{path}:{lineno}: malformed row ({type(exc).__name__}: {exc})"
                    ) from exc
                yield item
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def read_object(path: str | Path, parse: Callable[[Mapping], T]) -> T:
    """Parse a file holding one JSON object; bad JSON, a non-object or a value
    the parser rejects raises ConfigError naming the path."""
    text = read_text(path)
    try:
        data = json.loads(text)
        if not isinstance(data, dict):
            raise TypeError(f"expected a JSON object, got {type(data).__name__}")
        return parse(data)
    except _MALFORMED as exc:
        raise ConfigError(f"{path}: malformed file ({type(exc).__name__}: {exc})") from exc


def _same_json_type(default, value) -> bool:
    if isinstance(default, (list, tuple)):
        return isinstance(value, (list, tuple)) and all(
            _same_json_type(default[0], v) for v in value
        )
    accepted = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}
    return type(value) in accepted.get(type(default), ())


def overlay(defaults: Mapping, data: Mapping, where: str = "") -> dict:
    """`defaults` with `data` laid over it, nested objects merged key by key;
    a key `defaults` lacks or a value of another JSON type raises ConfigError
    (an int passes for a float)."""
    if not isinstance(data, Mapping):
        raise ConfigError(f"config {where.rstrip('.') or 'root'} must be an object")
    out = dict(defaults)
    for key, value in data.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {where}{key}")
        default = defaults[key]
        if isinstance(default, dict):
            value = overlay(default, value, f"{where}{key}.")
        elif not _same_json_type(default, value):
            raise ConfigError(
                f"config key {where}{key} must be {type(default).__name__}, got {value!r}"
            )
        out[key] = value
    return out


def read_exact(fh, n: int, what: str) -> bytes:
    """The next n bytes of a binary file. A count that is negative or larger
    than what is left raises MemoryFormatError before any read, so a corrupt
    length never becomes an allocation."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if not 0 <= n <= left:
        raise MemoryFormatError(f"{fh.name}: truncated file while reading {what}")
    data = fh.read(n)
    if len(data) != n:
        raise MemoryFormatError(f"{fh.name}: truncated file while reading {what}")
    return data
