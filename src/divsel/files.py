"""Input-file boundary shared by the loaders: opening a path, reading a text
file, and parsing line-delimited JSON rows or a whole-file JSON object, with a
missing file, text that is not UTF-8, or a malformed row or object raised as
ConfigError."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterator, Mapping, TypeVar

from .errors import ConfigError, DivselError

T = TypeVar("T")

# What a parser raises on a malformed value: bad JSON (ValueError), a missing
# key, a wrongly typed or out-of-range value, or a non-object.
_MALFORMED = (DivselError, KeyError, TypeError, ValueError, AttributeError)


def open_input(path: str | Path, binary: bool = False):
    """Open a file for reading; a missing or unreadable path raises ConfigError."""
    try:
        if binary:
            return open(path, "rb")
        return open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot open {path}: {exc.strerror or exc}") from exc


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
