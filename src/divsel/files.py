"""Input-file boundary shared by the loaders: opening a path, reading a text
file and parsing line-delimited JSON rows, with a missing file, text that is
not UTF-8 or a malformed row raised as ConfigError."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterator, Mapping, TypeVar

from .errors import ConfigError

T = TypeVar("T")


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
                except (ConfigError, KeyError, TypeError, ValueError, AttributeError) as exc:
                    raise ConfigError(
                        f"{path}:{lineno}: malformed row ({type(exc).__name__}: {exc})"
                    ) from exc
                yield item
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc
