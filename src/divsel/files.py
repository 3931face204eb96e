"""File boundary shared by the loaders and writers: opening a path for reading
or writing, reading a text file, parsing line-delimited JSON rows (optionally
with unique keys) or a whole-file JSON object, reading a JSON number or a
flat list of them (every embedding a reader takes), decoding a JSON object
onto typed defaults, and reading a counted run of bytes from a binary file. A
missing file, an output path that cannot be written, text that is not UTF-8,
a string that no UTF-8 writer can write back, or a malformed row or object
raises ConfigError; a binary file shorter than its counts say raises
MemoryFormatError."""

from __future__ import annotations

import json
import math
import os
import re
from pathlib import Path
from typing import Callable, Iterator, Mapping, TypeVar

import numpy as np

from .errors import ConfigError, DivselError, MemoryFormatError

T = TypeVar("T")

# What a parser raises on a malformed value: bad JSON (ValueError, or
# RecursionError for nesting deeper than the interpreter's limit), a missing
# key, a wrongly typed or out-of-range value (OverflowError for an integer too
# large for a float), or a non-object.
_MALFORMED = (
    DivselError, KeyError, TypeError, ValueError, AttributeError, OverflowError, RecursionError
)


# A JSON string literal: no raw quote or backslash inside except as an escape.
_JSON_STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')


def parse_json(text: str):
    """``json.loads``, where a string holding a lone surrogate (a ``\\ud800``
    escape outside a pair), which UTF-8 cannot encode, raises ValueError
    giving its line and column as JSON errors do. Only an escape can put a
    surrogate in the parsed value, so text without a backslash is not checked
    again."""
    data = json.loads(text)
    if "\\" in text:
        try:
            json.dumps(data, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            char = exc.object[exc.start]
            at = next(m.start() for m in _JSON_STRING_RE.finditer(text) if char in json.loads(m[0]))
            line = text.count("\n", 0, at) + 1
            column = at - text.rfind("\n", 0, at)
            raise ValueError(
                f"lone surrogate {char!r} in the string at line {line} column {column}, "
                "which UTF-8 cannot encode"
            ) from None
    return data


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
                    item = parse(parse_json(line))
                except _MALFORMED as exc:
                    raise ConfigError(
                        f"{path}:{lineno}: malformed row ({type(exc).__name__}: {exc})"
                    ) from exc
                yield item
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc


_JSON_NUMBER_TYPES = frozenset((int, float))


def json_number(value) -> float:
    """A JSON number (an int or a float) as a float; float() would also take
    a bool or a numeric string, which raise TypeError here."""
    if type(value) not in _JSON_NUMBER_TYPES:
        raise TypeError(f"expected a JSON number, got {value!r}")
    return float(value)


def json_vector(value, what: str) -> np.ndarray:
    """A flat list of finite JSON numbers as a float64 vector. A value that
    is not a list, or an entry that is not a JSON number (the
    :func:`json_number` rule, which refuses a bool, a numeric string and a
    nested list), raises TypeError; a non-finite entry raises ValueError
    naming `what`."""
    if type(value) is not list:
        raise TypeError(f"{what} must be a list of JSON numbers, got {type(value).__name__}")
    if not _JSON_NUMBER_TYPES.issuperset(map(type, value)):
        for x in value:
            json_number(x)
    # A sum is finite when every entry is; only an overflowing one needs the
    # entries checked one by one.
    if not math.isfinite(sum(value)) and not all(map(math.isfinite, value)):
        raise ValueError(f"{what} has non-finite entries")
    return np.array(value, dtype=np.float64)


def one_dimension(parse: Callable[[Mapping], T], name: Callable[[T], str],
                  error: type[DivselError] = ConfigError) -> Callable[[Mapping], T]:
    """`parse` over one stream of rows, where an item whose ``embedding``
    length differs from the stream's first item's raises `error` naming the
    item by `name`."""
    first_dim = None

    def parse_same(row: Mapping) -> T:
        nonlocal first_dim
        item = parse(row)
        dim = len(item.embedding)
        if first_dim is None:
            first_dim = dim
        elif dim != first_dim:
            raise error(f"{name(item)} has embedding dimension {dim}, expected {first_dim}")
        return item

    return parse_same


def read_unique_rows(path: str | Path, parse: Callable[[Mapping], T], key: Callable[[T], str],
                     what: str) -> Iterator[T]:
    """:func:`read_rows`, where a row whose key repeats an earlier row's raises
    ConfigError ("duplicate <what> 'key'") naming path:line."""
    seen: set[str] = set()

    def parse_new(row: Mapping) -> T:
        item = parse(row)
        if key(item) in seen:
            raise ConfigError(f"duplicate {what} {key(item)!r}")
        seen.add(key(item))
        return item

    return read_rows(path, parse_new)


def read_object(path: str | Path, parse: Callable[[Mapping], T]) -> T:
    """Parse a file holding one JSON object; bad JSON, a non-object or a value
    the parser rejects raises ConfigError naming the path."""
    text = read_text(path)
    try:
        data = parse_json(text)
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
    """`defaults` with `data` laid over it, nested objects merged key by key,
    each value taking its default's type (an int becomes a float, a list a
    tuple); a key `defaults` lacks or a value of another JSON type raises
    ConfigError."""
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
        elif isinstance(default, (float, tuple)):
            value = type(default)(value)
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
