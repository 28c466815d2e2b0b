"""Exception hierarchy shared across the pipeline.

Exit-code mapping (see cli): ConfigError -> 2, DependencyError -> 3,
DataError -> 4, anything else -> 5. `read_text` and `read_json` are the
one way the pipeline reads a file from outside the process.
"""

import json
from pathlib import Path

import numpy as np


class PipelineError(Exception):
    """Base class for errors with a machine-parseable category."""

    category = "internal"
    exit_code = 5


class ConfigError(PipelineError):
    category = "config"
    exit_code = 2


class DependencyError(PipelineError):
    category = "dependency"
    exit_code = 3


class DataError(PipelineError):
    category = "data"
    exit_code = 4


class HeaderParseError(DataError):
    """Malformed WFDB header line; carries the 1-based line number."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class UnsupportedFormatError(DataError):
    """WFDB signal format other than 16."""


class TruncationError(DataError):
    """Signal file byte length does not match the header."""


class ChecksumError(DataError):
    """Per-signal checksum mismatch (verification enabled)."""


class SchemaError(DataError):
    """Metadata CSV missing a required column."""


class LeakageError(DataError):
    """A patient appears in more than one split."""


class FilterSpecError(ConfigError):
    """Filter parameters incompatible with the sampling rate."""


class UnsupportedRateError(DataError):
    """Resampling ratio is not an integer."""


class ShapeError(ValueError):
    """Tensor operation received incompatible shapes."""

    def __init__(self, op, *shapes):
        super().__init__(f"{op}: incompatible shapes {' vs '.join(str(s) for s in shapes)}")


class MetricUndefinedError(DataError):
    """Metric undefined for the given inputs (e.g. constant target)."""


JSON_TYPES = {dict: "object", list: "array", str: "string", int: "integer"}


def json_field(obj, key, kind, where):
    """`obj[key]` of upstream JSON, which must be a `kind` (a JSON type in
    `JSON_TYPES`); `obj` that is not an object, a missing key or a value
    of another type is a DataError naming `where`."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise DataError(f"{where}: {key!r} is missing or not a JSON {JSON_TYPES[kind]}")
    return value


def require_finite(values, path):
    """`values`, a float array read from the blob at `path`; a NaN or Inf
    in it is a DataError naming the file."""
    finite = np.isfinite(values)
    if not finite.all():
        raise DataError(f"{path}: {finite.size - np.count_nonzero(finite)} non-finite "
                        f"values (NaN or Inf), the first at index {int(np.argmin(finite))}")
    return values


def read_text(path, error=DataError):
    """The text of the UTF-8 file at `path`; a file that is missing,
    unreadable or not UTF-8 raises `error` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8: {exc}") from None


def read_json(path, kind, error=DataError):
    """The JSON file at `path`, whose top level must be a `kind` (dict or
    list); otherwise, or where `read_text` refuses it, raises `error`."""
    try:
        value = json.loads(read_text(path, error))
    except ValueError as exc:
        raise error(f"{path} is not JSON: {exc}") from None
    if not isinstance(value, kind):
        raise error(f"{path}: top level is not a JSON {JSON_TYPES[kind]}")
    return value
