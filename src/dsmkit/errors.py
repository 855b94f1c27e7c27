"""Exception taxonomy shared by all modules.

Each class carries the exit code the CLI returns for it: ConfigError 1,
DataError (and any other DsmError) 2, NumericalError 3.
"""


class DsmError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class ConfigError(DsmError):
    """Invalid configuration: bad option values, unknown keys, unsupported modes."""

    exit_code = 1


class DataError(DsmError):
    """Invalid or inconsistent input data (domain violations, CRS mismatches)."""


class ParseError(DataError):
    """Malformed textual input; carries the offending position."""

    def __init__(self, message: str, *, offset: int | None = None, line: int | None = None):
        self.offset = offset
        self.line = line
        where = []
        if line is not None:
            where.append(f"line {line}")
        if offset is not None:
            where.append(f"offset {offset}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)


class NumericalError(DsmError):
    """Numerical failure: singular systems, non-convergence."""

    exit_code = 3
