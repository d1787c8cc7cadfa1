"""Exception hierarchy shared across the toolkit: one class per exit code.

The CLI maps these onto stable exit codes: ConfigError (a bad or unknown
configuration key, value or referenced path) -> 2, DataError (bad input
data, a malformed or unknown artifact, or a design, bank or series that
cannot be fitted) -> 3, NonFiniteLossError -> 4 and AxisMismatchError
-> 5.  ParseError is the DataError that names a file line.
"""


class ElorantdError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(ElorantdError):
    """Bad or unknown configuration key, value, or referenced path."""


class DataError(ElorantdError):
    """Input data, an artifact, or a fit's design cannot be used."""


class ParseError(DataError):
    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


class NonFiniteLossError(ElorantdError):
    """Training diverged; typically signals a bad learning rate."""


class AxisMismatchError(ElorantdError):
    """Artifact and feature axes disagree (factors, locations, or mode)."""
