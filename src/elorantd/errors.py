"""Exception hierarchy shared across the toolkit.

The CLI maps these onto stable exit codes: configuration problems -> 2,
data problems -> 3, numeric failures -> 4, and artifact/feature axis
mismatches (AxisMismatchError alone) -> 5.  A malformed or unknown
artifact (ArtifactError) is a data problem, exit 3.
"""


class ElorantdError(Exception):
    """Base class for all toolkit errors."""


# -- configuration ---------------------------------------------------------

class ConfigError(ElorantdError):
    """Bad or unknown configuration key, value, or referenced path."""


# -- data / ingest ---------------------------------------------------------

class DataError(ElorantdError):
    """Base class for problems with input data."""


class ParseError(DataError):
    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


class OutOfRangeError(DataError):
    def __init__(self, factor, value, message=""):
        detail = f" ({message})" if message else ""
        super().__init__(f"value {value!r} outside validity range of {factor}{detail}")
        self.factor = factor
        self.value = value


class DuplicateStationError(DataError):
    def __init__(self, station_id):
        super().__init__(f"duplicate station id {station_id!r}")
        self.station_id = station_id


class UnknownStationError(DataError):
    def __init__(self, station_id):
        super().__init__(f"station id {station_id!r} not in registry")
        self.station_id = station_id


class InconsistentDimensionsError(DataError):
    pass


class EmptyIntersectionError(DataError):
    """Weather and TD series share no usable epochs."""


class NoObservationsError(DataError):
    """No station reports the requested factor at the requested epoch."""


class OutOfExtentError(DataError):
    def __init__(self, index, point):
        super().__init__(f"path point {index} at {point} outside DEM extent")
        self.index = index


class NoElevationDataError(DataError):
    def __init__(self, index):
        super().__init__(f"all DEM neighbors of path point {index} are NODATA")
        self.index = index


class DegeneratePathError(DataError):
    pass


# -- series / statistics ---------------------------------------------------

class LengthMismatchError(ElorantdError):
    pass


class EmptySeriesError(ElorantdError):
    pass


class ConstantSeriesError(ElorantdError):
    pass


class InsufficientGroupsError(ElorantdError):
    pass


# -- features / models -----------------------------------------------------

class DimensionMismatchError(ElorantdError):
    pass


class ConstantColumnError(ElorantdError):
    def __init__(self, column):
        super().__init__(f"column {column} is constant; cannot standardize")
        self.column = column


class DegenerateDesignError(ElorantdError):
    pass


class DegenerateBankError(ElorantdError):
    pass


class EmptyBankError(ElorantdError):
    pass


class NonFiniteLossError(ElorantdError):
    """Training diverged; typically signals a bad learning rate."""


class RankDeficientError(ElorantdError):
    pass


class ArtifactError(ElorantdError):
    """Serialized model artifact is malformed or of an unknown kind."""


class AxisMismatchError(ElorantdError):
    """Artifact and feature axes disagree (factors, locations, or mode)."""
