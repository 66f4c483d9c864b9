"""Exception hierarchy shared across the package.

Every error raised on purpose derives from :class:`FanavError` so callers
(and the CLI exit-code mapping) can tell deliberate failures from bugs.
"""


class FanavError(Exception):
    """Base class for all package errors."""


class ConfigError(FanavError):
    """Invalid configuration value or inconsistent option combination."""


class ProtocolError(FanavError):
    """An API was used out of order (e.g. stepping a finished episode)."""


class ShapeError(FanavError):
    """Array or network dimension mismatch."""


class NumericError(FanavError):
    """Non-finite value encountered during numerical computation."""


class DataFormatError(FanavError):
    """Unreadable dataset or checkpoint file: damaged (a failed zip CRC-32,
    a truncated or extended archive), of another kind or format version, or
    with arrays or metadata that do not fit; the message names the file."""


class WorldFormatError(FanavError):
    """Malformed world file; message carries file name and line number."""


class InvalidPoseError(FanavError):
    """Pose outside world bounds or inside an obstacle where forbidden."""


class NoPathError(FanavError):
    """The planner found no collision-free path between start and goal."""


class GenerationError(FanavError):
    """Procedural world generation failed to produce a usable layout."""
