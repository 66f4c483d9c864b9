"""Exception hierarchy shared across the package.

Every error raised on purpose derives from :class:`FanavError` so callers
can tell deliberate failures from bugs. Each class carries the CLI's exit
code for it: 3 configuration/protocol, 4 data format, 5 numeric failure.
"""


class FanavError(Exception):
    """Base class for all package errors."""

    exit_code = 3


class ConfigError(FanavError):
    """Invalid configuration value or inconsistent option combination."""


class ProtocolError(FanavError):
    """Inputs that do not belong together: a task suite evaluated in another
    world or with another robot radius, results compared over different
    worlds or suites, or a collision row in a policy loss's batch."""


class ShapeError(FanavError):
    """Array or network dimension mismatch."""

    exit_code = 4


class NumericError(FanavError):
    """Non-finite value encountered during numerical computation."""

    exit_code = 5


class DataFormatError(FanavError):
    """Unreadable dataset or checkpoint file: damaged (a failed zip CRC-32,
    a truncated or extended archive), of another kind or format version, or
    with arrays or metadata that do not fit; the message names the file."""

    exit_code = 4


class WorldFormatError(FanavError):
    """Malformed world file; message carries file name and line number."""


class InvalidPoseError(FanavError):
    """Pose outside world bounds or inside an obstacle where forbidden."""


class NoPathError(FanavError):
    """The planner found no collision-free path between start and goal."""


class GenerationError(FanavError):
    """Procedural world generation failed to produce a usable layout."""
