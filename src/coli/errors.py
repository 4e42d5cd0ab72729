"""Exception hierarchy shared across the package.

Every error raised by the library derives from ColiError so callers can
catch one type at the boundary (the CLI maps them onto exit codes).
"""


class ColiError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ColiError):
    """Syntax error with source position."""

    def __init__(self, message, line=None, col=None):
        self.reason = message
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, col {col})"
        super().__init__(message)


class KBError(ColiError):
    """Bad directory definition or knowledge-base file."""


class ExpandError(ColiError):
    """Directory expansion failed (undefined name, no clause, cycle)."""


class DepthLimitError(ExpandError):
    """Recursive expansion exceeded the depth limit."""


class ConfigError(ColiError):
    """Illegal move or malformed game configuration."""


class SharedNodeError(ConfigError):
    """A move path entered a shared node (in-degree > 1), which is read-only
    with everything below it."""


class BoundError(ColiError):
    """A replica or depth bound was exceeded."""


class ChannelError(ColiError):
    """The environment input channel ran dry or produced garbage."""
