"""Exception types shared across the analyzer."""


class MutdenseError(Exception):
    """Base class for all analyzer errors."""


class SourcePositionError(MutdenseError):
    """Error anchored to a 1-based line/column in a source file."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


class UnterminatedLiteral(SourcePositionError):
    """String or character literal not closed before newline/EOF."""


class UnterminatedComment(SourcePositionError):
    """Block comment not closed before EOF."""


class UnbalancedBraces(SourcePositionError):
    """Curly braces do not pair up; the unit cannot be analyzed."""


class SiteMismatch(MutdenseError):
    """A mutant's recorded original text no longer matches the source."""


class MutantOnIrrelevantLine(MutdenseError):
    """Internal contract violation: a mutant landed outside relevant lines."""


class DuplicatePath(MutdenseError):
    """Two unit reports share the same path."""


class UnwritableOutput(MutdenseError):
    """The output directory or an artifact in it cannot be written."""


class EmptyProject(MutdenseError):
    """A rendering was requested for a project with no analyzable units."""


class BadFlag(MutdenseError):
    """Invalid command-line usage."""


class BadConfigKey(MutdenseError):
    """Config file contains an unknown or ill-typed key."""


class UnreadableConfig(MutdenseError):
    """Config file missing or not valid JSON."""
