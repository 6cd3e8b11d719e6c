"""Exception hierarchy for the leftex toolkit.

Every domain error raised by the library derives from :class:`LeftexError`,
so callers (in particular the CLI) can distinguish domain failures from
plain programming mistakes, which raise the usual built-ins.
"""


class LeftexError(Exception):
    """Base class for all leftex domain errors."""


class NotNumberLike(LeftexError):
    """The configuration has a nonzero left tail, or is the all-zero one."""


class EmptyInterval(LeftexError):
    """An interval [i, j] with i > j was requested."""


class AlphabetMismatch(LeftexError):
    """Two objects over different alphabets were combined."""


class IncompleteTable(LeftexError):
    """A local-rule table does not cover every neighborhood."""


class SymbolOutOfRange(LeftexError):
    """A symbol does not belong to the alphabet it is used with."""


class OutOfRange(LeftexError):
    """A numeric argument is outside its admissible range."""


class SeedTooShort(LeftexError):
    """A patch seed is too short for the requested number of rows."""


class TableTooLarge(LeftexError):
    """A composed rule table would exceed the configured size guard."""


class BadSpec(LeftexError):
    """Invalid multiplication parameters (need coprime p > q > 1)."""


class NotPositive(LeftexError):
    """A strictly positive rational was required."""


class BadBase(LeftexError):
    """Invalid positional base (need an integer with 2 <= base <= 256)."""


class BadDims(LeftexError):
    """Invalid rectangle or permutivity dimensions."""


class NotECA(LeftexError):
    """A binary radius-1 rule was required."""


class ZeroNotQuiescent(LeftexError):
    """The rule does not map the all-zero neighborhood to zero."""


class InsufficientHorizon(LeftexError):
    """A scan horizon is too short to support the requested check."""


class PrefixTooShort(LeftexError):
    """A sequence prefix is shorter than the requested factor length."""


class PaletteIncomplete(LeftexError):
    """A gray palette does not cover every symbol of the alphabet."""


class ParseError(LeftexError):
    """Malformed textual input.  Carries a 1-based line and column."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column
