"""Exception hierarchy for the levelnerve package.

Every error raised on purpose by the library derives from LevelNerveError,
so callers (and the CLI) can distinguish "the input is bad" from "the input
is fine but outside the implemented range" from genuine bugs, which the
internal self-checks (self_check) raise as a bare LevelNerveError.
"""


class LevelNerveError(Exception):
    """Base class for all deliberate levelnerve errors."""


class InvalidInputError(LevelNerveError, ValueError):
    """Malformed or out-of-contract input: bad modulus, non-word syntax,
    inconsistent signature, matrix not symplectic, and so on."""


class UnsupportedError(LevelNerveError, NotImplementedError):
    """Input is well-formed but outside the implemented desk-scale range,
    e.g. a stable-graph type with no catalog realization."""


class InvalidCoverError(InvalidInputError):
    """A covering specification is inconsistent: the boundary relation of a
    closed base does not die in the deck group, or generator images do not
    define a homomorphism where one is required."""


class ValidationError(LevelNerveError):
    """A structure fails one of its defining conditions.

    Carries the name of the first failed condition so tests and the CLI
    can report exactly what broke.
    """

    def __init__(self, condition: str, detail: str = ""):
        self.condition = condition
        self.detail = detail
        msg = condition if not detail else f"{condition}: {detail}"
        super().__init__(msg)


class ResourceLimitError(LevelNerveError):
    """An enumeration exceeded the configured memory or size bound."""


def self_check(cond, msg):
    """The internal consistency check, which no valid input can fail."""
    if not cond:
        raise LevelNerveError(f"self-check failed: {msg}")
