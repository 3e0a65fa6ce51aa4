"""Exception types shared across the package."""


class AssocArrayError(Exception):
    """Base class for every error this package raises on purpose."""


class DomainError(AssocArrayError):
    """An operand lies outside an algebra's carrier."""


class ConfigurationError(AssocArrayError):
    """A builtin algebra family was requested with unknown or malformed parameters."""


class ValidationError(AssocArrayError):
    """A structural invariant does not hold (bad key, bad table, bad graph)."""


class PreconditionError(AssocArrayError):
    """A caller-supplied value does not satisfy an operation's stated precondition."""


class InternalConsistencyError(AssocArrayError):
    """A cross-check that can only fail on an implementation bug failed."""
