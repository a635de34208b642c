"""Shared exception types."""


class FormatError(ValueError):
    """A text input (graph, cut, CNF, provenance) does not match its format."""


class CapExceededError(RuntimeError):
    """An exhaustive search was refused because the instance exceeds the size cap."""


class InvariantError(RuntimeError):
    """An internal consistency check failed, such as a witness that does not
    re-evaluate to the value it was returned for.  Raised explicitly, so the
    checks also run under ``python -O``."""
