"""Exception hierarchy shared by all pmlkit modules.

The CLI maps these onto stable exit codes: ``CapacityError`` and
``CapabilityError`` exit 3, every other ``PmlError`` exits 1.  Among the
latter, ``ParameterError`` refuses a closed-form family's missing,
non-numeric, non-finite or out-of-domain parameters.  An oracle that
disagrees with the pipeline is a report verdict (exit 2), not an error.
"""


class PmlError(Exception):
    """Base class for all pmlkit errors."""


class ValidationError(PmlError):
    """An input violates a documented invariant (e.g. row sum != 1)."""


class AlphabetMismatchError(ValidationError):
    """Two objects that must share an alphabet do not."""


class UnknownSymbolError(ValidationError):
    """A symbol lookup failed against an alphabet."""


class UnsupportedLawError(ValidationError):
    """A symbolic law descriptor names a family we cannot truncate."""


class ParameterError(ValidationError):
    """A closed-form family was given parameters outside its domain."""


class CapacityError(PmlError):
    """An enumeration would exceed its hard cap; never silently truncated."""


class CapabilityError(PmlError):
    """A requested check is not available for the given model family."""


class UndefinedOutcomeError(PmlError):
    """Density-based leakage queried at an outcome with zero marginal density."""
