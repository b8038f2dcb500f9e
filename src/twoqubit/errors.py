"""Exception types raised by the library, mapped to CLI exit codes."""


class ParseError(ValueError):
    """A gate file or JSON payload could not be parsed (CLI exit 1)."""


class ValidationError(ValueError):
    """Input violates a documented precondition: shape, unitarity,
    normalization, parameter domain, or an unknown catalog/edge name
    (CLI exit 2)."""


class NumericalError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract
    (CLI exit 3)."""


class ExtractionError(NumericalError):
    """Extracted canonical coordinates missed the gate's local invariants;
    the message names the rows, the worst residual and the tolerance."""


class SchmidtNumberError(NumericalError):
    """Schmidt-coefficient counting returned 3 at every tolerance tried.

    Two-qubit gates cannot have three nonvanishing Schmidt coefficients,
    so a persistent count of 3 signals a numerical pathology.
    """
