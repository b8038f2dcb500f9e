"""Exception types raised by the library, mapped to CLI exit codes."""


class ParseError(ValueError):
    """A gate file or JSON payload could not be parsed (CLI exit 1)."""


class ValidationError(ValueError):
    """Input violates a documented precondition: shape, unitarity,
    normalization, parameter domain, or an unknown catalog/edge name
    (CLI exit 2)."""


class NumericalError(RuntimeError):
    """A result broke its accuracy contract (CLI exit 3); a residual refused
    names its rows, the worst residual, the tolerance and its ``Tolerance`` field.
    numpy's linear-algebra errors propagate; the CLI maps them to exit 3 too."""


class ExtractionError(NumericalError):
    """Extracted canonical coordinates missed the gate's local invariants
    by more than ``invariant_tol``."""


class SchmidtNumberError(NumericalError):
    """Schmidt-coefficient counting returned 3 at every tolerance tried.

    Two-qubit gates cannot have three nonvanishing Schmidt coefficients,
    so a persistent count of 3 signals a numerical pathology.
    """
