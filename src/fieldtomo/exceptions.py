"""Error taxonomy shared by every module.

Three top-level families, each carrying the process exit code the CLI
returns for it as ``exit_code``:

* ``ConfigError``        -- bad user input (config file, flags)        -> exit 2
* ``ValidationError``    -- violated physics/data contract             -> exit 3
* ``ResolvabilityError`` -- spectral windows overlap on the grid       -> exit 4

Every error the package raises belongs to one of them.  Everything else
(genuine bugs) propagates as a normal traceback.
"""

from __future__ import annotations


class FieldTomoError(Exception):
    """Base class for all package-specific errors.  ``key`` names the bad
    input when known: a ``section.option`` for a `ConfigError`, else a field."""

    exit_code: int

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


class ConfigError(FieldTomoError):
    """Unusable configuration: unknown key, unparsable value, missing file."""

    exit_code = 2


class ValidationError(FieldTomoError):
    """A physical or structural contract was violated."""

    exit_code = 3


class CutoffError(ValidationError):
    """Fock-space cutoff too small for the requested object."""


class GridError(ValidationError):
    """Time or frequency grid does not satisfy the protocol's assumptions."""


class DegenerateBranchError(ValidationError):
    """Branch recombination attempted with a vanishing branch amplitude."""


class EstimationError(ValidationError):
    """A statistical estimate could not be formed (e.g. no peak above noise)."""


class IntegrationError(ValidationError):
    """Time evolution failed its accuracy guard (norm drift)."""


class ResolvabilityError(FieldTomoError):
    """Two spectral integration windows collide on the frequency grid."""

    exit_code = 4


def _shown(value) -> str:
    """``repr(value)`` for a refusal's message.  A value holding an integer
    longer than Python prints (``sys.get_int_max_str_digits()``, 4300 digits
    by default) is shown by its type, so the refusal is not lost to a
    ``ValueError`` from its own message."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"
