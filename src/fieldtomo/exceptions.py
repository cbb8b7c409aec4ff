"""Error taxonomy shared by every module.

Three top-level families, mapped to process exit codes by the CLI:

* ``ConfigError``        -- bad user input (config file, flags)        -> exit 2
* ``ValidationError``    -- violated physics/data contract             -> exit 3
* ``ResolvabilityError`` -- spectral windows overlap on the grid       -> exit 4

Everything else (genuine bugs) propagates as a normal traceback.
"""

from __future__ import annotations


class FieldTomoError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(FieldTomoError):
    """Unusable configuration: unknown key, unparsable value, missing file.

    ``key`` names the offending ``section.option`` when known.
    """

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


class ValidationError(FieldTomoError):
    """A physical or structural contract was violated."""


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


#: CLI exit codes, keyed by exception family.  Checked in order.
EXIT_CODES: tuple[tuple[type[FieldTomoError], int], ...] = (
    (ConfigError, 2),
    (ResolvabilityError, 4),
    (ValidationError, 3),
)


def exit_code_for(exc: BaseException) -> int:
    for cls, code in EXIT_CODES:
        if isinstance(exc, cls):
            return code
    return 1
