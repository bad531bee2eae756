"""Exception hierarchy shared by all rackcover modules.

Errors split into three families that the CLI maps to exit codes:
input/validation problems (exit 1), resource bounds (exit 2), and
violated internal self-checks (exit 3).
"""

from contextlib import contextmanager


class RackcoverError(Exception):
    """Base class for all library errors."""


class ValidationError(RackcoverError):
    """Bad input data: broken axioms, malformed files, unknown names."""


@contextmanager
def malformed(kind: str):
    """Turn a missing key, or a value of the wrong type or shape, met while
    reading a `kind` file into a one-line ValidationError."""
    try:
        yield
    except KeyError as exc:
        raise ValidationError(f"{kind} file lacks the key {exc}") from None
    except (LookupError, TypeError, ValueError, AttributeError,
            ZeroDivisionError) as exc:
        raise ValidationError(f"malformed {kind} file: {exc}") from None


def require_int(value, message: str, **fields) -> int:
    """`value` when it is an int, else a ValidationError whose one line is
    `message` formatted with `value` and `fields`.  A bool is not taken
    for an int, nor is a float, even an integral one."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValidationError(message.format(value=value, **fields))


class BoundExceededError(RackcoverError):
    """A configured resource bound was hit; partial results may be attached."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class InternalCheckError(RackcoverError):
    """An internal cross-check failed; indicates a bug, never bad input."""


class NonSquareError(ValidationError):
    pass


class RackAxiomError(ValidationError):
    """A rack table violates an axiom; carries the witness tuple."""

    def __init__(self, axiom, witness):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"{axiom} violated at {witness}")


class UnknownNameError(ValidationError):
    pass


class RelatorFailsError(ValidationError):
    def __init__(self, index, relator=None):
        self.index = index
        self.relator = relator
        super().__init__(f"relator #{index} does not map to the identity")


class NotSurjectiveError(ValidationError):
    pass


class CosetLimitError(BoundExceededError):
    """Coset enumeration ran out of its coset budget."""

    def __init__(self, max_cosets, table_size):
        super().__init__(
            f"coset table exceeded {max_cosets} cosets (defined {table_size})"
        )
        self.max_cosets = max_cosets
        self.table_size = table_size


class YDDatumError(ValidationError):
    """Yetter-Drinfeld datum validation failure; .kind names the check."""

    def __init__(self, kind, witness=None):
        self.kind = kind
        self.witness = witness
        msg = kind if witness is None else f"{kind}: witness {witness}"
        super().__init__(msg)


class AxiomFailsError(InternalCheckError):
    def __init__(self, axiom, witness):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"Hopf axiom {axiom} fails at {witness}")
