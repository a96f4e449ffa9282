"""Exception hierarchy shared by the whole package."""


def int_text(value: int) -> str:
    """`str(value)` for an error's note, or the value's sign and size in bits
    where the interpreter's int-to-str digit limit, lifted by `cli.main`
    alone, refuses it: a note never fails to format."""
    try:
        return str(value)
    except ValueError:
        return f"{'-' if value < 0 else ''}<int of {value.bit_length()} bits>"


class GrepunitError(Exception):
    """Base class for every error raised by this package."""


class InvalidParametersError(GrepunitError, ValueError):
    """The triple (a, b, n) does not define a numerical semigroup."""


class InvalidBaseError(InvalidParametersError):
    """Base b is out of range (b must be at least 2)."""

    def __init__(self, b):
        self.b = b
        super().__init__(f"base b must be >= 2, got {int_text(b)}")


class InvalidLengthError(InvalidParametersError):
    """Sequence length n is out of range (n must be at least 2)."""

    def __init__(self, n):
        self.n = n
        super().__init__(f"length n must be >= 2, got {int_text(n)}")


class InvalidShiftError(InvalidParametersError):
    """Shift coefficient a is out of range (a must be at least 1)."""

    def __init__(self, a):
        self.a = a
        super().__init__(f"shift a must be >= 1, got {int_text(a)}")


class NotCoprimeError(InvalidParametersError):
    """gcd of the repunit multiplicity and the shift is not 1."""

    def __init__(self, a, b, n, gcd):
        self.a, self.b, self.n = a, b, n
        self.gcd = gcd
        a, b, n, gcd = map(int_text, (a, b, n, gcd))
        super().__init__(
            f"gcd(repunit({b}, {n}), {a}) = {gcd}, must be 1 for "
            f"(a={a}, b={b}, n={n}) to generate a numerical semigroup"
        )


class NotNumericalSemigroupError(GrepunitError, ValueError):
    """A generating set whose gcd is not 1 (cofinite closure impossible)."""


class UnsupportedDimensionError(GrepunitError):
    """A closed-form construction does not apply to the triple: the
    lattice matrix needs n >= 3, and the recursive Apéry lift needs
    n >= 3 and a valid (a, b, n - 1)."""


class CapacityError(GrepunitError):
    """An Apéry enumeration or a membership sieve exceeded its configured cap."""


class RouteDisagreementError(GrepunitError, AssertionError):
    """Two independent routes to the same value disagree.

    Raised explicitly, so it survives `python -O`; an AssertionError too,
    so callers that caught the assertions it replaces still catch it.
    """
