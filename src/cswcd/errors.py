"""Exception types shared across the package, and the one format of a
magnitude in their messages."""


def format_magnitude(value: float) -> str:
    """A magnitude in a refusal message: six decimals below 1e6, and six
    significant digits in ``e`` form from there on, so that 1e300 takes 13
    characters, not 308."""
    return f"{value:.6f}" if value < 1e6 else f"{value:.6e}"


class DomainError(ValueError):
    """An argument left its mathematical domain (|z| too close to 1, alpha <= -1, ...)."""


class TruncationMismatchError(ValueError):
    """Two truncated series of different lengths were combined."""


class SingularityError(ValueError):
    """A linear fractional map was evaluated at (or built with) a pole in range."""


class UnboundedSymbolError(ValueError):
    """A matrix build was refused because no boundedness gate admitted the symbols."""


class NonFiniteError(ValueError):
    """A series or a matrix came out with a value that is not finite: a closed
    form overflowed, from inputs that are finite."""


class ConfigError(ValueError):
    """A run configuration failed validation.

    Carries the dotted path of the offending field so callers can report
    structured errors.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")
