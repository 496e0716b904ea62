"""Exception hierarchy shared by all psicalc modules, and the expansion
order bound that `expansions` and `discrete` both check."""

# The largest order an expansion accepts.  Order 10 000 takes well under a
# second for every kind on a small polynomial, while an order past the
# machine's index range would end in an OverflowError, and a huge one
# would run for ever.
MAX_ORDER = 10_000


class PsiCalcError(Exception):
    """Base class for all psicalc errors."""


class AdmissibilityError(PsiCalcError):
    """A sequence factor n_psi that must be nonzero turned out to be zero."""


class DomainError(PsiCalcError):
    """An argument is outside the domain an operation is defined on."""


class RangeError(PsiCalcError):
    """A lattice argument falls outside a table-backed function's range."""


class DegenerateParamsError(PsiCalcError):
    """Hahn parameters (q, h) = (1, 0) make the difference quotient 0/0."""


class ConvergenceError(PsiCalcError):
    """A truncated numeric series hit its term cap before the tail criterion."""


class InternalError(PsiCalcError):
    """An invariant that is a theorem failed; indicates a bug, not bad input."""


class ParseError(PsiCalcError):
    """Malformed expression text; carries the offset where parsing stopped."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


def _check_order(n: int) -> None:
    """Refuse an expansion order outside 0..MAX_ORDER before any work."""
    if n < 0:
        raise ValueError("expansion order must be nonnegative")
    if n > MAX_ORDER:
        raise DomainError(f"expansion order must be at most {MAX_ORDER}")
