"""Exception hierarchy for the sympair toolkit, and its one integer rule.

Everything raised on purpose derives from :class:`SymPairError`, so callers
(and the CLI) can distinguish domain errors from genuine bugs.  Most errors
are also ValueError subclasses because they signal bad arguments.

Every integer argument of the public API, field elements included, is
checked by :func:`require_int`: an ``int`` that is not a ``bool``, within
an optional range, or a :class:`BadParameterError`.  A characteristic that
is an integer >= 2 but composite raises :class:`NotPrimeError`, which is a
``BadParameterError`` too.
"""

from __future__ import annotations


class SymPairError(Exception):
    """Base class for all toolkit errors."""


class FieldMismatchError(SymPairError, ValueError):
    """Operands belong to different fields."""


class DivisionByZeroError(SymPairError, ZeroDivisionError):
    """Field or polynomial division by zero."""


class NoSuchRootsError(SymPairError, ValueError):
    """Requested n-th roots of unity do not exist in the field (n does not divide q - 1)."""


class NoCubeRootError(SymPairError, ValueError):
    """GF(p) has no primitive cube root of unity (3 does not divide p - 1)."""


class NotCoprimeError(SymPairError, ValueError):
    """Arguments required to be coprime are not (e.g. code length vs field size)."""


class ZeroPolynomialError(SymPairError, ValueError):
    """The zero polynomial was passed where a nonzero one is required."""


class NotDivisorError(SymPairError, ValueError):
    """The candidate generator polynomial does not divide x^n - lambda."""


class NotUnionOfCosetsError(SymPairError, ValueError):
    """An exponent set is not closed under multiplication by q mod n."""


class LengthMismatchError(SymPairError, ValueError):
    """Vector length does not match the expected dimension or block length."""


class LengthTooShortError(SymPairError, ValueError):
    """Pair-metric operations need words of length at least 2."""


class DegenerateCodeError(SymPairError, ValueError):
    """Operation undefined for the zero code or the full space (k in {0, n})."""


class ZeroCodeError(SymPairError, ValueError):
    """Distance queries are undefined for the zero code (k = 0)."""


class NotRepeatedRootError(SymPairError, ValueError):
    """The code does not have the repeated-root cyclic shape n = l * p^e, l > 1, lambda = 1."""


class OutOfScopeError(SymPairError, ValueError):
    """Input is outside the supported range (e.g. field too large, d_H out of a bound's window)."""


class BadParameterError(SymPairError, ValueError):
    """A construction or query parameter violates its precondition."""


class NotPrimeError(BadParameterError):
    """A characteristic that must be prime is composite."""


class BudgetExceededError(SymPairError, RuntimeError):
    """A distance engine would exceed (or has exceeded) its work budget.

    Carries the best information proven before stopping: ``lower_bound`` is a
    sound lower bound on the queried distance, ``upper_bound`` the smallest
    witness weight seen (``None`` if none), and ``enumerated`` the work
    actually performed (encodings and column reductions).  Multi-code scans attach the entries they
    finished as ``partial``.
    """

    def __init__(self, message: str, *, lower_bound: int | None = None,
                 upper_bound: int | None = None, enumerated: int = 0,
                 partial: tuple = ()):
        super().__init__(message)
        self.lower_bound = lower_bound
        self.upper_bound = upper_bound
        self.enumerated = enumerated
        self.partial = partial


def require_int(value, name: str, least: int | None = None, most: int | None = None) -> int:
    """``value`` if it is an int, not a bool, in [least, most] (either end
    optional); raises BadParameterError naming ``name`` otherwise."""
    if (isinstance(value, int) and not isinstance(value, bool)
            and (least is None or value >= least) and (most is None or value <= most)):
        return value
    if most is None:
        want = "" if least is None else f" >= {least}"
    else:
        want = f" <= {most}" if least is None else f" in {least}..{most}"
    raise BadParameterError(f"{name} must be an integer{want}, got {value!r}")
