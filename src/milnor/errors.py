"""Exception taxonomy shared across the package, and the validators that
raise it.

Everything raised on purpose derives from MilnorError, so callers (and the
CLI) can distinguish domain failures from genuine bugs. Validation errors
cover malformed mathematical input (wrong congruence class, non-orthonormal
basis); parameter errors cover out-of-range knobs (negative deformation
scale, missing truncation bound).

The layers check their arguments through four helpers kept here, next to
the exceptions they raise: require_int (a ParameterError unless the value
is an int and not a bool), require_count (the same, and the int must lie
in [1, cap]), require_label (a ValidationError unless it is an integer
label congruent to 1 mod 4) and as_fraction (the exact value of an int or
Fraction, None for anything else).
"""


class MilnorError(Exception):
    """Base class for all deliberate failures."""


class ParameterError(MilnorError, ValueError):
    """A numeric knob is outside its legal range."""


class ValidationError(MilnorError, ValueError):
    """Structured input fails a required identity or congruence."""


class DimensionMismatchError(MilnorError, ValueError):
    """Operands live in algebras of different sizes."""


class DegeneratePlaneError(MilnorError, ValueError):
    """Two vectors that were supposed to span a 2-plane do not."""


class NoFiniteMatchingError(MilnorError, ValueError):
    """No finite plateau level exists (deformation scale a <= 1)."""


class ProfileError(MilnorError, ValueError):
    """A warping profile violates one of its construction invariants."""


class OutOfRegimeError(MilnorError, ValueError):
    """The requested classification only makes sense for other parameters."""


def require_int(x, name):
    """Raise ParameterError unless x is an int (bool is not one)."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise ParameterError("{} must be an integer".format(name))


def require_count(x, name, cap):
    """Raise ParameterError unless x is an int (bool is not one) in
    [1, cap]."""
    require_int(x, name)
    if not 1 <= x <= cap:
        raise ParameterError(
            "{} must lie in [1, {}], got {}".format(name, cap, x))


def require_label(p, name):
    """Raise ValidationError unless p is an integer congruent to 1 mod 4."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise ValidationError("{} must be an integer".format(name))
    if p % 4 != 1:
        raise ValidationError(
            "{} must be congruent to 1 mod 4, got {}".format(name, p))


def as_fraction(x):
    """x as an exact Fraction when it is an int or a Fraction (bool is
    neither), otherwise None."""
    from fractions import Fraction  # the integer layers never load it

    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    return None
