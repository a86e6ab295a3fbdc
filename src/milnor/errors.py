"""Exception taxonomy shared across the package, and the validators that
raise it.

Everything raised on purpose derives from MilnorError, so callers (and the
CLI) can distinguish domain failures from genuine bugs. Validation errors
cover malformed mathematical input (wrong congruence class, non-orthonormal
basis); parameter errors cover out-of-range knobs (negative deformation
scale, missing truncation bound).

The layers check their arguments through six helpers kept here, next to
the exceptions they raise: require_int (a ParameterError unless the value
is an int and not a bool), require_count (one unless it is an int in
[1, cap]), require_seed (one unless it is an int of at least 0),
require_label (a ValidationError unless it is an integer label
congruent to 1 mod 4), exact_real and disc_radius. Every scale, radius
and lam a caller passes is read once, by exact_real, as the Fraction it
holds: a float 1.05 is the binary number it stores, and the CLI reads
the text "1.05" as 21/20. Only then do the layers compare or round it. A
grid step is read the same way unless it is a finite float, which the
layers compare exactly as it is. A profile's radius t is a float, read
once by disc_radius.
"""

import functools
import math


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


def require_seed(seed):
    """Raise ParameterError unless seed is a non-negative int, the seeds
    numpy's default_rng takes; None, which would draw fresh entropy, is
    not one."""
    require_int(seed, "seed")
    if seed < 0:
        raise ParameterError("seed must be non-negative, got {}".format(seed))


def require_label(p, name):
    """Raise ValidationError unless p is an integer congruent to 1 mod 4."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise ValidationError("{} must be an integer".format(name))
    if p % 4 != 1:
        raise ValidationError(
            "{} must be congruent to 1 mod 4, got {}".format(name, p))


@functools.cache
def _exact_types():
    """Fraction and numbers.Integral, imported on the first exact read:
    the integer layers never load fractions."""
    from fractions import Fraction
    from numbers import Integral  # loaded already by fractions

    return Fraction, Integral


def exact_real(x, name):
    """The exact value of the finite real number x, as a Fraction.

    A Fraction is returned as it is, a subclass of it, an int or a numpy
    integer as the Fraction of its value, and a float, a numpy float or a
    Decimal as the number it holds (so 0.1 is
    3602879701896397/36028797018963968). So type() of the result is
    Fraction, and the layers build exact values of its integers with it.
    Raise ParameterError for anything else: a bool (float() reads True as
    1), a str or bytes, None, a complex number, NaN or an infinity."""
    Fraction, Integral = _exact_types()
    if type(x) is Fraction:
        return x
    if not isinstance(x, bool):
        if isinstance(x, Integral):
            return Fraction(int(x))
        try:
            return Fraction(*x.as_integer_ratio())
        except (AttributeError, ValueError, OverflowError):
            pass  # no ratio (str, None, complex, np.True_), NaN, infinite
    raise ParameterError(
        "{} must be a finite real number, got {!r}".format(name, x))


def disc_radius(t):
    """The float of t, a radius on a profile's disc: a real number of at
    least 0 whose float is finite. A float is taken as it is; anything
    else is read by exact_real, compared with 0 exactly and then rounded.
    Raise ParameterError for anything else: NaN, an infinity, a negative
    number, one past the floats, and whatever exact_real refuses."""
    if isinstance(t, float) and 0.0 <= t < math.inf:
        return float(t)
    exact = exact_real(t, "radius t")
    if exact.numerator < 0:
        raise ParameterError("radius t must be at least 0, got {!r}".format(t))
    try:
        return float(exact)
    except OverflowError:
        raise ParameterError(
            "radius t must have a finite float, got {!r}".format(t)) from None
