"""Diffeomorphism and homeomorphism classification of the sphere families.

Covers three calculations that are pure residue arithmetic: the oriented
diffeomorphism class of the unit-Euler-number 3-sphere bundles (the group
of homotopy 7-spheres is cyclic of order 28 and a sign flip is an
orientation flip), the link spheres of the two-variable singularities in
odd dimensions, and the free-involution quotients in dimension 5.
"""

from collections import namedtuple

from .errors import OutOfRegimeError, ParameterError, require_int

#: Order of the group of oriented homotopy 7-spheres under connected sum.
SPHERE7_GROUP_ORDER = 28


def euler_number(k, l):
    """Euler number of the 3-sphere bundle with labels (k, l)."""
    require_int(k, "k")
    require_int(l, "l")
    return k + l


def is_homotopy_sphere(k, l):
    """The total space is homeomorphic to the 7-sphere iff |k + l| = 1."""
    return abs(euler_number(k, l)) == 1


def eells_kuiper(k):
    """Oriented diffeomorphism class k(k-1)/2 mod 28 of the unit-Euler-
    number member with labels (k, 1-k)."""
    require_int(k, "k")
    return (k * (k - 1) // 2) % SPHERE7_GROUP_ORDER


def orientation_fold(value):
    """Identify a class with its orientation reverse: v ~ 28 - v, reported
    by the representative in 0..14."""
    require_int(value, "value")
    v = value % SPHERE7_GROUP_ORDER
    return min(v, (SPHERE7_GROUP_ORDER - v) % SPHERE7_GROUP_ORDER)


def realized_classes():
    """The 16 residues mod 28 the family actually hits (k(k-1)/2 has
    period 56 in k, so scanning one period is exhaustive)."""
    return frozenset(eells_kuiper(k) for k in range(2 * SPHERE7_GROUP_ORDER))


def realized_folded_classes():
    """The 11 unoriented diffeomorphism types hit by the family."""
    return frozenset(orientation_fold(v) for v in realized_classes())


def diffeo_equiv(k, m):
    """Whether the unit-Euler-number members with labels k and m are
    oriented diffeomorphic.

    Computed twice: as the congruence k(k-1) = m(m-1) mod 56, and through
    the residue characterization (m = k or 1-k mod 7, and m = k or 1-k
    mod 8). The two must agree identically; any divergence is a bug, not
    an input problem.
    """
    require_int(k, "k")
    require_int(m, "m")
    direct = (k * (k - 1) - m * (m - 1)) % 56 == 0
    split = (m % 7 in (k % 7, (1 - k) % 7)) and (m % 8 in (k % 8, (1 - k) % 8))
    if direct != split:
        raise AssertionError(
            "the two equivalence characterizations disagree at ({}, {})".format(k, m))
    return direct


class BrieskornClass(namedtuple("BrieskornClass",
                                "n d dimension verdict exotic")):
    __slots__ = ()


def brieskorn_classify(n, d):
    """Smooth type of the (2n-1)-dimensional link of the two-variable
    singularity with exponents (d, 2, ..., 2).

    Only the sphere regime is in scope: n odd, d odd (both at least
    checked as integers, n >= 2). Then the link is homeomorphic to the
    sphere; d = +-1 mod 8 gives the standard smooth structure and
    d = +-3 mod 8 the Kervaire sphere, which is exotic exactly when n + 1
    is not a power of 2.
    """
    require_int(n, "n")
    require_int(d, "d")
    if n < 2:
        raise ParameterError("n must be at least 2")
    if d < 1:
        raise ParameterError("exponent d must be positive")
    if n % 2 == 0 or d % 2 == 0:
        raise OutOfRegimeError(
            "the sphere regime needs both n and d odd (got n={}, d={})".format(n, d))
    if d % 8 in (1, 7):
        verdict = "standard_sphere"
        exotic = False
    else:
        verdict = "kervaire_sphere"
        exotic = not _is_power_of_two(n + 1)
    return BrieskornClass(n=n, d=d, dimension=2 * n - 1,
                          verdict=verdict, exotic=exotic)


def _is_power_of_two(x):
    return x >= 1 and (x & (x - 1)) == 0


class InvolutionQuotientType(namedtuple(
        "InvolutionQuotientType",
        "d diffeo_residue homeo_residue exotic_candidate caveat")):
    __slots__ = ()


_RP5_CAVEAT = (
    "the count of oriented types assumes no orientation-reversing "
    "self-diffeomorphisms of the exotic quotients; none are known, so two "
    "of the exotic smooth structures could conceivably coincide")


def rp5_type(d):
    """Type of the free-involution quotient of the 5-dimensional link with
    odd exponent d: a homotopy real projective 5-space.

    Oriented diffeomorphism type is indexed by d mod 8 in {1, 3, 5, 7},
    homeomorphism type by d mod 8 up to sign ({1,7} standard, {3,5}
    twisted). The caveat field records why the four oriented types might
    a priori collapse.
    """
    require_int(d, "d")
    if d % 2 == 0:
        raise OutOfRegimeError("the involution only exists for odd d")
    if d < 1:
        raise ParameterError("exponent d must be positive")
    residue = d % 8
    homeo = residue if residue in (1, 3) else 8 - residue
    return InvolutionQuotientType(
        d=d, diffeo_residue=residue, homeo_residue=homeo,
        exotic_candidate=residue != 1, caveat=_RP5_CAVEAT)
