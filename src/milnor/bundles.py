"""Integer arithmetic of principal 3-sphere-type bundles over the 4-sphere.

The bundles in question are classified by integer labels congruent to
1 mod 4 attached to the two halves of a two-disc decomposition of the
base; a pair (p_-, p_+) determines the bundle with Euler number
k = (p_-^2 - p_+^2)/8, always an integer for labels in that congruence
class. The two-integer families carry a pair (k, l), with l read off a
second label pair through l = -(q_-^2 - q_+^2)/8. Everything here is
exact integer arithmetic.
"""

import math
from collections import namedtuple

from .errors import (ParameterError, ValidationError, require_int,
                     require_label)


def euler_class(p_minus, p_plus):
    """Euler number k = (p_-^2 - p_+^2)/8 of the label pair."""
    require_label(p_minus, "p_minus")
    require_label(p_plus, "p_plus")
    num = p_minus * p_minus - p_plus * p_plus
    if num % 8 != 0:
        raise ValidationError("label pair is not in the solvable class")
    return num // 8


#: solve_euler refuses |k| at or above this bound. Below it, Miller-Rabin
#: with the thirteen prime bases 2, 3, ..., 41 is a proven primality test
#: (Sorenson and Webster 2015); the bound itself is the least composite that
#: passes all thirteen. The slowest k below it are products of two primes
#: near 1.8e12: Pollard-Brent split five of them in 0.4-0.9 s each on a
#: 2-core Xeon host.
MAX_EULER = 3317044064679887385961981

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: The odd primes below _TRIAL_LIMIT are divided out before Pollard-Brent
#: is tried; what is left below _TRIAL_LIMIT ** 2 is then prime.
_TRIAL_LIMIT = 100
_SMALL_PRIMES = tuple(p for p in range(3, _TRIAL_LIMIT, 2)
                      if all(p % q for q in range(3, math.isqrt(p) + 1, 2)))


def _is_prime(n):
    """Deterministic Miller-Rabin, exact for n < MAX_EULER."""
    if n < 2:
        return False
    if n in _MR_BASES:
        return True
    if n % 2 == 0:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n, c):
    """A divisor of the odd composite n from Brent's cycle search on
    x -> x^2 + c mod n; n itself when this c fails."""
    y, r, q, g = 2, 1, 1, 1
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        done = 0
        while done < r and g == 1:
            ys = y
            for _ in range(min(128, r - done)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            done += 128
        r *= 2
    if g == n:
        # the batched product hit 0 mod n: retrace the last batch one step
        # at a time
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    return g


def _odd_divisors(n):
    """Sorted odd divisors of n != 0: trial division by the small odd
    primes, then Pollard-Brent with c = 1, 2, ... on each cofactor that
    Miller-Rabin finds composite."""
    n = abs(n)
    while n % 2 == 0:
        n //= 2
    exponents = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            exponents[p] = exponents.get(p, 0) + 1
            n //= p
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if m < _TRIAL_LIMIT ** 2 or _is_prime(m):
            exponents[m] = exponents.get(m, 0) + 1
            continue
        c, d = 1, m
        while d == m:
            d = _pollard_brent(m, c)
            c += 1
        pending += [d, m // d]
    divisors = [1]
    for p, e in exponents.items():
        divisors = [d * p ** i for d in divisors for i in range(e + 1)]
    return sorted(divisors)


#: Largest `bound` that solve_euler(0, bound) accepts. The k = 0 family is
#: listed in full, so the bound sets the size of the list; every caller in
#: the package passes at most a few hundred.
MAX_FAMILY_BOUND = 10 ** 6


def solve_euler(k, bound=None):
    """Every label pair (p_-, p_+), both congruent to 1 mod 4, with Euler
    number k.

    Writing p_- = 2m + n and p_+ = n - 2m turns the equation into
    k = n m with n odd, so the finite solution list for k != 0 comes from
    the odd divisors of k (both signs). These are read off the prime
    factorization of k: trial division by the odd primes below 100, then
    Pollard-Brent splitting with deterministic Miller-Rabin on each piece.
    That primality test is proven only below MAX_EULER, so |k| at or
    above it raises ParameterError. For k = 0 the solutions form the
    infinite family (p, p) and a bound on |p|, at most MAX_FAMILY_BOUND,
    is required. Results are sorted by (|p_-|, |p_+|, p_-, p_+), which
    reproduces printed solution lists. Every returned pair is checked
    against the equation before it is returned.
    """
    require_int(k, "k")
    if abs(k) >= MAX_EULER:
        raise ParameterError(
            "|k| must be below {} (the range where the primality test used "
            "to factor k is proven), got {}".format(MAX_EULER, k))
    if k == 0:
        if bound is None:
            raise ParameterError(
                "k = 0 has the infinite family (p, p); pass a bound on |p|")
        require_int(bound, "bound")
        if bound > MAX_FAMILY_BOUND:
            raise ParameterError(
                "bound must be at most {} for k = 0, got {}".format(
                    MAX_FAMILY_BOUND, bound))
        # sorted as built: for odd m = 1, 3, 5, ... exactly one of m, -m
        # is 1 mod 4
        sols = [(m, m) if m % 4 == 1 else (-m, -m)
                for m in range(1, bound + 1, 2)]
    else:
        found = set()
        for d in _odd_divisors(k):
            for n in (d, -d):
                m = k // n
                p_minus = 2 * m + n
                if p_minus % 4 == 1:
                    found.add((p_minus, n - 2 * m))
        sols = sorted(found, key=lambda pq: (abs(pq[0]), abs(pq[1]),
                                             pq[0], pq[1]))
    _check_solutions(sols, k)
    return sols


def _check_solutions(sols, k):
    """Raise AssertionError unless every pair is two labels, each 1 mod 4,
    with p_-^2 - p_+^2 = 8k."""
    eight_k = 8 * k
    for p_minus, p_plus in sols:
        if (p_minus % 4 != 1 or p_plus % 4 != 1
                or p_minus * p_minus - p_plus * p_plus != eight_k):
            raise AssertionError("solver produced a wrong pair")


def canonical_solution(k):
    """One distinguished solution of euler_class = k:
    (2k+1, -2k+1) for even k, (-k-2, -k+2) for k = 1 mod 4,
    (k+2, k-2) for k = 3 mod 4."""
    require_int(k, "k")
    if k % 2 == 0:
        pair = (2 * k + 1, -2 * k + 1)
    elif k % 4 == 1:
        pair = (-k - 2, -k + 2)
    else:
        pair = (k + 2, k - 2)
    if euler_class(*pair) != k:
        raise AssertionError("canonical pair fails its own equation")
    return pair


def second_label(q_minus, q_plus):
    """The second integer l = -(q_-^2 - q_+^2)/8 of a two-parameter family.

    The sign convention is fixed so that the tabulated orbit-type formulas
    come out right when the q-labels are fed through canonical_solution
    with the slots swapped: (q_+, q_-) = canonical_solution(l).
    """
    require_label(q_minus, "q_minus")
    require_label(q_plus, "q_plus")
    return euler_class(q_plus, q_minus)


def classify_pair(p_minus, q_minus, p_plus, q_plus):
    """(k, l) of the four-label tuple."""
    return (euler_class(p_minus, p_plus), second_label(q_minus, q_plus))


class MayerVietorisReport(namedtuple("MayerVietorisReport",
                                     "matrix det torsion_order")):
    """Difference map on degree-3 boundary cohomology for the two-disc
    decomposition, and the degree-4 torsion it generates."""
    __slots__ = ()


def mayer_vietoris_matrix(p_minus, p_plus):
    """Matrix ((-1, 1), (p_-^2, -p_+^2)) of the glueing difference map;
    its determinant is -8k, so the degree-4 torsion group of the total
    space has order |k| (free of rank 1 when k = 0)."""
    require_label(p_minus, "p_minus")
    require_label(p_plus, "p_plus")
    matrix = ((-1, 1), (p_minus * p_minus, -p_plus * p_plus))
    det = matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]
    if det % 8 != 0:
        raise AssertionError("determinant must be divisible by 8")
    torsion = abs(det) // 8
    if torsion != abs(euler_class(p_minus, p_plus)):
        raise AssertionError("torsion order disagrees with the Euler number")
    return MayerVietorisReport(matrix=matrix, det=det, torsion_order=torsion)


#: Residues mod 12 realized by k(k+1)/2; exactly these classify the unit
#: second-label total spaces.
TOTAL_SPACE_RESIDUES = frozenset({0, 1, 3, 4, 6, 7, 9, 10})


def s7_bundle_class(k):
    """Residue k(k+1)/2 mod 12 classifying the total space of the
    (k, 1)-family up to equivariant diffeomorphism."""
    require_int(k, "k")
    return (k * (k + 1) // 2) % 12


def s7_orientation_partner(residue):
    """Reversing orientation negates the residue mod 12."""
    require_int(residue, "residue")
    return (-residue) % 12


class CohomologyReport(namedtuple("CohomologyReport",
                                  "kind label groups ring_note notes")):
    __slots__ = ()

    def group(self, degree):
        for deg, desc in self.groups:
            if deg == degree:
                return desc
        return "0"


def _torsion_desc(order):
    order = abs(order)
    if order == 0:
        return "Z"
    if order == 1:
        return "0"
    return "Z/{}".format(order)


def cohomology_report(kind, k, l=None):
    """Integral cohomology of the four bundle families.

    kind is one of:
      'principal3'  total space of the principal 3-sphere bundle, label k
      'sphere2'     associated 2-sphere bundle, label k
      'sphere3'     3-sphere bundle of the pair (k, l)
      'principal33' principal product-of-3-spheres bundle of the pair (k, l)
    Only nonzero groups are listed, as (degree, description) pairs.
    """
    require_int(k, "k")
    if l is not None:
        require_int(l, "l")
    elif kind in ("sphere3", "principal33"):
        raise ParameterError("kind {!r} needs the second label l".format(kind))
    notes = []
    ring = ""
    if kind == "principal3":
        label = (k,)
        if k == 0:
            groups = ((0, "Z"), (3, "Z"), (4, "Z"), (7, "Z"))
            notes.append("trivial bundle: product of the 4-sphere and the 3-sphere")
        else:
            groups = tuple(g for g in
                           ((0, "Z"), (4, _torsion_desc(k)), (7, "Z"))
                           if g[1] != "0")
            if abs(k) == 1:
                notes.append("degree-4 torsion vanishes: homotopy 7-sphere")
            if abs(k) == 2:
                notes.append("unit tangent bundle of the 4-sphere")
        notes.append("sign-reversed label gives a diffeomorphic total space")
    elif kind == "sphere2":
        label = (k,)
        groups = ((0, "Z"), (2, "Z"), (4, "Z"), (6, "Z"))
        ring = "x^2 = {}y for generators x in degree 2, y in degree 4".format(k)
        if k == 0:
            notes.append("diffeomorphic to the product of the 2-sphere and the 4-sphere")
        if abs(k) == 1:
            notes.append("diffeomorphic to the complex projective 3-space")
        if abs(k) >= 2:
            notes.append("same groups as complex projective 3-space, "
                         "different ring")
        notes.append("sign-reversed label gives a diffeomorphic total space")
    elif kind == "sphere3":
        label = (k, l)
        e = k + l
        if e == 0:
            groups = ((0, "Z"), (3, "Z"), (4, "Z"), (7, "Z"))
        else:
            groups = tuple(g for g in
                           ((0, "Z"), (4, _torsion_desc(e)), (7, "Z"))
                           if g[1] != "0")
        notes.append("Euler number of the fibration: {}".format(e))
        notes.append("third homotopy group is cyclic of order {}".format(abs(e)))
        if abs(e) == 1:
            notes.append("homeomorphic to the 7-sphere")
    elif kind == "principal33":
        label = (k, l)
        g = math.gcd(k, l)
        if g == 0:
            groups = ((0, "Z"), (3, "Z^2"), (4, "Z"), (6, "Z"),
                      (7, "Z^2"), (10, "Z"))
            notes.append("trivial bundle: full product cohomology")
        else:
            groups = tuple(gr for gr in
                           ((0, "Z"), (3, "Z"), (4, _torsion_desc(g)),
                            (7, "Z"), (10, "Z"))
                           if gr[1] != "0")
            notes.append("degree-4 torsion order is gcd(k, l) = {}".format(g))
    else:
        raise ParameterError("unknown cohomology kind {!r}".format(kind))
    return CohomologyReport(kind=kind, label=label, groups=groups,
                            ring_note=ring, notes=tuple(notes))
