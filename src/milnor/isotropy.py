"""Orbit-type arithmetic for the rotation actions on 3-sphere bundles.

The bundles come from a group diagram in a product of unit-quaternion
groups: each singular isotropy group is a circle whose slopes are the
labels, together with one flip coset, and the principal isotropy is the
diagonal quaternion group {+-1, +-i, +-j, +-k}. Only the labels enter the
arithmetic below, so everything here is exact integer arithmetic; no
floats.

Orbit types of the induced rotation action on the associated 3-sphere
bundle with labels (p_-, q_-, p_+, q_+), all congruent to 1 mod 4, are the
base types (1), (Z2), (D2) plus four dihedral types of order |p +- q|/2
per side, where order 0 degenerates to the circle types SO(2) + O(2) and
order 1 collapses into Z2. The congruence class makes the sum orders odd
and the difference orders even, which the code asserts.
"""

from collections import namedtuple

from .bundles import canonical_solution, classify_pair, solve_euler
from .errors import ParameterError, require_int, require_label

BASE_TYPES = frozenset({"1", "Z2", "D2"})


def canonical_type_labels(order):
    """Type labels for a dihedral order: 0 degenerates to the circle pair,
    1 is the two-element group, the rest are honest dihedral groups."""
    require_int(order, "order")
    if order < 0:
        raise ParameterError("orders are absolute values, got {}".format(order))
    if order == 0:
        return ("SO(2)", "O(2)")
    if order == 1:
        return ("Z2",)
    return ("D{}".format(order),)


_TYPE_RANK = {"1": (0, 0), "Z2": (1, 0), "SO(2)": (3, 0), "O(2)": (3, 1)}
_FIXED_TYPES = frozenset(_TYPE_RANK)


def _rank(label):
    """Sort rank of a type label: the base types 1 and Z2, the dihedral
    types by order, then the circle pair; the reference for
    OrbitTypeSet.sorted_labels."""
    if label in _TYPE_RANK:
        return _TYPE_RANK[label]
    return (2, int(label[1:]))


class OrbitTypeSet(namedtuple("OrbitTypeSet", "types orders")):
    """Orbit types as canonical labels plus the raw dihedral orders (the
    four numbers |p +- q|/2 before degeneration) they came from."""
    __slots__ = ()

    def sorted_labels(self):
        """The labels in _rank order, without parsing an order: the
        dihedral labels that _orbit_types writes carry a decimal order
        without leading zeros, so a lexical sort followed by a stable
        sort on length orders them numerically. They sit between the
        fixed labels 1, Z2 and SO(2), O(2)."""
        types = self.types
        dihedral = sorted(types - _FIXED_TYPES)
        dihedral.sort(key=len)
        out = ["1"] if "1" in types else []
        if "Z2" in types:
            out.append("Z2")
        out += dihedral
        if "SO(2)" in types:
            out.append("SO(2)")
        if "O(2)" in types:
            out.append("O(2)")
        return out

    @property
    def almost_free(self):
        return "SO(2)" not in self.types and "O(2)" not in self.types

    def dihedral_orders(self):
        """Orders of the honest dihedral members (D2 and up)."""
        return sorted(int(t[1:]) for t in self.types if t.startswith("D"))


def orbit_types(p_minus, q_minus, p_plus, q_plus):
    """Orbit types of the rotation action with the given label tuple."""
    for val, name in ((p_minus, "p_minus"), (q_minus, "q_minus"),
                      (p_plus, "p_plus"), (q_plus, "q_plus")):
        require_label(val, name)
    return _orbit_types(p_minus, q_minus, p_plus, q_plus)


def _orbit_types(p_minus, q_minus, p_plus, q_plus):
    """orbit_types without the label checks, for labels that are integers
    congruent to 1 mod 4 by construction; the order parities are still
    asserted."""
    s_minus, d_minus = p_minus + q_minus, p_minus - q_minus
    s_plus, d_plus = p_plus + q_plus, p_plus - q_plus
    if (s_minus | d_minus | s_plus | d_plus) & 1:
        raise AssertionError("labels in 1 mod 4 must have even sums and differences")
    orders = (abs(s_minus) >> 1, abs(d_minus) >> 1,
              abs(s_plus) >> 1, abs(d_plus) >> 1)
    if not orders[0] & orders[2] & 1:
        raise AssertionError("sum orders must be odd")
    if (orders[1] | orders[3]) & 1:
        raise AssertionError("difference orders must be even")
    # BASE_TYPES plus canonical_type_labels of each order; order 1 adds Z2,
    # already a base type
    labels = set(BASE_TYPES)
    for order in orders:
        if order > 1:
            labels.add("D" + str(order))
        elif order == 0:
            labels.add("SO(2)")
            labels.add("O(2)")
    return OrbitTypeSet(frozenset(labels), orders)


def oliver_obstruction(type_set):
    """Can the action on the boundary 7-sphere extend to the 8-disc?

    A fixed-point-free rotation action on the disc must exhibit
    three-element cyclic or order-6 dihedral isotropy on the boundary, and
    an almost free boundary action cannot acquire fixed points inside. So:
    'not_applicable' when the action is not almost free, 'inconclusive'
    when (Z3) or (D3) occurs among the types, otherwise
    'extension_excluded'. The label alphabet of these actions cannot
    produce a standalone Z3, so in practice the D3 test decides; both are
    scanned anyway.
    """
    if not type_set.almost_free:
        return "not_applicable"
    if "D3" in type_set.types or "Z3" in type_set.types:
        return "inconclusive"
    return "extension_excluded"


# -- tabulated closed forms ---------------------------------------------------


def table_42(k, l, n=None):
    """Orbit types of the distinguished representative action for the
    bundle pair (k, l): p-labels from canonical_solution(k), q-labels from
    canonical_solution(l) with the slots swapped. l = 0 is an n-indexed
    family ((q_-, q_+) = (4n+1, 4n+1)) and needs n."""
    p_minus, p_plus = canonical_solution(k)
    require_int(l, "l")
    if l == 0:
        if n is None:
            raise ParameterError("l = 0 is an n-indexed family; pass n")
        require_int(n, "n")
        q_minus = q_plus = 4 * n + 1
    else:
        q_plus, q_minus = canonical_solution(l)
    # canonical_solution checks its pairs against the equation, and 4n + 1
    # is a label by construction
    return _orbit_types(p_minus, q_minus, p_plus, q_plus)


def table_42_orders(k, l, n=None):
    """The same four dihedral orders from the printed closed forms
    (independent of the canonical-solution route; used to cross-check it).
    Returned sorted as a multiset."""
    require_int(k, "k")
    require_int(l, "l")
    if l == 0:
        if n is None:
            raise ParameterError("l = 0 is an n-indexed family; pass n")
        require_int(n, "n")
        if k % 2 == 0:
            orders = (abs(2 * n + 1 + k), abs(2 * n + 1 - k),
                      abs(2 * n + k), abs(2 * n - k))
        else:
            orders = (abs(4 * n + 3 + k) // 2, abs(4 * n + 3 - k) // 2,
                      abs(4 * n - 1 + k) // 2, abs(4 * n - 1 - k) // 2)
    elif k % 2 == 0 and l % 2 == 0:
        orders = (abs(k + l), abs(k + l), abs(k - l + 1), abs(k - l - 1))
    elif k % 2 == 0:
        orders = (abs(2 * k + l + 1) // 2, abs(2 * k + l - 1) // 2,
                  abs(2 * k - l + 3) // 2, abs(2 * k - l - 3) // 2)
    elif l % 2 == 0:
        orders = (abs(k + 2 * l + 1) // 2, abs(k + 2 * l - 1) // 2,
                  abs(k - 2 * l + 3) // 2, abs(k - 2 * l - 3) // 2)
    else:
        orders = (abs(k + l) // 2, abs(k + l) // 2,
                  abs(k - l + 4) // 2, abs(k - l - 4) // 2)
    return tuple(sorted(orders))


def hopf_family(n):
    """Rotation actions on the total space of the quaternionic Hopf
    fibration, one per integer n: label tuple (-3, 4n+1, 1, 4n+1), orbit
    types (1), (Z2), (D2) plus D|2n-1|, D|2n|, D|2n+1|, D|2n+2| after
    degeneration. Almost free iff n not in {0, -1}."""
    require_int(n, "n")
    ts = _orbit_types(-3, 4 * n + 1, 1, 4 * n + 1)
    expected = tuple(sorted((abs(2 * n - 1), abs(2 * n),
                             abs(2 * n + 1), abs(2 * n + 2))))
    if tuple(sorted(ts.orders)) != expected:
        raise AssertionError("family orders drifted from the closed form")
    return ts


def cor_47_families(k, n):
    """Actions on the unit-Euler-number member (k, 1-k) shifted along the
    diffeomorphism period: the label pair (k + 56n, 1 - k - 56n) names the
    same smooth manifold for every n. Returns the orbit types and checks
    them against the period-shift closed forms: orders |k'+1 +- 1|/2 and
    |3k'-1 +- 3|/2 for even k, |k'-2 +- 1|/2 and |3k'-2 +- 3|/2 for odd k,
    with k' = k + 56n."""
    require_int(k, "k")
    require_int(n, "n")
    kp = k + 56 * n
    # kp = 1 lands on the l = 0 family; its distinguished member is the
    # canonical q-pair (1, 1), the index-0 slot.
    ts = table_42(kp, 1 - kp, n=0 if kp == 1 else None)
    if k % 2 == 0:
        closed = (abs(kp + 2) // 2, abs(kp) // 2,
                  abs(3 * kp + 2) // 2, abs(3 * kp - 4) // 2)
    else:
        closed = (abs(kp - 1) // 2, abs(kp - 3) // 2,
                  abs(3 * kp + 1) // 2, abs(3 * kp - 5) // 2)
    if tuple(sorted(closed)) != tuple(sorted(ts.orders)):
        raise AssertionError(
            "closed forms disagree with the canonical route at (k={}, n={})".format(k, n))
    return ts


def find_almost_free_lift(k, l, bound=None):
    """All label tuples (p_-, q_-, p_+, q_+) classifying to (k, l) whose
    action is almost free (p_- != q_- and p_+ != q_+, killing the circle
    types). Sorted lexicographically.

    When k or l is 0 that side is the infinite family (p, p) and the
    search window on |p| is `bound`, by default 101. The default is wide
    enough that the finitely many labels on the other side can never
    exclude the whole window: each pair there rules out at most two
    family members."""
    require_int(k, "k")
    require_int(l, "l")
    window = bound
    if window is None and (k == 0 or l == 0):
        window = 101
    p_solutions = solve_euler(k, window)
    q_solutions = solve_euler(-l, window)
    out = []
    for p_minus, p_plus in p_solutions:
        for q_minus, q_plus in q_solutions:
            if p_minus != q_minus and p_plus != q_plus:
                out.append((p_minus, q_minus, p_plus, q_plus))
    for tup in out:
        if classify_pair(*tup) != (k, l):
            raise AssertionError("lift classifies to the wrong pair")
    return sorted(out)
