"""Reference arithmetic the benchmark checks milnor's outputs against.

Nothing here imports milnor. Where the library enumerates divisors by
trial division, this module factors with Miller-Rabin and Pollard-Brent;
where the library reaches Table 4.2 through canonical labels, this module
uses the printed closed forms; small Euler numbers are also checked by a
plain scan over all labels.
"""

import math
import random

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n):
    n = max(n, 2)
    while not is_prime(n):
        n += 1
    return n


def _pollard_brent(n, rng):
    if n % 2 == 0:
        return 2
    while True:
        y, c, m = rng.randrange(1, n), rng.randrange(1, n), 128
        g, r, q = 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n):
    """Prime factorization of |n| as {prime: exponent}."""
    n = abs(n)
    out = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    rng = random.Random(12345)
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_brent(m, rng)
        stack += [d, m // d]
    return out


def odd_divisors(n):
    divs = [1]
    for p, e in factorize(n).items():
        if p == 2:
            continue
        divs = [d * p ** i for d in divs for i in range(e + 1)]
    return divs


def euler(p_minus, p_plus):
    """(p_-^2 - p_+^2)/8 for labels = 1 mod 4, or None off the lattice."""
    if p_minus % 4 != 1 or p_plus % 4 != 1:
        return None
    num = p_minus * p_minus - p_plus * p_plus
    return num // 8 if num % 8 == 0 else None


def euler_solutions(k):
    """All label pairs with Euler number k != 0, from the factorization:
    with p_- = 2m + n and p_+ = n - 2m the equation reads k = nm, n odd."""
    out = set()
    for d in odd_divisors(k):
        for n in (d, -d):
            m = k // n
            if (2 * m + n) % 4 == 1:
                out.add((2 * m + n, n - 2 * m))
    return out


def euler_solutions_scan(k):
    """The same set by scanning every label with |p_-| <= 2|k| + 1."""
    bound = 2 * abs(k) + 1
    start = -bound + (1 + bound) % 4
    out = set()
    for p_minus in range(start, bound + 1, 4):
        rhs = p_minus * p_minus - 8 * k
        if rhs < 0:
            continue
        root = math.isqrt(rhs)
        if root * root != rhs:
            continue
        for p_plus in (root, -root):
            if p_plus % 4 == 1:
                out.add((p_minus, p_plus))
    return out


def type_labels(orders):
    """Orbit-type labels of the four dihedral orders plus the base types."""
    labels = {"1", "Z2", "D2"}
    for m in orders:
        if m == 0:
            labels |= {"SO(2)", "O(2)"}
        elif m == 1:
            labels.add("Z2")
        else:
            labels.add("D{}".format(m))
    return labels


def label_orders(p_minus, q_minus, p_plus, q_plus):
    return (abs(p_minus + q_minus) // 2, abs(p_minus - q_minus) // 2,
            abs(p_plus + q_plus) // 2, abs(p_plus - q_plus) // 2)


def table42_orders(k, l, n=None):
    """The printed Table 4.2 cells, one closed form per parity case."""
    if l == 0:
        if k % 2 == 0:
            orders = (2 * n + 1 + k, 2 * n + 1 - k, 2 * n + k, 2 * n - k)
            return sorted(abs(o) for o in orders)
        orders = (4 * n + 3 + k, 4 * n + 3 - k, 4 * n - 1 + k, 4 * n - 1 - k)
    elif k % 2 == 0 and l % 2 == 0:
        return sorted((abs(k + l), abs(k + l), abs(k - l + 1), abs(k - l - 1)))
    elif k % 2 == 1 and l % 2 == 0:
        orders = (k + 2 * l + 1, k + 2 * l - 1, k - 2 * l + 3, k - 2 * l - 3)
    elif k % 2 == 0:
        orders = (2 * k + l + 1, 2 * k + l - 1, 2 * k - l + 3, 2 * k - l - 3)
    else:
        orders = (k + l, k + l, k - l + 4, k - l - 4)
    return sorted(abs(o) // 2 for o in orders)


def boundary_class(k):
    """Oriented class of the unit-Euler member (k, 1-k) in Z/28."""
    return (k * (k - 1) // 2) % 28


def torsion_group(order):
    order = abs(order)
    return {0: "Z", 1: "0"}.get(order, "Z/{}".format(order))
