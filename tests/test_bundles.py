"""Label arithmetic for the bundles: characteristic-class solving,
decomposition matrices, total-space classes, and cohomology."""

import math
import time

import numpy as np
import pytest

from milnor import bundles
from milnor.bundles import (
    MAX_EULER,
    MAX_FAMILY_BOUND,
    TOTAL_SPACE_RESIDUES,
    canonical_solution,
    classify_pair,
    cohomology_report,
    euler_class,
    mayer_vietoris_matrix,
    s7_bundle_class,
    s7_orientation_partner,
    second_label,
    solve_euler,
)
from milnor.errors import ParameterError, ValidationError

RNG = np.random.default_rng(3141)


def brute_force_solutions(k, slack=0):
    """Windowed scan oracle: any solution has |p| <= 2|k| + 1 because the
    two squares are distinct odd squares differing by 8k (equal squares
    only happen at k = 0)."""
    window = 2 * abs(k) + 1 + slack
    out = set()
    for p_minus in range(-window, window + 1):
        if p_minus % 4 != 1:
            continue
        rhs = p_minus * p_minus - 8 * k
        if rhs < 0:
            continue
        root = math.isqrt(rhs)
        if root * root != rhs:
            continue
        for p_plus in {root, -root}:
            if p_plus % 4 == 1:
                out.add((p_minus, p_plus))
    return sorted(out, key=lambda s: (abs(s[0]), abs(s[1]), s[0], s[1]))


def random_label(rng, bound=400):
    while True:
        p = int(rng.integers(-bound, bound))
        if p % 4 == 1:
            return p


def test_euler_class_worked_values():
    assert euler_class(5, -3) == 2
    assert euler_class(-3, 1) == 1
    assert euler_class(29, 1) == 105
    assert euler_class(1, 1) == 0
    with pytest.raises(ValidationError):
        euler_class(3, 1)
    with pytest.raises(ValidationError):
        euler_class(5, 0)


def test_solve_euler_small_worked_sets():
    assert solve_euler(1) == [(-3, 1)]
    assert solve_euler(2) == [(5, -3)]
    assert solve_euler(3) == [(5, 1), (-7, 5)]
    assert solve_euler(-2) == [(-3, 5)]
    assert solve_euler(-3) == [(1, 5), (5, -7)]


def test_solve_euler_k105_printed_list():
    assert solve_euler(105) == [
        (29, 1), (-31, -11), (37, -23), (41, 29),
        (-47, 37), (73, -67), (-107, -103), (-211, 209),
    ]


def test_solve_euler_matches_brute_force_window():
    for k in list(range(-80, 81)) + [105, -105, 256, 500]:
        if k == 0:
            continue
        assert solve_euler(k) == brute_force_solutions(k), k


def test_powers_of_two_have_unique_solutions():
    for t in range(0, 9):
        k = 2 ** t
        sols = solve_euler(k)
        assert len(sols) == 1
        p_minus, p_plus = sols[0]
        assert {abs(p_minus), abs(p_plus)} == {2 * k + 1, abs(2 * k - 1)}
        if k % 2 == 0:
            assert sols[0] == (2 * k + 1, 1 - 2 * k)


def test_zero_euler_number_family():
    assert solve_euler(0, bound=9) == [(1, 1), (-3, -3), (5, 5), (-7, -7), (9, 9)]
    with pytest.raises(ParameterError):
        solve_euler(0)


def test_zero_euler_number_family_bound_is_capped():
    """The k = 0 family is listed in full, so a bound past the cap is
    refused before any list is built; the message names the argument and
    the cap."""
    assert MAX_FAMILY_BOUND == 10 ** 6
    for bound in (MAX_FAMILY_BOUND + 1, 10 ** 12, 10 ** 100):
        with pytest.raises(ParameterError,
                           match=r"bound must be at most 1000000 for k = 0"):
            solve_euler(0, bound=bound)
    assert len(solve_euler(0, bound=10 ** 4)) == 5000
    assert solve_euler(7, bound=10 ** 12) == solve_euler(7)


def test_zero_euler_number_family_is_built_in_sorted_order():
    """The family comes out in order without a sort; it equals filtering
    [-bound, bound] for 1 mod 4 and sorting by (|p_-|, |p_+|, p_-, p_+)."""
    def filtered_and_sorted(bound):
        return sorted([(p, p) for p in range(-bound, bound + 1) if p % 4 == 1],
                      key=lambda pq: (abs(pq[0]), abs(pq[1]), pq[0], pq[1]))

    for bound in list(range(301)) + [-1, -5, MAX_FAMILY_BOUND]:
        assert solve_euler(0, bound=bound) == filtered_and_sorted(bound)


def trial_division_odd_divisors(n):
    """Reference: every odd d <= sqrt(|n|) that divides |n|, with its
    cofactor."""
    n = abs(n)
    while n % 2 == 0:
        n //= 2
    out = set()
    for d in range(1, math.isqrt(n) + 1, 2):
        if n % d == 0:
            out.update((d, n // d))
    return sorted(out)


def divisors_of_product(*primes):
    out = {1}
    for p in primes:
        out |= {d * p for d in out}
    return sorted(out)


def test_odd_divisors_match_trial_division():
    rng = np.random.default_rng(2718)
    seeded = [int(k) for k in rng.integers(1, 10 ** 6, size=3000)]
    for k in list(range(-10 ** 4, 0)) + list(range(1, 10 ** 4 + 1)) + seeded:
        assert bundles._odd_divisors(k) == trial_division_odd_divisors(k), k


#: Composites that fool weaker primality tests: Carmichael numbers (Fermat
#: pseudoprimes to every coprime base) and strong pseudoprimes to the bases
#: {2}, {2, 3, 5, 7}, the primes up to 23 and the primes up to 37.
PSEUDOPRIMES = {
    561: (3, 11, 17),
    41041: (7, 11, 13, 41),
    2047: (23, 89),
    3215031751: (151, 751, 28351),
    3825123056546413051: (149491, 747451, 34233211),
    318665857834031151167461: (399165290221, 798330580441),
}


def test_miller_rabin_rejects_pseudoprimes_and_keeps_primes():
    for n, primes in PSEUDOPRIMES.items():
        assert math.prod(primes) == n
        assert not bundles._is_prime(n), n
    primes = [2, 3, 5, 41, 43, 1000003, 10000000019, 10000100003]
    assert all(trial_division_odd_divisors(p) in ([1], [1, p]) for p in primes)
    assert all(bundles._is_prime(p) for p in primes)
    assert not any(bundles._is_prime(n) for n in (0, 1, 4, 9, 1000003 ** 2))


def test_odd_divisors_of_pseudoprimes_powers_and_even_numbers():
    for n, primes in PSEUDOPRIMES.items():
        assert all(trial_division_odd_divisors(p) == [1, p] for p in primes)
        assert bundles._odd_divisors(n) == divisors_of_product(*primes), n
    p = 10 ** 6 + 3
    assert bundles._odd_divisors(p * p) == [1, p, p * p]
    assert bundles._odd_divisors(3 ** 40) == [3 ** i for i in range(41)]
    assert bundles._odd_divisors(-(2 ** 40) * 105) == [1, 3, 5, 7, 15, 21,
                                                        35, 105]
    assert bundles._odd_divisors(2 ** 40) == [1]
    # many divisors, grown one prime power at a time: 2 * 3 * 5 * ... * 31
    # has ten odd primes, and 3^4 5^2 7 101^2 mixed exponents
    for n, count in ((200560490130, 1024), (3 ** 4 * 5 ** 2 * 7 * 101 ** 2, 90)):
        divisors = bundles._odd_divisors(n)
        assert len(divisors) == count
        assert divisors == trial_division_odd_divisors(n), n


def test_solve_euler_splits_a_semiprime_near_1e20():
    """Two primes near 10^10: out of reach of trial division, about 10^5
    Pollard-Brent steps. The wall bound is loose so that a slow host
    cannot make the test flaky."""
    p, q = 10000000019, 10000100003
    start = time.perf_counter()
    sols = solve_euler(p * q)
    prime = solve_euler(10 ** 20 + 39)
    assert time.perf_counter() - start < 5.0
    assert bundles._odd_divisors(p * q) == [1, p, q, p * q]
    assert len(sols) == 4 and len(prime) == 2
    for k, pairs in ((p * q, sols), (10 ** 20 + 39, prime)):
        assert all(pm * pm - pp * pp == 8 * k for pm, pp in pairs)


def test_solve_euler_rechecks_every_pair(monkeypatch):
    """11 does not divide 105, but it yields the labels (29, -7), which
    the re-check must refuse."""
    monkeypatch.setattr(bundles, "_odd_divisors", lambda n: [1, 11])
    with pytest.raises(AssertionError, match="wrong pair"):
        solve_euler(105)
    with pytest.raises(AssertionError, match="wrong pair"):
        bundles._check_solutions([(1, 1), (-3, -3), (5, 1)], 0)
    with pytest.raises(AssertionError, match="wrong pair"):
        bundles._check_solutions([(3, 3)], 0)


def test_solve_euler_refuses_k_outside_the_proven_range():
    """MAX_EULER is the least composite that Miller-Rabin with the bases
    2, ..., 41 calls prime, so the factorizer stops below it."""
    assert MAX_EULER == 3317044064679887385961981
    assert math.prod((1287836182261, 2575672364521)) == MAX_EULER
    assert bundles._is_prime(MAX_EULER)
    for k in (MAX_EULER, -MAX_EULER, 10 ** 30):
        with pytest.raises(ParameterError,
                           match="must be below 3317044064679887385961981"):
            solve_euler(k)
    assert len(solve_euler(MAX_EULER - 1)) == 80
    assert len(solve_euler(1 - MAX_EULER)) == 80


def test_solutions_flip_with_orientation():
    for k in range(1, 40):
        swapped = sorted(((q, p) for p, q in solve_euler(k)),
                         key=lambda s: (abs(s[0]), abs(s[1]), s[0], s[1]))
        assert solve_euler(-k) == swapped


def test_canonical_solution_branches():
    assert canonical_solution(1) == (-3, 1)
    assert canonical_solution(2) == (5, -3)
    assert canonical_solution(3) == (5, 1)
    assert canonical_solution(0) == (1, 1)
    for k in range(-30, 31):
        sol = canonical_solution(k)
        assert euler_class(*sol) == k
        if k != 0:
            assert sol in solve_euler(k)


def test_second_label_and_pair_classification():
    assert second_label(-3, 5) == 2
    assert classify_pair(5, -3, 1, 5) == (3, 2)
    assert classify_pair(-7, 5, 5, -3) == (3, -2)
    for n in range(-6, 7):
        assert classify_pair(-3, 4 * n + 1, 1, 4 * n + 1) == (1, 0)


def test_mayer_vietoris_determinant_tracks_euler_class():
    for _ in range(2000):
        p_minus = random_label(RNG)
        p_plus = random_label(RNG)
        rep = mayer_vietoris_matrix(p_minus, p_plus)
        k = euler_class(p_minus, p_plus)
        assert rep.det == -8 * k
        assert rep.torsion_order == abs(k)
        mat = np.array(rep.matrix)
        assert mat.shape == (2, 2)
        assert round(float(np.linalg.det(mat))) == rep.det


def test_mayer_vietoris_worked_values():
    assert mayer_vietoris_matrix(5, 1).det == -24
    assert mayer_vietoris_matrix(5, 1).torsion_order == 3
    assert mayer_vietoris_matrix(-3, 1).det == -8
    assert mayer_vietoris_matrix(9, 9).det == 0
    assert mayer_vietoris_matrix(9, 9).torsion_order == 0


def test_s7_class_arithmetic():
    image = {s7_bundle_class(k) for k in range(-200, 201)}
    assert image == set(TOTAL_SPACE_RESIDUES)
    for k in range(-50, 51):
        assert s7_bundle_class(k) == s7_bundle_class(k + 24)
        assert s7_bundle_class(k) == s7_bundle_class(-k - 1)
    # residues outside the achievable set pair with achievable ones under
    # orientation reversal
    complement = set(range(12)) - set(TOTAL_SPACE_RESIDUES)
    assert complement == {2, 5, 8, 11}
    assert {s7_orientation_partner(r) for r in complement} == {10, 7, 4, 1}
    # unoriented count: 3 and 9 merge, every other achievable residue is
    # its own class, leaving seven
    folded = {frozenset({r, s7_orientation_partner(r)} & set(TOTAL_SPACE_RESIDUES))
              for r in TOTAL_SPACE_RESIDUES}
    assert len(folded) == 7


def test_cohomology_principal3():
    rep = cohomology_report("principal3", 4)
    assert rep.group(4) == "Z/4"
    assert rep.group(0) == "Z" and rep.group(7) == "Z"
    rep0 = cohomology_report("principal3", 0)
    assert rep0.group(3) == "Z" and rep0.group(4) == "Z"
    assert any("7-sphere" in n for n in cohomology_report("principal3", 1).notes)
    assert any("unit tangent" in n for n in cohomology_report("principal3", 2).notes)


def test_cohomology_sphere2():
    rep = cohomology_report("sphere2", 3)
    assert rep.group(2) == "Z" and rep.group(4) == "Z" and rep.group(6) == "Z"
    assert "x^2 = 3" in rep.ring_note
    assert any("product" in n for n in cohomology_report("sphere2", 0).notes)
    assert any("complex projective" in n
               for n in cohomology_report("sphere2", -1).notes)


def test_cohomology_sphere3():
    rep = cohomology_report("sphere3", 3, l=-2)
    assert any("7-sphere" in n for n in rep.notes)
    rep2 = cohomology_report("sphere3", 2, l=3)
    assert rep2.group(4) == "Z/5"
    with pytest.raises(ParameterError):
        cohomology_report("sphere3", 2)


def test_cohomology_principal33():
    rep = cohomology_report("principal33", 2, l=4)
    assert rep.group(4) == "Z/2"
    assert rep.group(3) == "Z" and rep.group(10) == "Z"
    rep0 = cohomology_report("principal33", 0, l=0)
    assert rep0.group(3) == "Z^2"
    with pytest.raises(ParameterError):
        cohomology_report("nonsense", 1)
