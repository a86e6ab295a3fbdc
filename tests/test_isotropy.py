"""Orbit-type calculus: worked label tuples, the tabulated closed forms
against the canonical-solution route, and lift searches."""

import numpy as np
import pytest

from milnor import isotropy
from milnor.bundles import classify_pair
from milnor.errors import ParameterError, ValidationError
from milnor.isotropy import (
    BASE_TYPES,
    cor_47_families,
    find_almost_free_lift,
    hopf_family,
    oliver_obstruction,
    orbit_types,
    table_42,
    table_42_orders,
)

RNG = np.random.default_rng(8088)


def random_label(rng, bound=200):
    while True:
        p = int(rng.integers(-bound, bound))
        if p % 4 == 1:
            return p


def test_worked_orbit_type_sets():
    ts = orbit_types(5, -3, 1, 5)
    assert ts.sorted_labels() == ["1", "Z2", "D2", "D3", "D4"]
    assert ts.orders == (1, 4, 3, 2)
    ts2 = orbit_types(-7, 5, 5, -3)
    assert ts2.sorted_labels() == ["1", "Z2", "D2", "D4", "D6"]
    assert classify_pair(-7, 5, 5, -3) == (3, -2)


def test_orbit_types_asserts_the_order_parities():
    """Integers outside the label class trip each of _orbit_types' three
    assertions, on either side of the tuple."""
    for args in ((1, 2, 1, 1), (1, 1, 4, 1)):
        with pytest.raises(AssertionError, match="even sums and differences"):
            isotropy._orbit_types(*args)
    # even sums and differences, but the sum order (1 + 3)/2 = 2 is even
    for args in ((1, 3, 1, 1), (1, 1, 3, 1)):
        with pytest.raises(AssertionError, match="sum orders must be odd"):
            isotropy._orbit_types(*args)
    # sum orders 1, but the difference order (2 - 0)/2 = 1 is odd
    for args in ((2, 0, 1, 1), (1, 1, 2, 0)):
        with pytest.raises(AssertionError, match="difference orders must be even"):
            isotropy._orbit_types(*args)


def test_base_types_always_present():
    for _ in range(300):
        labels = [random_label(RNG) for _ in range(4)]
        ts = orbit_types(*labels)
        assert BASE_TYPES <= ts.types


def test_order_parity_and_almost_freeness():
    for _ in range(2000):
        p_minus, q_minus, p_plus, q_plus = (random_label(RNG) for _ in range(4))
        ts = orbit_types(p_minus, q_minus, p_plus, q_plus)
        sum_minus, diff_minus, sum_plus, diff_plus = ts.orders
        assert sum_minus % 2 == 1 and sum_plus % 2 == 1
        assert diff_minus % 2 == 0 and diff_plus % 2 == 0
        expected_free = p_minus != q_minus and p_plus != q_plus
        assert ts.almost_free == expected_free


def test_equal_labels_degenerate_to_circles():
    ts = orbit_types(5, 5, 5, 5)
    assert "SO(2)" in ts.types and "O(2)" in ts.types
    assert not ts.almost_free


def test_orbit_types_validates_labels():
    with pytest.raises(ValidationError):
        orbit_types(3, 1, 1, 1)
    with pytest.raises(ValidationError):
        orbit_types(5, -3, 1, 4)


def test_hopf_family_matches_direct_computation():
    for n in range(-20, 21):
        ts = hopf_family(n)
        direct = orbit_types(-3, 4 * n + 1, 1, 4 * n + 1)
        assert ts.types == direct.types
        want = {abs(2 * n - 1), abs(2 * n), abs(2 * n + 1), abs(2 * n + 2)}
        assert set(ts.orders) == want
        assert ts.almost_free == (n not in (0, -1))


def test_oliver_obstruction_on_the_hopf_family():
    assert oliver_obstruction(hopf_family(0)) == "not_applicable"
    assert oliver_obstruction(hopf_family(-1)) == "not_applicable"
    for n in (1, 2, -2):
        assert oliver_obstruction(hopf_family(n)) == "inconclusive"
    for n in (3, 4, 10, -3, -4, -10):
        assert oliver_obstruction(hopf_family(n)) == "extension_excluded"


def test_oliver_obstruction_checks_both_labels():
    assert oliver_obstruction(orbit_types(5, -3, 1, 5)) == "inconclusive"
    assert oliver_obstruction(orbit_types(5, 5, 1, 5)) == "not_applicable"


def test_table_42_closed_forms_match_the_canonical_route():
    """The printed parity-case order formulas and the route through
    canonical solutions must produce the same multiset of orders."""
    for k in range(-8, 9):
        for l in range(-8, 9):
            if l == 0:
                for n in range(-6, 7):
                    ts = table_42(k, l, n=n)
                    assert tuple(sorted(ts.orders)) == table_42_orders(k, l, n=n)
            else:
                ts = table_42(k, l)
                assert tuple(sorted(ts.orders)) == table_42_orders(k, l)


def test_table_42_l_zero_reproduces_the_hopf_family():
    for n in range(-10, 11):
        assert table_42(1, 0, n=n).types == hopf_family(n).types
    with pytest.raises(ParameterError):
        table_42(1, 0)


def test_table_42_worked_cells():
    assert table_42(3, -2).sorted_labels() == \
        ["1", "Z2", "D2", "D5", "SO(2)", "O(2)"]
    assert table_42(2, 2).sorted_labels() == ["1", "Z2", "D2", "D4"]
    assert sorted(table_42(3, 3).orders) == [2, 2, 3, 3]


def test_cor_47_families_agree_with_the_table():
    for k in range(-5, 6):
        for n in (-2, -1, 0, 1, 2):
            ts = cor_47_families(k, n)
            kp = k + 56 * n
            direct = table_42(kp, 1 - kp, n=0 if kp == 1 else None)
            assert ts.types == direct.types


def test_cor_47_worked_values():
    assert cor_47_families(2, 0).types == table_42(2, -1).types
    assert sorted(cor_47_families(3, 0).orders) == [0, 1, 2, 5]
    labels = cor_47_families(2, 1).sorted_labels()
    assert labels == ["1", "Z2", "D2", "D29", "D30", "D85", "D88"]


def test_find_almost_free_lift_powers_of_two_are_obstructed():
    for r in range(1, 7):
        assert find_almost_free_lift(2 ** r, -(2 ** r)) == []


def test_find_almost_free_lift_homotopy_spheres():
    for k in range(-30, 31):
        lifts = find_almost_free_lift(k, 1 - k, bound=260)
        assert lifts, k
        for tup in lifts[:2]:
            assert classify_pair(*tup) == (k, 1 - k)
            assert orbit_types(*tup).almost_free


def test_find_almost_free_lift_hopf_case():
    lifts = find_almost_free_lift(1, 0, bound=13)
    want = [(-3, 4 * n + 1, 1, 4 * n + 1) for n in (-3, -2, 1, 2, 3)]
    assert sorted(lifts) == sorted(want)
    swapped = find_almost_free_lift(0, 1, bound=13)
    assert all(q_minus == 1 and q_plus == -3
               for _, q_minus, _, q_plus in swapped)


def test_lift_results_are_sorted_and_classified():
    lifts = find_almost_free_lift(3, 2, bound=60)
    assert lifts == sorted(lifts)
    for tup in lifts:
        assert classify_pair(*tup) == (3, 2)
    assert (5, -3, 1, 5) in lifts


def test_lift_check_covers_every_returned_tuple(monkeypatch):
    calls = []

    def wrong_on_the_fourth(*tup):
        calls.append(tup)
        return (None, None) if len(calls) == 4 else classify_pair(*tup)

    monkeypatch.setattr(isotropy, "classify_pair", wrong_on_the_fourth)
    with pytest.raises(AssertionError, match="wrong pair"):
        find_almost_free_lift(1, 0, bound=13)
