"""Property tests for the integer layer.

Hypothesis draws the inputs; every test runs derandomized on a small,
fixed example budget, so the suite stays deterministic and quick.
"""

import inspect
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from milnor import bundles, classify, isotropy
from milnor.errors import ParameterError, ValidationError

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None,
                         max_examples=60)

labels = st.integers(-10 ** 6, 10 ** 6).map(lambda t: 4 * t + 1)


def brute_force_solutions(k):
    """Every (p_-, p_+), both 1 mod 4, with p_-^2 - p_+^2 = 8k, k != 0.

    p_- - p_+ is a nonzero multiple of 4 and p_- + p_+ is 2 mod 4, and
    their product is 8k, so |p_-| <= 2|k| + 1: the scan is exhaustive."""
    out = []
    top = 2 * abs(k) + 1
    for p_minus in range(-top, top + 1):
        if p_minus % 4 != 1:
            continue
        rhs = p_minus * p_minus - 8 * k
        if rhs < 0:
            continue
        root = math.isqrt(rhs)
        if root * root == rhs:
            out += [(p_minus, p) for p in {root, -root} if p % 4 == 1]
    return sorted(out)


@DETERMINISTIC
@given(st.integers(-10 ** 18, 10 ** 18).filter(bool))
def test_solve_euler_round_trip(k):
    sols = bundles.solve_euler(k)
    assert sols
    assert len(set(sols)) == len(sols)
    assert sols == sorted(sols, key=lambda s: (abs(s[0]), abs(s[1]), s[0], s[1]))
    for p_minus, p_plus in sols:
        assert p_minus % 4 == 1 and p_plus % 4 == 1
        assert bundles.euler_class(p_minus, p_plus) == k
        assert p_minus * p_minus - p_plus * p_plus == 8 * k


@DETERMINISTIC
@given(st.integers(-10 ** 4, 10 ** 4).filter(bool))
def test_solve_euler_matches_brute_force(k):
    assert sorted(bundles.solve_euler(k)) == brute_force_solutions(k)


@DETERMINISTIC
@given(k=st.integers(-10 ** 6, 10 ** 6), j=st.integers(-10 ** 6, 10 ** 6),
       pick=st.integers(0, 55), periods=st.integers(-10 ** 4, 10 ** 4))
def test_diffeo_equiv_is_an_equivalence(k, j, pick, periods):
    assert classify.diffeo_equiv(k, k)
    assert classify.diffeo_equiv(k, j) == classify.diffeo_equiv(j, k)
    # a partner m of k, drawn from k's class in a two-period window and
    # moved by whole periods; transitivity both ways says k and m then
    # have the same partners
    partners = [m for m in range(k - 56, k + 56) if classify.diffeo_equiv(k, m)]
    m = partners[pick % len(partners)] + 56 * periods
    assert classify.diffeo_equiv(k, m) and classify.diffeo_equiv(m, k)
    for x in range(k - 56, k + 56):
        assert classify.diffeo_equiv(k, x) == classify.diffeo_equiv(m, x)


@DETERMINISTIC
@given(labels, labels, labels, labels)
def test_orbit_type_order_parities(p_minus, q_minus, p_plus, q_plus):
    orders = isotropy.orbit_types(p_minus, q_minus, p_plus, q_plus).orders
    assert orders == (abs(p_minus + q_minus) // 2, abs(p_minus - q_minus) // 2,
                      abs(p_plus + q_plus) // 2, abs(p_plus - q_plus) // 2)
    assert orders[0] % 2 == 1 and orders[2] % 2 == 1
    assert orders[1] % 2 == 0 and orders[3] % 2 == 0


@DETERMINISTIC
@given(k=st.integers(-10 ** 6, 10 ** 6).filter(bool),
       l=st.one_of(st.just(0), st.integers(-10 ** 6, 10 ** 6).filter(bool)),
       n=st.integers(-10 ** 4, 10 ** 4))
def test_table_42_is_orbit_types_of_the_canonical_labels(k, l, n):
    """table_42 skips orbit_types' label checks; its labels must still be
    the canonical ones, q-slots swapped, or 4n + 1 twice when l = 0."""
    p_minus, p_plus = bundles.canonical_solution(k)
    if l == 0:
        q_minus = q_plus = 4 * n + 1
    else:
        q_plus, q_minus = bundles.canonical_solution(l)
        n = None
    assert isotropy.table_42(k, l, n=n) == isotropy.orbit_types(
        p_minus, q_minus, p_plus, q_plus)


@DETERMINISTIC
@given(st.integers(-10 ** 6, 10 ** 6))
def test_hopf_family_is_orbit_types_of_its_labels(n):
    assert isotropy.hopf_family(n) == isotropy.orbit_types(
        -3, 4 * n + 1, 1, 4 * n + 1)


# -- argument checks ----------------------------------------------------------

# (entry point, a valid call's positional and keyword arguments); every
# argument but a string one (a cohomology kind) must be an integer
ENTRY_POINTS = [
    (bundles.euler_class, (5, 1), {}),
    (bundles.solve_euler, (3,), {}),
    (bundles.solve_euler, (0,), {"bound": 9}),
    (bundles.canonical_solution, (3,), {}),
    (bundles.second_label, (5, 1), {}),
    (bundles.classify_pair, (5, -3, 1, 5), {}),
    (bundles.mayer_vietoris_matrix, (5, 1), {}),
    (bundles.s7_bundle_class, (3,), {}),
    (bundles.s7_orientation_partner, (4,), {}),
    (bundles.cohomology_report, ("principal3", 2), {}),
    (bundles.cohomology_report, ("sphere3", 2, 1), {}),
    (bundles.cohomology_report, ("principal33", 2, 4), {}),
    (classify.euler_number, (2, -1), {}),
    (classify.is_homotopy_sphere, (2, -1), {}),
    (classify.eells_kuiper, (3,), {}),
    (classify.orientation_fold, (20,), {}),
    (classify.diffeo_equiv, (2, 3), {}),
    (classify.brieskorn_classify, (5, 3), {}),
    (classify.rp5_type, (3,), {}),
    (isotropy.canonical_type_labels, (3,), {}),
    (isotropy.orbit_types, (-3, 5, 1, 5), {}),
    (isotropy.table_42, (2, 1), {}),
    (isotropy.table_42, (2, 0), {"n": 1}),
    (isotropy.table_42_orders, (2, 1), {}),
    (isotropy.table_42_orders, (2, 0), {"n": 1}),
    (isotropy.hopf_family, (2,), {}),
    (isotropy.cor_47_families, (2, 1), {}),
    (isotropy.find_almost_free_lift, (1, 1), {}),
    (isotropy.find_almost_free_lift, (0, 1), {"bound": 13}),
]

non_integers = st.one_of(
    st.booleans(),
    st.floats(),
    st.text(max_size=4),
    st.fractions(),
)


@pytest.mark.parametrize("fn, args, kwargs", ENTRY_POINTS,
                         ids=[fn.__name__ for fn, _, _ in ENTRY_POINTS])
def test_integer_arguments_reject_non_integers(fn, args, kwargs):
    fn(*args, **kwargs)  # the valid call goes through
    names = list(inspect.signature(fn).parameters)

    @settings(DETERMINISTIC, max_examples=15)
    @given(non_integers)
    @example(True)
    @example(1.5)
    def check(bad):
        calls = [(names[pos], args[:pos] + (bad,) + args[pos + 1:], kwargs)
                 for pos, value in enumerate(args) if not isinstance(value, str)]
        calls += [(key, args, {**kwargs, key: bad}) for key in kwargs]
        for name, broken_args, broken_kwargs in calls:
            with pytest.raises((ParameterError, ValidationError),
                               match="^{} must be an integer$".format(name)):
                fn(*broken_args, **broken_kwargs)

    check()
