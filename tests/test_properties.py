"""Property tests for the integer layer, for the exact scale tests of
glue and deform against the Fraction expressions they replace, and for
the rule that a certificate passes a profile only on a proof.

Hypothesis draws the inputs; every test runs derandomized on a small,
fixed example budget, so the suite stays deterministic and quick.
"""

import inspect
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from milnor import bundles, classify, deform, glue, isotropy
from milnor.errors import NoFiniteMatchingError, ParameterError, ValidationError
from milnor.liealg import ReductiveSplit, Su2Power
from test_glue import PROFILE_CLAUSES, bumped_profile, circle_metric

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
@given(st.integers(-10 ** 18 + 1, 10 ** 18 - 1).filter(bool))
@example(200560490130)
def test_solve_euler_has_one_pair_per_odd_divisor(k):
    """For k != 0 each odd divisor d > 0 gives exactly one pair, with
    |p_- + p_+| = 2d, so the list is as long as the divisor list."""
    sols = bundles.solve_euler(k)
    divisors = bundles._odd_divisors(k)
    assert len(sols) == len(divisors)
    assert sorted(abs(p_minus + p_plus) // 2 for p_minus, p_plus in sols) == divisors


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


@DETERMINISTIC
@given(labels, labels, labels, labels)
@example(1, 1, 1, 1)     # order 1 (Z2 only) and the circle pair twice
@example(1, -3, 5, 5)    # order 1, D2 again, D5 and the circle pair
def test_orbit_types_are_the_base_types_and_each_orders_labels(
        p_minus, q_minus, p_plus, q_plus):
    """_orbit_types builds its labels in one set with its own D-label
    spelling; they must be BASE_TYPES with canonical_type_labels of each
    order |p +- q|/2, and the result a plain OrbitTypeSet."""
    ts = isotropy.orbit_types(p_minus, q_minus, p_plus, q_plus)
    orders = (abs(p_minus + q_minus) // 2, abs(p_minus - q_minus) // 2,
              abs(p_plus + q_plus) // 2, abs(p_plus - q_plus) // 2)
    assert type(ts) is isotropy.OrbitTypeSet
    assert ts.orders == orders
    assert ts.types == isotropy.BASE_TYPES.union(
        *(isotropy.canonical_type_labels(o) for o in orders))


@DETERMINISTIC
@given(labels, labels, labels, labels)
@example(1, 17, 21, 1)   # D8, D9, D10, D11
@example(1, 1, 5, 5)     # the circle pair and D5
def test_sorted_labels_follow_the_rank_order(p_minus, q_minus, p_plus, q_plus):
    """sorted_labels skips _rank's parse of the order; it must still sort
    by _rank, numerically among the dihedral labels (D9 before D10)."""
    ts = isotropy.orbit_types(p_minus, q_minus, p_plus, q_plus)
    assert ts.sorted_labels() == sorted(ts.types, key=isotropy._rank)


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


# -- the exact scale tests ---------------------------------------------------

FOUR_THIRDS = Fraction(4, 3)
HAIR = Fraction(1, 10 ** 20)
DIGITS_400 = st.integers(10 ** 399, 10 ** 400 - 1)


def shifted(centre):
    """centre + k / (3 d) for a 400-digit d and |k| <= 3: on either side of
    centre, closer to it than 10^-399, or on it."""
    return st.builds(lambda d, k: centre + Fraction(k, 3 * d), DIGITS_400,
                     st.integers(-3, 3))


#: Scales that DeformedMetric takes: exactly 1 and 4/3, 4/3 -+ 10^-20,
#: ratios of two 400-digit integers, 400-digit shifts of 1 and 4/3, and
#: floats, read as the binary numbers they store.
metric_scales = st.one_of(
    st.sampled_from([Fraction(1), FOUR_THIRDS, FOUR_THIRDS - HAIR,
                     FOUR_THIRDS + HAIR]),
    st.builds(Fraction, DIGITS_400, DIGITS_400),
    shifted(Fraction(1)), shifted(FOUR_THIRDS),
    st.floats(deform.A_MIN, deform.A_MAX),
    st.floats(1.0, 1.5))
#: Scales and radii of any sign and size, r <= 0 among them.
any_reals = st.one_of(
    metric_scales,
    st.builds(Fraction, st.integers(-10 ** 400, 10 ** 400), DIGITS_400),
    st.fractions(max_value=0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-3, 3))


@settings(DETERMINISTIC, max_examples=300)
@given(any_reals, any_reals)
@example(1, 1)
@example(FOUR_THIRDS, 1)
@example(FOUR_THIRDS + HAIR, -0.0)
@example(1 + Fraction(1, 10 ** 400), 1)
def test_matching_level_is_the_fraction_expression(a, r):
    """matching_level_sq and glue_params build a r^2 / (a - 1) from the
    integers of a and r; it is the Fraction expression a / (a - 1) * r * r,
    refused as it was, and on the plateau the exact orbit factor is 1."""
    A, R = Fraction(a), Fraction(r)       # exactly the numbers a and r hold
    for fn in (glue.matching_level_sq, glue.glue_params):
        if R <= 0:
            with pytest.raises(ParameterError,
                               match="^radius r must be positive$"):
                fn(a, r)
        elif A <= 1:
            with pytest.raises(NoFiniteMatchingError,
                               match="^no finite matching level for a <= 1"):
                fn(a, r)
    if R <= 0 or A <= 1:
        return
    want = A / (A - 1) * R * R
    got = glue.matching_level_sq(a, r)
    assert type(got) is Fraction and got == want
    low, high = Fraction(glue.PLATEAU_MIN ** 2), Fraction(glue.PLATEAU_MAX ** 2)
    if not low <= want <= high:
        with pytest.raises(ParameterError, match="put the plateau"):
            glue.glue_params(a, r)
        return
    params = glue.glue_params(a, r)
    assert (params.a, params.r, params.plateau_sq) == (A, R, want)
    assert params.plateau == math.sqrt(float(want))
    factor = glue._orbit_factor(params.plateau_sq, params.a, params.r)
    assert type(factor) is Fraction and factor == 1


@settings(DETERMINISTIC, max_examples=100)
@given(st.fractions(min_value=0),
       any_reals.map(Fraction).filter(lambda a: a > 0),
       any_reals.map(Fraction).filter(bool))
@example(Fraction(0), Fraction(1), Fraction(1))
def test_the_exact_orbit_factor_is_the_fraction_expression(f2, a, r):
    """For an exact f^2, the orbit factor is one Fraction of integer
    products, equal to f^2 / (f^2 / a + r^2)."""
    got = glue._orbit_factor(f2, a, r)
    assert type(got) is Fraction and got == f2 / (f2 / a + r * r)


@settings(DETERMINISTIC, max_examples=150)
@given(metric_scales, st.integers(1, 3))
@example(Fraction(1), 1)
@example(FOUR_THIRDS, 1)
@example(FOUR_THIRDS, 3)
@example(FOUR_THIRDS + HAIR, 2)
@example(FOUR_THIRDS - HAIR, 2)
def test_the_scale_thresholds_are_the_fraction_comparisons(a, factors):
    """On span-i, a circle, the certificate's window, the rules and the
    witness decide on the integers p, q of a = p/q as the Fraction
    comparisons would: deformation_range passes exactly when
    1 < a <= 4/3; the rule is "a <= 1" exactly when a <= 1 and "abelian"
    exactly when, past that, 3a <= 4; the witness is built exactly when
    3a > 4, with curvature 4 - 3a. The drawn scales include 4/3 itself,
    so a wrong form such as 3p < 4q fails here."""
    A = Fraction(a)
    algebra = Su2Power(factors)
    direction = algebra.zero()
    direction[0, 0] = 1.0
    metric = deform.DeformedMetric(ReductiveSplit.circle(algebra, direction), a)
    assert deform._nonnegative_rule(metric) == (
        "a <= 1" if A <= 1 else "abelian" if 3 * A <= 4 else None)
    verdict, proof = deform._decide(metric)
    assert (verdict == "negative") == (3 * A > 4)
    if verdict == "negative":
        assert proof.value == 4 - 3 * A
    profile = glue.ProfileFunction.capped_sine(FOUR_THIRDS, 1)
    cert = glue.nonneg_certificate(profile, metric, planes=10)
    assert cert.clause("deformation_range").passed == (1 < A <= FOUR_THIRDS)


# -- profile clauses pass only on a proof ------------------------------------

@settings(DETERMINISTIC, max_examples=40)
@given(gap=st.integers(1, 997), centre=st.floats(0.05, 0.95),
       width=st.floats(0.05, 0.95), height=st.floats(0.1, 1.0))
@example(gap=400, centre=0.5, width=0.1, height=0.6)   # the tests' bump
def test_a_profile_without_a_proof_never_passes(gap, centre, width, height):
    """The bump profile of test_glue, with its bump drawn anywhere
    between two grid points before the plateau, narrower than its
    distance to either: no grid point, join point or slope check lies on
    it, so construction's grid check accepts it. Its height puts f'' at
    about 8 height, past 1/F = 1/2, at the bump's edge, so -f''/f < 0
    there. The certificate fails, on exactly its three profile clauses."""
    profile, edge = bumped_profile(gap, centre, width, height)
    assert profile.disc_curvature(edge) < 0.0
    cert = glue.nonneg_certificate(profile, circle_metric(FOUR_THIRDS))
    assert cert.passed is False
    assert [clause.name for clause in cert.failed()] == list(PROFILE_CLAUSES)


@settings(DETERMINISTIC, max_examples=40)
@given(a=st.fractions(1, FOUR_THIRDS, max_denominator=10 ** 6).filter(
           lambda a: a > 1),
       r=st.fractions(Fraction(1, 10 ** 6), 10 ** 6, max_denominator=10 ** 6))
@example(a=FOUR_THIRDS, r=Fraction(1))
def test_the_capped_sine_passes_in_the_window(a, r):
    """For a rational a in (1, 4/3] and a rational r > 0, the capped
    sine's certificate passes every clause, its profile clauses on their
    closed-form proof."""
    profile = glue.ProfileFunction.capped_sine(a, r)
    cert = glue.nonneg_certificate(profile, circle_metric(a))
    assert cert.passed is True
    for name in PROFILE_CLAUSES:
        assert "proven from the closed form" in cert.clause(name).detail
