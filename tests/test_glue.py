"""Disc-gluing profiles: matching level, capped-sine shape, exact factor
identity at the plateau, and the nonnegativity certificate."""

import csv
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from milnor import deform, glue
from milnor.deform import DeformedMetric, scan_min_sectional
from milnor.errors import NoFiniteMatchingError, ParameterError, ProfileError
from milnor.glue import (
    ClauseResult,
    ProfileFunction,
    glue_params,
    matching_level_sq,
    nonneg_certificate,
    orbit_metric_factor,
)
from milnor.liealg import ReductiveSplit, Su2Power


def circle_metric(a, factors=1):
    alg = Su2Power(factors)
    direction = alg.zero()
    direction[0, 0] = 1.0
    return DeformedMetric(ReductiveSplit.circle(alg, direction), a)


def test_matching_level_is_exact_for_rational_inputs():
    assert matching_level_sq(Fraction(4, 3), 1) == Fraction(4)
    assert matching_level_sq(Fraction(6, 5), 2) == Fraction(24)
    assert matching_level_sq(Fraction(9, 8), Fraction(1, 2)) == Fraction(9, 4)
    assert abs(glue_params(Fraction(4, 3), 1).plateau - 2.0) < 1e-15


@pytest.mark.parametrize("a, r", [
    (Fraction(4, 3), 1e154), (Fraction(4, 3), 1e-160), (Fraction(4, 3), 1e-200),
    (Fraction(4, 3), 10 ** 400), (1 + Fraction(1, 10 ** 400), 1),
    (1000.0, 1e155), (1.5, 1e-155)],
    ids=["4_3-1e154", "4_3-1e-160", "4_3-1e-200", "4_3-10^400",
         "1+10^-400-1", "1000-1e155", "1.5-1e-155"])
def test_plateaus_past_the_float_range_are_refused(a, r):
    """These overflowed or underflowed inside the profile, or converting
    the exact plateau square to a float; the error names a and r."""
    with pytest.raises(ParameterError, match=r"^a = \S+ and r = \S+ put the plateau"):
        glue_params(a, r)


@pytest.mark.parametrize("bound, r, past", [
    (glue.PLATEAU_MAX ** 2, Fraction(1), 1),
    (glue.PLATEAU_MIN ** 2, Fraction(1, 2 ** 512), -1)], ids=["max", "min"])
def test_the_plateau_bounds_are_the_exact_values_of_their_floats(bound, r,
                                                                 past):
    """glue_params bounds the exact plateau square by the exact values of
    the floats PLATEAU_MAX ** 2 and PLATEAU_MIN ** 2: a square equal to
    one is accepted, and one a hair beyond it is refused."""
    bound = Fraction(bound)
    for level, inside in ((bound, True),
                          (bound * (1 + past * Fraction(1, 10 ** 30)), False)):
        ratio = level / (r * r)                 # a / (a - 1)
        a = ratio / (ratio - 1)
        assert matching_level_sq(a, r) == level
        if inside:
            assert glue_params(a, r).plateau_sq == level
        else:
            with pytest.raises(ParameterError, match="put the plateau"):
                glue_params(a, r)


def test_a_certificate_reads_is_abelian_once(monkeypatch):
    """The abelian_block clause and the abelian rule, which reads it at
    a <= 4/3, share one is_abelian() call."""
    calls = []
    is_abelian = ReductiveSplit.is_abelian
    monkeypatch.setattr(ReductiveSplit, "is_abelian",
                        lambda self: calls.append(self) or is_abelian(self))
    for a in (Fraction(6, 5), Fraction(3, 2)):
        calls.clear()
        nonneg_certificate(ProfileFunction.capped_sine(a, 1), circle_metric(a),
                           planes=10)
        assert len(calls) == 1


@pytest.mark.parametrize("a, r", [(Fraction(4, 3), 1e-154), (Fraction(4, 3), 1e153),
                                  (1000.0, 1e153), (Fraction(11, 10), 1e-154)])
def test_plateaus_at_the_ends_of_the_range_certify_and_export(tmp_path, a, r):
    """Near either end of [PLATEAU_MIN, PLATEAU_MAX] the profile, its
    certificate and its CSV stay finite, with no numeric warning."""
    profile = ProfileFunction.capped_sine(a, r)
    metric = circle_metric(a)
    cert = nonneg_certificate(profile, metric, planes=50)
    assert cert.passed == (1 < a <= Fraction(4, 3))
    assert all(math.isfinite(c.value) for c in cert.clauses)
    path = tmp_path / "profile.csv"
    profile.export_csv(path)
    with open(path, newline="") as fh:
        rows = [[float(x) for x in row] for row in list(csv.reader(fh))[1:]]
    assert np.isfinite(rows).all() and abs(rows[-1][2] - 1.0) < 1e-12


def test_certificate_refuses_a_bad_seed():
    profile = ProfileFunction.capped_sine(Fraction(4, 3), 1)
    with pytest.raises(ParameterError, match="^seed must be non-negative"):
        nonneg_certificate(profile, circle_metric(Fraction(4, 3)), planes=10,
                           seed=-1)


@pytest.mark.parametrize("a, r", [
    ("2", 1), ("4/3", 1), (b"2", 1), (True, 1), (np.True_, 1), (None, 1),
    (1j, 1), (math.nan, 1), (math.inf, 1), (Decimal("NaN"), 1),
    (Fraction(4, 3), "1"), (Fraction(4, 3), True), (Fraction(4, 3), np.True_),
    (Fraction(4, 3), None), (Fraction(4, 3), 1j), (Fraction(4, 3), math.nan),
    (Fraction(4, 3), math.inf), (Fraction(4, 3), Decimal("NaN"))])
def test_non_numeric_glue_data_are_refused(a, r):
    """float() used to read a str or bytes a or r, and a bool as 0 or 1:
    glue_params("2", 1) returned the string as its a, which export_csv then
    divided by, and "4/3" raised a bare ValueError; None and 1j raised a
    bare TypeError."""
    for call in (lambda: matching_level_sq(a, r), lambda: glue_params(a, r)):
        with pytest.raises(ParameterError,
                           match="must be a finite real number, got"):
            call()


def test_gluing_data_are_read_exactly():
    """A float or Decimal a and r are read as the numbers they hold, so
    the level and the gluing data are Fractions, and the plateau is the
    root of the float of the exact level. At a = 1 + 10^-9 that is
    31622.776617495183. The float 1.000000001 lies 8.3e-17 past 1 + 10^-9,
    so its a - 1 is 8e-8 too large in relative terms, and its plateau is
    31622.77530925513."""
    a = 1.000000001
    psq = matching_level_sq(a, 1)
    assert type(psq) is Fraction and psq == Fraction(a) / (Fraction(a) - 1)
    params = glue_params(a, Decimal("0.5"))
    assert (params.a, params.r) == (Fraction(a), Fraction(1, 2))
    assert all(type(x) is Fraction for x in (params.a, params.r, params.plateau_sq))
    assert params.plateau == math.sqrt(float(psq)) / 2
    assert glue_params(a, 1).plateau == 31622.77530925513
    assert glue_params(Decimal("1.000000001"), 1).plateau == 31622.776617495183


def test_a_fraction_subclass_is_read_as_a_fraction():
    """exact_real reads a Fraction subclass as the Fraction of its value,
    so the exact values glue builds from its integers are Fractions."""
    class Scale(Fraction):
        pass

    params = glue_params(Scale(4, 3), Scale(5, 3))
    assert type(params.a) is type(params.r) is type(params.plateau_sq) is Fraction
    assert params.plateau_sq == Fraction(100, 9)
    assert type(matching_level_sq(Scale(4, 3), 1)) is Fraction


def test_matching_level_needs_an_overshoot():
    with pytest.raises(NoFiniteMatchingError):
        matching_level_sq(1, 1)
    with pytest.raises(NoFiniteMatchingError):
        matching_level_sq(Fraction(9, 10), 1)
    with pytest.raises(ParameterError):
        matching_level_sq(Fraction(4, 3), 0)


def test_capped_sine_shape():
    profile = ProfileFunction.capped_sine(Fraction(4, 3), 1)
    t0 = profile.t_plateau
    assert abs(t0 - math.pi) < 1e-12
    assert profile.value(0.0) == 0.0
    assert abs(profile.derivative(0.0) - 1.0) < 1e-12
    assert abs(profile.value(t0) - 2.0) < 1e-12
    assert profile.value(t0 + 0.5) == profile.plateau
    assert profile.value_sq(t0 + 0.5) == Fraction(4)
    for t in np.linspace(0.01, 1.25 * t0, 80):
        assert profile.value(t) <= profile.plateau + 1e-12
        assert profile.second_derivative(t) <= 1e-12


def test_capped_sine_is_c1_at_the_join():
    profile = ProfileFunction.capped_sine(Fraction(4, 3), 1)
    t0 = profile.t_plateau
    h = 1e-6
    assert abs(profile.derivative(t0 - h)) < 1e-5
    assert profile.derivative(t0 + h) == 0.0
    assert abs(profile.value(t0 - h) - profile.value(t0 + h)) < 1e-11


def test_orbit_factor_hits_one_exactly_at_the_plateau():
    for a, r in ((Fraction(4, 3), 1), (Fraction(7, 6), Fraction(3, 2)),
                 (Fraction(5, 4), 2)):
        profile = ProfileFunction.capped_sine(a, r)
        t0 = profile.t_plateau
        assert orbit_metric_factor(profile, t0) == Fraction(1)
        assert orbit_metric_factor(profile, 2.0 * t0) == Fraction(1)
        before = orbit_metric_factor(profile, 0.5 * t0)
        assert 0 < before < 1


def test_orbit_factor_vanishes_at_the_axis():
    profile = ProfileFunction.capped_sine(Fraction(4, 3), 1)
    assert orbit_metric_factor(profile, 0.0) == 0


def test_disc_curvature_of_the_sine_cap_is_constant():
    profile = ProfileFunction.capped_sine(Fraction(4, 3), 1)
    want = 1.0 / float(profile.plateau) ** 2
    for t in (0.3, 1.0, 2.0):
        assert abs(profile.disc_curvature(t) - want) < 1e-10
    assert profile.disc_curvature(profile.t_plateau + 1.0) == 0.0


def test_certificate_passes_in_the_allowed_window():
    profile = ProfileFunction.capped_sine(Fraction(4, 3), 1)
    cert = nonneg_certificate(profile, circle_metric(Fraction(4, 3)),
                              planes=4000, seed=0)
    assert cert.passed
    names = [c.name for c in cert.clauses]
    assert names == ["deformation_range", "abelian_block", "scale_match",
                     "plateau_match", "profile_shape", "disc_curvature",
                     "product_near_boundary", "metric_nonneg"]


def test_certificate_rejects_overshooting_deformation():
    profile = ProfileFunction.capped_sine(Fraction(3, 2), 1)
    cert = nonneg_certificate(profile, circle_metric(Fraction(3, 2)),
                              planes=2000, seed=0)
    assert not cert.passed
    assert not cert.clause("deformation_range").passed


@pytest.mark.parametrize("a, inside", [
    (4.0 / 3.0, True), (Fraction(4, 3), True),
    (Fraction(4, 3) + Fraction(1, 10 ** 20), False),
    (Fraction(13333333333334, 10 ** 13), False), (1.3333333333334, False)])
def test_certificate_decides_the_window_on_the_exact_scale(a, inside):
    """The float 4.0 / 3.0 lies below 4/3; 4/3 + 10^-20 rounds to that
    float, yet lies past 4/3, as does 1.3333333333334, which the window's
    old float bound 4/3 + 1e-12 let in."""
    profile = ProfileFunction.capped_sine(a, 1)
    cert = nonneg_certificate(profile, circle_metric(a), planes=1000, seed=0)
    assert cert.clause("deformation_range").passed is inside
    assert cert.passed is inside


def test_certificate_rejects_nonabelian_block():
    alg = Su2Power(2)
    metric = DeformedMetric(ReductiveSplit.diagonal(alg), Fraction(4, 3))
    profile = ProfileFunction.capped_sine(Fraction(4, 3), 1)
    cert = nonneg_certificate(profile, metric, planes=2000, seed=0)
    assert not cert.passed
    assert not cert.clause("abelian_block").passed


def convex_profile():
    """A convex profile, which construction refuses: built with validate
    patched out, so that the certificate sees it."""
    params = glue_params(Fraction(4, 3), 1)
    t0 = params.t_plateau
    closed_forms = (lambda t: np.minimum(t * t / t0, params.plateau),
                    lambda t: np.where(t < t0, 2.0 * t / t0, 0.0),
                    lambda t: np.where(t < t0, 2.0 / t0, 0.0))
    with pytest.raises(ProfileError):
        ProfileFunction(*closed_forms, params)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ProfileFunction, "validate", lambda self: None)
        return ProfileFunction(*closed_forms, params)


def test_certificate_rejects_a_convex_profile():
    bad = convex_profile()
    cert = nonneg_certificate(bad, circle_metric(Fraction(4, 3)),
                              planes=1000, seed=0)
    assert not cert.passed
    failed = {c.name for c in cert.failed()}
    assert "disc_curvature" in failed or "profile_shape" in failed


def test_profile_validation_catches_broken_shapes():
    params = glue_params(Fraction(4, 3), 1)
    with pytest.raises(ProfileError):
        ProfileFunction(
            value=lambda t: t + 1.0,
            derivative=lambda t: 1.0,
            second_derivative=lambda t: 0.0,
            glue=params)


def sine_cap(params, value=None):
    """The capped sine's closed forms for params, with f replaced by
    value when given."""
    F, t0 = params.plateau, params.t_plateau
    return dict(
        value=value or (lambda t: np.where(t < t0, F * np.sin(t / F), F)),
        derivative=lambda t: np.where(t < t0, np.cos(t / F), 0.0),
        second_derivative=lambda t: np.where(t < t0, -np.sin(t / F) / F, 0.0),
        glue=params)


def test_profile_validation_requires_a_frozen_plateau():
    params = glue_params(Fraction(4, 3), 1)
    F, t0 = params.plateau, params.t_plateau
    with pytest.raises(ProfileError, match="constant past the plateau"):
        ProfileFunction(**sine_cap(
            params, lambda t: np.where(t < t0, F * np.sin(t / F), 0.9 * F)))


def test_profile_validation_requires_positivity_before_the_plateau():
    """Broken past the plateau too: the first failing checkpoint, which
    lies before the plateau, names the invariant."""
    params = glue_params(Fraction(4, 3), 1)
    t0 = params.t_plateau
    with pytest.raises(ProfileError, match="stay positive before the plateau"):
        ProfileFunction(**sine_cap(
            params, lambda t: np.where(t < t0 / 2, t, 0.0)))


@pytest.mark.parametrize("make", [
    lambda: ProfileFunction.capped_sine(Fraction(4, 3), 1),
    lambda: ProfileFunction.capped_sine(Fraction(7, 6), Fraction(3, 2),
                                        grid_step=0.01),
    convex_profile,
], ids=["capped-sine", "capped-sine-coarse", "convex"])
def test_grid_clauses_match_a_pointwise_recomputation(make):
    profile = make()
    cert = nonneg_certificate(profile, circle_metric(Fraction(4, 3)),
                              planes=500, seed=0)
    interior = [t for t in profile.grid if t > 0.0]
    want_curv = min(profile.disc_curvature(t) for t in interior)
    tail = [t for t in profile.grid if t >= profile.t_plateau]
    want_gap = max([abs(profile.value(t) - profile.plateau) for t in tail]
                   + [abs(profile.derivative(t)) for t in tail])
    assert cert.clause("disc_curvature").value == want_curv
    assert cert.clause("product_near_boundary").value == want_gap
    ts, fs = profile.sample()
    assert list(fs) == [profile.value(t) for t in ts]


@pytest.mark.parametrize(
    "step", [0.0, -1.0, math.pi, 4.0, math.nan, math.inf, "0.1", True,
             np.True_, Fraction(1, 10 ** 400), 10 ** 400],
    ids=["zero", "negative", "t_plateau", "past", "nan", "inf", "str",
         "true", "np_true", "float_underflow", "float_overflow"])
def test_grid_step_must_lie_inside_the_plateau_run(step):
    """t_plateau is pi for a = 4/3, r = 1; a NaN step used to fail in
    math.ceil with a bare ValueError, "0.1" in the comparison with a bare
    TypeError, and True and np.True_ were taken as a step of 1.0. A step
    whose float is 0.0 is refused as well, and one no float holds raises
    no OverflowError."""
    with pytest.raises(ParameterError,
                       match="^grid_step must be (in|a finite real number)"):
        ProfileFunction.capped_sine(Fraction(4, 3), 1, grid_step=step)


@pytest.mark.parametrize("r, step", [(1e153, 0.01),
                                     (1, 1.25 * math.pi / 1e9)],
                         ids=["4e155-points", "1e9-points"])
def test_a_grid_past_the_point_cap_is_refused_before_it_is_built(r, step):
    """A step leaving 4e155 grid points used to fail in np.arange with a
    bare ValueError, and one leaving 1e9 points would have allocated
    gigabytes before any check; both are refused with ParameterError
    while next to nothing is allocated."""
    message = "^grid_step must leave at most {} grid points, got ".format(
        glue.MAX_GRID_POINTS)
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match=message):
            ProfileFunction.capped_sine(Fraction(4, 3), r, grid_step=step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6


def test_a_grid_just_inside_the_point_cap_is_built():
    """t_plateau is pi for a = 4/3, r = 1, so this step leaves about
    MAX_GRID_POINTS - 1 points."""
    step = 1.25 * math.pi / (glue.MAX_GRID_POINTS - 2)
    profile = ProfileFunction.capped_sine(Fraction(4, 3), 1, grid_step=step)
    assert glue.MAX_GRID_POINTS - 2 <= profile.grid.size <= glue.MAX_GRID_POINTS


def test_profile_closed_forms_run_a_fixed_number_of_times(tmp_path):
    """The grid is sampled once, in arrays: the number of calls into f,
    f' and f'' through construction, certificate and CSV export does not
    grow with the grid."""
    params = glue_params(Fraction(4, 3), 1)
    metric = circle_metric(Fraction(4, 3))

    def calls(grid_step):
        count = {"n": 0}

        def counted(fn):
            def wrapper(t):
                count["n"] += 1
                return fn(t)
            return wrapper

        spec = sine_cap(params)
        for key in ("value", "derivative", "second_derivative"):
            spec[key] = counted(spec[key])
        profile = ProfileFunction(grid_step=grid_step, **spec)
        assert nonneg_certificate(profile, metric, planes=200, seed=0).passed
        profile.export_csv(tmp_path / "profile.csv")
        return count["n"], len(profile.grid)

    (coarse, n_coarse), (fine, n_fine) = calls(0.1), calls(0.001)
    assert n_fine > 50 * n_coarse
    assert coarse == fine


def test_certifying_a_capped_sine_builds_no_samples(monkeypatch):
    """The capped sine's three profile clauses come from its closed form:
    construction and the certificate evaluate none of f, f', f'' on the
    grid, nor build the grid, and they pass at 0.0 with a detail saying
    they are proven."""
    sampled = []
    monkeypatch.setattr(glue, "_sampled_shape", sampled.append)
    for a, step in ((Fraction(4, 3), None), (Fraction(6, 5), 0.001)):
        profile = ProfileFunction.capped_sine(a, 1, grid_step=step)
        assert "grid" not in vars(profile)
        cert = nonneg_certificate(profile, circle_metric(a), planes=100)
        assert cert.passed and sampled == []
        assert "_samples" not in vars(profile) and "_ts" not in vars(profile)
        assert "grid" not in vars(profile)
        for name in ("profile_shape", "disc_curvature", "product_near_boundary"):
            clause = cert.clause(name)
            assert clause.passed and clause.value == 0.0
            assert "proven from the closed form" in clause.detail
            assert "sampled" not in clause.detail


@pytest.mark.parametrize("read", [
    lambda profile, path: profile.sample(),
    lambda profile, path: profile.validate(),
    lambda profile, path: profile.export_csv(path)],
    ids=["sample", "validate", "export_csv"])
def test_reading_a_capped_sine_builds_its_samples(tmp_path, read):
    """sample(), validate() and export_csv build the sample table on first
    read, and it is the table of the same closed forms built by hand."""
    params = glue_params(Fraction(4, 3), 1)
    profile = ProfileFunction.capped_sine(params.a, params.r)
    read(profile, tmp_path / "profile.csv")
    assert "_samples" in vars(profile)
    by_hand = ProfileFunction(**sine_cap(params))
    assert np.array_equal(profile._samples, by_hand._samples)
    assert np.array_equal(profile._ts, by_hand._ts)


def bumped_profile():
    """The capped sine for a = 4/3, r = 1 with a quartic bump
    c (1 - s^2)^2, s = (t - m) / w, of width step/10 centred between grid
    points 400 and 401. At its edges f'' jumps to about 8c / w^2, so
    -f''/f reaches about -3.8 there, while every grid point misses it."""
    params = glue_params(Fraction(4, 3), 1)
    spec = sine_cap(params)
    step = params.t_plateau / 1000.0
    mid, w = 400.5 * step, step / 20.0
    c = 0.6 * w * w

    def bumped(base, derivative):
        def fn(t):
            s = (np.asarray(t, dtype=float) - mid) / w
            b = (c * (1 - s * s) ** 2, -4 * c * s * (1 - s * s) / w,
                 c * (12 * s * s - 4) / w ** 2)[derivative]
            return base(t) + np.where(np.abs(s) < 1.0, b, 0.0)
        return fn

    for derivative, key in enumerate(("value", "derivative", "second_derivative")):
        spec[key] = bumped(spec[key], derivative)
    return ProfileFunction(**spec), mid + 0.99 * w


def test_a_user_profile_says_its_clauses_are_sampled():
    """A profile built from arbitrary closed forms has no proof: its three
    profile clauses say on how many grid points they were sampled, never
    that they are proven. The bump profile shows why: -f''/f < -3 at the
    bump's edge, which no grid point sees."""
    profile, edge = bumped_profile()
    assert profile.disc_curvature(edge) < -3.0
    cert = nonneg_certificate(profile, circle_metric(Fraction(4, 3)), planes=100)
    n = profile.grid.size
    past = int(np.count_nonzero(profile.grid >= profile.t_plateau))
    assert [cert.clause(name).detail for name in (
        "profile_shape", "disc_curvature", "product_near_boundary")] == [
        "sampled on {} grid points and the two join points".format(n),
        "-f''/f sampled on {} grid points".format(n - 1),
        "profile frozen past the plateau, sampled on {} grid points".format(past)]
    for clause in cert.clauses:
        assert "proven" not in clause.detail or clause.name == "metric_nonneg"


def test_a_failed_sampled_shape_keeps_its_reason():
    """profile_shape of a profile that fails validation gives the
    failure, then says it was sampled."""
    clause = nonneg_certificate(convex_profile(), circle_metric(Fraction(4, 3)),
                                planes=100).clause("profile_shape")
    assert not clause.passed and clause.value == 1.0
    assert clause.detail.startswith("profile must close the disc with unit "
                                    "slope, got ")
    assert clause.detail.endswith("; sampled on {} grid points and the two "
                                  "join points".format(convex_profile().grid.size))


def test_certificate_plateau_match_fails_off_window(tmp_path):
    """A profile built for one (a, r) but certified against a metric with a
    different deformation parameter must fail the plateau comparison."""
    profile = ProfileFunction.capped_sine(Fraction(4, 3), 1)
    cert = nonneg_certificate(profile, circle_metric(Fraction(5, 4)),
                              planes=1000, seed=0)
    assert not cert.passed
    assert not cert.clause("scale_match").passed


def test_certificate_compares_the_exact_scales():
    """A profile just past 4/3 against a metric at the float 4/3: the two
    scales agree to 1e-16, but only the metric's lies in the window, so
    scale_match must fail; a float profile scale counts at its exact
    value and matches the same float."""
    metric = circle_metric(4.0 / 3.0, factors=2)
    past = ProfileFunction.capped_sine(Fraction(4, 3) + Fraction(1, 10 ** 20), 1)
    cert = nonneg_certificate(past, metric, planes=200, seed=0)
    assert cert.clause("deformation_range").passed
    assert not cert.clause("scale_match").passed
    assert not cert.passed
    same = ProfileFunction.capped_sine(4.0 / 3.0, 1)
    assert nonneg_certificate(same, metric, planes=200, seed=0).passed
    exact = ProfileFunction.capped_sine(Fraction(4, 3), 1)
    assert not nonneg_certificate(exact, metric, planes=200,
                                  seed=0).clause("scale_match").passed
    # a scale past the float range fails with an infinite gap, not an
    # OverflowError
    huge = ProfileFunction.capped_sine(10 ** 400, 1)
    clause = nonneg_certificate(huge, metric, planes=200,
                                seed=0).clause("scale_match")
    assert not clause.passed and clause.value == math.inf


def test_profile_csv_export(tmp_path):
    profile = ProfileFunction.capped_sine(Fraction(4, 3), 1)
    path = tmp_path / "profile.csv"
    profile.export_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,f,orbit_factor"
    assert len(lines) > 1000
    last = lines[-1].split(",")
    assert abs(float(last[1]) - 2.0) < 1e-12
    assert abs(float(last[2]) - 1.0) < 1e-12


@pytest.mark.parametrize("a, r", [(1.2, 0.7), (Fraction(101, 100), 3),
                                  (Fraction(4, 3), 1)],
                         ids=["1.2-0.7", "101_100-3", "4_3-1"])
def test_csv_orbit_factor_follows_its_own_f_column(tmp_path, a, r):
    """Before the plateau each row's orbit factor is f^2 a / (f^2 + a r^2)
    of that row's f, bit for bit as f^2 / (f^2 / a + r^2); on the plateau
    it comes from the plateau square, which makes it exactly 1 for rational
    a and r."""
    profile = ProfileFunction.capped_sine(a, r)
    path = tmp_path / "profile.csv"
    profile.export_csv(path)
    with open(path, newline="") as fh:
        rows = [[float(x) for x in row] for row in list(csv.reader(fh))[1:]]
    assert len(rows) == len(profile.grid)
    # byte for byte the CSV of the same closed forms built by hand, whose
    # samples are built at construction
    ProfileFunction(**sine_cap(profile.glue)).export_csv(tmp_path / "by_hand.csv")
    assert path.read_bytes() == (tmp_path / "by_hand.csv").read_bytes()
    psq = profile.plateau_sq
    on_plateau = float(psq / (psq / a + r * r))
    if isinstance(a, Fraction):
        assert on_plateau == 1.0
    for t, f, factor in rows:
        if t >= profile.t_plateau:
            assert factor == on_plateau
        else:
            assert factor == f ** 2 / (f ** 2 / a + r * r), t


# -- metric_nonneg: the exact decision, and the scan beside it --------------

#: (factors, subalgebra, a) of every metric proven nonnegative that
#: acceptance criterion 09, the README and this file certify or scan, and
#: span-i of su(2)^1..3 across the window.
PROVEN = sorted({
    (2, "diagonal", 1), (2, "factor1", 1), (1, "span-i", 1),
    (1, "span-i", Fraction(4, 3)), (1, "span-i", 4.0 / 3.0),
    (1, "span-i", Fraction(11, 10)), (2, "span-i", 4.0 / 3.0)} | {
    (factors, "span-i", a) for factors in (1, 2, 3)
    for a in (Fraction(41, 40), Fraction(13, 10), Fraction(4, 3))}, key=str)


def named_metric(factors, subalgebra, a):
    alg = Su2Power(factors)
    if subalgebra == "diagonal":
        return DeformedMetric(ReductiveSplit.diagonal(alg), a)
    if subalgebra == "factor1":
        return DeformedMetric(ReductiveSplit.factor(alg, 1), a)
    return circle_metric(a, factors)


@pytest.mark.parametrize("case", PROVEN, ids=str)
def test_the_scan_never_contradicts_a_proof(case):
    """A proof needs no sample, but a 10k-plane scan stays its cross-check
    in the tests: where the decision proves nonnegativity, no scanned
    plane lies below -1e-9."""
    metric = named_metric(*case)
    assert deform._decide(metric)[0] == "nonnegative"
    assert scan_min_sectional(metric, 10_000).min_value >= -1e-9


@pytest.mark.parametrize("a, r", [
    (Fraction(4, 3), 1), (Fraction(31, 24), Fraction(5, 3)),
    (Fraction(11, 10), Fraction(7, 2)), (1.2, 0.7),
    (Fraction(3, 2), Fraction(8, 3))])
@pytest.mark.parametrize("fine", [False, True], ids=["default", "fine"])
def test_a_grid_built_on_first_read_is_the_grid_built_at_construction(a, r,
                                                                      fine):
    """The grid a read builds is np.arange(n + 1) * step, with
    n = ceil(1.25 t_plateau / step), bit for bit and size for size the
    grid construction used to build, at the default step t_plateau/1000
    and at t_plateau/10000; later reads return the same array."""
    t0 = glue_params(a, r).t_plateau
    step = t0 / 10000 if fine else None
    profile = ProfileFunction.capped_sine(a, r, grid_step=step)
    assert "grid" not in vars(profile)
    step = profile.grid_step
    assert step == (t0 / 10000 if fine else t0 / 1000.0)
    want = np.arange(int(math.ceil(1.25 * t0 / step)) + 1) * step
    grid = profile.grid
    assert grid.size == want.size and grid.tobytes() == want.tobytes()
    assert profile.grid is grid


def test_the_grid_step_is_compared_exactly_on_floats_and_fractions():
    """A float step is compared with t_plateau as the float it is and an
    exact step as its exact value, so a step at t_plateau or a hair past
    it is refused either way, and a hair below it is taken, as its float,
    which may be t_plateau's."""
    t0 = glue_params(Fraction(4, 3), 1).t_plateau
    below, above = math.nextafter(t0, 0.0), math.nextafter(t0, math.inf)
    for step in (t0, above, Fraction(t0), Fraction(t0) + Fraction(1, 10 ** 30),
                 np.float64(t0)):
        with pytest.raises(ParameterError, match="^grid_step must be in"):
            ProfileFunction.capped_sine(Fraction(4, 3), 1, grid_step=step)
    for step in (below, Fraction(t0) - Fraction(1, 10 ** 30), np.float64(below)):
        profile = ProfileFunction.capped_sine(Fraction(4, 3), 1, grid_step=step)
        assert profile.grid_step == float(step) and profile.grid.size == 3


EVALUATIONS = {
    "value": lambda profile, t: profile.value(t),
    "derivative": lambda profile, t: profile.derivative(t),
    "second_derivative": lambda profile, t: profile.second_derivative(t),
    "value_sq": lambda profile, t: profile.value_sq(t),
    "disc_curvature": lambda profile, t: profile.disc_curvature(t),
    "orbit_metric_factor": orbit_metric_factor,
}


@pytest.mark.parametrize("t, message", [
    (math.nan, "a finite real number, got nan"),
    (math.inf, "a finite real number, got inf"),
    (-1.0, "at least 0, got -1.0"),
    (-Fraction(1, 10 ** 400), "at least 0, got Fraction"),
    (10 ** 400, "a finite float, got 1000"),
    ("x", "a finite real number, got 'x'"),
    (None, "a finite real number, got None"),
    (True, "a finite real number, got True")],
    ids=["nan", "inf", "negative", "negative-exact", "past-the-floats", "str",
         "none", "bool"])
@pytest.mark.parametrize("name", sorted(EVALUATIONS))
def test_profile_evaluations_refuse_a_bad_radius(name, t, message):
    """Each evaluation reads its radius t through errors.disc_radius. At
    a NaN orbit_metric_factor used to return 1.0, claiming the boundary
    matched, value_sq 4.0 and disc_curvature -0.0; "x" raised a bare
    ValueError and None a TypeError; and -1.0 was evaluated on the odd
    extension of F sin(t/F)."""
    profile = ProfileFunction.capped_sine(Fraction(4, 3), 1)
    with pytest.raises(ParameterError,
                       match="^radius t must (be|have) " + message):
        EVALUATIONS[name](profile, t)


@pytest.mark.parametrize("t", [0, 0.0, -0.0, np.float64(1.0), Fraction(1, 2),
                               Decimal("0.5"), np.int64(3), 10 ** 300])
def test_profile_evaluations_take_any_real_radius_of_at_least_0(t):
    """Any real t >= 0 with a finite float is evaluated at that float."""
    profile = ProfileFunction.capped_sine(Fraction(4, 3), 1)
    x = float(t)
    for name, fn in EVALUATIONS.items():
        if name == "disc_curvature" and x == 0.0:
            continue   # undefined at the origin
        assert fn(profile, t) == fn(profile, x)


def no_scan(*args, **kwargs):
    raise AssertionError("a decided clause must not scan")


@pytest.mark.parametrize("make, rule", [
    (lambda: circle_metric(Fraction(4, 3), 2), "abelian"),
    (lambda: circle_metric(4.0 / 3.0, 2), "abelian"),
    (lambda: circle_metric(1, 2), "a <= 1"),
    (lambda: DeformedMetric(ReductiveSplit.factor(Su2Power(2), 0), 3), "ideal")],
    ids=["4_3", "float-4_3", "1", "factor0-3"])
def test_a_proven_metric_nonneg_passes_at_zero_without_a_scan(monkeypatch,
                                                              make, rule):
    """Its value is the proven lower bound 0.0 and its detail names the
    rule; the metric's curvature operator is never built."""
    monkeypatch.setattr(glue, "scan_min_sectional", no_scan)
    metric = make()
    cert = nonneg_certificate(ProfileFunction.capped_sine(Fraction(4, 3), 1),
                              metric)
    assert cert.clause("metric_nonneg") == ClauseResult(
        "metric_nonneg", True, 0.0, -1e-9,
        "proven by the {} rule".format(rule))
    assert "_operator" not in vars(metric)


@pytest.mark.parametrize("factors", [1, 2, 3])
@pytest.mark.parametrize("a, exact", [
    (Fraction(404, 300), "-1/25"), (Fraction(3, 2), "-1/2"),
    (Fraction(4, 3) + Fraction(1, 10 ** 20), "-3/100000000000000000000"),
    (10 ** 6, "-2999996")])
def test_a_refuted_metric_nonneg_fails_on_its_exact_witness(monkeypatch,
                                                            factors, a, exact):
    """Past 4/3 span-i is refuted by a plane of curvature 4 - 3a, whatever
    the scan would have found: at 404/300 on su(2)^3 a 10k-plane scan
    missed it, and at 10^6 its minimum was +2.6e5."""
    monkeypatch.setattr(glue, "scan_min_sectional", no_scan)
    metric = circle_metric(a, factors)
    cert = nonneg_certificate(ProfileFunction.capped_sine(a, 1), metric)
    assert cert.clause("metric_nonneg") == ClauseResult(
        "metric_nonneg", False, float(4 - 3 * Fraction(a)), -1e-9,
        "a plane in m has exact sectional curvature " + exact)
    assert not cert.passed and "_operator" not in vars(metric)


def test_a_refuted_diagonal_names_a_plane_with_k_parts(monkeypatch):
    """The diagonal witness u = A + X, v = B + Y has parts X, Y in k, so
    its detail does not call it a plane in m. On su(2)^2 at a = 6/5 its
    exact curvature is a (1 - a)^3 (1 + 3a) n / (|u|^2 |v|^2) with
    |u|^2 = |v|^2 = 2a^2 + 2a: -23/7260."""
    monkeypatch.setattr(glue, "scan_min_sectional", no_scan)
    a = Fraction(6, 5)
    metric = DeformedMetric(ReductiveSplit.diagonal(Su2Power(2)), a)
    cert = nonneg_certificate(ProfileFunction.capped_sine(a, 1), metric)
    value = a * (1 - a) ** 3 * (1 + 3 * a) * 2 / (2 * a * a + 2 * a) ** 2
    assert value == Fraction(-23, 7260)
    assert cert.clause("metric_nonneg") == ClauseResult(
        "metric_nonneg", False, float(value), -1e-9,
        "the plane of u = A + X, v = B + Y (A, B in m; X, Y in k) has exact "
        "sectional curvature -23/7260")


def test_an_undecided_metric_nonneg_fails_on_a_scan(monkeypatch):
    """On a twisted diagonal of su(2)^2, {(x, phi x)} with phi the quarter
    turn about i, at 4/3 the decision has no rule and no witness: only
    there is the seeded scan run, with the certificate's planes and seed,
    and the clause fails with its minimum, which proves nothing."""
    calls = []

    def counted(metric, n_planes, seed):
        calls.append((n_planes, seed))
        return scan_min_sectional(metric, n_planes=n_planes, seed=seed)

    monkeypatch.setattr(glue, "scan_min_sectional", counted)
    twisted = ReductiveSplit(Su2Power(2), np.array([
        [[1, 0, 0], [1, 0, 0]], [[0, 1, 0], [0, 0, 1]],
        [[0, 0, 1], [0, -1, 0]]]) / math.sqrt(2.0))
    metric = DeformedMetric(twisted, Fraction(4, 3))
    clause = nonneg_certificate(ProfileFunction.capped_sine(Fraction(4, 3), 1),
                                metric, planes=2000, seed=5).clause("metric_nonneg")
    assert calls == [(2000, 5)]
    assert not clause.passed
    assert clause.value == scan_min_sectional(metric, 2000, seed=5).min_value
    assert clause.detail == (
        "undecided: k is neither an ideal nor abelian; the value is the "
        "minimum over 2000 seeded random planes, which proves nothing")
