"""Disc-gluing profiles: matching level, capped-sine shape, exact factor
identity at the plateau, and the nonnegativity certificate."""

import csv
import math
from fractions import Fraction

import numpy as np
import pytest

from milnor.deform import DeformedMetric
from milnor.errors import NoFiniteMatchingError, ParameterError, ProfileError
from milnor.glue import (
    ProfileFunction,
    glue_params,
    matching_level,
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
    assert abs(matching_level(Fraction(4, 3), 1) - 2.0) < 1e-15


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
    with pytest.raises(ParameterError, match="outside"):
        matching_level(a, r)


@pytest.mark.parametrize("a, r", [(Fraction(4, 3), 1e-154), (Fraction(4, 3), 1e153),
                                  (1000.0, 1e153), (Fraction(11, 10), 1e-154)])
def test_plateaus_at_the_ends_of_the_range_certify_and_export(tmp_path, a, r):
    """Near either end of [PLATEAU_MIN, PLATEAU_MAX] the profile, its
    certificate and its CSV stay finite, with no numeric warning."""
    profile = ProfileFunction.capped_sine(a, r)
    metric = circle_metric(a)
    cert = nonneg_certificate(profile, metric, planes=50)
    assert cert.passed == (1 < a <= Fraction(4, 3))
    assert all(math.isfinite(c.value) for c in cert.clauses
               if c.name != "plateau_match")
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


def test_certificate_rejects_nonabelian_block():
    alg = Su2Power(2)
    metric = DeformedMetric(ReductiveSplit.diagonal(alg), Fraction(4, 3))
    profile = ProfileFunction.capped_sine(Fraction(4, 3), 1)
    cert = nonneg_certificate(profile, metric, planes=2000, seed=0)
    assert not cert.passed
    assert not cert.clause("abelian_block").passed


def convex_profile():
    params = glue_params(Fraction(4, 3), 1)
    t0 = params.t_plateau
    return ProfileFunction(
        value=lambda t: np.minimum(t * t / t0, float(params.plateau)),
        derivative=lambda t: np.where(t < t0, 2.0 * t / t0, 0.0),
        second_derivative=lambda t: np.where(t < t0, 2.0 / t0, 0.0),
        t_plateau=t0, plateau=float(params.plateau),
        plateau_sq=params.plateau_sq, glue=params, validate=False)


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
            t_plateau=params.t_plateau, plateau=float(params.plateau),
            plateau_sq=params.plateau_sq, glue=params)


def sine_cap(params, value=None):
    """The capped sine's closed forms for params, with f replaced by
    value when given."""
    F, t0 = params.plateau, params.t_plateau
    return dict(
        value=value or (lambda t: np.where(t < t0, F * np.sin(t / F), F)),
        derivative=lambda t: np.where(t < t0, np.cos(t / F), 0.0),
        second_derivative=lambda t: np.where(t < t0, -np.sin(t / F) / F, 0.0),
        t_plateau=t0, plateau=F, plateau_sq=params.plateau_sq, glue=params)


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


def test_certificate_plateau_match_fails_off_window(tmp_path):
    """A profile built for one (a, r) but certified against a metric with a
    different deformation parameter must fail the plateau comparison."""
    profile = ProfileFunction.capped_sine(Fraction(4, 3), 1)
    cert = nonneg_certificate(profile, circle_metric(Fraction(5, 4)),
                              planes=1000, seed=0)
    assert not cert.passed
    assert not cert.clause("scale_match").passed


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
    psq = profile.plateau_sq
    on_plateau = float(psq / (psq / a + r * r))
    if isinstance(a, Fraction):
        assert on_plateau == 1.0
    for t, f, factor in rows:
        if t >= profile.t_plateau:
            assert factor == on_plateau
        else:
            assert factor == f ** 2 / (f ** 2 / a + r * r), t
