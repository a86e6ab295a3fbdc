"""Rotationally symmetric disc profiles and the boundary-matching
certificate for the two-disc gluing.

The codimension-two gluing needs, on each half, a metric of the form
dt^2 + f(t)^2 dtheta^2 on the normal disc, warped against a deformed
group metric. The profile f must close the disc smoothly (f(0) = 0,
f'(0) = 1), stay concave so the disc curvature -f''/f is nonnegative,
and become constant before the boundary so the metric is a product there.
The constant it must reach is pinned by the deformation: with subalgebra
scale a > 1 and gluing-circle radius r, the boundary metrics of the two
halves agree exactly when f^2 hits the matching level a r^2 / (a - 1).
That level only exists for a > 1, and the group side only stays
nonnegatively curved (abelian shrunk block) for a <= 4/3, which is why
the whole construction lives in the window 1 < a <= 4/3.

The built-in profile, the capped sine F sin(t/F) of
ProfileFunction.capped_sine, proves its shape clauses from its closed
form: neither its construction nor its certificate evaluates f, f' or
f'' on the grid, and its grid and samples are built only when something
reads them, such as export_csv. A profile built from other closed forms
has no such proof: construction validates it on samples at the grid
points, but a grid cannot see between its points, so its certificate
fails those three clauses and samples nothing.

The scale tests read the integers of the exact values: with a = p/q
and r = s/u (positive denominators), a > 1 is p > q, r > 0 is s > 0,
and the matching level is p s^2 / ((p - q) u^2), built as one Fraction.
"""

import csv
import math
import sys
from collections import namedtuple
from functools import cached_property

import numpy as np

from .deform import MAX_PLANES, _decide, scan_min_sectional
from .errors import (NoFiniteMatchingError, ParameterError, ProfileError,
                     disc_radius, exact_real, require_count, require_seed)

#: The plateau values F = r sqrt(a/(a-1)) that glue_params accepts: those
#: on which building, certifying and exporting a capped-sine profile runs
#: in floats without overflow. Measured with `milnor glue --csv` under
#: warnings-as-errors for a from 1 + 1e-9 to 1e3, and for 1e5 and 1e6
#: near both ends: at F = 1e-155 the disc curvature -f''/f = 1/F^2
#: overflows, and past about 1.3e154 so does F^2.
PLATEAU_MIN = 1e-154
PLATEAU_MAX = 1e154
#: The most grid points a profile takes, checked on grid_step before
#: anything is allocated. Measured at 10^6 points on the capped sine for
#: a = 4/3, r = 1: the grid takes 16 bytes a point, sampling f, f', f''
#: on it peaks at 57 and a user-built profile's construction, which
#: samples and validates, at 65 bytes a point and 0.07 s; so at the cap a
#: profile takes about 65 MB. A step leaving 4e155 points used to fail in
#: np.arange with a bare ValueError, and one leaving 1e9 would have taken
#: gigabytes before any check.
MAX_GRID_POINTS = 10 ** 6
#: The integer ratios of the floats PLATEAU_MIN ** 2 and PLATEAU_MAX ** 2,
#: the exact bounds of the plateau square.
_PLATEAU_SQ_MIN = (PLATEAU_MIN ** 2).as_integer_ratio()
_PLATEAU_SQ_MAX = (PLATEAU_MAX ** 2).as_integer_ratio()


def _level(a, r):
    """The numerator and denominator of a r^2 / (a - 1) for the exact a
    and r, p s^2 and (p - q) u^2 for a = p/q and r = s/u, not reduced;
    ParameterError unless r > 0, NoFiniteMatchingError unless a > 1."""
    p, q = a.numerator, a.denominator
    s, u = r.numerator, r.denominator
    if s <= 0:
        raise ParameterError("radius r must be positive")
    if p <= q:
        raise NoFiniteMatchingError(
            "no finite matching level for a <= 1 (got a = {})".format(_show(a)))
    return p * s * s, (p - q) * u * u


def matching_level_sq(a, r):
    """Square of the plateau value, a r^2 / (a - 1), as an exact Fraction
    of the exact a and r (see errors.exact_real); requires a > 1 for a
    finite level and r > 0.
    """
    a, r = exact_real(a, "a"), exact_real(r, "radius r")
    return type(a)(*_level(a, r))   # glue never imports fractions


class GlueParams(namedtuple("GlueParams",
                            "a r plateau plateau_sq t_plateau")):
    """Gluing data: the exact subalgebra scale a and gluing-circle radius r
    (Fractions), and the derived plateau: its exact square plateau_sq, and
    the floats plateau and t_plateau."""
    __slots__ = ()


def _show(q):
    """The Fraction q to six digits for a message; it may not fit a float."""
    from decimal import Decimal  # loaded already by fractions

    return "{:.6g}".format(Decimal(q.numerator) / q.denominator)


def glue_params(a, r):
    """GlueParams for scale a and radius r; raises ParameterError when the
    plateau lies outside [PLATEAU_MIN, PLATEAU_MAX]."""
    a, r = exact_real(a, "a"), exact_real(r, "radius r")
    n, d = _level(a, r)
    (low_n, low_d), (high_n, high_d) = _PLATEAU_SQ_MIN, _PLATEAU_SQ_MAX
    if not (low_n * d <= n * low_d and n * high_d <= high_n * d):
        raise ParameterError(
            "a = {} and r = {} put the plateau r sqrt(a/(a-1)) outside "
            "[{:g}, {:g}]".format(_show(a), _show(r), PLATEAU_MIN, PLATEAU_MAX))
    # n / d rounds correctly, as the float of the square does
    plateau = math.sqrt(n / d)
    return GlueParams(a=a, r=r, plateau=plateau, plateau_sq=type(a)(n, d),
                      t_plateau=math.pi * plateau / 2.0)


def _at(fn, t):
    """The closed form fn at the float t, as a float."""
    return float(fn(np.asarray(t, dtype=float)))


class ProfileFunction:
    """Piecewise-smooth warping profile on a grid.

    value, derivative and second_derivative are vectorized closed forms
    for f, f', f'': a float array goes in, an array of its shape comes
    out, and a scalar return (``lambda t: 0.0``) is broadcast. glue is
    the GlueParams the profile is built for; t_plateau, plateau and
    plateau_sq are read from it. The grid (step grid_step, running past
    the plateau to 1.25 t_plateau, at most MAX_GRID_POINTS points) is
    built on its first read; construction checks its step and size. The
    table of f, f', f'' on it and at the join points
    t_plateau -+ 1e-9 t_plateau is built on its first read, by sample(),
    validate() or export_csv, and each closed form runs once for it. The
    evaluations read their radius t through errors.disc_radius.

    Construction validates the profile: by _proof, the closed-form proof
    of its shape clauses, where the profile has one (capped_sine), and by
    validate() on the table where it has none.
    """

    def __init__(self, value, derivative, second_derivative, glue,
                 grid_step=None):
        self._f = value
        self._fp = derivative
        self._fpp = second_derivative
        self.glue = glue
        self.t_plateau = glue.t_plateau
        self.plateau = glue.plateau
        self.plateau_sq = glue.plateau_sq
        if grid_step is None:
            grid_step = self.t_plateau / 1000.0
        # a finite float compares with t_plateau exactly as it is; any
        # other step is read exactly first
        if not isinstance(grid_step, float) or not math.isfinite(grid_step):
            grid_step = exact_real(grid_step, "grid_step")
        # exactly, then on the float the grid is built from
        if not 0 < grid_step < self.t_plateau or not float(grid_step):
            raise ParameterError("grid_step must be in (0, t_plateau)")
        self.grid_step = float(grid_step)
        span = 1.25 * self.t_plateau / self.grid_step   # steps, maybe inf
        if not span <= MAX_GRID_POINTS - 1:
            raise ParameterError(
                "grid_step must leave at most {} grid points, got {:.3g}".format(
                    MAX_GRID_POINTS, span + 1))
        self._steps = math.ceil(span)
        if not self._proof()[0].passed:     # no proof: check the samples
            self.validate()

    @classmethod
    def capped_sine(cls, a, r, grid_step=None):
        """F sin(t/F) up to the quarter period t0 = pi F / 2, constant F
        beyond, where F is the matching level for (a, r). The join is C^1:
        f' runs down to 0 at t0 while f'' jumps from -1/F to 0, so
        concavity holds weakly and the disc curvature -f''/f drops from
        1/F^2 to 0. Its shape clauses are proven from this closed form
        (_CappedSine).
        """
        params = glue_params(a, r)
        F = params.plateau
        t0 = params.t_plateau

        # np.where evaluates both branches: the argument is capped at t0
        # so that the discarded one cannot overflow at a large t
        def value(t):
            return np.where(t < t0, F * np.sin(np.minimum(t, t0) / F), F)

        def derivative(t):
            return np.where(t < t0, np.cos(np.minimum(t, t0) / F), 0.0)

        def second_derivative(t):
            return np.where(t < t0, -np.sin(np.minimum(t, t0) / F) / F, 0.0)

        return _CappedSine(value, derivative, second_derivative, params,
                           grid_step)

    def _proof(self):
        """The profile_shape, disc_curvature and product_near_boundary
        clauses as a closed form proves them. This profile has no such
        proof, and construction's grid check cannot see between grid
        points, so each clause fails with its trivial bound as value:
        1.0, -inf and +inf."""
        checked = ("not proven: construction checked the profile only on {} "
                   "grid points and the two join points".format(self._steps + 1))
        return (ClauseResult("profile_shape", False, 1.0, 0.0, checked),
                ClauseResult("disc_curvature", False, -math.inf, -1e-9, checked),
                ClauseResult("product_near_boundary", False, math.inf, 1e-12,
                             checked))

    @cached_property
    def grid(self):
        """The grid points 0, grid_step, ..., past 1.25 t_plateau."""
        return np.arange(self._steps + 1) * self.grid_step

    @cached_property
    def _ts(self):
        """The grid, then the join points t_plateau -+ 1e-9 t_plateau."""
        eps = 1e-9 * self.t_plateau
        return np.append(self.grid, (self.t_plateau - eps, self.t_plateau + eps))

    @cached_property
    def _samples(self):
        """Rows f, f', f'' at _ts, read-only."""
        table = np.empty((3, self._ts.size))
        for row, fn in zip(table, (self._f, self._fp, self._fpp)):
            row[:] = fn(self._ts)
        table.flags.writeable = False
        return table

    # -- evaluation ---------------------------------------------------------

    # Each takes a radius t, a real number >= 0 with a finite float, and
    # raises ParameterError for anything else (errors.disc_radius).

    def value(self, t):
        return _at(self._f, disc_radius(t))

    def derivative(self, t):
        return _at(self._fp, disc_radius(t))

    def second_derivative(self, t):
        return _at(self._fpp, disc_radius(t))

    def value_sq(self, t):
        """f(t)^2: on the plateau the exact plateau square."""
        t = disc_radius(t)
        if t >= self.t_plateau:
            return self.plateau_sq
        return _at(self._f, t) ** 2

    def disc_curvature(self, t):
        """Rotational curvature -f''/f; undefined at the origin."""
        t = disc_radius(t)
        f = _at(self._f, t)
        if f == 0.0:
            raise ParameterError("disc curvature is undefined where f = 0")
        return -_at(self._fpp, t) / f

    def sample(self):
        """The grid and f on it, from the sample table."""
        return self.grid, self._samples[0, :self.grid.size]

    # -- invariants ---------------------------------------------------------

    def validate(self):
        """Raise ProfileError on any violated construction invariant."""
        if abs(self.value(0.0)) > 1e-12:
            raise ProfileError("profile must vanish at the origin")
        h = 1e-4 * self.plateau
        slope = self.value(h) / h
        if abs(slope - 1.0) > 1e-8 or abs(self.derivative(0.0) - 1.0) > 1e-8:
            raise ProfileError(
                "profile must close the disc with unit slope, got {:.12g}".format(slope))
        f, fp, fpp = self._samples
        worst = float(np.max(fpp))
        if worst > 1e-9:
            raise ProfileError(
                "profile must be concave, found f'' = {:.3g}".format(worst))
        past = self._ts >= self.t_plateau
        gap = np.fmax(np.abs(f - self.plateau), np.abs(fp))
        unfrozen = past & (gap > 1e-12)
        nonpositive = ~past & (self._ts > 0.0) & (f <= 0.0)
        bad = np.flatnonzero(unfrozen | nonpositive)
        if bad.size:
            # the first failing checkpoint names the broken invariant
            raise ProfileError(
                "profile must be constant past the plateau" if past[bad[0]]
                else "profile must stay positive before the plateau")

    # -- export -------------------------------------------------------------

    def export_csv(self, path):
        """Write (t, f, orbit_factor) rows."""
        a, r = self.glue.a, self.glue.r
        ts, fs = self.sample()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "f", "orbit_factor"])
            for t, f in zip(ts.tolist(), fs.tolist()):
                f2 = self.plateau_sq if t >= self.t_plateau else f ** 2
                factor = float(_orbit_factor(f2, a, r))
                writer.writerow(["{:.17g}".format(t), "{:.17g}".format(f),
                                 "{:.17g}".format(factor)])


class _CappedSine(ProfileFunction):
    """The capped sine of ProfileFunction.capped_sine, F sin(t/F) before
    t0 = pi F / 2 and F past it, with F the glue's plateau: its shape
    clauses hold by this closed form, so neither construction nor a
    certificate samples it."""

    def _proof(self):
        """f(0) = 0 and f'(0) = cos 0 = 1; before t0, t/F lies in
        [0, pi/2), so f > 0 and f'' = -sin(t/F)/F <= 0 and
        -f''/f = 1/F^2; past t0, f = F and f' = f'' = 0. The minimum of
        -f''/f over t > 0 is therefore 0, reached past t0, and f is
        frozen there with no gap."""
        return (
            ClauseResult("profile_shape", True, 0.0, 0.0,
                         "proven from the closed form F sin(t/F) capped at "
                         "t0 = pi F/2"),
            ClauseResult("disc_curvature", True, 0.0, -1e-9,
                         "-f''/f is 1/F^2 before t0 and 0 past it, proven "
                         "from the closed form"),
            ClauseResult("product_near_boundary", True, 0.0, 1e-12,
                         "f = F and f' = 0 past t0, proven from the closed "
                         "form"))


def _orbit_factor(f2, a, r):
    """f^2 a / (f^2 + a r^2) of the exact a and r. For a float f^2, as
    f^2 / (f^2 / a + r^2) so that no float exceeds the plateau square.
    For an exact f^2 = N/D, as it is on the plateau, one Fraction of
    integer products: with a = p/q and r = s/u it is
    N p u^2 / (N q u^2 + D p s^2)."""
    if isinstance(f2, float):
        return f2 / (f2 / a + r * r)
    n, d = f2.numerator, f2.denominator
    p, q = a.numerator, a.denominator
    s, u = r.numerator, r.denominator
    nu2 = n * u * u
    return type(a)(nu2 * p, nu2 * q + d * p * s * s)


def orbit_metric_factor(profile, t):
    """Relative scale the quotient puts on the gluing-circle direction at
    radius t: f(t)^2 a / (f(t)^2 + a r^2), with a, r from profile.glue.

    Climbs from 0 at the origin to exactly 1 when f^2 reaches the matching
    level, which is the boundary-matching identity that makes the two
    halves glue. Exact (a Fraction) on the plateau.
    """
    return _orbit_factor(profile.value_sq(t), profile.glue.a, profile.glue.r)


class ClauseResult(namedtuple("ClauseResult",
                              "name passed value tolerance detail",
                              defaults=("",))):
    """One clause of a GluingCertificate.

    name is the clause's name (nonneg_certificate lists them) and passed
    whether it holds. value is the quantity the clause reads, as a float:
    the scale a, the dimension of k, a scale or plateau gap, or, for the
    three profile clauses and metric_nonneg, the proven bound, and the
    trivial bound for an unproven clause. A refuted metric_nonneg gives
    its witness plane's sectional curvature and an undecided one a
    scan's minimum. tolerance is the bound value is set against, for the
    reader: passed is the verdict. detail says in words how the clause
    was decided.
    """
    __slots__ = ()


class GluingCertificate(namedtuple("GluingCertificate", "passed clauses")):
    """The clauses of nonneg_certificate, a tuple of ClauseResult in its
    order, and passed, whether every one of them passed."""
    __slots__ = ()

    def failed(self):
        """The clauses that did not pass, as a list in certificate order."""
        return [c for c in self.clauses if not c.passed]

    def clause(self, name):
        """The clause called name; KeyError when there is none."""
        for c in self.clauses:
            if c.name == name:
                return c
        raise KeyError(name)


def nonneg_certificate(profile, metric, planes=10_000, seed=0):
    """Certify the ingredients of the nonnegatively curved disc gluing.

    The gluing data is profile.glue. Clauses, in order: the deformation
    scale sits in (1, 4/3]; the shrunk block is abelian; profile and
    metric agree on the scale; the profile plateau squares to the
    matching level; the profile's own shape invariants hold; the disc
    curvature -f''/f is nonnegative; the metric is a product past the
    plateau (f frozen); and the deformed metric is nonnegatively curved.
    Returns a certificate carrying every clause; passed means all clauses
    passed.

    The three profile clauses (profile_shape, disc_curvature,
    product_near_boundary) pass only on a closed-form proof, the capped
    sine's: with value 0.0 and a detail saying "proven from the closed
    form". Any other profile fails them, with the trivial bounds 1.0,
    -inf and +inf as values and a detail saying that they are not
    proven; the certificate evaluates nothing on the grid for them.

    metric_nonneg reads deform._decide, which is exact. Proven, it passes
    with value 0.0, the proven lower bound, and its detail names the
    rule. Refuted, it fails with the witness plane's sectional curvature
    as value, and its detail says where the plane lies and gives its
    exact Fraction. Undecided, it fails, and only then is a seeded scan
    of `planes` planes run; its minimum is the value. metric_nonneg never
    passes on a sample. planes and seed are checked first, whatever the
    verdict.
    """
    require_count(planes, "planes", MAX_PLANES)
    require_seed(seed)
    params = profile.glue
    clauses = []
    a = metric.a

    # decided on the exact scale p/q: a float just past 4/3 is past it
    exact = metric.a_exact
    p, q = exact.numerator, exact.denominator
    in_window = q < p and 3 * p <= 4 * q
    clauses.append(ClauseResult(
        "deformation_range", in_window, a, 4.0 / 3.0,
        "need 1 < a <= 4/3"))

    abelian = metric._abelian       # the abelian rule reads the same value
    clauses.append(ClauseResult(
        "abelian_block", abelian, float(metric.split.dim_k), 0.0,
        "shrunk subalgebra must be abelian for nonnegativity at a > 1"))

    # exact too: a profile just past 4/3 must not match a metric at 4/3
    same = params.a == exact
    if same:
        shown = 0.0
    else:
        scale_gap = abs(params.a - exact)
        shown = float(scale_gap) if scale_gap <= sys.float_info.max else math.inf
    clauses.append(ClauseResult(
        "scale_match", same, shown, 0.0,
        "profile and metric must use the same exact deformation scale"))
    level = profile.value_sq(profile.t_plateau)
    gap = 0.0 if level == params.plateau_sq else float(
        abs(level - params.plateau_sq))
    clauses.append(ClauseResult(
        "plateau_match", gap <= 1e-8, gap, 1e-8,
        "plateau square must equal a r^2/(a-1)"))

    clauses.extend(profile._proof())

    verdict, proof = _decide(metric)
    if verdict == "nonnegative":
        passed, value, detail = True, 0.0, "proven by the {} rule".format(proof)
    elif verdict == "negative":
        passed, value, detail = False, float(proof.value), (
            "{} has exact sectional curvature {}".format(proof.plane, proof.value))
    else:
        scan = scan_min_sectional(metric, n_planes=planes, seed=seed)
        passed, value, detail = False, scan.min_value, (
            "undecided: {}; the value is the minimum over {} seeded random "
            "planes, which proves nothing".format(proof, planes))
    clauses.append(ClauseResult("metric_nonneg", passed, value, -1e-9, detail))

    return GluingCertificate(passed=all(c.passed for c in clauses),
                             clauses=tuple(clauses))
